"""Method portfolio orchestration: decompose, run methods in order, emit a
verdict with a certificate.

Method tags: sno, omega, pcl, scl, wd, rr, cp, sc, dc; a "rev+" prefix
runs the method on the rule-reversed system (sound either way, worthwhile
for the completion methods).  The first definitive answer wins.  The
timeout becomes the deadline of the one `config.Budgets` every method
receives; it is checked here between methods, and inside `cp`, `wd`, `sc`
and `dc`, whose clock cuts answer MAYBE.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .config import Budgets, DEFAULT_BUDGETS
from .cops import ProblemFile
from .completion import (
    DEVELOPMENT_CLOSED,
    STRONGLY_CLOSED,
    Trace,
    Witness,
    direct_sum_decompose,
    disprove_search,
    rule_reverse_mapped,
    translate_trace,
    unc_complete,
    validate_witness,
)
from .criteria import (
    non_omega_overlapping,
    parallel_closed_check,
    right_reducible,
    strongly_closed_check,
    strongly_non_overlapping,
    weight_decreasing_unc,
)
from .ctrs import conditional_linearize
from .trs import TRS

CERTIFICATE_FORMAT = "1"

DEFAULT_METHODS: tuple[str, ...] = (
    "sno", "omega", "rr", "cp", "pcl", "scl", "wd", "rev+sc", "rev+dc")

_KNOWN = {"sno", "omega", "pcl", "scl", "wd", "rr", "cp", "sc", "dc"}


@dataclass(frozen=True)
class StrategyConfig:
    methods: tuple[str, ...] = DEFAULT_METHODS
    rounds: int = 3
    budgets: Budgets = DEFAULT_BUDGETS
    timeout: float = 60.0

    def __post_init__(self) -> None:
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        for m in self.methods:
            base = m.removeprefix("rev+")
            if base not in _KNOWN:
                raise ValueError(f"unknown method {m!r}")


@dataclass(frozen=True)
class ProofResult:
    answer: str  # "YES" | "NO" | "MAYBE"
    #: for NO the disproving component's method, for YES the distinct
    #: methods of the components in order, comma-separated; else None
    method: Optional[str]
    certificate: str

    @property
    def exit_code(self) -> int:
        return 0 if self.answer in ("YES", "NO") else 1


def _render_trace(trace: Trace) -> list[str]:
    out = []
    for s in trace:
        arrow = "->" if s.forward else "<-"
        pos = ".".join(map(str, s.pos)) if s.pos else "root"
        out.append(f"  {s.src!r} {arrow} {s.dst!r}  (rule {s.rule} at {pos})")
    return out


def _witness_lines(w: Witness) -> list[str]:
    lines = [f"witness normal forms: {w.s!r}  and  {w.t!r}", "conversion trace:"]
    lines.extend(_render_trace(w.trace))
    return lines


@dataclass
class _MethodOutcome:
    verdict: str  # "YES" | "NO" | "MAYBE"
    lines: list[str] = field(default_factory=list)
    witness: Optional[Witness] = None


def _run_method(tag: str, R: TRS, config: StrategyConfig,
                budgets: Budgets) -> _MethodOutcome:
    base = tag.removeprefix("rev+")
    reversed_run = tag != base
    system = R
    origin = None
    if reversed_run:
        system, origin = rule_reverse_mapped(R)
    if base == "sno":
        if strongly_non_overlapping(system):
            return _MethodOutcome("YES", ["no critical pair survives linearization"])
        return _MethodOutcome("MAYBE")
    if base == "omega":
        if non_omega_overlapping(system):
            return _MethodOutcome(
                "YES", ["left-hand sides do not overlap over infinite trees"])
        return _MethodOutcome("MAYBE")
    if base == "rr":
        if system.rules and right_reducible(system):
            return _MethodOutcome("YES", ["every right-hand side is reducible"])
        return _MethodOutcome("MAYBE")
    if base == "pcl":
        report = parallel_closed_check(conditional_linearize(system), budgets)
        if report.holds:
            return _MethodOutcome("YES", ["linearization is parallel-closed",
                                          *report.details])
        return _MethodOutcome("MAYBE")
    if base == "scl":
        if not system.right_linear:
            return _MethodOutcome("MAYBE")
        report = strongly_closed_check(conditional_linearize(system), budgets)
        if report.holds:
            return _MethodOutcome("YES", ["system is right-linear and its "
                                          "linearization is strongly closed",
                                          *report.details])
        return _MethodOutcome("MAYBE")
    if base == "wd":
        report = weight_decreasing_unc(system, budgets)
        if report.holds:
            return _MethodOutcome("YES", ["all critical pairs of the separated "
                                          "linearization are weight-decreasing "
                                          "joinable", *report.details])
        return _MethodOutcome("MAYBE")
    if base == "cp":
        w = disprove_search(system, budgets)
        if w is None:
            return _MethodOutcome("MAYBE")
        if reversed_run:
            w = Witness(w.s, w.t, translate_trace(w.trace, origin))
        if not validate_witness(R, w):
            return _MethodOutcome("MAYBE", ["counterexample failed validation"])
        return _MethodOutcome("NO", _witness_lines(w), witness=w)
    if base in ("sc", "dc"):
        pred = STRONGLY_CLOSED if base == "sc" else DEVELOPMENT_CLOSED
        verdict = unc_complete(system, pred, config.rounds, budgets)
        if verdict.status == "UNC":
            lines = [f"completion ({pred.name}) succeeded in "
                     f"{verdict.rounds} round(s)"]
            if verdict.added_rules:
                lines.append("added rules:")
                lines.extend(f"  {r!r}" for r in verdict.added_rules)
            return _MethodOutcome("YES", lines)
        if verdict.status == "NOT_UNC":
            w = verdict.witness
            if reversed_run:
                w = Witness(w.s, w.t, translate_trace(w.trace, origin))
            if not validate_witness(R, w):
                return _MethodOutcome("MAYBE", ["counterexample failed validation"])
            return _MethodOutcome("NO", _witness_lines(w), witness=w)
        return _MethodOutcome("MAYBE", [verdict.reason])
    raise ValueError(f"unknown method {tag!r}")


def prove_unc(problem: Union[ProblemFile, TRS],
              config: StrategyConfig = StrategyConfig()) -> ProofResult:
    """Decide UNC of the problem with the configured method portfolio.

    The system is first split into direct-sum components; a component NO
    disproves the whole system, and all components must say YES for a YES.
    """
    R = problem.trs if isinstance(problem, ProblemFile) else problem
    budgets = replace(config.budgets, deadline=time.monotonic() + config.timeout)
    components = direct_sum_decompose(R)
    lines = [f"certificate-format: {CERTIFICATE_FORMAT}"]
    if len(components) > 1:
        lines.append(f"direct-sum decomposition into {len(components)} components")
    answers: list[str] = []
    tags: list[Optional[str]] = []
    for ci, comp in enumerate(components, 1):
        answer, tag = "MAYBE", None
        for m in config.methods:
            if time.monotonic() > budgets.deadline:
                lines.append(f"component {ci}: timeout")
                break
            outcome = _run_method(m, comp, config, budgets)
            if outcome.verdict != "MAYBE":
                answer, tag = outcome.verdict, m
                lines.append(f"component {ci} ({len(comp.rules)} rule(s)): "
                             f"{answer} via ({m})")
                lines.extend("  " + ln for ln in outcome.lines)
                break
        else:
            lines.append(f"component {ci}: no method applied")
        answers.append(answer)
        tags.append(tag)
        if answer == "NO":
            break
    if answers[-1] == "NO":
        final, method = "NO", tags[-1]
    elif all(a == "YES" for a in answers):
        final, method = "YES", ",".join(dict.fromkeys(tags))
    else:
        final, method = "MAYBE", None
        if time.monotonic() > budgets.deadline:
            lines.append("reason: timeout")
    return ProofResult(final, method, "\n".join(lines) + "\n")
