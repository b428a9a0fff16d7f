"""Method portfolio orchestration: decompose, run methods in order, emit a
verdict with a certificate.

Method tags are the keys of the table `METHODS`; a "rev+" prefix runs the
method on the rule-reversed system (sound either way, worthwhile for the
completion methods).  An entry declares the answers its method gives and
adapts one prover, looked up as a module global when it runs so that a
tracer rebinding the global sees the call; `_run_method` checks the
clock, takes the slice below, reverses, translates a reversed witness back
and replays every witness over the component's own rules, once for all
methods.

The order of `StrategyConfig.methods` sets which answer wins: the answer is
that of the first method in the list that gives one.  Every method is sound,
so a YES and a NO never meet, and `prove_unc` runs the disprove-only methods
(`cp`, `rev+cp`) lazily: it defers each one until its answer can decide the
outcome.  A prove-only method runs as listed.  A method that answers either
way (`sc`, `dc`) runs under a slice of `SLICE` times the timeout while a
disprover is pending; a YES is the answer, and on a NO or a cut the pending
disprovers run first, in list order, before a cut method runs again with
the time left.  Disprovers still pending at the end of the list run last.
With a short timeout the deferral shows: a deferred `cp` starts later than
its place in the list, and may run out of time where it would have answered.

The timeout becomes the deadline of the one `config.Budgets` every method
receives; it is checked here between methods, inside every method and in
the reversal of a "rev+" tag.  `cp`, `pcl`, `scl`, `wd`, `sc` and `dc`
catch their own clock cuts, and `_run_method` the others, which have no
report to carry one; a cut answers MAYBE.  A search that builds terms too
deep for Python's stack raises `RecursionError`; `pcl`, `scl` and `wd`
report it as a cut and `_run_method` catches it for the others, so that
method gives no answer and the portfolio goes on.  `pcl` and `scl` run a
closure predicate of `criteria` on a linearization, and `sc` and `dc` run
`completion.unc_complete` with one.  The budgets of one call carry one
pair memo (`Budgets.pairs`), so `sno`, `pcl`, `scl`, `wd` and `cp` build
each pair list once per call; a list cut by the clock is not kept.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from .config import Budgets, DEFAULT_BUDGETS
from .cops import ProblemFile
from .completion import (
    Witness,
    direct_sum_decompose,
    disprove_search,
    rule_reverse_mapped,
    translate_trace,
    unc_complete,
    validate_witness,
)
from .criteria import (
    DEVELOPMENT_CLOSED,
    STRONGLY_CLOSED,
    non_omega_overlapping,
    parallel_closed_check,
    right_reducible,
    strongly_closed_check,
    strongly_non_overlapping,
    weight_decreasing_unc,
)
from .ctrs import conditional_linearize
from .terms import check_depth
from .trs import TRS

CERTIFICATE_FORMAT = "1"

DEFAULT_METHODS: tuple[str, ...] = (
    "sno", "omega", "rr", "cp", "pcl", "scl", "wd", "rev+sc", "rev+dc")

#: Share of the timeout that a method answering either way gets while a
#: disprove-only method is pending.
SLICE = 0.01


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
        if not self.methods:
            raise ValueError("methods must not be empty")
        for m in self.methods:
            if m.removeprefix("rev+") not in METHODS:
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


def _witness_lines(w: Witness) -> list[str]:
    lines = [f"witness normal forms: {w.s!r}  and  {w.t!r}", "conversion trace:"]
    for s in w.trace:
        arrow = "->" if s.forward else "<-"
        pos = ".".join(map(str, s.pos)) if s.pos else "root"
        lines.append(f"  {s.src!r} {arrow} {s.dst!r}  (rule {s.rule} at {pos})")
    return lines


def _report(lead: str, report) -> Optional[list[str]]:
    return [lead, *report.details] if report.holds else None


def _completion(pred):
    def run(system: TRS, config: StrategyConfig, budgets: Budgets):
        verdict = unc_complete(system, pred, config.rounds, budgets)
        if verdict.status == "NOT_UNC":
            return verdict.witness
        if verdict.status != "UNC":
            return None
        lines = [f"completion ({pred.name}) succeeded in {verdict.rounds} round(s)"]
        if verdict.added_rules:
            lines.append("added rules:")
            lines.extend(f"  {r!r}" for r in verdict.added_rules)
        return lines
    return run


@dataclass(frozen=True)
class Method:
    """The answers a method gives, a subset of {"YES", "NO"}, and its adapter
    `(system S, config c, budgets b) -> YES lines | Witness | None`, which
    names its prover as a module global (see above)."""

    answers: frozenset[str]
    run: Callable


PROVES, DISPROVES, DECIDES = frozenset({"YES"}), frozenset({"NO"}), frozenset({"YES", "NO"})

#: Base tag -> `Method`.
METHODS = {
    "sno": Method(PROVES, lambda S, c, b: (
        ["no critical pair survives linearization"]
        if strongly_non_overlapping(S, b) else None)),
    "omega": Method(PROVES, lambda S, c, b: (
        ["left-hand sides do not overlap over infinite trees"]
        if non_omega_overlapping(S, b) else None)),
    "rr": Method(PROVES, lambda S, c, b: (
        ["every right-hand side is reducible"]
        if S.rules and right_reducible(S, b) else None)),
    "pcl": Method(PROVES, lambda S, c, b: _report(
        "linearization is parallel-closed",
        parallel_closed_check(conditional_linearize(S), b))),
    # the linearization is linear, as `STRONGLY_CLOSED` asks, iff `S` is right-linear
    "scl": Method(PROVES, lambda S, c, b: _report(
        "system is right-linear and its linearization is strongly closed",
        strongly_closed_check(conditional_linearize(S), b))),
    "wd": Method(PROVES, lambda S, c, b: _report(
        "all critical pairs of the separated linearization "
        "are weight-decreasing joinable", weight_decreasing_unc(S, b))),
    "cp": Method(DISPROVES, lambda S, c, b: disprove_search(S, b)),
    "sc": Method(DECIDES, _completion(STRONGLY_CLOSED)),
    "dc": Method(DECIDES, _completion(DEVELOPMENT_CLOSED)),
}


def _run_method(tag: str, R: TRS, config: StrategyConfig, budgets: Budgets,
                cut_at: Optional[float] = None) -> Optional[tuple[str, str, list[str]]]:
    """("YES" | "NO", tag, certificate lines) of one method on `R`, cut at
    `cut_at` if given, or None; `TimeoutError` if the deadline of `budgets`
    has passed before it starts.

    A witness found on the reversed system is translated back, and every
    witness is replayed over `R`'s own rules before it counts as a NO.  A
    clock cut that a prover does not catch itself, or a stack overflow,
    gives None; so does a cut reversal."""
    budgets.check()
    if cut_at is not None:
        budgets = replace(budgets, deadline=cut_at)
    base = tag.removeprefix("rev+")
    try:
        system, origin = rule_reverse_mapped(R, budgets) if tag != base else (R, None)
        found = METHODS[base].run(system, config, budgets)
    except (TimeoutError, RecursionError):
        return None
    if not isinstance(found, Witness):
        return None if found is None else ("YES", tag, found)
    if origin is not None:
        found = Witness(found.s, found.t, translate_trace(found.trace, origin))
    return ("NO", tag, _witness_lines(found)) if validate_witness(R, found) else None


def _first_answer(R: TRS, config: StrategyConfig, budgets: Budgets,
                  ) -> Optional[tuple[str, str, list[str]]]:
    """(answer, tag, certificate lines) of the first method in the order of
    `config.methods` that answers on `R`, or None; `TimeoutError` if the
    deadline passes before a method starts.

    The disprove-only methods are deferred, as the module docstring says.
    The result is that of running the list in order whenever no method is
    cut by the deadline."""
    pending: list[str] = []
    for tag in config.methods:
        answers = METHODS[tag.removeprefix("rev+")].answers
        if "YES" not in answers:
            pending.append(tag)
            continue
        if "NO" not in answers or not pending:
            found = _run_method(tag, R, config, budgets)
            if found is not None:
                return found
            continue
        cut_at = min(budgets.deadline, time.monotonic() + SLICE * config.timeout)
        found = _run_method(tag, R, config, budgets, cut_at)
        if found is not None and found[0] == "YES":
            return found
        if found is None and time.monotonic() <= cut_at:
            continue
        found = (_disprove(pending, R, config, budgets) or found
                 or _run_method(tag, R, config, budgets))
        if found is not None:
            return found
    return _disprove(pending, R, config, budgets)


def _disprove(pending: list[str], R: TRS, config: StrategyConfig, budgets: Budgets,
              ) -> Optional[tuple[str, str, list[str]]]:
    """The first answer of the `pending` disprovers, run in order, which
    leaves them run."""
    while pending:
        found = _run_method(pending.pop(0), R, config, budgets)
        if found is not None:
            return found
    return None


def prove_unc(problem: Union[ProblemFile, TRS],
              config: StrategyConfig = StrategyConfig()) -> ProofResult:
    """Decide UNC of the problem with the configured method portfolio.

    The system is first split into direct-sum components; a component NO
    disproves the whole system, and all components must say YES for a YES.
    The methods read no conditions, so a rule with conditions is refused
    with `ValueError`; so is a rule side nested deeper than
    `terms.MAX_DEPTH`, which would overflow the stack.  The call's budgets
    carry a fresh pair memo, in place of any that `config.budgets` holds.
    """
    R = problem.trs if isinstance(problem, ProblemFile) else problem
    if R.conditional:
        raise ValueError("prove_unc takes unconditional systems only")
    check_depth([t for r in R.rules for t in (r.lhs, r.rhs)])
    budgets = replace(config.budgets, deadline=time.monotonic() + config.timeout, pairs={})
    components = direct_sum_decompose(R)
    lines = [f"certificate-format: {CERTIFICATE_FORMAT}"]
    if len(components) > 1:
        lines.append(f"direct-sum decomposition into {len(components)} components")
    answers: list[str] = []
    tags: list[Optional[str]] = []
    for ci, comp in enumerate(components, 1):
        answer, tag = "MAYBE", None
        try:
            outcome = _first_answer(comp, config, budgets)
        except TimeoutError:
            lines.append(f"component {ci}: timeout")
        else:
            if outcome is None:
                lines.append(f"component {ci}: no method applied")
            else:
                answer, tag, found = outcome
                lines.append(f"component {ci} ({len(comp.rules)} rule(s)): "
                             f"{answer} via ({tag})")
                lines.extend("  " + ln for ln in found)
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
