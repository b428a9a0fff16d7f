"""Per-layer spans and counts, installed around the prover from outside.

The prover's modules import each other's functions by name (`from .trs
import rewrite_steps`), so a wrapper only sees the calls that go through a
namespace it was bound in.  `Tracer.install` therefore rebinds every name
that holds a traced function in every `uncprover` module, and `restore`
puts the originals back.

A span records name, start, end and parent.  Spans are kept in flat arrays
in memory and written out once, after the traced passes.  The `terms`
primitives are called hundreds of thousands of times per pass, so they get
counters and no timers.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

#: Functions that get a span, by module.
SPANNED = {
    "cops": ("parse_cops",),
    "strategy": ("prove_unc",),
    "criteria": ("strongly_non_overlapping", "non_omega_overlapping",
                 "right_reducible", "parallel_closed_check",
                 "strongly_closed_check", "weight_decreasing_unc",
                 "step1_remainders", "step1_reducts", "conv1_remainders",
                 "step2_remainders"),
    "completion": ("unc_complete", "disprove_search", "validate_witness",
                   "rule_reverse_mapped", "direct_sum_decompose"),
    "ctrs": ("conditional_critical_pairs", "conditional_linearize"),
    "trs": ("conversion_class", "development_step_reducts", "bounded_reducts",
            "parallel_step_reducts", "rewrite_steps", "is_normal_form",
            "critical_pairs"),
}
#: Functions that only get a call counter.
COUNTED = {"terms": ("match", "mgu", "unifiable_rational")}

METHOD_TAGS = ("sno", "omega", "rr", "pcl", "scl", "wd", "cp", "sc", "dc",
               "rev+sc", "rev+dc")


def _metric_tag(tag: str) -> str:
    return tag.replace("+", "-")


#: Every per-layer metric, with its unit and the direction that is better.
PER_LAYER: list[tuple[str, str, str]] = (
    [(f"trs.conversion_class.{k}", u, "lower") for k, u in
     (("calls", "count"), ("self_s", "s"), ("members", "count"), ("cut", "count"))]
    + [(f"criteria.{f}.self_s", "s", "lower") for f in
       ("step1_remainders", "step1_reducts", "conv1_remainders", "step2_remainders")]
    + [("criteria.eq_states_cache.hits", "count", "higher"),
       ("criteria.eq_states_cache.misses", "count", "lower"),
       ("criteria.reports.truncated", "count", "lower")]
    + [(f"trs.development_step_reducts.{k}", u, "lower") for k, u in
       (("calls", "count"), ("self_s", "s"), ("terms", "count"), ("truncated", "count"))]
    + [(f"trs.bounded_reducts.{k}", u, "lower") for k, u in
       (("calls", "count"), ("self_s", "s"), ("terms", "count"))]
    + [("trs.parallel_step_reducts.calls", "count", "lower"),
       ("trs.parallel_step_reducts.self_s", "s", "lower")]
    + [(f"completion.unc_complete.{k}", u, "lower") for k, u in
       (("calls", "count"), ("self_s", "s"), ("rounds", "count"),
        ("added_rules", "count"))]
    + [(f"trs.{f}.{k}", u, "lower") for f in ("rewrite_steps", "is_normal_form")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"terms.{f}.calls", "count", "lower") for f in ("match", "mgu", "unifiable_rational")]
    + [(f"trs.critical_pairs.{k}", u, "lower") for k, u in
       (("calls", "count"), ("self_s", "s"), ("pairs", "count"))]
    + [(f"ctrs.conditional_critical_pairs.{k}", u, "lower") for k, u in
       (("calls", "count"), ("self_s", "s"), ("pairs", "count"))]
    + [("ctrs.conditional_linearize.self_s", "s", "lower"),
       ("completion.direct_sum_decompose.self_s", "s", "lower"),
       ("completion.direct_sum_decompose.components", "count", "lower"),
       ("strategy.prove_unc.self_s", "s", "lower")]
    + [(f"completion.{f}.{k}", u, "lower")
       for f in ("disprove_search", "validate_witness", "rule_reverse_mapped")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"method.{_metric_tag(t)}.{k}", u, better) for t in METHOD_TAGS
       for k, u, better in (("attempts", "count", "lower"),
                            ("decided", "count", "higher"),
                            ("total_s", "s", "lower"))]
    + [("cops.parse_cops.calls", "count", "lower"),
       ("cops.parse_cops.self_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def _decided(result) -> bool:
    """Whether a method's entry call returned a definite answer."""
    if isinstance(result, bool):
        return result
    if hasattr(result, "holds"):  # CriterionReport
        return result.holds
    if hasattr(result, "status"):  # completion Verdict
        return result.status in ("UNC", "NOT_UNC")
    return result is not None  # disprove_search's witness


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict = {}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, list[int]] = {}
        self.entry_info: dict[int, tuple[str, bool]] = {}
        self.bound: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "uncprover" or n.startswith("uncprover.")]
        wrappers = {}
        for mod, names in SPANNED.items():
            for name in names:
                fn = getattr(sys.modules[f"uncprover.{mod}"], name)
                wrappers[id(fn)] = (fn, self._spanned(fn, f"{mod}.{name}"))
        for mod, names in COUNTED.items():
            for name in names:
                fn = getattr(sys.modules[f"uncprover.{mod}"], name)
                wrappers[id(fn)] = (fn, self._counted(fn, f"{mod}.{name}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.bound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, original in reversed(self.bound):
            setattr(module, attr, original)
        self.bound.clear()

    def _spanned(self, fn, name: str):
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_of[name]
        on_return = _ON_RETURN.get(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(clock())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, idx, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        cell = self.calls.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls, self times and counts per layer, and per-method attempts."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self.end[i] - self.start[i] - child[i]
        for name, cell in self.calls.items():
            out[f"{name}.calls"] = cell[0]
        out.update(self.counts)
        self._method_metrics(out)
        return out

    def _method_metrics(self, out) -> None:
        """Attribute each method attempt from the direct children of a
        `prove_unc` span: an entry span opens the attempt, a preceding
        `rule_reverse_mapped` makes it a rev+ attempt, and the preparation
        before the entry and the witness check after it count towards its
        time.  A guard that rejects a system before any traced call (scl on
        a system that is not right-linear) leaves no attempt to count."""
        prove = self.name_of.get("strategy.prove_unc")
        kids: dict[int, list[int]] = defaultdict(list)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0 and self.span_name[p] == prove:
                kids[p].append(i)
        for children in kids.values():
            pending: list[int] = []
            current = None
            for i in children:
                name = self.names[self.span_name[i]]
                duration = self.end[i] - self.start[i]
                if i in self.entry_info:
                    base, decided = self.entry_info[i]
                    reverse = any(self.names[self.span_name[j]]
                                  == "completion.rule_reverse_mapped" for j in pending)
                    current = _metric_tag(("rev+" if reverse else "") + base)
                    out[f"method.{current}.attempts"] += 1
                    out[f"method.{current}.decided"] += decided
                    out[f"method.{current}.total_s"] += duration + sum(
                        self.end[j] - self.start[j] for j in pending)
                    pending = []
                elif name in ("completion.rule_reverse_mapped",
                              "ctrs.conditional_linearize"):
                    pending.append(i)
                    current = None
                elif name == "completion.validate_witness" and current:
                    out[f"method.{current}.total_s"] += duration

    def write(self, path: Path) -> None:
        """Write the spans as four flat arrays in native byte order, with a
        JSON header that names their layout."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name", "H"], ["parent", "l"], ["start", "d"], ["end", "d"]],
                  "itemsize": {"H": self.span_name.itemsize, "l": self.parent.itemsize,
                               "d": self.start.itemsize},
                  "byteorder": sys.byteorder, "clock": "time.perf_counter"}
        with open(f"{path}.bin", "wb") as fh:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
        Path(f"{path}.json").write_text(json.dumps(header, indent=1) + "\n")


def _on_unc_complete(tracer: Tracer, idx, args, kwargs, result) -> None:
    pred = args[1] if len(args) > 1 else kwargs["pred"]
    base = "sc" if pred.name == "strongly-closed" else "dc"
    tracer.entry_info[idx] = (base, _decided(result))
    tracer.counts["completion.unc_complete.rounds"] += result.rounds
    tracer.counts["completion.unc_complete.added_rules"] += len(result.added_rules)


def _on_conversion_class(tracer: Tracer, idx, args, kwargs, result) -> None:
    max_class = args[4] if len(args) > 4 else kwargs.get("max_class", 2000)
    tracer.counts["trs.conversion_class.members"] += len(result.members)
    tracer.counts["trs.conversion_class.cut"] += len(result.members) >= max_class


def _on_development(tracer: Tracer, idx, args, kwargs, result) -> None:
    terms, truncated = result
    tracer.counts["trs.development_step_reducts.terms"] += len(terms)
    tracer.counts["trs.development_step_reducts.truncated"] += truncated


def _count_len(metric: str):
    def on_return(tracer: Tracer, idx, args, kwargs, result) -> None:
        tracer.counts[metric] += len(result)
    return on_return


def _entry_for(base: str):
    """The hook of a method's entry function: remembers the attempt's outcome."""
    def hook(tracer: Tracer, idx, args, kwargs, result) -> None:
        tracer.entry_info[idx] = (base, _decided(result))
        if hasattr(result, "truncated"):  # CriterionReport
            tracer.counts["criteria.reports.truncated"] += result.truncated
    return hook


_ON_RETURN = {
    "criteria.strongly_non_overlapping": _entry_for("sno"),
    "criteria.non_omega_overlapping": _entry_for("omega"),
    "criteria.right_reducible": _entry_for("rr"),
    "criteria.parallel_closed_check": _entry_for("pcl"),
    "criteria.strongly_closed_check": _entry_for("scl"),
    "criteria.weight_decreasing_unc": _entry_for("wd"),
    "completion.disprove_search": _entry_for("cp"),
    "completion.unc_complete": _on_unc_complete,
    "trs.conversion_class": _on_conversion_class,
    "trs.development_step_reducts": _on_development,
    "trs.bounded_reducts": _count_len("trs.bounded_reducts.terms"),
    "trs.critical_pairs": _count_len("trs.critical_pairs.pairs"),
    "ctrs.conditional_critical_pairs": _count_len("ctrs.conditional_critical_pairs.pairs"),
    "completion.direct_sum_decompose": _count_len("completion.direct_sum_decompose.components"),
}
