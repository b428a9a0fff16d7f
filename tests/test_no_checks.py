"""The two checks of a NO: the prover's `completion.validate_witness` and the
benchmark's independent `bench/reference.py` replay.

Faults are planted in real witnesses, and each must be refused by both
checks, except the one fault that the replay accepts by design.  Then
every NO of the benchmark's non-probe items must replay.  The modules of
`bench/` are loaded by path and nothing there changes.
"""
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from uncprover.completion import (
    Witness,
    disprove_search,
    rule_reverse_mapped,
    validate_witness,
)
from uncprover.cops import parse_cops
from uncprover.strategy import StrategyConfig, _witness_lines, prove_unc

BENCH = Path(__file__).resolve().parent.parent / "bench"

PROJECTIONS = "(VAR x y)(RULES f(x,y) -> x f(x,y) -> y)"
ESCAPE = "(RULES b -> a b -> g(b))"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # `workloads` makes dataclasses, which look it up
    spec.loader.exec_module(module)
    return module


reference = _load("reference")


def _replay(w, text):
    certificate = "\n".join(_witness_lines(w)) + "\n"
    return reference.replay_no(certificate, *reference.parse_problem(text))


def _planted():
    """The witness of the projections f(x,y) -> x, f(x,y) -> y, and
    (fault, witness) for nine faults planted in it.  Each fault breaks one
    of the five checks of `validate_witness` and keeps the other four."""
    w = disprove_search(parse_cops(PROJECTIONS).trs)
    trace = w.trace
    back = tuple(s.reversed_() for s in reversed(trace))
    return w, {
        "equal endpoints": Witness(w.s, w.s, trace + back),
        "endpoint not a normal form": Witness(trace[0].dst, w.t, trace[1:]),
        "dropped first step": Witness(w.s, w.t, trace[1:]),
        "dropped last step": Witness(w.s, w.t, trace[:-1]),
        "dropped inner step": Witness(w.s, w.t, trace[:2] + trace[3:]),
        "flipped directions":
            Witness(w.s, w.t, tuple(replace(s, forward=not s.forward) for s in trace)),
        "wrong position": Witness(w.s, w.t, (replace(trace[0], pos=(1,)),) + trace[1:]),
        "empty trace": Witness(w.s, w.t, ()),
        "wrong rule index": Witness(w.s, w.t, (replace(trace[0], rule=0),) + trace[1:]),
    }


def test_the_unplanted_witness_passes_both_checks():
    w, _ = _planted()
    assert w.s != w.t and len(w.trace) == 4 and w.trace[0].rule == 1
    assert validate_witness(parse_cops(PROJECTIONS).trs, w)
    assert _replay(w, PROJECTIONS) is None


@pytest.mark.parametrize("fault", list(_planted()[1]))
def test_both_checks_refuse_a_planted_fault(fault):
    w = _planted()[1][fault]
    assert not validate_witness(parse_cops(PROJECTIONS).trs, w)
    reason = _replay(w, PROJECTIONS)
    if fault == "wrong rule index":
        # any rule of a component may justify a step, and rule 1 still
        # rewrites f(y,w11) to w11 at the root
        assert reason is None
    else:
        assert reason is not None


def test_both_checks_refuse_a_witness_of_the_reversed_system():
    # the trace steps g(b) -> b by the flipped rule, which the original
    # system only takes backwards
    R = parse_cops(ESCAPE).trs
    S, origin = rule_reverse_mapped(R)
    assert origin == (("kept", 0), ("flip", 1))
    w = disprove_search(S)
    assert validate_witness(S, w)
    assert not validate_witness(R, w)
    assert _replay(w, ESCAPE) == "no rule rewrites ('g', (('b', ()),)) to ('b', ()) at ()"


def test_every_no_of_the_benchmark_items_replays():
    # the items that `scripts/verdict_digest.py` pins: all but the probes
    workloads = _load("workloads")
    replayed = 0
    for name in workloads.WORKLOADS:
        for item in workloads.build(name):
            if item.timeout != workloads.TIMEOUT:
                continue
            config = StrategyConfig(methods=item.methods, timeout=item.timeout)
            result = prove_unc(parse_cops(item.text), config)
            if result.answer == "NO":
                rules, signature = reference.parse_problem(item.text)
                assert reference.replay_no(result.certificate, rules, signature) is None, \
                    item.name
                replayed += 1
    assert replayed == 48
