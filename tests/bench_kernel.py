"""Microbenchmarks of the rewrite and unification kernel under completion,
of the weight-decreasing check, of rule reversal, of the conversion
classes of the disproof search, of a parallel-closure check, of the
conditional layer: the two linearizations, their critical pairs and
congruence closure, also on a deep chain, and of the default portfolio,
whose methods share each call's pair lists, also on a one-rule system.

Run with `pytest tests/bench_kernel.py`; the file name is outside the
`test_*.py` pattern, so the test suite does not collect it.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from uncprover.completion import disprove_search, rule_reverse_mapped, unc_complete
from uncprover.config import DEFAULT_BUDGETS
from uncprover.cops import parse_cops
from uncprover.criteria import DEVELOPMENT_CLOSED, parallel_closed_check, weight_decreasing_unc
from uncprover.ctrs import CongruenceClosure, conditional_linearize, lr_separated_linearize
from uncprover.strategy import prove_unc
from uncprover.terms import App, Var, mgu, renaming_apart, subterm_at, variables
from uncprover.trs import (
    TRS, Equation, RewriteRule, conversion_class, critical_pairs, rewrite_steps)

from conftest import CL, a, b, c, f, g, g_tower, ground_chain, x, y, z

COPS_126 = TRS.of([RewriteRule(f(f(x, y), z), f(f(x, z), f(y, z)))])
AC = TRS.of([RewriteRule(f(f(x, y), z), f(x, f(y, z))), RewriteRule(f(x, y), f(y, x))])
#: random-190 of the benchmark's random population
RANDOM_190 = TRS.of([RewriteRule(b, g(f(b, b))), RewriteRule(b, a), RewriteRule(b, b)])


def test_rewrite_steps_multistep_family(benchmark):
    # a -> b, a -> c, g(a,...,a) -> d: every argument is a redex
    n = 8
    t = App("g", (a,) * n)
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c), RewriteRule(t, App("d"))])
    steps = benchmark(rewrite_steps, R, t)
    assert len(steps) == 1 + 2 * n


def test_mgu_cops126_overlap(benchmark):
    # the rule's lhs against its renamed copy's lhs at position 1
    rule = COPS_126.rules[0]
    ren = renaming_apart(sorted(variables(rule.lhs)), set(variables(rule.lhs)))
    inner = rule.rename(ren)
    sigma = benchmark(mgu, inner.lhs, subterm_at(rule.lhs, (1,)))
    assert sigma == {"x": f(Var("x1"), Var("y1")), "z1": y}


@pytest.fixture(scope="module")
def cops126_round3():
    """The system the third completion round of rev+dc sees on COPS_126."""
    R = rule_reverse_mapped(COPS_126)[0]
    verdict = unc_complete(R, DEVELOPMENT_CLOSED, max_rounds=2)
    return TRS(R.rules + verdict.added_rules)


def test_critical_pairs_cops126_round3(benchmark, cops126_round3):
    cps = benchmark.pedantic(critical_pairs, args=(cops126_round3,), rounds=3,
                             iterations=1)
    assert len(cops126_round3.rules) == 46 and len(cps) == 12437


def test_weight_decreasing_unc_ac(benchmark):
    report = benchmark.pedantic(weight_decreasing_unc, args=(AC,), rounds=3, iterations=1)
    assert report.holds is False
    assert report.failure == (
        "unclosed critical pair x11 = x2, y11 = y2, y1 = z2, f(x11,y11) = x, "
        "y1 = y, z1 = z => <f(f(x2,f(y2,z2)),z1), f(x,f(y,z))> [inner-outer]")


def test_rule_reverse_mapped_ground_chain(benchmark):
    # every c_i -> h(c_j) of the 800 rules is reversed into two rules, and
    # no loop c_i -> c_i is dropped, as nothing else reduces c_i
    R = ground_chain(400)
    reversed_, _ = benchmark.pedantic(rule_reverse_mapped, args=(R,), rounds=3,
                                      iterations=1)
    assert len(R.rules) == 800 and len(reversed_.rules) == 1200


def test_conversion_class_cl(benchmark):
    # the class of S's rhs, cut at `max_class` as under `cp`
    b_ = DEFAULT_BUDGETS
    cls = benchmark.pedantic(conversion_class, args=(CL, CL.rules[0].rhs, b_),
                             rounds=5, iterations=1)
    assert len(cls.members) == b_.max_class and cls.cut


def test_disprove_search_cl(benchmark):
    # CL is UNC: every seed's class is built to the cap and no witness found
    assert benchmark.pedantic(disprove_search, args=(CL,), rounds=5, iterations=1) is None


def test_parallel_closed_random_190(benchmark):
    # its first pair <a, g(f(b,b))> never joins: a and g start no lhs
    C = conditional_linearize(RANDOM_190)
    report = benchmark.pedantic(parallel_closed_check, args=(C,), rounds=5, iterations=1)
    assert report.failure == "unclosed critical pair {} => <a, g(f(b,b))> [overlay]"


@pytest.fixture(scope="module")
def workload_systems():
    """The 200 systems of the `random-portfolio` workload and the curated
    systems of `direct-criteria`, read from `bench/` as the benchmark
    builds them."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    texts = [item.text for item in workloads.build("random-portfolio")]
    texts += dict.fromkeys(item.text for item in workloads.build("direct-criteria"))
    return [parse_cops(text).trs for text in texts]


def _linearize_all(systems):
    return [(conditional_linearize(R), lr_separated_linearize(R)) for R in systems]


def test_linearizations_of_workload_systems(benchmark, workload_systems):
    linearized = benchmark.pedantic(_linearize_all, args=(workload_systems,), rounds=7,
                                    iterations=1)
    assert len(linearized) == 206


def _pairs_of_all(linearized):
    return [cp for Cs in linearized for C in Cs for cp in critical_pairs(C)]


def test_critical_pairs_of_workload_linearizations(benchmark, workload_systems):
    # each pair is keyed up to renaming, from one walk of its sides
    linearized = _linearize_all(workload_systems)
    pairs = benchmark.pedantic(_pairs_of_all, args=(linearized,), rounds=25, iterations=1)
    assert len(pairs) == 328


def _close_all(pairs):
    """Per pair, one closure of its conditions; every condition must hold
    in it.  Returns the number of pairs whose sides it identifies."""
    joined = 0
    for cp in pairs:
        cc = CongruenceClosure(cp.conditions)
        assert all(cc.entails(e.lhs, e.rhs) for e in cp.conditions)
        joined += cc.entails(cp.left, cp.right)
    return joined


def test_congruence_closure_of_workload_pairs(benchmark, workload_systems):
    pairs = _pairs_of_all(_linearize_all(workload_systems))
    joined = benchmark.pedantic(_close_all, args=(pairs,), rounds=7, iterations=1)
    assert (len(pairs), joined) == (328, 2)


def test_congruence_closure_of_a_deep_chain(benchmark):
    # g^99(a) = g^99(b) under a = b: one closure pass per level, and each
    # pass hashes whole terms
    deep_a, deep_b = g_tower(99, a), g_tower(99, b)
    assert benchmark.pedantic(
        lambda: CongruenceClosure([Equation(a, b)]).entails(deep_a, deep_b),
        rounds=3, iterations=1)


def test_default_portfolio_on_a_system_that_sno_decides(benchmark):
    # the fixed cost of one prove_unc call: sno answers at once
    result = benchmark(prove_unc, TRS.of([RewriteRule(f(x), a)]))
    assert (result.answer, result.method) == ("YES", "sno")


def _prove_all(systems):
    return [prove_unc(R).answer for R in systems]


def test_default_portfolio_on_random_portfolio_systems(benchmark, workload_systems):
    # the default methods on the first 200 systems, those of `random-portfolio`
    answers = benchmark.pedantic(_prove_all, args=(workload_systems[:200],), rounds=5,
                                 iterations=1)
    assert sum(answer != "MAYBE" for answer in answers) == 198
