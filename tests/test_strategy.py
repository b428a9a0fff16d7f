import time
from pathlib import Path

import pytest

import uncprover.strategy
from uncprover.completion import direct_sum_decompose
from uncprover.cops import parse_cops
from uncprover.strategy import METHODS, StrategyConfig, prove_unc
from uncprover.terms import App, Var
from uncprover.trs import TRS, Equation, RewriteRule

from conftest import AC, AC_G, COPS_126, CL, a, b, c, d

TAGS = ("sno", "omega", "rr", "pcl", "scl", "wd", "cp", "sc", "dc", "rev+sc", "rev+dc")
ALL_TAGS = tuple(p + base for base in METHODS for p in ("", "rev+"))

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


def multistep(n, b_to_c=False):
    """a -> b, a -> c, g(a,...,a) -> d: g(a,...,a) has 3^n multistep reducts.

    Without b -> c the critical pair <b, c> disproves UNC at once; with it
    completion has to look at the multisteps of g(a,...,a)."""
    extra = [RewriteRule(b, c)] if b_to_c else []
    return TRS.of([RewriteRule(a, b), RewriteRule(a, c), *extra,
                   RewriteRule(App("g", (a,) * n), d)])


def unifier_free(n):
    """f(k_i(x), y) -> g(y, k_i(x)) for i < n: no two lhs's unify, but the
    overlap loop still meets n^2 ordered rule pairs."""
    x, y = Var("x"), Var("y")
    k = [App(f"k{i}", (x,)) for i in range(n)]
    return TRS.of([RewriteRule(App("f", (k[i], y)), App("g", (y, k[i])))
                   for i in range(n)])


def _elapsed(R, method, timeout):
    start = time.monotonic()
    res = prove_unc(R, StrategyConfig(methods=(method,), timeout=timeout))
    return res, time.monotonic() - start


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("R", [AC, AC_G, CL, COPS_126, multistep(8), multistep(8, True),
                               unifier_free(800)],
                         ids=["AC", "AC_g", "CL", "COPS_126", "multistep_8",
                              "multistep_bc_8", "unifier_free_800"])
def test_every_method_stops_at_the_deadline(R, tag):
    timeout = 0.1
    _, elapsed = _elapsed(R, tag, timeout)
    assert elapsed < timeout + 0.3


@pytest.mark.parametrize("tag", ["dc", "rev+dc"])
def test_multistep_enumeration_stops_at_the_deadline(tag):
    # 3^12 multistep reducts of g(a,...,a): far more than 0.5 s of work
    timeout = 0.5
    res, elapsed = _elapsed(multistep(12, True), tag, timeout)
    assert res.answer == "MAYBE"
    assert elapsed < timeout + 0.3


@pytest.mark.parametrize("tag", ["sc", "dc", "rev+dc"])
def test_completion_answers_a_deciding_pair_before_closing_the_others(tag):
    # <b, c> disproves UNC; closing the ten pairs of g(a,...,a) -> d first
    # would enumerate the 3^9 multistep reducts of each
    res, elapsed = _elapsed(multistep(10), tag, 60)
    assert res.answer == "NO"
    assert elapsed < 1


def test_prove_unc_refuses_conditional_rules():
    # without its conditions the system has the disproof b <- f(w1) -> c; with
    # them b and c are not convertible, so the plain methods must not run on it
    x = Var("x")
    R = TRS.of([RewriteRule(App("f", (x,)), b, (Equation(x, a),)),
                RewriteRule(App("f", (x,)), c, (Equation(x, b),))])
    with pytest.raises(ValueError, match="unconditional"):
        prove_unc(R)


def test_pcl_does_not_take_a_renamed_variable_for_the_constant_of_its_name():
    # x1 is a constant here, and renaming the rule apart makes a variable x1;
    # sc, dc and rev+dc disprove UNC with a replayed witness
    problem = parse_cops("(VAR x y)\n(RULES\n  f(f(a,y),f(x,y)) -> f(g(y),f(x1,y))\n)\n")
    assert prove_unc(problem, StrategyConfig(methods=("pcl",), timeout=30)).answer == "MAYBE"
    assert prove_unc(problem, StrategyConfig(timeout=30)).answer == "NO"


def test_config_accepts_exactly_the_table_tags():
    assert set(METHODS) == {"sno", "omega", "rr", "pcl", "scl", "wd", "cp", "sc", "dc"}
    for tag in ALL_TAGS:
        StrategyConfig(methods=(tag,))
    for tag in ("rev+rev+sc", "rev+", "SC", "foo", ""):
        with pytest.raises(ValueError, match="unknown method"):
            StrategyConfig(methods=(tag,))


#: The tags that disprove each system; neither is UNC.  On fxx_escape
#: only the reversed runs find the witness.
NO_TAGS = {"not_unc_escape": {"cp", "rev+cp", "sc", "rev+sc", "dc", "rev+dc"},
           "fxx_escape": {"rev+cp", "rev+sc", "rev+dc"}}


@pytest.mark.parametrize("tag", ALL_TAGS)
@pytest.mark.parametrize("name", sorted(NO_TAGS))
def test_every_no_is_replayed_over_the_original_rules(monkeypatch, name, tag):
    problem = parse_cops((CORPUS / f"{name}.trs").read_text())
    components = direct_sum_decompose(problem.trs)
    validate = uncprover.strategy.validate_witness
    calls = []

    def recording(R, w):
        calls.append(R)
        return validate(R, w)

    monkeypatch.setattr(uncprover.strategy, "validate_witness", recording)
    answer = prove_unc(problem, StrategyConfig(methods=(tag,), timeout=30)).answer
    assert answer == ("NO" if tag in NO_TAGS[name] else "MAYBE")
    if answer == "NO":
        assert calls and calls[-1] in components
    monkeypatch.setattr(uncprover.strategy, "validate_witness", lambda R, w: False)
    assert prove_unc(problem, StrategyConfig(methods=(tag,), timeout=30)).answer == "MAYBE"
