import functools
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

import uncprover.completion
import uncprover.criteria
import uncprover.strategy
import uncprover.trs
from uncprover.completion import Witness, direct_sum_decompose, rule_reverse_mapped
from uncprover.config import Budgets
from uncprover.cops import parse_cops
from uncprover.strategy import (
    CERTIFICATE_FORMAT,
    DEFAULT_METHODS,
    METHODS,
    ProofResult,
    StrategyConfig,
    _run_method,
    prove_unc,
)
from uncprover.terms import MAX_DEPTH, App, Var
from uncprover.trs import TRS, Equation, RewriteRule, critical_pairs

from conftest import (
    AC, AC_G, COPS_126, CL, a, b, c, d, f, g, g_tower, ground_chain, h, random_system,
    unifier_free, x,
)

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


def _elapsed(R, methods, timeout):
    start = time.monotonic()
    res = prove_unc(R, StrategyConfig(methods=methods, timeout=timeout))
    return res, time.monotonic() - start


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("R", [AC, AC_G, CL, COPS_126, multistep(8), multistep(8, True),
                               unifier_free(800)],
                         ids=["AC", "AC_g", "CL", "COPS_126", "multistep_8",
                              "multistep_bc_8", "unifier_free_800"])
def test_every_method_stops_at_the_deadline(R, tag):
    timeout = 0.1
    _, elapsed = _elapsed(R, (tag,), timeout)
    assert elapsed < timeout + 0.3


@pytest.mark.parametrize("tag", ["pcl", "dc", "rev+dc"])
def test_multistep_enumeration_stops_at_the_deadline(tag):
    # 3^12 multistep reducts of g(a,...,a), and 2 * 3^11 parallel step
    # reducts of each g(a,...,b,...,a): far more than 0.5 s of work
    timeout = 0.5
    res, elapsed = _elapsed(multistep(12, True), (tag,), timeout)
    assert res.answer == "MAYBE"
    assert elapsed < timeout + 0.3


def test_scl_on_a_system_that_is_not_right_linear_applies_no_method():
    res = prove_unc(TRS.of([RewriteRule(f(x), g(x, x))]), StrategyConfig(methods=("scl",)))
    assert (res.answer, res.method) == ("MAYBE", None)
    assert res.certificate == f"certificate-format: {CERTIFICATE_FORMAT}\n" \
        "component 1: no method applied\n"


@pytest.mark.parametrize("tag", ["pcl", "scl"])
def test_congruence_closure_of_a_pair_condition_stops_at_the_deadline(tag):
    # the linearization's pair under the condition a = b asks whether
    # g^99(a) = g^99(b), which closes the universe once per level
    R = TRS.of([RewriteRule(f(x, x), c),
                RewriteRule(f(a, b), f(g_tower(99, a), g_tower(99, b)))])
    timeout = 0.02
    res, elapsed = _elapsed(R, (tag,), timeout)
    assert res.answer == "MAYBE"
    assert elapsed < timeout + 0.1


@pytest.mark.parametrize("tag", ["rev+sno", "rev+sc", "rr"])
def test_normal_form_scans_over_every_rule_stop_at_the_deadline(tag):
    # the reversal and rr test each rhs for a redex, and each test of a
    # rhs h(c_j) matches the whole h bucket: seconds of work on 3200 rules,
    # and rr would answer YES at the end of it
    timeout = 0.3
    res, elapsed = _elapsed(ground_chain(1600), (tag,), timeout)
    assert res.answer == "MAYBE"
    assert elapsed < timeout + 0.5


def test_a_method_that_outgrows_the_stack_gives_no_answer(monkeypatch):
    def overflow(S, budgets):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(uncprover.strategy, "strongly_non_overlapping", overflow)
    R = parse_cops("(RULES a -> b)").trs
    config = StrategyConfig(methods=("sno", "omega"))
    assert _run_method("sno", R, config, config.budgets) is None
    res = prove_unc(R, config)
    assert (res.answer, res.method) == ("YES", "omega")


@pytest.mark.parametrize("tag", ["sc", "dc", "rev+dc"])
def test_completion_answers_a_deciding_pair_before_closing_the_others(tag):
    # <b, c> disproves UNC; closing the ten pairs of g(a,...,a) -> d first
    # would enumerate the 3^9 multistep reducts of each
    res, elapsed = _elapsed(multistep(10), (tag,), 60)
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


def _nest(n, inner):
    for _ in range(n):
        inner = App("f", (inner,))
    return inner


#: The shapes of `test_cli.DEEP_SHAPES`, built as rules by a library caller.
DEEP_RULES = [
    lambda n: [RewriteRule(_nest(n, a), a)],
    lambda n: [RewriteRule(_nest(n, Var("x")), a), RewriteRule(_nest(2, Var("x")), b)],
    lambda n: [RewriteRule(_nest(n, Var("x")), a)],
    lambda n: [RewriteRule(a, _nest(n, b)), RewriteRule(a, c)],
]
DEEP_IDS = ["ground_lhs", "lhs_and_overlap", "lhs", "rhs"]


@pytest.mark.parametrize("shape", DEEP_RULES, ids=DEEP_IDS)
def test_rules_at_the_nesting_bound_are_decided(shape):
    res = prove_unc(TRS.of(shape(MAX_DEPTH)), StrategyConfig(timeout=10))
    assert res.answer in ("YES", "NO")


@pytest.mark.parametrize("shape", DEEP_RULES, ids=DEEP_IDS)
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1000])
def test_deeper_rules_are_refused(shape, depth):
    rules = tuple(shape(depth))
    with pytest.raises(ValueError, match="deeper than"):
        TRS.of(rules)
    # a system built without `TRS.of` is refused by the prover itself
    with pytest.raises(ValueError, match="deeper than"):
        prove_unc(TRS(rules))


def test_config_accepts_exactly_the_table_tags():
    assert {tag: set(m.answers) for tag, m in METHODS.items()} == {
        **dict.fromkeys(("sno", "omega", "rr", "pcl", "scl", "wd"), {"YES"}),
        "cp": {"NO"}, "sc": {"YES", "NO"}, "dc": {"YES", "NO"}}
    for tag in ALL_TAGS:
        StrategyConfig(methods=(tag,))
    for tag in ("rev+rev+sc", "rev+", "SC", "foo", ""):
        with pytest.raises(ValueError, match="unknown method"):
            StrategyConfig(methods=(tag,))


def test_a_cut_before_the_first_method_is_a_timeout():
    res = prove_unc(parse_cops("(RULES a -> b  a -> c)"), StrategyConfig(timeout=1e-9))
    assert (res.answer, res.method) == ("MAYBE", None)
    lines = res.certificate.splitlines()
    assert "component 1: timeout" in lines and "reason: timeout" in lines


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


# --- lazy disproof: the same outcome as the list order ----------------------


def _list_order(R, config):
    """`prove_unc` as it ran before the disprovers were deferred: every
    method in list order, the first answer wins."""
    budgets = replace(config.budgets, deadline=time.monotonic() + config.timeout)
    components = direct_sum_decompose(R)
    lines = [f"certificate-format: {CERTIFICATE_FORMAT}"]
    if len(components) > 1:
        lines.append(f"direct-sum decomposition into {len(components)} components")
    answers, tags = [], []
    for ci, comp in enumerate(components, 1):
        answer, tag = "MAYBE", None
        for m in config.methods:
            if time.monotonic() > budgets.deadline:
                lines.append(f"component {ci}: timeout")
                break
            outcome = _run_method(m, comp, config, budgets)
            if outcome is not None:
                answer, tag, found = outcome
                lines.append(f"component {ci} ({len(comp.rules)} rule(s)): "
                             f"{answer} via ({m})")
                lines.extend("  " + ln for ln in found)
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


def _systems():
    """The curated corpus and 150 random systems."""
    corpus = [parse_cops(p.read_text()).trs for p in sorted(CORPUS.glob("*.trs"))]
    rnd = random.Random(20240817)
    return corpus + [random_system(rnd) for _ in range(150)]


SYSTEMS = _systems()

#: The default, and cp / rev+cp first, in the middle, last and twice.
ORDERS = {
    "default": DEFAULT_METHODS,
    "first": ("cp", "rev+cp", "sno", "omega", "rr", "pcl", "scl", "wd", "rev+sc", "rev+dc"),
    "middle_last": ("sno", "omega", "rr", "pcl", "rev+cp", "scl", "wd", "sc", "rev+sc",
                    "dc", "rev+dc", "cp"),
    "twice": ("sno", "cp", "rr", "sc", "cp", "rev+cp", "wd", "rev+sc", "rev+cp"),
    "completion_first": ("rev+cp", "cp", "rr", "rev+sc", "sc", "rev+dc", "sno"),
}


@functools.cache
def _list_order_results(order):
    """The list-order oracle on every system, computed once per order: it
    runs each method itself and does not read `SLICE`."""
    config = StrategyConfig(methods=ORDERS[order], timeout=60)
    return [_list_order(R, config) for R in SYSTEMS]


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("share", ["slice", "zero"])
def test_lazy_disproof_answers_as_the_list_order(monkeypatch, order, share):
    # a zero share cuts every sliced method at once, so that the paths that
    # run the pending disprovers first and the method again are taken too
    wants = _list_order_results(order)
    if share == "zero":
        monkeypatch.setattr(uncprover.strategy, "SLICE", 0.0)
    config = StrategyConfig(methods=ORDERS[order], timeout=60)
    for R, want in zip(SYSTEMS, wants):
        got = prove_unc(R, config)
        assert (got.answer, got.method, got.certificate) \
            == (want.answer, want.method, want.certificate), R


def test_a_deferred_cp_keeps_its_no_over_a_later_completion_no(monkeypatch):
    # rev+sc disproves the system within its slice; cp comes first in the
    # list, so its witness is the one certified
    problem = parse_cops((CORPUS / "not_unc_escape.trs").read_text())
    for tag in ("cp", "rev+sc"):
        assert prove_unc(problem, StrategyConfig(methods=(tag,))).answer == "NO"
    run = uncprover.strategy._run_method
    calls = []

    def recording(tag, *args):
        calls.append(tag)
        return run(tag, *args)

    monkeypatch.setattr(uncprover.strategy, "_run_method", recording)
    got = prove_unc(problem)
    assert calls[-2:] == ["rev+sc", "cp"]
    alone = prove_unc(problem, StrategyConfig(methods=("cp",)))
    assert (got.answer, got.method) == ("NO", "cp")
    assert got.certificate == alone.certificate


def test_a_sliced_completion_leaves_the_time_to_the_pending_cp():
    # cp answers NO after about 0.8 s on a -> b, a -> c, b -> c,
    # g(a,...,a) -> d; rev+sc runs for seconds on it, so deferring cp
    # without cutting rev+sc would answer MAYBE at 1 s
    res, elapsed = _elapsed(multistep(6, True), DEFAULT_METHODS, 1)
    assert (res.answer, res.method) == ("NO", "cp")
    assert elapsed < 1 + 0.3


def test_a_deferred_cp_leaves_the_time_to_a_later_yes():
    # cp runs for the whole 5 s on this ground system, and rev+sc proves it
    # in milliseconds
    problem = parse_cops("""(RULES
  c -> g(f(f(a,a),f(b,c)))
  b -> g(f(g(c),f(a,c)))
  g(f(f(b,c),f(c,b))) -> g(g(g(b)))
  f(g(f(c,b)),g(f(a,b))) -> f(f(g(b),c),g(g(c)))
  g(f(f(a,c),a)) -> a
  g(g(b)) -> a
)
""")
    res, elapsed = _elapsed(problem, DEFAULT_METHODS, 5)
    assert (res.answer, res.method) == ("YES", "rev+sc")
    assert elapsed < 1


@pytest.mark.parametrize("base", sorted(t for t, m in METHODS.items() if len(m.answers) == 1))
def test_each_method_gives_only_the_answers_it_declares(base):
    # the deferral is exact only if a prove-only method never disproves
    # and a disprove-only method never proves
    method, config = METHODS[base], StrategyConfig()
    for R in SYSTEMS:
        for system in (R, rule_reverse_mapped(R)[0]):
            found = method.run(system, config, config.budgets)
            if isinstance(found, Witness):
                assert method.answers == {"NO"}, system
            elif found is not None:
                assert method.answers == {"YES"}, system


# pcl proves it after sno, both reading the pairs of the same rules
LEFT_LINEAR = TRS.of([RewriteRule(f(x), a), RewriteRule(f(b), a)])
# rev+sc disproves it after cp finds no witness; cp reads the pairs of the
# rules, sno, pcl and scl those of the linearization, and wd those of the
# separated one
NOT_LEFT_LINEAR = TRS.of([RewriteRule(f(x, x), a), RewriteRule(f(x, g(x)), b),
                          RewriteRule(c, g(c))])
TWO_COMPONENTS = TRS.of(LEFT_LINEAR.rules + (RewriteRule(h(x), c), RewriteRule(h(d), c)))


@pytest.mark.parametrize("R, components, reads, builds", [
    (LEFT_LINEAR, 1, 2, 1), (NOT_LEFT_LINEAR, 1, 5, 3), (TWO_COMPONENTS, 2, 4, 2)],
    ids=["left-linear", "not-left-linear", "two-components"])
def test_each_pair_list_is_built_once_per_component(monkeypatch, R, components, reads,
                                                     builds):
    built, read = [], []

    def counted_stream(S, budgets):
        built.append((budgets.pairs, S.rules))
        return stream(S, budgets)

    def counted_pairs(S, budgets):
        read.append(S.rules)
        return pairs(S, budgets)

    stream, pairs = uncprover.trs.pair_stream, critical_pairs
    monkeypatch.setattr(uncprover.trs, "pair_stream", counted_stream)
    for module in (uncprover.criteria, uncprover.completion):
        monkeypatch.setattr(module, "critical_pairs", counted_pairs)
    prove_unc(R)
    assert (len(read), len(built)) == (reads, builds)
    # one memo for the whole call, each list built at most once in it
    memos = list({id(memo): memo for memo, _ in built}.values())
    assert len(memos) == 1
    [memo] = memos
    keys = [rules for _, rules in built]
    assert len(keys) == len(set(keys)) == len(memo) == builds
    # the components' lists are disjoint: each rule tuple has the lhs
    # roots of one component only
    roots = [{r.lhs.sym for r in C.rules} for C in direct_sum_decompose(R)]
    assert len(roots) == components
    for rules in memo:
        assert sum({r.lhs.sym for r in rules} <= rs for rs in roots) == 1
    # and a kept list is the one a fresh build gives
    monkeypatch.undo()
    for rules, cps in memo.items():
        assert cps == critical_pairs(TRS(rules))


def test_a_replaced_copy_of_budgets_shares_its_pair_memo():
    budgets = Budgets(pairs={})
    assert replace(budgets, deadline=time.monotonic()).pairs is budgets.pairs


def test_the_pair_memo_takes_no_part_in_equality_hashing_or_repr():
    budgets = Budgets(pairs={(): ()})
    assert budgets == Budgets()
    assert hash(budgets) == hash(Budgets())
    assert repr(budgets) == repr(Budgets())


def test_prove_unc_keeps_its_pairs_in_a_memo_of_its_own():
    mine = {}
    assert prove_unc(LEFT_LINEAR, StrategyConfig(budgets=Budgets(pairs=mine))).answer == "YES"
    assert mine == {}


def test_without_a_memo_every_pair_list_is_built_again(monkeypatch):
    built = []

    def counted_stream(S, budgets):
        built.append(S.rules)
        return stream(S, budgets)

    stream = uncprover.trs.pair_stream
    monkeypatch.setattr(uncprover.trs, "pair_stream", counted_stream)
    assert critical_pairs(LEFT_LINEAR) == critical_pairs(LEFT_LINEAR)
    assert built == [LEFT_LINEAR.rules] * 2
