import gc
import random
import time
import weakref
from collections import Counter
from itertools import islice, product
from pathlib import Path

import pytest

from hypothesis import assume, given
from hypothesis import strategies as st

import uncprover.criteria
import uncprover.trs
from uncprover.config import Budgets
from uncprover.terms import (
    MAX_DEPTH,
    App,
    Var,
    fn_subterms,
    match,
    renaming_apart,
    replace_at,
    substitute,
    subterms,
    term_size,
    unifiable_rational,
    variables,
)
from uncprover.trs import TRS, RewriteRule, critical_pairs, parallel_step_reducts, \
    bounded_reducts, parallel_steps, reach, reducts, rewrite_steps, single_steps
from uncprover.ctrs import (
    CongruenceClosure,
    Equation,
    conditional_critical_pairs,
    conditional_linearize,
    lr_separated_linearize,
)
from uncprover.completion import rule_reverse_mapped
from uncprover.cops import parse_cops
from uncprover.criteria import (
    DEVELOPMENT_CLOSED,
    PARALLEL_CLOSED,
    STRONGLY_CLOSED,
    SimState,
    _joinable,
    conv1_remainders,
    eq_states,
    multiset,
    non_omega_overlapping,
    parallel_closed_check,
    right_reducible,
    step1_reducts,
    step1_remainders,
    step2_remainders,
    strongly_closed_check,
    strongly_non_overlapping,
    wd_ccp_satisfied,
    weight_decreasing_unc,
)
from uncprover.strategy import StrategyConfig, prove_unc

from conftest import AC, AC_G, CL, a, b, c, d, f, g, h, c1, random_system, random_term, \
    term_strategy, x, y, z

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"


# --- overlap criteria ---------------------------------------------------------


def test_strongly_non_overlapping():
    assert strongly_non_overlapping(TRS.of([RewriteRule(f(x, x), a),
                                            RewriteRule(g(x), b)]))
    R254 = TRS.of([RewriteRule(a, f(c)), RewriteRule(a, f(h(c))),
                   RewriteRule(f(x), h(f(x)))])
    assert not strongly_non_overlapping(R254)
    assert strongly_non_overlapping(TRS.of([]))


def test_non_omega_overlapping():
    assert non_omega_overlapping(TRS.of([RewriteRule(f(x, x), a)]))
    R = TRS.of([RewriteRule(f(x, x), a), RewriteRule(f(y, g(y)), b)])
    assert not non_omega_overlapping(R)
    R32 = TRS.of([RewriteRule(f(x, x, g(y)), h(y, x)),
                  RewriteRule(g(a), f(a, b, b)),
                  RewriteRule(h(x, y), h(a, y)),
                  RewriteRule(f(x, x, y), h(a, x))])
    assert not non_omega_overlapping(R32)


def test_omega_vs_syntactic_differential():
    # rationally unifiable at the root, but no syntactic overlap
    R = TRS.of([RewriteRule(f(x, x), a), RewriteRule(f(y, g(y)), b)])
    assert critical_pairs(R) == ()
    assert not non_omega_overlapping(R)


def _oracle_non_omega_overlapping(R):
    """The overlap loop of `non_omega_overlapping` before `trs.overlaps`:
    every site tested, every ordered pair renamed."""
    for oi, outer in enumerate(R.rules):
        used = variables(outer.lhs) | variables(outer.rhs)
        for ii, inner0 in enumerate(R.rules):
            ren = renaming_apart(
                sorted(variables(inner0.lhs) | variables(inner0.rhs)), set(used))
            inner = inner0.rename(ren)
            for pos, sub in fn_subterms(outer.lhs):
                if pos == () and ii == oi:
                    continue
                if unifiable_rational(inner.lhs, sub):
                    return False
    return True


SEC32 = TRS.of([RewriteRule(f(x, x, g(y)), h(y, x)), RewriteRule(g(a), f(a, b, b)),
                RewriteRule(h(x, y), h(a, y)), RewriteRule(f(x, x, y), h(a, x))])


def test_non_omega_overlapping_matches_overlap_loop_oracle(rng):
    systems = [CL, SEC32, TRS.of([RewriteRule(f(x, x), a), RewriteRule(f(y, g(y)), b)])]
    systems += [random_system(rng) for _ in range(300)]
    verdicts = [non_omega_overlapping(R) for R in systems]
    assert verdicts == [_oracle_non_omega_overlapping(R) for R in systems]
    assert True in verdicts and False in verdicts


def test_right_reducible():
    R126 = TRS.of([RewriteRule(f(f(x, y), z), f(f(x, z), f(y, z)))])
    assert right_reducible(R126)
    assert not right_reducible(TRS.of([RewriteRule(a, b)]))
    R = TRS.of([RewriteRule(a, f(a, a)), RewriteRule(f(x, y), f(a, a))])
    assert right_reducible(R)


# --- closedness checks ----------------------------------------------------------

SEC32 = TRS.of([
    RewriteRule(f(x, x, g(y)), h(y, x)),
    RewriteRule(g(a), f(a, b, b)),
    RewriteRule(h(x, y), h(a, y)),
    RewriteRule(f(x, x, y), h(a, x)),
])


def test_parallel_closed_linearization_sec32():
    report = parallel_closed_check(conditional_linearize(SEC32))
    assert report.holds
    # the inner pair closes by the full-argument rule at the root
    assert any("rule 3" in line or "(), 3" in line for line in report.details)


def test_strongly_closed_linearization_sec32():
    assert strongly_closed_check(conditional_linearize(SEC32)).holds


@pytest.mark.parametrize("check", [parallel_closed_check, strongly_closed_check])
def test_closure_checks_stop_at_the_deadline(check):
    C = conditional_linearize(SEC32)
    report = check(C, Budgets(deadline=time.monotonic() - 1))
    assert (report.holds, report.failure, report.truncated) == (False, "timeout", True)


@pytest.mark.parametrize("check", [parallel_closed_check, strongly_closed_check])
def test_closure_checks_report_on_joins_deeper_than_the_stack(check, monkeypatch):
    # a -> f^100(a), a -> b and b -> c: 12 steps deep, the joins of
    # <f^100(a), b> build terms over a thousand levels deep, past Python's
    # recursion limit; b -> c makes b an lhs root, so the fixed tops f and b
    # do not refute the pair
    deep = a
    for _ in range(MAX_DEPTH):
        deep = f(deep)
    C = conditional_linearize(TRS.of([RewriteRule(a, deep), RewriteRule(a, b),
                                      RewriteRule(b, c)]))
    report = check(C, Budgets(conv_depth=12, size_cap=0))
    assert (report.holds, report.truncated) == (False, True)
    assert report.failure.startswith("unclosed critical pair")
    # without b -> c, f and b never change: refuted whole, without a search
    calls = _count_reach(monkeypatch)
    C = conditional_linearize(TRS.of([RewriteRule(a, deep), RewriteRule(a, b)]))
    report = check(C, Budgets(conv_depth=12, size_cap=0))
    assert (report.holds, report.truncated) == (False, False)
    assert report.failure.startswith("unclosed critical pair")
    assert calls["reach"] == 0


@pytest.mark.parametrize("check, tag", [(parallel_closed_check, "pcl"),
                                        (strongly_closed_check, "scl")])
def test_closure_checks_report_equal_terms_deeper_than_the_stack(check, tag):
    # with b -> b the joins of <f^100(a), b> meet at equal reducts over 500
    # levels deep, and comparing them in `reach` overflows Python's stack
    deep = a
    for _ in range(MAX_DEPTH):
        deep = f(deep)
    R = TRS.of([RewriteRule(a, deep), RewriteRule(a, b), RewriteRule(b, b)])
    budgets = Budgets(conv_depth=12, size_cap=0)
    report = check(conditional_linearize(R), budgets)
    assert (report.holds, report.failure, report.truncated) == (False, "stack depth", True)
    res = prove_unc(R, StrategyConfig(methods=(tag,), budgets=budgets))
    assert res.answer == "MAYBE"
    assert "no method applied" in res.certificate


def _count_reach(monkeypatch) -> Counter:
    """Count the `trs.reach` calls of both modules that call it."""
    calls = Counter()

    def counting(*args, **kwargs):
        calls["reach"] += 1
        return reach(*args, **kwargs)
    for module in (uncprover.criteria, uncprover.trs):
        monkeypatch.setattr(module, "reach", counting)
    return calls


def test_closure_checks_refute_a_fixed_top_pair_without_a_search(monkeypatch):
    # random-190 of the benchmark: <a, g(f(b,b))> never joins, as a and g
    # start no lhs; a search for its join took 30 ms per check
    R = TRS.of([RewriteRule(b, g(f(b, b))), RewriteRule(b, a), RewriteRule(b, b)])
    C = conditional_linearize(R)
    calls = _count_reach(monkeypatch)
    for check in (parallel_closed_check, strongly_closed_check):
        report = check(C)
        assert (report.holds, report.truncated) == (False, False)
        assert report.failure == "unclosed critical pair {} => <a, g(f(b,b))> [overlay]"
    assert calls["reach"] == 0
    # past the deadline the refuted pair is still answered; <b, g(f(b,b))>
    # is searched, and raises
    refuted, searched = critical_pairs(C)[:2]
    assert searched.left == b
    past = Budgets(deadline=time.monotonic() - 1)
    for pred in (PARALLEL_CLOSED, STRONGLY_CLOSED):
        assert pred.pair_closed(C, refuted, past) == (None, False)
        with pytest.raises(TimeoutError):
            pred.pair_closed(C, searched, past)


def test_cap_refutes_only_pairs_without_a_common_reduct():
    # critical pairs, random pairs and pairs of a term and its reducts, in
    # plain, linearized and reversed random systems: a refuted pair has no
    # common reduct within 3 steps
    rnd = random.Random(30)
    refuted = Counter()
    for _ in range(150):
        R = random_system(rnd)
        for kind, S in (("plain", R), ("linearized", conditional_linearize(R)),
                        ("reversed", rule_reverse_mapped(R)[0])):
            pairs = [(cp.left, cp.right) for cp in critical_pairs(S)]
            for _ in range(4):
                u = random_term(rnd, depth=3)
                pairs.append((u, random_term(rnd, depth=3)))
                pairs += [(u, v) for v in reducts(S, u)] + [(v, u) for v in reducts(S, u)]
            for u, v in pairs:
                if _joinable(S, u, v):
                    continue
                refuted[kind] += 1
                assert not (bounded_reducts(S, u, 3, size_cap=30)
                            & bounded_reducts(S, v, 3, size_cap=30)), (S, u, v)
    assert all(refuted[k] >= 90 for k in ("plain", "linearized", "reversed")), refuted


def test_parallel_closed_semi_equational():
    P = lambda t: App("P", (t,))
    Q = lambda t: App("Q", (t,))
    R_ = lambda t: App("R", (t,))
    S = lambda t: App("S", (t,))
    H = lambda t: App("H", (t,))
    A = App("A")
    C = TRS.of([
        RewriteRule(P(Q(x)), P(R_(x)), (Equation(x, A),)),
        RewriteRule(Q(H(x)), R_(x), (Equation(S(x), H(x)),)),
        RewriteRule(R_(x), R_(H(x)), (Equation(S(x), A),)),
    ])
    assert parallel_closed_check(C).holds


def test_parallel_closed_fails_on_distinct_normal_constants():
    C = TRS.of([RewriteRule(a, b), RewriteRule(a, c)])
    assert not parallel_closed_check(C).holds
    assert not strongly_closed_check(C).holds


def test_closure_reads_conditions_on_a_pair_without_any():
    # the overlay <d, g(b, c)> of the linearization has no conditions, but
    # g(b, c) -> d needs the condition b = c of the linearized g rule; read
    # without it, the pair would close at d and pcl and scl say YES
    R = TRS.of([RewriteRule(a, g(b, c)), RewriteRule(a, d), RewriteRule(g(x, x), d)])
    C = conditional_linearize(R)
    assert C.conditional
    first = critical_pairs(C)[0]
    assert (first.left, first.right, first.overlay, first.conditions) == (
        d, g(b, c), True, ())
    for report in (parallel_closed_check(C), strongly_closed_check(C)):
        assert (report.holds, report.failure) == (
            False, f"unclosed critical pair {first!r}")
    result = prove_unc(R)
    assert (result.answer, result.method) == ("NO", "cp")
    for method in ("pcl", "scl"):
        assert prove_unc(R, StrategyConfig(methods=(method,))).answer == "MAYBE"


def test_development_closed_admits_no_conditional_system():
    # its big step, `development_step_reducts`, reads no conditions
    R = TRS.of([RewriteRule(g(x, x), d)])
    C = conditional_linearize(R)
    assert C.left_linear and C.conditional
    assert DEVELOPMENT_CLOSED.guard(TRS.of([RewriteRule(a, d)]))
    assert not DEVELOPMENT_CLOSED.guard(C)


def test_strongly_closed_vacuous():
    C = TRS.of([RewriteRule(f(x, y), x)])
    assert strongly_closed_check(C).holds


def test_strongly_closed_requires_linearity():
    C = TRS.of([RewriteRule(f(x, y), f(y, f(y, x)))])
    report = strongly_closed_check(C)
    assert not report.holds and "linear" in report.failure


def test_parallel_closed_describes_an_inner_outer_join_by_its_path():
    R = TRS.of([RewriteRule(h(App("k", (x,)), b, b), h(x, a, a)),
                RewriteRule(App("k", (x,)), x), RewriteRule(b, a)])
    report = parallel_closed_check(R)
    assert report.holds
    assert report.details[0] == (
        "{} => <h(x,b,b), h(x,a,a)> [inner-outer]: parallel step [((2,), 2), ((3,), 2)]")


def _oracle_strong_joins(R, u, v, budgets, holds):
    """The strong-closure joins as `trs.strong_joins` gave them before the
    closure tests shared one meet: the least term by `repr` within
    `conv_depth` steps of `u` and at most one step from `v` and the same
    swapped, None if there is none, and whether either search was cut."""
    (reach_u, cut_u), (reach_v, cut_v) = (
        reach(single_steps(R, holds), s, budgets.conv_depth, budgets.size_cap,
              budgets.max_class, budgets)
        for s in (u, v))
    a = min(reach_u.keys() & ({v} | reducts(R, v, holds)), key=repr, default=None)
    b = min(({u} | reducts(R, u, holds)) & reach_v.keys(), key=repr, default=None)
    return a, b, cut_u or cut_v


def test_strong_closure_gives_the_joins_of_the_two_search_oracle(rng):
    # plain, linearized with congruence-closure entailment, and with caps
    # small enough to cut
    corpus = [parse_cops(p.read_text()).trs for p in sorted(CORPUS.glob("*.trs"))]
    systems = corpus + [random_system(rng) for _ in range(300)]
    seen = Counter()
    for R in systems:
        for S in (R, conditional_linearize(R)):
            for cp in critical_pairs(S):
                holds = CongruenceClosure(cp.conditions).entails if S.conditional else None
                for budgets in (Budgets(), Budgets(conv_depth=2, max_class=5)):
                    a, b, cut = _oracle_strong_joins(S, cp.left, cp.right, budgets, holds)
                    got = STRONGLY_CLOSED.pair_closed(S, cp, budgets)
                    if not _joinable(S, cp.left, cp.right):
                        # refuted without a search: the oracle finds no join
                        assert (a, b, got) == (None, None, (None, False)), (S, cp)
                        seen["refuted"] += 1
                    else:
                        want = None if a is None or b is None else f"joins at {a!r} / {b!r}"
                        assert got == (want, cut), (S, cp)
                    seen["cut" if cut else "whole"] += 1
                    seen["one side" if (a is None) != (b is None) else
                         "neither" if a is None else
                         "same" if a == b else "two joins"] += 1
                    seen["conditional"] += S.conditional
    assert all(seen[k] >= 20 for k in (
        "cut", "whole", "one side", "neither", "same", "two joins", "conditional")), seen
    assert seen["refuted"] >= 90, seen


def plain_parallel_closed(R, budgets_depth=5):
    if not R.left_linear:
        return False
    for cp in critical_pairs(R):
        par = parallel_step_reducts(R, cp.left)
        if not cp.overlay:
            if cp.right not in par:
                return False
        elif not (par & bounded_reducts(R, cp.right, budgets_depth)):
            return False
    return True


def plain_strongly_closed(R, depth=5):
    if not R.linear:
        return False
    for cp in critical_pairs(R):
        u, v = cp.left, cp.right
        if not (bounded_reducts(R, u, depth) & ({v} | reducts(R, v))):
            return False
        if not (({u} | reducts(R, u)) & bounded_reducts(R, v, depth)):
            return False
    return True


def test_conditional_checks_agree_with_plain_on_lifted_trs(rng):
    # condition-free CTRS: the conditional machinery must coincide with the
    # unconditional closure checks
    disagreements = 0
    for _ in range(220):
        R = random_system(rng)
        if parallel_closed_check(R).holds != plain_parallel_closed(R):
            disagreements += 1
        if strongly_closed_check(R).holds != plain_strongly_closed(R):
            disagreements += 1
    assert disagreements == 0


# --- conditional searches: the unindexed conditional step and the loops
# before `trs.reach` and `trs.parallel_steps` as oracles


def _oracle_conditional_one_step(C, t, holds):
    """Every rule matched at every position, variables included."""
    out = []
    for pos, sub in subterms(t):
        for i, rule in enumerate(C.rules):
            sigma = match(rule.lhs, sub)
            if sigma is None:
                continue
            if all(holds(substitute(c.lhs, sigma), substitute(c.rhs, sigma))
                   for c in rule.conditions):
                out.append((pos, i, replace_at(t, pos, substitute(rule.rhs, sigma))))
    return out


def _oracle_conditional_parallel(C, t, holds):
    by_pos = {}
    for pos, i, u in _oracle_conditional_one_step(C, t, holds):
        sub = u
        for k in pos:
            sub = sub.args[k - 1]
        by_pos.setdefault(pos, []).append((i, sub))
    positions = sorted(by_pos)
    out = {t: ()}

    def go(i, chosen):
        if i == len(positions):
            for combo in product(*[by_pos[p] for p in chosen]):
                u = t
                for p, (ri, s) in zip(chosen, combo):
                    u = replace_at(u, p, s)
                out.setdefault(u, tuple((p, ri) for p, (ri, _) in zip(chosen, combo)))
            return
        go(i + 1, chosen)
        p = positions[i]
        if all(p[:len(q)] != q and q[:len(p)] != p for q in chosen):
            go(i + 1, chosen + [p])

    go(0, [])
    return out


def _oracle_conditional_reach(C, t, holds, depth, size_cap=0, max_terms=0):
    seen = {t}
    frontier = [t]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for _, _, v in _oracle_conditional_one_step(C, u, holds):
                if size_cap and term_size(v) > size_cap:
                    continue
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                if max_terms and len(seen) >= max_terms:
                    return seen, True
        if not nxt:
            return seen, False
        frontier = nxt
    return seen, bool(frontier)


def _conditional_reach(C, t, holds, depth, size_cap=0, max_terms=0):
    reached, cut = reach(single_steps(C, holds), t, depth, size_cap, max_terms)
    return set(reached), cut


def test_conditional_searches_match_loop_oracles_on_random_systems(rng):
    compared = 0
    for _ in range(120):
        R = random_system(rng)
        for C in (conditional_linearize(R), lr_separated_linearize(R)):
            for ccp in conditional_critical_pairs(C):
                def holds(s, t):
                    return CongruenceClosure(ccp.conditions).entails(s, t)

                for t in (ccp.left, ccp.right):
                    assert rewrite_steps(C, t, holds) \
                        == _oracle_conditional_one_step(C, t, holds)
                    got = parallel_steps(C, t, holds)
                    want = _oracle_conditional_parallel(C, t, holds)
                    # the redex sets are printed in pcl certificates
                    assert list(got.items()) == list(want.items())
                    for depth, size_cap, max_terms in product((1, 3), (0, 7), (0, 2, 5)):
                        assert _conditional_reach(C, t, holds, depth, size_cap, max_terms) \
                            == _oracle_conditional_reach(C, t, holds, depth, size_cap,
                                                         max_terms)
                    compared += 1
    assert compared > 100


@pytest.mark.parametrize("R", [SEC32, AC], ids=["SEC32", "AC"])
def test_conditional_step_matches_the_unindexed_oracle(R, rng):
    for C in (conditional_linearize(R), lr_separated_linearize(R)):
        for ccp in conditional_critical_pairs(C):
            holds = CongruenceClosure(ccp.conditions).entails
            terms = [ccp.left, ccp.right]
            terms += [u for t in terms for _, _, u in rewrite_steps(C, t, holds)]
            for t in terms:
                assert rewrite_steps(C, t, holds) \
                    == _oracle_conditional_one_step(C, t, holds)
        # ground terms: no conditions assumed, entailment is syntactic
        holds = CongruenceClosure().entails
        for _ in range(30):
            t = random_term(rng, var_names=(), depth=3)
            assert rewrite_steps(C, t, holds) == _oracle_conditional_one_step(C, t, holds)


def test_conditional_step_matches_only_rules_with_the_subterm_root(monkeypatch):
    calls = []
    real = uncprover.trs.match

    def counting(pattern, subject):
        calls.append((pattern.sym, subject))
        return real(pattern, subject)

    monkeypatch.setattr(uncprover.trs, "match", counting)
    n = 4
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c),
                RewriteRule(App("g", (a,) * n), App("d")),
                RewriteRule(f(x, y), x), RewriteRule(h(x, x), x)])
    C = conditional_linearize(R)
    assert C.rules[4].conditions
    t = f(App("g", (a,) * n), h(a, a))
    steps = rewrite_steps(C, t, CongruenceClosure().entails)
    assert all(isinstance(s, App) and s.sym == root for root, s in calls)
    # f at the root, g, n times a (two rules each), h, then a and a below it
    assert len(calls) == 1 + 1 + 2 * n + 1 + 2 * 2
    assert ((2,), 4, f(App("g", (a,) * n), a)) in steps


# --- ranked conversion sets -----------------------------------------------------


def test_eq_states_empty_gamma():
    assert eq_states([], f(a, b)) == frozenset({SimState((), f(a, b))})


def test_eq_states_single_equation_each_use_once():
    states = eq_states([Equation(a, b)], f(a, a))
    values = {(st.remaining, st.value) for st in states}
    e = (Equation(a, b),)
    assert values == {(e, f(a, a)), ((), f(b, a)), ((), f(a, b))}


def sim0_oracle(eqs, term):
    """Derivation enumeration: every interleaving of single swaps."""
    out = set()

    def go(remaining, t):
        out.add((multiset(remaining), t))
        for i, e in enumerate(remaining):
            rest = remaining[:i] + remaining[i + 1:]
            for here, there in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                for pos, sub in subterms(t):
                    if sub == here:
                        go(rest, replace_at(t, pos, there))

    go(tuple(eqs), term)
    return out


def test_eq_states_vs_derivation_oracle(rng):
    mismatches = 0
    for _ in range(220):
        eqs = [Equation(random_term(rng, depth=1), random_term(rng, depth=1))
               for _ in range(rng.randint(0, 3))]
        t = random_term(rng, depth=2)
        got = {(st.remaining, st.value) for st in eq_states(eqs, t)}
        if got != sim0_oracle(eqs, t):
            mismatches += 1
    assert mismatches == 0


@given(st.integers(0, 2**30))
def test_eq_states_symmetry(seed):
    rnd = random.Random(seed)
    eqs = [Equation(random_term(rnd, depth=1), random_term(rnd, depth=1))
           for _ in range(rnd.randint(0, 2))]
    s = random_term(rnd, depth=1)
    for st_ in eq_states(eqs, s):
        consumed_back = eq_states(_diff(multiset(eqs), st_.remaining), st_.value)
        assert any(back.value == s and back.remaining == ()
                   for back in consumed_back)


def _diff(whole, part):
    out = list(whole)
    for e in part:
        out.remove(e)
    return tuple(out)


def test_eq_states_monotone_in_gamma():
    e1, e2 = Equation(a, b), Equation(b, c)
    small = {st.value for st in eq_states([e1], g(a))}
    big = {st.value for st in eq_states([e1, e2], g(a))}
    assert small <= big


# --- the worked overlay example -------------------------------------------------

SEC4 = TRS.of([
    RewriteRule(f(x, x), h(x, f(x, b))),
    RewriteRule(f(g(y), y), h(y, f(g(y), c1(b)))),
    RewriteRule(h(c1(x), b), h(b, b)),
    RewriteRule(c1(b), b),
])

SEC4_GAMMA = (Equation(Var("y1"), y), Equation(Var("y2"), y),
              Equation(g(Var("y1")), x), Equation(Var("y2"), x))
SEC4_S = h(y, f(g(y), c1(b)))
SEC4_T = h(x, f(x, b))

SEC4_LISTED = [
    ("abcd", h(y, f(g(y), c1(b)))),
    ("bcd", h(Var("y1"), f(g(y), c1(b)))),
    ("bcd", h(y, f(g(Var("y1")), c1(b)))),
    ("bd", h(y, f(x, c1(b)))),
    ("acd", h(Var("y2"), f(g(y), c1(b)))),
    ("acd", h(y, f(g(Var("y2")), c1(b)))),
    ("ac", h(x, f(g(y), c1(b)))),
    ("ac", h(y, f(g(x), c1(b)))),
    ("cd", h(Var("y1"), f(g(Var("y2")), c1(b)))),
    ("cd", h(Var("y2"), f(g(Var("y1")), c1(b)))),
    ("c", h(Var("y1"), f(g(x), c1(b)))),
    ("c", h(x, f(g(Var("y1")), c1(b)))),
    ("d", h(Var("y2"), f(x, c1(b)))),
    ("", h(x, f(x, c1(b)))),
]


def _listed_states():
    key = dict(zip("abcd", SEC4_GAMMA))
    return {(multiset(key[ch] for ch in tags), t) for tags, t in SEC4_LISTED}


def test_sec4_states_contain_the_fourteen_listed():
    got = {(st.remaining, st.value) for st in eq_states(SEC4_GAMMA, SEC4_S)}
    assert _listed_states() <= got


def test_sec4_closure_is_derivation_complete():
    # the closure has nine states beyond the listed fourteen; all of them
    # carry genuine derivations (cross-checked against the enumeration
    # oracle), e.g. swapping d backwards onto the x introduced by c
    got = {(st.remaining, st.value) for st in eq_states(SEC4_GAMMA, SEC4_S)}
    assert got == sim0_oracle(SEC4_GAMMA, SEC4_S)
    assert len(got) == 23
    extra = (multiset([SEC4_GAMMA[1]]), h(y, f(Var("y2"), c1(b))))
    assert extra in got


def test_sec4_t_not_reachable_at_rank0():
    assert all(st.value != SEC4_T for st in eq_states(SEC4_GAMMA, SEC4_S))


def test_sec4_rank1_conversion_holds():
    C = lr_separated_linearize(SEC4)
    assert conv1_remainders(C, SEC4_GAMMA, SEC4_S, SEC4_T)


def test_step1_examples():
    C = lr_separated_linearize(SEC4)
    # the collapsed middle term rewrites to the target by the ground rule
    assert () in step1_remainders(C, [], h(x, f(x, c1(b))), h(x, f(x, b)))
    assert step1_remainders(C, [], SEC4_S, SEC4_T) == set()
    assert step1_remainders(C, [], h(b, b), h(b, b)) == set()


def test_step1_with_condition_consumption():
    C = TRS.of([RewriteRule(f(y, y), b, (Equation(y, a),))])
    # one step consuming the assumption x1 = a
    x1 = Var("x1")
    rems = step1_remainders(C, [Equation(x1, a)], f(x1, x1), b)
    assert rems == {()}
    # one check's step memo keeps the two assumption sets apart
    W = uncprover.criteria._RankedSearch(C)
    assert step1_remainders(W, [], f(x1, x1), b) == set()
    assert step1_remainders(W, [Equation(x1, a)], f(x1, x1), b) == {()}


def test_step1_reducts_enumeration():
    C = lr_separated_linearize(TRS.of([RewriteRule(f(x, x), g(x))]))
    # f(x1,x2) -> g(x) <= x1 = x, x2 = x; from f(a,a) the only rank-1
    # reduct instantiates x := a
    results = step1_reducts(C, [], f(a, a))
    assert ((), g(a)) in results
    assert all(v == g(a) for _, v in results)


def test_wd_pair_examples():
    C = lr_separated_linearize(SEC4)
    assert wd_ccp_satisfied(C, SEC4_GAMMA, SEC4_S, SEC4_T) == "rank-1 conversion"
    assert wd_ccp_satisfied(C, [], h(b, b), h(b, b)) == "rank-0 conversion"
    assert wd_ccp_satisfied(C, [], b, c) is None


def test_wd_reflexivity_property(rng):
    C = lr_separated_linearize(SEC4)
    for _ in range(25):
        t = random_term(rng, depth=2)
        assert wd_ccp_satisfied(C, [], t, t) == "rank-0 conversion"


def test_weight_decreasing_unc():
    assert weight_decreasing_unc(SEC4).holds
    dup = TRS.of([RewriteRule(f(x, x), g(x)), RewriteRule(g(x), f(x, x))])
    report = weight_decreasing_unc(TRS.of([RewriteRule(g(x), f(x, x))]))
    assert not report.holds and "duplicating" in report.failure
    orth = TRS.of([RewriteRule(f(x, y), x), RewriteRule(g(a), b)])
    assert weight_decreasing_unc(orth).holds


def test_syntactic_overlap_implies_omega_overlap(rng):
    # a syntactic critical pair forces rational-tree unifiability of the
    # same subterm pair, so the omega test must also report an overlap
    for _ in range(80):
        R = random_system(rng)
        if critical_pairs(R):
            assert not non_omega_overlapping(R)


# --- the ranked searches against the matching they had before the rules were
# renamed once per check and the sites restricted to the shared-context path

_HOLE = Var("\x00ctx")


def _maybe_subterm(t, pos):
    for i in pos:
        if isinstance(t, Var) or len(t.args) < i:
            return None
        t = t.args[i - 1]
    return t


def _oracle_rule_matches(C, gamma_vars):
    """The earlier `_rule_matches`: every rule renamed apart from the query
    on every call, every position of `s` tested by plugging a hole into
    both terms.  It renamed apart from the variables of the equations too;
    `gamma_vars` holds every variable the searched equations can have."""
    def rule_matches(W, s, t):
        used = variables(s) | (variables(t) if t is not None else set()) | gamma_vars
        for pos, sub in subterms(s):
            t_sub = None
            if t is not None:
                t_sub = _maybe_subterm(t, pos)
                if t_sub is None or replace_at(s, pos, _HOLE) != replace_at(t, pos, _HOLE):
                    continue
            for rule0 in C.rules:
                ren = renaming_apart(sorted(rule0.all_variables()), set(used))
                rule = rule0.rename(ren)
                theta = match(rule.lhs, sub)
                if theta is None:
                    continue
                theta = dict(theta)
                if t is not None:
                    sr = match(rule.rhs, t_sub)
                    if sr is None:
                        continue
                    consistent = True
                    for k, v in sr.items():
                        if theta.setdefault(k, v) != v:
                            consistent = False
                            break
                    if not consistent:
                        continue
                yield pos, rule, theta, rule.all_variables()
    return rule_matches


class _NoMemo(dict):
    def __setitem__(self, key, value):
        pass


class _Unmemoized(uncprover.criteria._RankedSearch):
    def __init__(self, *args):
        super().__init__(*args)
        self.step1 = _NoMemo()


def _ranked_results(C, gamma, s, t, with_wd):
    out = [step1_remainders(C, gamma, s, t), step1_reducts(C, gamma, s),
           conv1_remainders(C, gamma, s, t), step2_remainders(C, gamma, s, t)]
    if with_wd:
        out.append(wd_ccp_satisfied(C, gamma, s, t))
    return out


def _assert_ranked_searches_match_oracle(monkeypatch, C, queries, with_wd=True):
    """The public searches give what they gave with the oracle matching
    and no `step1_remainders` memo."""
    for gamma, s, t in queries:
        gamma_vars = set().union(variables(s), variables(t),
                                 *(variables(e.lhs) | variables(e.rhs) for e in gamma))
        got = _ranked_results(C, gamma, s, t, with_wd)
        monkeypatch.setattr(uncprover.criteria, "_rule_matches",
                            _oracle_rule_matches(C, gamma_vars))
        monkeypatch.setattr(uncprover.criteria, "_RankedSearch", _Unmemoized)
        want = _ranked_results(C, gamma, s, t, with_wd)
        monkeypatch.undo()
        assert got == want, (gamma, s, t)


def _pair_queries(C):
    """Each conditional critical pair both ways, and its left term against
    itself."""
    out = []
    for ccp in conditional_critical_pairs(C):
        out += [(ccp.conditions, ccp.left, ccp.right),
                (ccp.conditions, ccp.right, ccp.left),
                (ccp.conditions, ccp.left, ccp.left)]
    return out


def test_ranked_searches_match_oracle_on_random_systems(monkeypatch, rng):
    kinds = set()
    for _ in range(150):
        C = lr_separated_linearize(random_system(rng))
        queries = _pair_queries(C)
        for _, s, t in queries:
            heads = [u.sym if isinstance(u, App) else None for u in (s, t)]
            kinds.add("equal" if s == t else
                      "same head" if heads[0] == heads[1] else "other head")
        _assert_ranked_searches_match_oracle(monkeypatch, C, queries)
    assert kinds == {"equal", "same head", "other head"}


def test_ranked_searches_match_oracle_on_sec4(monkeypatch):
    C = lr_separated_linearize(SEC4)
    queries = _pair_queries(C) + [(SEC4_GAMMA, SEC4_S, SEC4_T), (SEC4_GAMMA, SEC4_T, SEC4_S),
                                  (SEC4_GAMMA, SEC4_S, SEC4_S)]
    _assert_ranked_searches_match_oracle(monkeypatch, C, queries)


def test_ranked_searches_match_oracle_on_ac(monkeypatch):
    # the first pair is the one wd fails on; wd on the others costs seconds
    # under the oracle, so they only compare the single searches
    C = lr_separated_linearize(AC)
    queries = _pair_queries(C)
    _assert_ranked_searches_match_oracle(monkeypatch, C, queries[:3])
    _assert_ranked_searches_match_oracle(monkeypatch, C, queries[3:], with_wd=False)


def _positions(t):
    return [p for p, _ in subterms(t)]


@given(st.data())
def test_context_sites_are_the_positions_with_a_shared_context(data):
    s = data.draw(term_strategy(max_leaves=8))
    # t mostly shares much of its context with s: s with one subterm replaced
    pos = data.draw(st.sampled_from(_positions(s)))
    t = data.draw(st.one_of(term_strategy(max_leaves=4).map(lambda u: replace_at(s, pos, u)),
                            term_strategy(max_leaves=8)))
    assume(s != t)
    # the function positions, root first: the sites `redexes` tries
    want = [(p, u) for p, u in fn_subterms(s)
            if _maybe_subterm(t, p) is not None
            and replace_at(s, p, _HOLE) == replace_at(t, p, _HOLE)]
    assert list(uncprover.criteria._sites(s, t)) == want


def _g_tower(n, t):
    for _ in range(n):
        t = g(t)
    return t


def test_constrained_matches_follow_the_context_path(monkeypatch):
    calls = []
    real = uncprover.criteria.match

    def counting(pattern, subject):
        calls.append(subject)
        return real(pattern, subject)

    # `trs.redexes` matches the lhs's, `criteria` the rhs's
    for module in (uncprover.trs, uncprover.criteria):
        monkeypatch.setattr(module, "match", counting)
    C = lr_separated_linearize(TRS.of([RewriteRule(f(x, y), x), RewriteRule(g(x), x)]))
    counts = {}
    for depth in (1, 4, 8):
        for size in (1, 40):
            big = _g_tower(size, f(a, b))
            s, t = f(_g_tower(depth, a), big), f(_g_tower(depth, b), big)
            assert len(list(uncprover.criteria._sites(s, t))) == depth + 2
            calls.clear()
            step1_remainders(C, [], s, t)
            counts[depth, size] = len(calls)
    # an lhs and an rhs match at the root and at each g of the path; none at a
    assert counts == {(d, n): 2 * (d + 1) for d in (1, 4, 8) for n in (1, 40)}


def _module_level_dicts(module):
    """Dicts bound at module level, and the attribute dicts of its classes."""
    for value in vars(module).values():
        if isinstance(value, dict):
            yield value
        elif isinstance(value, type):
            yield from (v for v in vars(value).values() if isinstance(v, dict))


def test_weight_decreasing_check_keeps_no_state_after_it_returns(monkeypatch):
    alive, step1_keys, rank0_keys = [], [], []

    class Recording(uncprover.criteria._RankedSearch):
        def __init__(self, *args):
            super().__init__(*args)
            alive.append(weakref.ref(self))

        def states(self, gamma, value):
            step1_keys.extend(islice(reversed(self.step1), 1))
            rank0_keys.extend(islice(reversed(self.rank0), 1))
            return super().states(gamma, value)

    assert not any(hasattr(v, "cache_info") for v in vars(uncprover.criteria).values())
    monkeypatch.setattr(uncprover.criteria, "_RankedSearch", Recording)
    for budget in (None, 0.03):
        alive.clear()
        step1_keys.clear()
        rank0_keys.clear()
        report = weight_decreasing_unc(
            AC, Budgets(deadline=budget and time.monotonic() + budget))
        assert report.truncated == (budget is not None)
        assert alive and step1_keys and rank0_keys
        gc.collect()
        assert all(ref() is None for ref in alive)
        for keys in (step1_keys, rank0_keys):
            assert not any(keys[-1] in d for d in _module_level_dicts(uncprover.criteria))


@pytest.mark.parametrize("R", [AC, AC_G], ids=["AC", "AC_g"])
def test_wd_stops_at_the_deadline(R):
    timeout = 0.05
    start = time.monotonic()
    res = prove_unc(R, StrategyConfig(methods=("wd",), timeout=timeout))
    assert res.answer == "MAYBE"
    assert time.monotonic() - start < timeout + 0.1


def test_wd_cut_is_a_truncated_failure():
    report = weight_decreasing_unc(SEC4, Budgets(deadline=time.monotonic() - 1))
    assert (report.holds, report.failure, report.truncated) == (False, "timeout", True)
    assert weight_decreasing_unc(SEC4, Budgets(deadline=time.monotonic() + 60)) \
        == weight_decreasing_unc(SEC4)
