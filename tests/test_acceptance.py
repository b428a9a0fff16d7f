"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary table.
"""
import time
import random
from contextlib import contextmanager

import pytest

from uncprover.terms import (
    App,
    Var,
    canonical_key,
    replace_at,
    substitute,
    subterms,
    term_size,
    variables,
)
from uncprover.trs import (
    TRS,
    RewriteRule,
    conversion_class,
    critical_pairs,
    is_normal_form,
    rewrite_steps,
    trace_valid,
)
from uncprover.ctrs import (
    CongruenceClosure,
    Equation,
    conditional_critical_pairs,
    conditional_linearize,
    lr_separated_linearize,
)
from uncprover.criteria import (
    DEVELOPMENT_CLOSED,
    STRONGLY_CLOSED,
    eq_states,
    multiset,
    non_omega_overlapping,
    parallel_closed_check,
    right_reducible,
    strongly_closed_check,
    wd_ccp_satisfied,
    weight_decreasing_unc,
)
from uncprover.completion import (
    disprove_search,
    rule_reverse_mapped,
    unc_complete,
    validate_witness,
)
from uncprover.config import Budgets
from uncprover.strategy import prove_unc

from conftest import COPS_126, a, b, c, f, g, h, c1, canonical_renaming, random_term, x, y

RESULTS = []


@pytest.fixture(scope="module", autouse=True)
def _summary():
    yield
    print("\n" + "=" * 72)
    print("acceptance summary")
    for line in RESULTS:
        print("  " + line)
    print("=" * 72)


@contextmanager
def criterion(num, desc, limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {num:2d}: FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > limit:
        RESULTS.append(f"criterion {num:2d}: FAIL  {desc} (too slow: {elapsed:.2f}s)")
        raise AssertionError(f"criterion {num} exceeded {limit}s: {elapsed:.2f}s")
    RESULTS.append(f"criterion {num:2d}: PASS  {desc} ({elapsed*1000:.0f} ms)")


def ccp_canon(conds, left, right):
    """Canonical image of a conditional critical pair, conditions as a set."""
    ren = canonical_renaming([left, right] + [t for e in conds
                                              for t in (e.lhs, e.rhs)])
    conds = frozenset(repr(Equation(substitute(e.lhs, ren), substitute(e.rhs, ren)))
                      for e in conds)
    return conds, repr(substitute(left, ren)), repr(substitute(right, ren))


# --- systems used throughout -------------------------------------------------

SEC32 = TRS.of([
    RewriteRule(f(x, x, g(y)), h(y, x)),
    RewriteRule(g(a), f(a, b, b)),
    RewriteRule(h(x, y), h(a, y)),
    RewriteRule(f(x, x, y), h(a, x)),
])

SEC4 = TRS.of([
    RewriteRule(f(x, x), h(x, f(x, b))),
    RewriteRule(f(g(y), y), h(y, f(g(y), c1(b)))),
    RewriteRule(h(c1(x), b), h(b, b)),
    RewriteRule(c1(b), b),
])

COPS_254 = TRS.of([RewriteRule(a, f(c)), RewriteRule(a, f(h(c))),
                   RewriteRule(f(x), h(f(x)))])

SEC5 = TRS.of([RewriteRule(a, f(a)), RewriteRule(h(c, a), b),
               RewriteRule(h(a, x), h(x, f(x)))])


def test_criterion_1_linearization_closure_example():
    with criterion(1, "4-rule example: YES via closed linearization", 1.0):
        res = prove_unc(SEC32)
        assert res.answer == "YES"

        L = conditional_linearize(SEC32)
        report = parallel_closed_check(L)
        assert report.holds
        assert strongly_closed_check(L).holds

        ccps = conditional_critical_pairs(L)
        x1, x2, y1 = Var("x1"), Var("x2"), Var("y1")
        inner = {ccp_canon(p.conditions, p.left, p.right)
                 for p in ccps if not p.overlay}
        outer = {ccp_canon(p.conditions, p.left, p.right)
                 for p in ccps if p.overlay}
        cond = (Equation(x1, x2),)
        want_inner = {ccp_canon(cond, f(x1, x2, f(a, b, b)), h(a, x1))}
        want_outer = {ccp_canon(cond, h(a, x1), h(y, x1)),
                      ccp_canon(cond, h(y, x1), h(a, x1))}
        assert inner == want_inner
        assert outer == want_outer

        # the inner pair closes by the catch-all rule (index 3) at the root
        inner_ccp = [p for p in ccps if not p.overlay][0]
        cc = CongruenceClosure(inner_ccp.conditions)
        root_steps = [(i, u) for pos, i, u in
                      rewrite_steps(L, inner_ccp.left, cc.entails)
                      if pos == ()]
        assert (3, inner_ccp.right) in root_steps
        # each overlay closes by the h-collapse rule (index 2) from the right
        for p in ccps:
            if not p.overlay:
                continue
            cc = CongruenceClosure(p.conditions)
            target = p.left if p.left.sym == "h" and p.left.args[0] == a else p.right
            source = p.right if target is p.left else p.left
            closing = [(i, u) for pos, i, u in
                       rewrite_steps(L, source, cc.entails)]
            assert (2, target) in closing


def test_criterion_2_semi_equational_example():
    with criterion(2, "conditional system: one CCP, entailment, closure", 1.0):
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
        ccps = conditional_critical_pairs(C)
        assert len(ccps) == 1
        got = ccp_canon(ccps[0].conditions, ccps[0].left, ccps[0].right)
        want = ccp_canon((Equation(S(x), H(x)), Equation(H(x), A)),
                         P(R_(x)), P(R_(H(x))))
        assert got == want
        assert CongruenceClosure([Equation(S(x), H(x)), Equation(H(x), A)]).entails(S(x), A)
        assert parallel_closed_check(C).holds


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


def test_criterion_3_weight_decreasing_example():
    with criterion(3, "weight-decreasing example incl. exact 14-state set", 5.0):
        assert weight_decreasing_unc(SEC4).holds

        L = lr_separated_linearize(SEC4)
        # overlay closes at rank 1, inner trivial pair at rank 0
        assert wd_ccp_satisfied(L, SEC4_GAMMA, SEC4_S, SEC4_T) == "rank-1 conversion"
        inner = [p for p in conditional_critical_pairs(L) if not p.overlay]
        assert len(inner) == 1 and inner[0].left == inner[0].right == h(b, b)
        assert wd_ccp_satisfied(L, inner[0].conditions, inner[0].left,
                                inner[0].right) == "rank-0 conversion"

        # exact equality with the fourteen listed states.  NOTE: the
        # inference rules derive nine further states (each confirmed by the
        # independent derivation enumerator, see test_criteria), so this
        # set equality cannot hold for a faithful implementation; it is
        # kept as specified and expected to fail.
        key = dict(zip("abcd", SEC4_GAMMA))
        listed = {(multiset(key[ch] for ch in tags), t) for tags, t in SEC4_LISTED}
        got = {(st.remaining, st.value) for st in eq_states(SEC4_GAMMA, SEC4_S)}
        assert listed <= got
        assert got == listed, (
            f"faithful closure yields {len(got)} states, the listing has "
            f"{len(listed)}; the extra states are genuinely derivable")


def test_criterion_4_completion_cops254():
    with criterion(4, "completion adds f(h(c)) -> f(c), UNC in round 2", 1.0):
        verdict = unc_complete(COPS_254, STRONGLY_CLOSED, max_rounds=3)
        assert verdict.status == "UNC"
        assert verdict.rounds == 2
        assert verdict.added_rules == (RewriteRule(f(h(c)), f(c)),)


def test_criterion_5_rule_reversing_example():
    with criterion(5, "rule reversing: exact 4-rule image, YES via rev+dc", 1.0):
        Rp = rule_reverse_mapped(SEC5)[0]
        assert Rp.rules == (RewriteRule(a, a), RewriteRule(f(a), a),
                            RewriteRule(h(c, a), b),
                            RewriteRule(h(a, x), h(x, f(x))))
        res = prove_unc(SEC5)
        assert res.answer == "YES"
        assert res.method == "rev+dc"
        verdict = unc_complete(Rp, DEVELOPMENT_CLOSED, max_rounds=3)
        assert verdict.status == "UNC" and verdict.rounds == 1
        assert verdict.added_rules == ()


def test_criterion_6_right_reducibility_cops126():
    with criterion(6, "divergence rule: right-reducible, YES via rr", 0.1):
        assert right_reducible(COPS_126)
        res = prove_unc(COPS_126)
        assert res.answer == "YES"
        assert res.method == "rr"


def test_criterion_7_disproofs():
    with criterion(7, "disproofs: constants pair and variable escape", 0.1):
        R1 = TRS.of([RewriteRule(a, b), RewriteRule(a, c)])
        res1 = prove_unc(R1)
        assert res1.answer == "NO"
        w1 = disprove_search(R1)
        assert w1 is not None and validate_witness(R1, w1)
        assert {w1.s, w1.t} == {b, c}

        R2 = TRS.of([RewriteRule(f(x), c), RewriteRule(f(x), g(x))])
        res2 = prove_unc(R2)
        assert res2.answer == "NO"
        w2 = disprove_search(R2)
        assert w2 is not None and validate_witness(R2, w2)
        # variable-escape route: the two witnesses are renamings
        assert canonical_key((w2.s,)) == canonical_key((w2.t,))
        assert w2.s.sym == w2.t.sym == "g"


# --- criterion 8: oracle equivalence ------------------------------------------

GROUND_POOL = [a, g(a), f(a, a), g(g(a)), f(g(a), a)]


def _ground_cp_oracle(R):
    out = set()
    for oi, outer in enumerate(R.rules):
        for ii, inner in enumerate(R.rules):
            for pos, sub in subterms(outer.lhs):
                if isinstance(sub, Var) or (pos == () and oi == ii):
                    continue
                if sub == inner.lhs:
                    out.add((replace_at(outer.lhs, pos, inner.rhs), outer.rhs))
    return out


def _three_symbol_term(rnd, var_names, depth):
    # terms over exactly the signature {f/2, g/1, a/0}
    if depth == 0 or rnd.random() < 0.35:
        if var_names and rnd.random() < 0.5:
            return Var(rnd.choice(var_names))
        return a
    sym, ar = rnd.choice([("f", 2), ("g", 1), ("a", 0)])
    return App(sym, tuple(_three_symbol_term(rnd, var_names, depth - 1)
                          for _ in range(ar)))


def _random_ground_rule(rnd):
    lhs = _three_symbol_term(rnd, (), 2)
    while lhs == a:
        lhs = _three_symbol_term(rnd, (), 2)
    return RewriteRule(lhs, _three_symbol_term(rnd, (), 1))


def _random_open_rule(rnd):
    lhs = _three_symbol_term(rnd, ("x", "y"), 2)
    while isinstance(lhs, Var):
        lhs = _three_symbol_term(rnd, ("x", "y"), 2)
    rhs = _three_symbol_term(rnd, ("x", "y"), 1)
    if variables(rhs) - variables(lhs):
        rhs = a
    return RewriteRule(lhs, rhs)


def _enumerated_peaks(R):
    """Ground critical peaks of instantiated rules over the small pool."""
    from itertools import product as iproduct
    out = set()
    for oi, outer in enumerate(R.rules):
        o_vars = sorted(variables(outer.lhs))
        for theta_vals in iproduct(GROUND_POOL, repeat=len(o_vars)):
            theta = dict(zip(o_vars, theta_vals))
            for ii, inner in enumerate(R.rules):
                i_vars = sorted(variables(inner.lhs))
                for pos, sub in subterms(outer.lhs):
                    if isinstance(sub, Var) or (pos == () and oi == ii):
                        continue
                    target = substitute(sub, theta)
                    for eta_vals in iproduct(GROUND_POOL, repeat=len(i_vars)):
                        eta = dict(zip(i_vars, eta_vals))
                        if substitute(inner.lhs, eta) != target:
                            continue
                        left = replace_at(substitute(outer.lhs, theta), pos,
                                          substitute(inner.rhs, eta))
                        out.add((left, substitute(outer.rhs, theta)))
    return out


def _pair_instance_of_some_cp(cps, left, right):
    from uncprover.terms import match
    for cp in cps:
        sigma = match(App("\x00pair", (cp.left, cp.right)),
                      App("\x00pair", (left, right)))
        if sigma is not None:
            return True
    return False


def _conversion_oracle(eqs, s, t, cap):
    seen = {s}
    work = [s]
    while work:
        u = work.pop()
        for e in eqs:
            for here, there in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                for pos, sub in subterms(u):
                    if sub == here:
                        v = replace_at(u, pos, there)
                        if term_size(v) <= cap and v not in seen:
                            seen.add(v)
                            work.append(v)
    return t in seen


def _sim0_oracle(eqs, term):
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


def test_criterion_8_oracle_equivalence():
    with criterion(8, "oracle equivalence: critical pairs, entailment, states", 30.0):
        rnd = random.Random(881)
        bad = 0
        for _ in range(210):
            R = TRS.of([_random_ground_rule(rnd) for _ in range(rnd.randint(1, 3))])
            got = {(cp.left, cp.right) for cp in critical_pairs(R)}
            if got != _ground_cp_oracle(R):
                bad += 1
        assert bad == 0

        # non-ground rules: every enumerated ground peak is an instance of a
        # computed critical pair (completeness of unification-based overlap)
        for _ in range(210):
            R = TRS.of([_random_open_rule(rnd) for _ in range(rnd.randint(1, 2))])
            cps = critical_pairs(R)
            for left, right in _enumerated_peaks(R):
                if not _pair_instance_of_some_cp(cps, left, right):
                    bad += 1
        assert bad == 0

        for _ in range(210):
            eqs = [Equation(random_term(rnd, depth=1), random_term(rnd, depth=1))
                   for _ in range(rnd.randint(1, 4))]
            s, t = random_term(rnd, depth=1), random_term(rnd, depth=1)
            cap = max([term_size(u) for e in eqs for u in (e.lhs, e.rhs)]
                      + [term_size(s), term_size(t)]) + 4
            if CongruenceClosure(eqs).entails(s, t) != _conversion_oracle(eqs, s, t, cap):
                bad += 1
        assert bad == 0

        for _ in range(210):
            eqs = [Equation(random_term(rnd, depth=1), random_term(rnd, depth=1))
                   for _ in range(rnd.randint(0, 3))]
            term = random_term(rnd, depth=2)
            got = {(st.remaining, st.value) for st in eq_states(eqs, term)}
            if got != _sim0_oracle(eqs, term):
                bad += 1
        assert bad == 0


# --- criterion 9: metamorphic suites --------------------------------------------


def _random_rule(rnd):
    lhs = random_term(rnd, depth=2)
    while isinstance(lhs, Var):
        lhs = random_term(rnd, depth=2)
    rhs = random_term(rnd, depth=2)
    if variables(rhs) - variables(lhs):
        rhs = b
    return RewriteRule(lhs, rhs)


def test_criterion_9_metamorphic():
    with criterion(9, "metamorphic: reversing, completion replay, lifting", 60.0):
        rnd = random.Random(424)
        violations = 0
        # rule reversing preserves conversion neighbourhoods and normal forms
        for _ in range(50):
            R = TRS.of([_random_rule(rnd) for _ in range(rnd.randint(1, 3))])
            Rp = rule_reverse_mapped(R)[0]
            for _ in range(4):
                t = random_term(rnd, depth=2)
                keep = frozenset(variables(t))
                canon = lambda S: {canonical_key((u,), keep)
                                   for u in conversion_class(S, t, Budgets(3, 30)).reached}
                if canon(R) != canon(Rp):
                    violations += 1
                if is_normal_form(R, t) != is_normal_form(Rp, t):
                    violations += 1
        # completion additions replay over the original system
        for R in (COPS_254,
                  TRS.of([RewriteRule(a, g(c)), RewriteRule(a, g(g(c))),
                          RewriteRule(g(x), g(g(x)))]),
                  TRS.of([RewriteRule(f(x), g(x)), RewriteRule(f(x), g(g(x))),
                          RewriteRule(g(g(x)), g(x))])):
            for pred in (STRONGLY_CLOSED, DEVELOPMENT_CLOSED):
                verdict = unc_complete(R, pred, max_rounds=3)
                grown = R
                for rule, trace in zip(verdict.added_rules, verdict.added_traces):
                    if not trace_valid(R, trace):
                        violations += 1
                    if trace[0].src != rule.lhs or trace[-1].dst != rule.rhs:
                        violations += 1
                    if is_normal_form(grown, rule.lhs):
                        violations += 1
                    grown = TRS(grown.rules + (rule,))
        # conditional closure checks match plain ones on lifted systems
        for _ in range(120):
            R = TRS.of([_random_rule(rnd) for _ in range(rnd.randint(1, 3))])
            if parallel_closed_check(R).holds != _plain_parallel_closed(R):
                violations += 1
            if strongly_closed_check(R).holds != _plain_strongly_closed(R):
                violations += 1
        assert violations == 0


def _plain_parallel_closed(R, depth=5):
    from uncprover.trs import bounded_reducts, parallel_step_reducts
    if not R.left_linear:
        return False
    for cp in critical_pairs(R):
        par = parallel_step_reducts(R, cp.left)
        if not cp.overlay:
            if cp.right not in par:
                return False
        elif not (par & bounded_reducts(R, cp.right, depth)):
            return False
    return True


def _plain_strongly_closed(R, depth=5):
    from uncprover.trs import bounded_reducts, reducts
    if not R.linear:
        return False
    for cp in critical_pairs(R):
        u, v = cp.left, cp.right
        if not (bounded_reducts(R, u, depth) & ({v} | reducts(R, v))):
            return False
        if not (({u} | reducts(R, u)) & bounded_reducts(R, v, depth)):
            return False
    return True


def test_criterion_10_omega_differential():
    with criterion(10, "rational-unification overlap beyond syntactic", 1.0):
        R = TRS.of([RewriteRule(f(x, x), a), RewriteRule(f(y, g(y)), b)])
        assert not non_omega_overlapping(R)
        # no syntactic overlap: the lhs pair only unifies over infinite trees
        assert critical_pairs(R) == ()
