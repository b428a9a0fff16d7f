import random
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uncprover.config import Budgets
from uncprover.criteria import strongly_non_overlapping, weight_decreasing_unc
from uncprover.terms import (
    App,
    Var,
    fresh_name,
    count_var,
    fn_subterms,
    mgu,
    renaming_apart,
    replace_at,
    substitute,
    var_occurrences,
    variables,
)
from uncprover.trs import TRS, RewriteRule, critical_pairs
from uncprover.ctrs import (
    CongruenceClosure,
    Equation,
    conditional_critical_pairs,
    conditional_linearize,
    lr_separated_linearize,
)

from conftest import (
    AC, CL, a, b, c, d, f, g, g_tower, h, c1, canonical_renaming, random_system, random_term,
    small_systems, term_strategy, x, y, z,
)


def eqset(ccp):
    return frozenset(map(repr, ccp.conditions))


# --- conditional linearization ----------------------------------------------


def test_linearize_example_rule():
    R = TRS.of([RewriteRule(f(x, x, g(y)), h(y, x))])
    C = conditional_linearize(R)
    rule = C.rules[0]
    x1, x2 = Var("x1"), Var("x2")
    assert rule.lhs == f(x1, x2, g(y))
    assert rule.rhs == h(y, x1)
    assert rule.conditions == (Equation(x1, x2),)


def test_linearize_left_linear_unchanged():
    R = TRS.of([RewriteRule(f(x, y), x)])
    C = conditional_linearize(R)
    assert C.rules[0] == RewriteRule(f(x, y), x, ())


def test_linearize_returns_a_left_linear_system_itself():
    # so the critical pairs of a left-linear system and of its linearization
    # are one list under a pair memo
    R = TRS.of([RewriteRule(f(x, y), x), RewriteRule(g(x), f(x, x))])
    assert conditional_linearize(R) is R
    assert conditional_linearize(NON_LINEAR) is not NON_LINEAR


def test_linearize_triple_occurrence_chain():
    R = TRS.of([RewriteRule(App("t", (x, x, x)), x)])
    C = conditional_linearize(R)
    rule = C.rules[0]
    names = [v.name for _, v in
             [(p, s) for p, s in _var_occs(rule.lhs)]]
    assert len(set(names)) == 3
    assert len(rule.conditions) == 2
    # the chain identifies exactly the three copies
    cc = CongruenceClosure(rule.conditions)
    v1, v2, v3 = (Var(n) for n in names)
    assert cc.entails(v1, v2) and cc.entails(v2, v3)


def test_fresh_names_avoid_the_symbols_of_every_rule():
    # the constants x1 and x2, one in the linearized rule and one in another
    R = TRS.of([RewriteRule(f(x, x), App("x1")), RewriteRule(g(App("x2")), a)])
    x3, x4 = Var("x3"), Var("x4")
    assert conditional_linearize(R).rules[0] == \
        RewriteRule(f(x3, x4), App("x1"), (Equation(x3, x4),))
    assert lr_separated_linearize(R).rules[0] == \
        RewriteRule(f(x3, x4), App("x1"), (Equation(x3, x), Equation(x4, x)))
    for C in (conditional_linearize(R), lr_separated_linearize(R)):
        assert not any(r.all_variables() & R.symbols() for r in C.rules)


def _var_occs(t):
    from uncprover.terms import subterms
    return [(p, s) for p, s in subterms(t) if isinstance(s, Var)]


@given(term_strategy(max_leaves=5))
def test_linearization_left_linear_type1_kernel(lhs):
    if isinstance(lhs, Var):
        return
    rule = RewriteRule(lhs, sorted(variables(lhs)) and Var(sorted(variables(lhs))[0]) or a)
    C = conditional_linearize(TRS.of([rule]))
    lin = C.rules[0]
    assert lin.left_linear and lin.type1
    # kernel: two copies are congruent under the conditions iff they copy
    # the same original variable
    occs_new = [s.name for _, s in _var_occs(lin.lhs)]
    occs_old = [s.name for _, s in _var_occs(rule.lhs)]
    cc = CongruenceClosure(lin.conditions)
    for n1, o1 in zip(occs_new, occs_old):
        for n2, o2 in zip(occs_new, occs_old):
            assert cc.entails(Var(n1), Var(n2)) == (o1 == o2)


# --- LR-separated linearization ----------------------------------------------


def _lr_separated(rule):
    """Linear lhs whose variables are exactly the condition lhs variables,
    pairwise distinct and disjoint from the condition rhs and rule rhs
    variables, which the condition rhs's cover."""
    xs = [c.lhs for c in rule.conditions]
    if not rule.left_linear or not all(isinstance(v, Var) for v in xs):
        return False
    names = [v.name for v in xs]
    ys = set().union(*(variables(c.rhs) for c in rule.conditions))
    return (len(names) == len(set(names)) and set(names) == variables(rule.lhs)
            and not set(names) & ys and variables(rule.rhs) <= ys)


def test_lrs_example_rules():
    R = TRS.of([
        RewriteRule(f(x, x), h(x, f(x, b))),
        RewriteRule(f(g(y), y), h(y, f(g(y), c1(b)))),
        RewriteRule(h(c1(x), b), h(b, b)),
        RewriteRule(c1(b), b),
    ])
    C = lr_separated_linearize(R)
    x1, x2, y1, y2 = Var("x1"), Var("x2"), Var("y1"), Var("y2")
    assert C.rules[0] == RewriteRule(
        f(x1, x2), h(x, f(x, b)), (Equation(x1, x), Equation(x2, x)))
    assert C.rules[1] == RewriteRule(
        f(g(y1), y2), h(y, f(g(y), c1(b))), (Equation(y1, y), Equation(y2, y)))
    assert C.rules[3] == RewriteRule(c1(b), b, ())
    assert all(map(_lr_separated, C.rules))


def test_lrs_fresh_rhs_variable():
    C = lr_separated_linearize(TRS.of([RewriteRule(f(x, y), y)]))
    rule = C.rules[0]
    x1, x2 = Var("x1"), Var("y1")
    assert rule.lhs == f(Var("x1"), Var("y1"))
    assert rule.conditions == (Equation(Var("x1"), x), Equation(Var("y1"), y))
    assert rule.rhs == y
    assert _lr_separated(rule)


@given(term_strategy(max_leaves=5), term_strategy(max_leaves=3))
def test_lrs_invariants(lhs, rhs):
    if isinstance(lhs, Var) or variables(rhs) - variables(lhs):
        return
    R = TRS.of([RewriteRule(lhs, rhs)])
    C = lr_separated_linearize(R)
    assert all(map(_lr_separated, C.rules))
    if R.non_duplicating:
        assert C.non_duplicating


# --- the two linearizations against the two-walk oracles ---------------------


def _oracle_conditional_linearize(R):
    """The conditional linearization as it was written before both
    linearizations shared one occurrence walk."""
    out = []
    symbols = R.symbols()
    for rule in R.rules:
        if rule.left_linear:
            out.append(rule)
            continue
        used = variables(rule.lhs) | variables(rule.rhs) | symbols
        occ_names = var_occurrences(rule.lhs)
        copies = {}
        new_names = []
        for name in occ_names:
            if occ_names.count(name) == 1:
                copies.setdefault(name, [name])
                new_names.append(name)
            else:
                fresh = fresh_name(name, used)
                used.add(fresh)
                copies.setdefault(name, []).append(fresh)
                new_names.append(fresh)
        lhs = _oracle_relabel_occurrences(rule.lhs, new_names)
        first_copy = {name: Var(cs[0]) for name, cs in copies.items()}
        rhs = substitute(rule.rhs, first_copy)
        conds = []
        for name in sorted(copies):
            cs = copies[name]
            conds.extend(Equation(Var(a_), Var(b_)) for a_, b_ in zip(cs, cs[1:]))
        out.append(RewriteRule(lhs, rhs, tuple(conds)))
    return TRS(tuple(out))


def _oracle_lr_separated_linearize(R):
    """The LR-separated linearization as it was written before both
    linearizations shared one occurrence walk."""
    out = []
    symbols = R.symbols()
    for rule in R.rules:
        used = variables(rule.lhs) | variables(rule.rhs) | symbols
        occ_names = var_occurrences(rule.lhs)
        new_names = []
        conds = []
        for name in occ_names:
            fresh = fresh_name(name, used)
            used.add(fresh)
            new_names.append(fresh)
            conds.append(Equation(Var(fresh), Var(name)))
        lhs = _oracle_relabel_occurrences(rule.lhs, new_names)
        out.append(RewriteRule(lhs, rule.rhs, tuple(conds)))
    return TRS(tuple(out))


def _oracle_relabel_occurrences(t, names):
    """Replace variable occurrences of `t` left to right by `names`."""
    it = iter(names)

    def go(u):
        if isinstance(u, Var):
            return Var(next(it))
        return App(u.sym, tuple(go(a_) for a_ in u.args))

    return go(t)


def _assert_linearizations_match_oracles(R):
    C = conditional_linearize(R)
    assert C.rules == _oracle_conditional_linearize(R).rules
    assert all(lin is rule for rule, lin in zip(R.rules, C.rules) if rule.left_linear)
    assert lr_separated_linearize(R).rules == _oracle_lr_separated_linearize(R).rules


def test_linearizations_match_oracles_on_random_systems(rng):
    non_linear = 0
    for _ in range(300):
        R = random_system(rng)
        non_linear += not R.left_linear
        _assert_linearizations_match_oracles(R)
    assert non_linear >= 10


def _leafy_term(rnd, names, depth):
    """A term over f/2, g/1 and a whose leaves are mostly variables of
    `names`, so that variables repeat often."""
    if depth == 0 or rnd.random() < 0.3:
        return Var(rnd.choice(names)) if names and rnd.random() < 0.8 else a
    if rnd.random() < 0.3:
        return g(_leafy_term(rnd, names, depth - 1))
    return f(_leafy_term(rnd, names, depth - 1), _leafy_term(rnd, names, depth - 1))


def test_linearization_is_linear_exactly_on_a_right_linear_system(rng):
    # so `STRONGLY_CLOSED`'s guard on the linearization is scl's one guard
    seen = Counter()
    for _ in range(300):
        rules = []
        for _ in range(rng.randint(1, 3)):
            lhs = f(_leafy_term(rng, "xy", 2), _leafy_term(rng, "xy", 2))
            rules.append(RewriteRule(lhs, _leafy_term(rng, sorted(variables(lhs)), 3)))
        R = TRS.of(rules)
        right_linear = all(r.right_linear for r in R.rules)
        assert conditional_linearize(R).linear == right_linear, R
        seen[R.left_linear, right_linear] += 1
    assert len(seen) == 4 and min(seen.values()) >= 10, seen


@given(small_systems())
def test_linearizations_match_oracles_on_small_systems(R):
    _assert_linearizations_match_oracles(R)


def _colliding_term(rnd, depth):
    """A term whose variables x, x1, y collide with the constants x1, x2 and
    y1 and with the names the linearizations derive from x and y."""
    if depth == 0 or rnd.random() < 0.3:
        if rnd.random() < 0.6:
            return Var(rnd.choice(["x", "x1", "y"]))
        return App(rnd.choice(["x1", "x2", "y1"]))
    return rnd.choice([lambda: f(_colliding_term(rnd, depth - 1),
                                 _colliding_term(rnd, depth - 1)),
                       lambda: g(_colliding_term(rnd, depth - 1))])()


def test_linearizations_match_oracles_when_names_collide():
    x1, x2 = Var("x1"), Var("x2")
    fixed = [
        TRS.of([RewriteRule(f(x, x), App("x1")), RewriteRule(g(App("x2")), a)]),
        TRS.of([RewriteRule(f(x, f(x, x1)), g(x1)), RewriteRule(g(x1), x1)]),
        TRS.of([RewriteRule(f(f(x, x1), f(x1, x)), f(x, x1)),
                RewriteRule(f(x2, x2), App("x11"))]),
    ]
    for R in fixed:
        _assert_linearizations_match_oracles(R)
    rnd = random.Random(31)
    rules_seen = 0
    while rules_seen < 300:
        lhs = _colliding_term(rnd, 3)
        if isinstance(lhs, Var):
            continue
        rhs = _colliding_term(rnd, 2)
        if variables(rhs) - variables(lhs):
            rhs = App("x1")
        R = TRS.of([RewriteRule(lhs, rhs), RewriteRule(f(x, x), App("x2"))])
        _assert_linearizations_match_oracles(R)
        rules_seen += 1


def test_linearizations_refuse_a_conditional_system():
    # f(x,x) -> a <= x = b: linearizing would drop the condition x = b
    C = TRS.of([RewriteRule(f(x, x), a, (Equation(x, b),))])
    for check in (conditional_linearize, lr_separated_linearize,
                  strongly_non_overlapping, weight_decreasing_unc):
        with pytest.raises(ValueError, match="unconditional"):
            check(C)


# --- one rule type -------------------------------------------------------------


def test_conditional_names_are_the_one_rule_and_system_type():
    C = TRS.of([RewriteRule(f(x, y), x, (Equation(x, y),))])
    assert C.conditional and not TRS.of([RewriteRule(f(x, y), x)]).conditional
    S = TRS.of([RewriteRule(f(x, y), x)])
    assert conditional_linearize(S).rules[0] is S.rules[0]


def _plain_non_duplicating(rule):
    """Non-duplication of a plain rule, as the plain rule type defined it:
    no lhs variable occurs more often in the rhs than in the lhs."""
    return all(count_var(rule.lhs, v) >= count_var(rule.rhs, v)
               for v in variables(rule.lhs))


def _lr_separated_non_duplicating(rule):
    """Non-duplication in the LR-separated sense, as the conditional rule
    type defined it: every rhs variable occurs at most as often as in the
    condition rhs vector."""
    cond_rhs = [c.rhs for c in rule.conditions]
    return all(count_var(rule.rhs, v) <= sum(count_var(t, v) for t in cond_rhs)
               for v in variables(rule.rhs))


def _rule_strategy():
    """A plain rule over f/2, g/1, a, b whose rhs uses only lhs variables."""
    lhs = term_strategy(max_leaves=5).filter(lambda t: not isinstance(t, Var))
    return lhs.flatmap(lambda l: term_strategy(
        tuple(sorted(variables(l))), max_leaves=5).map(lambda r: RewriteRule(l, r)))


@given(st.lists(_rule_strategy(), min_size=1, max_size=3))
def test_non_duplicating_serves_the_plain_and_the_lr_separated_sense(rules):
    R = TRS.of(rules)
    C = lr_separated_linearize(R)
    assert [r.non_duplicating for r in R.rules] == \
        [_plain_non_duplicating(r) for r in R.rules]
    assert [r.non_duplicating for r in C.rules] == \
        [_lr_separated_non_duplicating(r) for r in C.rules]
    assert R.non_duplicating == C.non_duplicating == \
        all(map(_plain_non_duplicating, rules))


# --- conditional critical pairs ----------------------------------------------


def test_ccp_of_strongly_non_overlapping_linearization():
    R = TRS.of([RewriteRule(f(x, x), a), RewriteRule(g(b), b)])
    assert conditional_critical_pairs(conditional_linearize(R)) == ()


def test_ccp_listing_conditional_linearization():
    R = TRS.of([
        RewriteRule(f(x, x, g(y)), h(y, x)),
        RewriteRule(g(a), f(a, b, b)),
        RewriteRule(h(x, y), h(a, y)),
        RewriteRule(f(x, x, y), h(a, x)),
    ])
    ccps = conditional_critical_pairs(conditional_linearize(R))
    x1 = Var("x1")
    inner = [p for p in ccps if not p.overlay]
    outer = [p for p in ccps if p.overlay]
    assert len(inner) == 1 and len(outer) == 2
    assert (inner[0].left, inner[0].right) == (f(x1, Var("x2"), f(a, b, b)), h(a, x1))
    assert eqset(inner[0]) == {"x1 = x2"}
    assert {(p.left, p.right) for p in outer} \
        == {(h(a, x1), h(y, x1)), (h(Var("y1"), x1), h(a, x1))}
    for p in outer:
        assert eqset(p) == {"x1 = x2"}


def test_ccp_semi_equational_example():
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
    ccp = ccps[0]
    x1 = Var("x1")
    assert not ccp.overlay
    assert (ccp.left, ccp.right) == (P(R_(x1)), P(R_(H(x1))))
    assert eqset(ccp) == {"S(x1) = H(x1)", "H(x1) = A"}


def test_ccp_respects_multiset_duplicates():
    # two identical instantiated conditions stay as a length-2 multiset
    R = TRS.of([RewriteRule(f(x, x, g(y)), h(y, x)), RewriteRule(f(x, x, y), h(a, x))])
    ccps = conditional_critical_pairs(conditional_linearize(R))
    overlay = [p for p in ccps if p.overlay]
    assert overlay and all(len(p.conditions) == 2 for p in overlay)


def test_ccp_keeps_pairs_that_differ_only_in_conditions():
    C = TRS.of([
        RewriteRule(f(x), a, (Equation(x, b),)),
        RewriteRule(f(x), c),
        RewriteRule(f(x), c, (Equation(x, d),)),
    ])
    shown = [repr(p) for p in conditional_critical_pairs(C)]
    assert "x = b => <a, c> [overlay]" in shown
    assert "x = b, x = d => <a, c> [overlay]" in shown


@given(term_strategy(max_leaves=4), term_strategy(max_leaves=3))
def test_ccp_of_lifted_trs_matches_critical_pairs(lhs, rhs):
    if isinstance(lhs, Var) or variables(rhs) - variables(lhs):
        return
    R = TRS.of([RewriteRule(lhs, rhs), RewriteRule(g(g(x)), x)])
    assert all(not p.conditions for p in critical_pairs(R))


def _ccp_key(conditions, left, right, overlay):
    """The identity of a conditional critical pair up to renaming, written
    apart from the builder: the sides renamed canonically, condition-only
    variables numbered by first occurrence in the conditions sorted with
    those variables masked, and the conditions sorted."""
    # the \x00 prefixes keep canonical names clear of user variable names
    ren = canonical_renaming([left, right], prefix="\x00v")
    left = substitute(left, ren)
    right = substitute(right, ren)
    partial = [c_.subst(ren) for c_ in conditions]
    image = {v.name for v in ren.values()}
    rest = {n for c_ in partial for n in variables(c_.lhs) | variables(c_.rhs)
            if n not in image}
    mask = {n: Var("\x00w") for n in rest}
    partial.sort(key=lambda c_: repr(c_.subst(mask)))
    ren2 = canonical_renaming([u for c_ in partial for u in (c_.lhs, c_.rhs)],
                              keep=image, prefix="\x00w")
    conds = sorted(repr(c_.subst(ren2)) for c_ in partial)
    return (overlay, repr(left), repr(right), tuple(conds))


def _oracle_conditional_critical_pairs(C):
    """The overlap loop of the conditional builder before `trs.overlaps`:
    every site unified, every ordered pair renamed.  Pairs are tuples
    (conditions, left, right, overlay, outer, inner, pos, repr)."""
    out = []
    seen = set()
    for oi, outer in enumerate(C.rules):
        used = outer.all_variables()
        for ii, inner0 in enumerate(C.rules):
            ren = renaming_apart(sorted(inner0.all_variables()), set(used))
            inner = inner0.rename(ren)
            for pos, sub in fn_subterms(outer.lhs):
                if pos == () and ii == oi:
                    continue
                sigma = mgu(inner.lhs, sub)
                if sigma is None:
                    continue
                left = substitute(replace_at(outer.lhs, pos, inner.rhs), sigma)
                right = substitute(outer.rhs, sigma)
                gamma = tuple(c_.subst(sigma)
                              for c_ in inner.conditions + outer.conditions)
                key = _ccp_key(gamma, left, right, pos == ())
                if key in seen:
                    continue
                seen.add(key)
                conds = ", ".join(map(repr, gamma)) if gamma else "{}"
                kind = "overlay" if pos == () else "inner-outer"
                out.append((gamma, left, right, pos == (), oi, ii, pos,
                            f"{conds} => <{left!r}, {right!r}> [{kind}]"))
    return out


def _assert_same_ccps(R):
    # the linearizations refuse a conditional system, so it goes in alone
    linearized = () if R.conditional else (conditional_linearize(R), lr_separated_linearize(R))
    for C in (R, *linearized):
        assert [(p.conditions, p.left, p.right, p.overlay, p.outer, p.inner, p.pos,
                 repr(p)) for p in conditional_critical_pairs(C)] \
            == _oracle_conditional_critical_pairs(C)


NON_LINEAR = TRS.of([RewriteRule(f(x, x), a), RewriteRule(f(x, g(x)), b),
                     RewriteRule(c, g(c))])
# two overlaps each give the pair x = a, x = g(_) => <f(b), x>, with the
# conditions in either order and the condition-only variable named x1 or z,
# and the overlays <b, b> have only condition-only variables; in the other
# system the overlays in both orders meet as one pair
SWAPPED_CONDITIONS = TRS.of([
    RewriteRule(f(g(x)), x, (Equation(x, a),)),
    RewriteRule(g(y), b, (Equation(y, g(x)),)),
    RewriteRule(f(g(x)), x, (Equation(x, g(z)),)),
    RewriteRule(g(y), b, (Equation(y, a),))])
MIRRORED_CONDITIONS = TRS.of([RewriteRule(f(x, y), h(x, y), (Equation(x, g(z)),)),
                              RewriteRule(f(x, y), h(y, x), (Equation(y, g(z)),))])


@pytest.mark.parametrize("R", [CL, AC, NON_LINEAR, SWAPPED_CONDITIONS, MIRRORED_CONDITIONS],
                         ids=["CL", "AC", "non-linear", "swapped", "mirrored"])
def test_ccps_match_overlap_loop_oracle(R):
    _assert_same_ccps(R)


def test_renamed_copies_of_one_conditional_pair_are_one_pair():
    # the first and the third rule overlap both ways, giving
    # x = g(y1), y1 = b, x = g(y) and x = g(y1), x = g(y), y = b => <a, a>,
    # one pair up to renaming y <-> y1
    R = TRS.of([RewriteRule(f(x), a, (Equation(x, g(y)),)),
                RewriteRule(f(x), b, (Equation(x, h(y)),)),
                RewriteRule(f(x), a, (Equation(x, g(y)), Equation(y, b)))])
    assert [(p.left, p.right) for p in critical_pairs(R)].count((a, a)) == 1
    _assert_same_ccps(R)


def test_ccps_match_overlap_loop_oracle_on_random_systems(rng):
    for _ in range(300):
        _assert_same_ccps(random_system(rng))


# --- congruence closure --------------------------------------------------------


def test_cc_examples():
    S = lambda t: App("S", (t,))
    H = lambda t: App("H", (t,))
    A = App("A")
    assert CongruenceClosure([Equation(S(x), H(x)), Equation(H(x), A)]).entails(S(x), A)
    assert CongruenceClosure([]).entails(f(x, a), f(x, a))
    assert CongruenceClosure([Equation(f(a, a), b), Equation(g(b), c)]).entails(
        g(f(a, a)), c)


def test_cc_negative():
    assert not CongruenceClosure([Equation(a, b)]).entails(c, d)
    assert not CongruenceClosure([Equation(g(a), g(b))]).entails(a, b)  # no projection


def test_cc_tells_a_variable_from_a_constant_of_the_same_name():
    # both print as x, and renaming a rule apart can make such a variable
    x_const = App("x")
    assert not CongruenceClosure([]).entails(g(x), g(x_const))
    assert not CongruenceClosure([Equation(a, x)]).entails(g(x_const), g(a))
    assert CongruenceClosure([Equation(x, x_const)]).entails(g(x), g(x_const))


def test_cc_lazy_query_extension():
    cc = CongruenceClosure([Equation(a, b)])
    # query terms outside the original universe
    assert cc.entails(g(g(a)), g(g(b)))
    assert not cc.entails(g(a), g(g(b)))


def test_cc_checks_its_budgets_once_per_closure_pass():
    # g^300(a) = g^300(b) under a = b closes one level per pass: seconds
    # of work without a clock
    start = time.monotonic()
    cc = CongruenceClosure([Equation(a, b)], Budgets(deadline=start + 0.05))
    with pytest.raises(TimeoutError):
        cc.entails(g_tower(300, a), g_tower(300, b))
    assert time.monotonic() - start < 0.05 + 0.1


def conversion_oracle(eqs, s, t, size_cap):
    """Fixpoint of single equation replacements, size-capped."""
    from uncprover.terms import replace_at, subterms, term_size
    seen = {s}
    work = [s]
    while work:
        u = work.pop()
        for e in eqs:
            for here, there in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
                for pos, sub in subterms(u):
                    if sub == here:
                        v = replace_at(u, pos, there)
                        if term_size(v) <= size_cap and v not in seen:
                            seen.add(v)
                            work.append(v)
    return t in seen


def test_cc_vs_bounded_deduction_oracle(rng):
    from uncprover.terms import term_size
    mismatches = 0
    checked = 0
    for _ in range(220):
        eqs = [Equation(random_term(rng, depth=1), random_term(rng, depth=1))
               for _ in range(rng.randint(1, 4))]
        s = random_term(rng, depth=1)
        t = random_term(rng, depth=1)
        cap = max(term_size(u) for e in eqs for u in (e.lhs, e.rhs))
        cap = max(cap, term_size(s), term_size(t)) + 4
        checked += 1
        if CongruenceClosure(eqs).entails(s, t) != conversion_oracle(eqs, s, t, cap):
            mismatches += 1
    assert checked >= 200 and mismatches == 0
