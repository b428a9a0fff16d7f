import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import uncprover.trs
from uncprover.config import Budgets
from uncprover.ctrs import CongruenceClosure, conditional_linearize, lr_separated_linearize
from uncprover.terms import (
    App,
    Var,
    arities,
    canonical_key,
    fn_subterms,
    match,
    mgu,
    renaming_apart,
    replace_at,
    substitute,
    subterms,
    term_size,
    variables,
)
from uncprover.trs import (
    TRS,
    ConvStep,
    Equation,
    RewriteRule,
    bounded_reducts,
    conversion_class,
    conversion_steps,
    critical_pairs,
    development_step_reducts,
    expansion_steps,
    is_normal_form,
    pair_stream,
    parallel_step_reducts,
    parallel_steps,
    reach,
    reach_path,
    redexes,
    replay_path,
    rewrite_steps,
    single_steps,
    step_valid,
    trace_valid,
)

from conftest import (
    AC, COPS_126, CL, a, b, c, f, g, h, canonical_renaming, random_system, random_term,
    small_systems, term_strategy, x, y,
)

COPS_254 = TRS.of([RewriteRule(a, f(c)), RewriteRule(a, f(h(c))),
                   RewriteRule(f(x), h(f(x)))])


def test_trs_of_dedups_in_first_occurrence_order():
    rules = [RewriteRule(f(x, a), x), RewriteRule(a, b), RewriteRule(f(x, a), x),
             RewriteRule(g(x), x), RewriteRule(a, b)]
    assert TRS.of(rules).rules == (rules[0], rules[1], rules[3])


def test_trs_of_dedups_in_linear_time(monkeypatch):
    calls = [0]
    real = RewriteRule.__eq__

    def counting(self, other):
        calls[0] += 1
        return real(self, other)

    monkeypatch.setattr(RewriteRule, "__eq__", counting)
    n = 2000
    rules = [RewriteRule(App(f"k{i}"), a) for i in range(n)]
    assert TRS.of(rules + rules[:10]).rules == tuple(rules)
    assert calls[0] <= 2 * n


def test_rule_validation():
    with pytest.raises(ValueError):
        RewriteRule(x, a)
    with pytest.raises(ValueError):
        RewriteRule(a, x)
    # an rhs variable that no condition binds either
    with pytest.raises(ValueError, match="introduces variables"):
        RewriteRule(f(x), y, (Equation(x, b),))


def test_rule_rhs_variable_bound_by_a_condition_is_accepted():
    rule = RewriteRule(f(x), y, (Equation(x, y),))
    assert rule.conditions == (Equation(x, y),)
    assert repr(rule) == "f(x) -> y <= x = y"
    assert not rule.type1


def test_trs_of_checks_the_condition_sides():
    rule = RewriteRule(f(x), x, (Equation(f(x, x), x),))
    with pytest.raises(ValueError, match="conflicting arities"):
        TRS.of([rule])
    ok = TRS.of([RewriteRule(f(x), x, (Equation(g(x), a),))])
    assert arities(t for r in ok.rules for t in r.sides()) == {"f": 1, "g": 1, "a": 0}
    assert ok.symbols() == {"f", "g", "a"}


def test_rewrite_steps_cops254():
    assert rewrite_steps(COPS_254, a) == [((), 0, f(c)), ((), 1, f(h(c)))]


def test_rewrite_steps_variable_is_normal():
    assert rewrite_steps(COPS_254, x) == []


def test_rewrite_steps_cops126():
    steps = rewrite_steps(COPS_126, f(f(a, b), c))
    assert steps == [((), 0, f(f(a, c), f(b, c)))]


def test_normal_forms():
    assert is_normal_form(TRS.of([RewriteRule(a, b)]), b)
    assert not is_normal_form(COPS_254, f(c))
    assert is_normal_form(COPS_126, f(a, f(b, c)))


def parallel_oracle(R, t):
    """Independent recursion: a parallel step is either a root contraction
    or independent parallel steps in the arguments."""
    if isinstance(t, Var):
        return {t}
    out = set()
    for rule in R.rules:
        sigma = match(rule.lhs, t)
        if sigma is not None:
            out.add(substitute(rule.rhs, sigma))
    for combo in product(*[parallel_oracle(R, arg) for arg in t.args]):
        out.add(App(t.sym, combo))
    return out


def test_parallel_step_examples():
    R = TRS.of([RewriteRule(a, b)])
    assert parallel_step_reducts(R, g(g(a))) == {g(g(a)), g(g(b))}
    assert parallel_step_reducts(R, f(a, a)) == {f(a, a), f(b, a), f(a, b), f(b, b)}
    assert parallel_step_reducts(R, c) == {c}
    with pytest.raises(TimeoutError):
        parallel_steps(R, f(a, a), budgets=Budgets(deadline=time.monotonic() - 1))


@given(term_strategy(max_leaves=5))
def test_parallel_step_matches_oracle_and_contains_single_steps(t):
    R = TRS.of([RewriteRule(a, b), RewriteRule(g(x), x), RewriteRule(f(x, b), g(x))])
    par = parallel_step_reducts(R, t)
    assert par == parallel_oracle(R, t)
    assert t in par
    assert {u for _, _, u in rewrite_steps(R, t)} <= par


def test_development_single_multistep():
    R = TRS.of([RewriteRule(a, b), RewriteRule(f(b, b), c)])
    devs, truncated = development_step_reducts(R, f(a, a))
    assert f(b, b) in devs and f(a, a) in devs
    assert c not in devs  # needs two multisteps
    assert not truncated


def test_development_contains_rhs_development():
    # after the root step the inner copies may be contracted in the same
    # multistep
    R = TRS.of([RewriteRule(h(a, x), h(x, f(x, x))), RewriteRule(a, b)])
    devs, _ = development_step_reducts(R, h(a, a))
    assert h(a, f(a, a)) in devs
    assert h(b, f(b, b)) in devs


def test_multistep_checks_the_budget_once_per_combination():
    calls = []

    class Counting(Budgets):
        def check(self):
            calls.append(None)

    # a: one (empty) argument combination and two contracta; f(a, a): 3 x 3
    # argument combinations; g(f(a, a)): 9 argument combinations and 3 x 3
    # instantiations of the rhs f(y, x)
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c), RewriteRule(g(f(x, y)), f(y, x))])
    development_step_reducts(R, g(f(a, a)), budgets=Counting())
    assert len(calls) == 3 + 9 + 9 + 9


@given(term_strategy(max_leaves=5))
def test_parallel_below_development(t):
    R = TRS.of([RewriteRule(a, b), RewriteRule(g(x), x)])
    devs, _ = development_step_reducts(R, t)
    assert parallel_step_reducts(R, t) <= devs.keys()


@given(term_strategy(max_leaves=5))
def test_development_paths_replay(t):
    # one exact multistep, on a left-linear system and with the non-left-linear
    # f(x, x) -> x
    for R in (TRS.of([RewriteRule(a, b), RewriteRule(g(x), f(x, x)),
                      RewriteRule(f(b, x), x)]),
              TRS.of([RewriteRule(a, b), RewriteRule(g(x), f(x, x)),
                      RewriteRule(f(x, x), x)])):
        for reduct, path in development_step_reducts(R, t)[0].items():
            steps = replay_path(R, t, path)
            assert trace_valid(R, steps)
            end = steps[-1].dst if steps else t
            assert end == reduct


def test_development_path_contracts_the_root_then_the_copies():
    R = TRS.of([RewriteRule(a, b), RewriteRule(g(x), f(x, x)), RewriteRule(f(x, x), x)])
    assert not R.left_linear
    t = f(g(a), g(a))
    # one multistep: the root redex f(x, x) -> x leaves g(a), whose redex
    # g(x) -> f(x, x) is contracted next, then the two copies of a:
    # f(g(a), g(a)) -> g(a) -> f(a, a) -> f(b, a) -> f(b, b)
    devs, _ = development_step_reducts(R, t)
    path = devs[f(b, b)]
    assert path == (((), 2), ((), 1), ((1,), 0), ((2,), 0))
    steps = replay_path(R, t, path)
    assert trace_valid(R, steps) and steps[-1].dst == f(b, b)
    assert a not in devs  # f(g(a), g(a)) ->> f(a, a) ->> a takes two multisteps


def test_critical_pairs_orthogonal_empty():
    assert critical_pairs(TRS.of([RewriteRule(f(x, y), x), RewriteRule(a, b)])) == ()


def test_critical_pairs_cops254_overlays():
    cps = critical_pairs(COPS_254)
    pairs = {(cp.left, cp.right) for cp in cps}
    assert pairs == {(f(c), f(h(c))), (f(h(c)), f(c))}
    assert all(cp.overlay for cp in cps)


def test_critical_pairs_inner_outer():
    R = TRS.of([RewriteRule(f(g(x), x), a), RewriteRule(g(b), c)])
    cps = critical_pairs(R)
    assert len(cps) == 1
    cp = cps[0]
    assert (cp.left, cp.right, cp.overlay, cp.pos) == (f(c, b), a, False, (1,))


def test_overlay_symmetry():
    R = TRS.of([RewriteRule(f(x, a), x), RewriteRule(f(b, y), y)])
    cps = critical_pairs(R)
    overlays = {(cp.left, cp.right) for cp in cps if cp.overlay}
    assert overlays == {(a, b), (b, a)}


def test_critical_pairs_rebuild_peak():
    R = TRS.of([RewriteRule(f(g(x), x), g(x)), RewriteRule(g(b), c),
                RewriteRule(f(x, y), f(y, x))])
    for cp in critical_pairs(R):
        # the pair must arise from a genuine one-step peak
        peaks = [t for _, _, t in rewrite_steps(R, _peak(R, cp))]
        assert cp.left in peaks and cp.right in peaks
        assert cp.peak == _peak(R, cp)


def _peak(R, cp):
    from uncprover.terms import mgu, renaming_apart, subterm_at
    outer = R.rules[cp.outer]
    inner = R.rules[cp.inner].rename(
        renaming_apart(sorted(variables(R.rules[cp.inner].lhs)
                              | variables(R.rules[cp.inner].rhs)),
                       set(variables(outer.lhs) | variables(outer.rhs))))
    sigma = mgu(inner.lhs, subterm_at(outer.lhs, cp.pos))
    return substitute(outer.lhs, sigma)


def _oracle_critical_pairs(R):
    """The overlap loop of `critical_pairs` before `overlaps`, as
    (left, right, overlay, outer, inner, pos) tuples."""
    out = []
    seen = set()
    for oi, outer in enumerate(R.rules):
        used = variables(outer.lhs) | variables(outer.rhs)
        sites = list(fn_subterms(outer.lhs))
        for ii, inner0 in enumerate(R.rules):
            root = inner0.lhs.sym
            overlaps = [(pos, sub) for pos, sub in sites
                        if sub.sym == root and (pos or ii != oi)]
            if not overlaps:
                continue
            ren = renaming_apart(
                sorted(variables(inner0.lhs) | variables(inner0.rhs)), set(used))
            inner = inner0.rename(ren)
            for pos, sub in overlaps:
                sigma = mgu(inner.lhs, sub)
                if sigma is None:
                    continue
                left = substitute(replace_at(outer.lhs, pos, inner.rhs), sigma)
                right = substitute(outer.rhs, sigma)
                key = (pos == (), canonical_key((left, right)))
                if key in seen:
                    continue
                seen.add(key)
                out.append((left, right, pos == (), oi, ii, pos))
    return out


def _assert_same_critical_pairs(R):
    got = critical_pairs(R)
    assert [(cp.left, cp.right, cp.overlay, cp.outer, cp.inner, cp.pos)
            for cp in got] == _oracle_critical_pairs(R)
    assert [cp.peak for cp in got] == [_peak(R, cp) for cp in got]


@pytest.mark.parametrize("R", [CL, AC, COPS_254, COPS_126],
                         ids=["CL", "AC", "COPS_254", "COPS_126"])
def test_critical_pairs_match_overlap_loop_oracle(R):
    _assert_same_critical_pairs(R)


def test_critical_pairs_match_overlap_loop_oracle_on_random_systems(rng):
    for _ in range(300):
        _assert_same_critical_pairs(random_system(rng))


def test_pair_stream_yields_the_critical_pairs_in_order(rng):
    for _ in range(150):
        R = random_system(rng)
        for S in (R, conditional_linearize(R), lr_separated_linearize(R)):
            assert list(pair_stream(S)) == list(critical_pairs(S))


# --- ground peak enumeration oracle -----------------------------------------

GROUND_POOL = [a, b, g(a), g(b), f(a, a), f(a, b), g(g(a))]


def ground_cp_oracle(R):
    """All critical peaks between rule instances over a small ground pool."""
    out = set()
    for oi, outer in enumerate(R.rules):
        for ii, inner in enumerate(R.rules):
            o_vars = sorted(variables(outer.lhs))
            i_vars = sorted(variables(inner.lhs))
            for o_vals in product(GROUND_POOL, repeat=len(o_vars)):
                theta = dict(zip(o_vars, o_vals))
                lhs_o = substitute(outer.lhs, theta)
                rhs_o = substitute(outer.rhs, theta)
                for pos, sub in subterms(outer.lhs):
                    if isinstance(sub, Var):
                        continue
                    if pos == () and oi == ii:
                        continue
                    target = substitute(sub, theta)
                    for i_vals in product(GROUND_POOL, repeat=len(i_vars)):
                        eta = dict(zip(i_vars, i_vals))
                        if substitute(inner.lhs, eta) != target:
                            continue
                        from uncprover.terms import replace_at, subterm_at
                        left = replace_at(lhs_o, pos, substitute(inner.rhs, eta))
                        out.add((left, rhs_o))
    return out


def random_ground_rule(rnd):
    lhs = random_term(rnd, var_names=(), depth=2)
    while isinstance(lhs, Var) or lhs in (a, b):
        lhs = random_term(rnd, var_names=(), depth=2)
    return RewriteRule(lhs, random_term(rnd, var_names=(), depth=1))


def test_critical_pairs_vs_ground_oracle(rng):
    mismatches = 0
    for _ in range(220):
        rules = [random_ground_rule(rng) for _ in range(rng.randint(1, 3))]
        R = TRS.of(rules)
        got = {(cp.left, cp.right) for cp in critical_pairs(R)}
        want = ground_cp_oracle(R)
        if got != want:
            mismatches += 1
    assert mismatches == 0


# --- conversion steps ------------------------------------------------------------


def test_step_valid_rejects_a_position_outside_the_term():
    R = TRS.of([RewriteRule(b, c)])
    assert step_valid(R, ConvStep(f(a, b), f(a, c), 0, (2,), True))
    # positions are 1-based: (0,) must not reach the last argument
    assert not step_valid(R, ConvStep(f(a, b), f(a, c), 0, (0,), True))
    assert not step_valid(R, ConvStep(f(a, b), f(a, c), 0, (3,), True))
    assert not step_valid(R, ConvStep(f(a, c), f(a, b), 0, (0,), False))
    assert not step_valid(R, ConvStep(f(x, b), f(x, c), 0, (1, 1), True))


# --- bounded reach: the loops before `reach` as oracles, fed in the order of
# the redex enumerator


def _oracle_bounded_reducts(R, t, depth, size_cap=0, max_terms=0):
    seen = {t}
    frontier = [t]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for _, _, v in rewrite_steps(R, u):
                if v in seen or (size_cap and term_size(v) > size_cap):
                    continue
                seen.add(v)
                nxt.append(v)
                if max_terms and len(seen) >= max_terms:
                    return seen
        if not nxt:
            break
        frontier = nxt
    return seen


def test_bounded_reach_matches_loop_oracles_on_random_systems(rng):
    past = Budgets(deadline=time.monotonic() - 1)
    for _ in range(150):
        R = random_system(rng)
        if R.left_linear:
            R = TRS.of(R.rules + (RewriteRule(h(x, x), x),))
        for _ in range(3):
            t = random_term(rng, depth=3)
            for depth, size_cap, max_terms in product((1, 3), (0, 7), (0, 2, 5)):
                assert bounded_reducts(R, t, depth, size_cap, max_terms) \
                    == _oracle_bounded_reducts(R, t, depth, size_cap, max_terms)
            with pytest.raises(TimeoutError):
                bounded_reducts(R, t, 3, budgets=past)
            # a multistep on the same non-left-linear systems
            oracle = _unindexed_multistep(R, t, {})
            for max_terms in (1, 2, 5, 4096):
                devs, truncated = development_step_reducts(R, t, max_terms)
                assert (devs, truncated) == (oracle, len(oracle) > max_terms)
            if isinstance(t, Var):  # no combination, so no clock check
                assert development_step_reducts(R, t, budgets=past) == ({t: ()}, False)
            else:
                with pytest.raises(TimeoutError):
                    development_step_reducts(R, t, budgets=past)


_SEED_PROBE = """
from conftest import AC, f, h, x, y, z
from uncprover.trs import TRS, RewriteRule, bounded_reducts, development_step_reducts
t = f(f(x, y), z)
print(sorted(map(repr, bounded_reducts(AC, t, 3, 0, 6))))
R = TRS.of(AC.rules + (RewriteRule(h(x, x), x),))
print(sorted(map(repr, development_step_reducts(R, t)[0])))
"""


def test_cut_searches_do_not_depend_on_the_hash_seed():
    # the terms a `max_terms` cut keeps follow the step order, which must
    # not be the iteration order of a set of terms
    root = Path(__file__).resolve().parent.parent
    outs = []
    for seed in ("0", "2", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
        proc = subprocess.run([sys.executable, "-c", _SEED_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]


# --- bounded conversions -----------------------------------------------------


def test_bounded_conversions_depth0():
    assert set(conversion_class(COPS_254, f(c), 0).reached) == {f(c)}


def test_bounded_conversions_two_roots():
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c)])
    assert set(conversion_class(R, b, 2).reached) == {b, a, c}


def test_bounded_conversions_cops254():
    assert f(h(c)) in conversion_class(COPS_254, f(c), 2).reached


def test_bounded_conversions_monotone(rng):
    for _ in range(40):
        t = random_term(rnd=rng, depth=2)
        smaller = set(conversion_class(COPS_254, t, 2).reached)
        bigger = set(conversion_class(COPS_254, t, 3).reached)
        assert t in smaller
        assert smaller <= bigger


# --- conversion classes: the quadratic search as an oracle -------------------


def _oracle_expansion_steps(R, t, used_names, size_cap=0):
    for pos, sub in subterms(t):
        for i, rule in enumerate(R.rules):
            sigma = match(rule.rhs, sub)
            if sigma is None:
                continue
            sigma = dict(sigma)
            pool = set(used_names)
            for x_ in sorted(variables(rule.lhs) - set(sigma) - variables(rule.rhs)):
                holes = pool | {n for u in sigma.values() for n in variables(u)}
                k = 1
                while f"w{k}" in holes:
                    k += 1
                sigma[x_] = Var(f"w{k}")
                pool.add(f"w{k}")
            u = replace_at(t, pos, substitute(rule.lhs, sigma))
            if size_cap and term_size(u) > size_cap:
                continue
            yield pos, i, u


def _oracle_conversion_class(R, seed, depth, size_cap=40, max_class=2000):
    """The search before the fresh-name pool was kept incrementally: the
    pool is rebuilt from every member for each frontier node.  Returns the
    members in found order and the step by which each was first reached."""
    keep = frozenset(variables(seed))

    def key(t):
        return repr(substitute(t, canonical_renaming([t], keep, prefix="@")))

    members, parent = [seed], {}
    seen = {key(seed)}
    frontier = [seed]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            candidates = []
            for pos, i, v in rewrite_steps(R, u):
                candidates.append(ConvStep(u, v, i, pos, True))
            names = keep | {n for m in members for n in variables(m)}
            for pos, i, v in _oracle_expansion_steps(R, u, set(names), size_cap):
                candidates.append(ConvStep(u, v, i, pos, False))
            for step in candidates:
                v = step.dst
                if size_cap and term_size(v) > size_cap:
                    continue
                k = key(v)
                if k in seen:
                    continue
                seen.add(k)
                members.append(v)
                parent[v] = step
                nxt.append(v)
                if max_class and len(members) >= max_class:
                    return members, parent
        if not nxt:
            break
        frontier = nxt
    return members, parent


def _oracle_path(parent, seed, t):
    steps = []
    while t != seed:
        steps.append(parent[t])
        t = parent[t].src
    return steps[::-1]


def test_expansion_fresh_names_avoid_the_matched_subterm():
    R = TRS.of([RewriteRule(f(x, y), x)])
    w1 = Var("w1")
    assert [u for _, _, u in expansion_steps(R, w1, set())] == [f(w1, Var("w2"))]
    assert [u for _, _, u in expansion_steps(R, w1, {"w2"})] == [f(w1, Var("w3"))]


def _seeds(R):
    return [t for cp in critical_pairs(R) for t in (cp.left, cp.right)] \
        + [r.rhs for r in R.rules]


def _assert_same_class(R, seed, depth, size_cap, max_class):
    got = conversion_class(R, seed, depth, size_cap, max_class)
    members, parent = _oracle_conversion_class(R, seed, depth, size_cap, max_class)
    assert got.members == members
    for m in members:
        assert reach_path(got.reached, m) == _oracle_path(parent, seed, m)


@pytest.mark.parametrize("R", [CL, AC, COPS_254], ids=["CL", "AC", "COPS_254"])
def test_conversion_class_matches_quadratic_oracle(R):
    for seed in _seeds(R)[:4]:
        _assert_same_class(R, seed, 4, 30, 400)


@given(small_systems())
def test_conversion_class_matches_quadratic_oracle_random(R):
    for seed in _seeds(R)[:3]:
        _assert_same_class(R, seed, 3, 20, 150)


@given(st.one_of(small_systems(), st.sampled_from((CL, AC))))
def test_conversion_class_paths_replay(R):
    # every member's path, not only those a witness uses, is a conversion
    # from the seed over the rules
    for seed in _seeds(R)[:3]:
        cls = conversion_class(R, seed, 3, 20, 150)
        for m in cls.members:
            path = reach_path(cls.reached, m)
            if m == seed:
                assert path == []
                continue
            assert path[0].src == seed and path[-1].dst == m
            assert trace_valid(R, path)


def test_conversion_class_max_class_zero_is_no_cap():
    seed = CL.rules[0].rhs
    uncapped = conversion_class(CL, seed, 3, 20, 10 ** 9)
    assert len(uncapped.members) > 2
    assert conversion_class(CL, seed, 3, 20, 0) == uncapped


def test_conversion_class_variable_calls_grow_linearly(monkeypatch):
    # each candidate's variables come from its key walk, so both are counted
    calls = 0

    def counting(real):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return real(*args)
        return wrapper

    for name in ("variables", "canonical_walk"):
        monkeypatch.setattr(uncprover.trs, name, counting(getattr(uncprover.trs, name)))
    seed = CL.rules[0].rhs
    counts = []
    for max_class in (500, 2000):
        calls = 0
        cls = conversion_class(CL, seed, 5, 40, max_class)
        assert len(cls.members) == max_class
        counts.append(calls)
    # a pool rebuilt from every member per frontier node gives about 16
    assert counts[1] / counts[0] < 6


def test_reach_visit_sees_the_start_and_each_kept_node_in_found_order(rng):
    def recorded(step, t, depth, size_cap=0, max_terms=0):
        seen = []

        def visit(node, reached):
            assert node in reached
            seen.append(node)
            return False

        got = reach(step, t, depth, size_cap, max_terms, visit=visit)
        assert seen == list(got[0])
        return got

    seed = CL.rules[0].rhs
    assert recorded(conversion_steps(CL, seed, 20), seed, 3, max_terms=150) \
        == reach(conversion_steps(CL, seed, 20), seed, 3, max_terms=150)
    for _ in range(40):
        R = random_system(rng)
        t = random_term(rng, depth=3)
        for size_cap, max_terms in product((0, 7), (0, 5)):
            assert recorded(single_steps(R), t, 3, size_cap, max_terms) \
                == reach(single_steps(R), t, 3, size_cap, max_terms)


def test_reach_visit_true_stops_the_search_as_a_cut():
    seed = CL.rules[0].rhs
    full = conversion_class(CL, seed, 3, 20, 0)
    stop = full.members[40]
    cls = conversion_class(CL, seed, 3, 20, 0, visit=lambda node, reached: node == stop)
    assert cls.cut and cls.members == full.members[:41]
    path = reach_path(cls.reached, stop)
    assert path[0].src == seed and path[-1].dst == stop
    assert trace_valid(CL, path)
    at_start = conversion_class(CL, seed, 3, 20, 0, visit=lambda node, reached: True)
    assert at_start.cut and at_start.members == [seed]


def test_conversion_class_keeps_the_cut_flag():
    # a class whose frontier runs out inside the depth is complete
    done = conversion_class(TRS.of([RewriteRule(a, b)]), b, 5)
    assert done.members == [b, a] and not done.cut
    capped = conversion_class(CL, CL.rules[0].rhs, 5, 40, 50)
    assert len(capped.members) == 50 and capped.cut


# --- the root-symbol rule index: unindexed copies as oracles -----------------


def _subterms_rec(t, pos=()):
    yield pos, t
    if isinstance(t, App):
        for i, arg in enumerate(t.args, 1):
            yield from _subterms_rec(arg, pos + (i,))


def _unindexed_rewrite_steps(R, t):
    out = []
    for pos, sub in _subterms_rec(t):
        for i, rule in enumerate(R.rules):
            sigma = match(rule.lhs, sub)
            if sigma is not None:
                out.append((pos, i, replace_at(t, pos, substitute(rule.rhs, sigma))))
    return out


def _unindexed_is_normal_form(R, t):
    return all(match(rule.lhs, sub) is None
               for _, sub in _subterms_rec(t) for rule in R.rules)


def _position_subset_parallel_steps(R, t):
    """The parallel step as an enumeration of disjoint redex position sets,
    each with every combination of its rules: each reduct with the first
    redex set that gives it, positions and then rules in order.  `pcl`
    certificates print these redex sets."""
    by_pos = {}
    for pos, sub in _subterms_rec(t):
        for i, rule in enumerate(R.rules):
            sigma = match(rule.lhs, sub)
            if sigma is not None:
                by_pos.setdefault(pos, []).append((i, substitute(rule.rhs, sigma)))
    positions = sorted(by_pos)
    out = {}

    def go(i, chosen):
        if i == len(positions):
            for combo in product(*[by_pos[p] for p in chosen]):
                u = t
                for p, (_, s) in zip(chosen, combo):
                    u = replace_at(u, p, s)
                out.setdefault(u, tuple((p, ri) for p, (ri, _) in zip(chosen, combo)))
            return
        go(i + 1, chosen)
        p = positions[i]
        if all(p[:len(q)] != q and q[:len(p)] != p for q in chosen):
            go(i + 1, chosen + [p])

    go(0, [])
    return out


def _unindexed_multistep(R, t, memo):
    if t in memo:
        return memo[t]
    if isinstance(t, Var):
        memo[t] = {t: ()}
        return memo[t]
    out = {}
    arg_maps = [_unindexed_multistep(R, a_, memo) for a_ in t.args]
    for combo in product(*[sorted(m, key=repr) for m in arg_maps]):
        path = []
        for i, new_arg in enumerate(combo):
            path.extend(((i + 1,) + p, ri) for p, ri in arg_maps[i][new_arg])
        out.setdefault(App(t.sym, combo), tuple(path))
    for ri, rule in enumerate(R.rules):
        sigma = match(rule.lhs, t)
        if sigma is None:
            continue
        names = sorted(variables(rule.rhs))
        value_maps = {n: _unindexed_multistep(R, sigma.get(n, Var(n)), memo)
                      for n in names}
        var_slots = [(p, s.name) for p, s in _subterms_rec(rule.rhs) if isinstance(s, Var)]
        for values in product(*[sorted(value_maps[n], key=repr) for n in names]):
            tau = dict(zip(names, values))
            path = [((), ri)]
            for p, name in var_slots:
                path.extend((p + q, rj) for q, rj in value_maps[name][tau[name]])
            out.setdefault(substitute(rule.rhs, tau), tuple(path))
    memo[t] = out
    return out


def _multistep_family(n):
    """a -> b, a -> c, g(a,...,a) -> d with n arguments."""
    return (TRS.of([RewriteRule(a, b), RewriteRule(a, c),
                    RewriteRule(App("g", (a,) * n), App("d"))]),
            App("g", (a,) * n))


def _assert_index_agrees(R, t):
    assert rewrite_steps(R, t) == _unindexed_rewrite_steps(R, t)
    assert is_normal_form(R, t) == _unindexed_is_normal_form(R, t)
    assert list(parallel_steps(R, t).items()) \
        == list(_position_subset_parallel_steps(R, t).items())
    # the multistep's order is free, its paths are not
    assert uncprover.trs._big_step(R, t, True, None, {}, Budgets()) \
        == _unindexed_multistep(R, t, {})


def test_rule_index_agrees_with_unindexed_search_on_random_systems(rng):
    for _ in range(150):
        R = random_system(rng)
        for _ in range(4):
            t = random_term(rng, depth=3)
            _assert_index_agrees(R, t)
            for _, _, u in rewrite_steps(R, t)[:3]:
                _assert_index_agrees(R, u)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_rule_index_agrees_with_unindexed_search_on_multistep_family(n):
    R, t = _multistep_family(n)
    for s in [t, App("g", (b,) + (a,) * (n - 1)), App("d"), f(t, a), g(t)]:
        _assert_index_agrees(R, s)


def test_rule_index_keeps_rule_order_per_root():
    R = TRS.of([RewriteRule(f(x, a), x), RewriteRule(a, b), RewriteRule(f(a, x), x),
                RewriteRule(g(x), x), RewriteRule(a, c)])
    assert R.rules_by_root == {
        "f": ((0, R.rules[0]), (2, R.rules[2])),
        "a": ((1, R.rules[1]), (4, R.rules[4])),
        "g": ((3, R.rules[3]),),
    }
    assert rewrite_steps(R, f(a, a)) == [
        ((), 0, a), ((), 2, a), ((1,), 1, f(b, a)), ((1,), 4, f(c, a)),
        ((2,), 1, f(a, b)), ((2,), 4, f(a, c))]


def test_rewrite_steps_matches_only_rules_with_the_subterm_root(monkeypatch):
    calls = []
    real = uncprover.trs.match

    def counting(pattern, subject):
        calls.append((pattern.sym, subject))
        return real(pattern, subject)

    monkeypatch.setattr(uncprover.trs, "match", counting)
    n = 6
    R, t = _multistep_family(n)
    R = TRS.of(R.rules + (RewriteRule(f(x, y), x),))
    rewrite_steps(R, f(t, x))
    assert all(isinstance(s, App) and s.sym == root for root, s in calls)
    # f at the root, g below it, then n times a (two rules each)
    assert len(calls) == 1 + 1 + 2 * n


def test_redexes_at_given_sites_are_the_full_enumeration_at_those_sites(rng):
    # plain and conditional systems; a conditional one with no entailment
    # test reads no condition
    counts = {"redexes": 0, "conditional": 0}
    for _ in range(150):
        R = random_system(rng)
        for S in (R, conditional_linearize(R), lr_separated_linearize(R)):
            tests = (None, CongruenceClosure([Equation(a, b)]).entails) if S.conditional \
                else (None,)
            for _ in range(3):
                t = random_term(rng, depth=3)
                rule = rng.choice(S.rules)
                instance = substitute(rule.lhs, {n: random_term(rng, depth=1)
                                                 for n in variables(rule.lhs)})
                t = replace_at(t, rng.choice([p for p, _ in subterms(t)]), instance)
                for holds in tests:
                    full = list(redexes(S, t, holds))
                    sites = [site for site in fn_subterms(t) if rng.random() < 0.6]
                    if rng.random() < 0.5:
                        rng.shuffle(sites)
                    want = [r for pos, _ in sites for r in full if r[0] == pos]
                    assert list(redexes(S, t, holds, sites)) == want
                    counts["redexes"] += len(want)
                    counts["conditional"] += bool(want and S.conditional and holds)
    assert counts["redexes"] >= 500 and counts["conditional"] >= 30, counts
