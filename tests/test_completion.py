import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given

import uncprover.completion
import uncprover.trs
from uncprover.cops import parse_cops
from uncprover.strategy import StrategyConfig, prove_unc
from uncprover.terms import Var, canonical_key, term_size, variables
from uncprover.trs import (
    TRS,
    ConvStep,
    RewriteRule,
    bounded_reducts,
    conversion_class,
    critical_pairs,
    development_step_reducts,
    is_normal_form,
    replay_path,
    trace_valid,
)
from uncprover.criteria import DEVELOPMENT_CLOSED, STRONGLY_CLOSED, ConfluencePredicate
from uncprover.completion import (
    Trace,
    Verdict,
    Witness,
    _ClassScan,
    _add_rule,
    _connect,
    _escape_witness,
    _expand_trace,
    _pick_join,
    direct_sum_decompose,
    disprove_search,
    rule_reverse_mapped,
    translate_trace,
    unc_complete,
    validate_witness,
)
from uncprover.config import DEFAULT_BUDGETS, Budgets

from conftest import (AC, AC_G, COPS_126, CL, a, b, c, d, f, g, h, random_system,
                      random_term, small_systems, x, y)

CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus"

COPS_254 = TRS.of([RewriteRule(a, f(c)), RewriteRule(a, f(h(c))),
                   RewriteRule(f(x), h(f(x)))])


# --- completion ----------------------------------------------------------------


def test_completion_cops254_strongly_closed():
    verdict = unc_complete(COPS_254, STRONGLY_CLOSED, max_rounds=3)
    assert verdict.status == "UNC"
    assert verdict.rounds == 2
    assert verdict.added_rules == (RewriteRule(f(h(c)), f(c)),)


def test_completion_disproves_two_constants():
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c)])
    verdict = unc_complete(R, STRONGLY_CLOSED)
    assert verdict.status == "NOT_UNC"
    assert {verdict.witness.s, verdict.witness.t} == {b, c}
    assert validate_witness(R, verdict.witness)


def test_completion_orthogonal_immediate():
    verdict = unc_complete(TRS.of([RewriteRule(f(x), x)]), STRONGLY_CLOSED)
    assert verdict.status == "UNC" and verdict.rounds == 1
    assert verdict.added_rules == ()


def test_completion_two_normal_form_exit_with_variables():
    # both critical pair sides are normal forms, so the two-normal-form
    # exit fires with the pair itself
    R = TRS.of([RewriteRule(f(x), c), RewriteRule(f(x), g(x))])
    verdict = unc_complete(R, STRONGLY_CLOSED)
    assert verdict.status == "NOT_UNC"
    assert validate_witness(R, verdict.witness)


def test_completion_variable_escape_exit():
    # the normal form g(x) carries a variable absent from the reducible
    # side h(c), so the escape exit manufactures a renamed twin of g(x)
    R = TRS.of([RewriteRule(f(x), g(x)), RewriteRule(f(x), h(c)),
                RewriteRule(h(c), h(h(c)))])
    verdict = unc_complete(R, STRONGLY_CLOSED)
    assert verdict.status == "NOT_UNC"
    assert "variable" in verdict.reason
    assert validate_witness(R, verdict.witness)
    w = verdict.witness
    assert canonical_key((w.s,)) == canonical_key((w.t,))


def test_completion_added_rules_replay_over_original(rng):
    # conservativity: every added rule comes with a conversion over the
    # original system, and its lhs was reducible when added
    systems = [
        COPS_254,
        TRS.of([RewriteRule(a, g(c)), RewriteRule(a, g(g(c))), RewriteRule(g(x), g(g(x)))]),
        TRS.of([RewriteRule(f(x), g(x)), RewriteRule(f(x), g(g(x))),
                RewriteRule(g(g(x)), g(x))]),
    ]
    for R in systems:
        for pred in (STRONGLY_CLOSED, DEVELOPMENT_CLOSED):
            verdict = unc_complete(R, pred, max_rounds=3)
            grown = R
            for rule, trace in zip(verdict.added_rules, verdict.added_traces):
                assert trace_valid(R, trace)
                assert trace[0].src == rule.lhs and trace[-1].dst == rule.rhs
                assert not is_normal_form(grown, rule.lhs)
                grown = TRS(grown.rules + (rule,))


def test_completion_round_budget():
    # the g/h divergence produces fresh unclosable critical pairs forever
    R = TRS.of([RewriteRule(f(x), g(f(x))), RewriteRule(f(x), h(f(x)))])
    verdict = unc_complete(R, STRONGLY_CLOSED, max_rounds=2)
    assert verdict.status == "MAYBE" and "round budget" in verdict.reason


def test_completion_respects_deadline():
    verdict = unc_complete(COPS_254, STRONGLY_CLOSED,
                           budgets=Budgets(deadline=time.monotonic() - 1))
    assert verdict.status == "MAYBE" and "timeout" in verdict.reason


def test_completion_stops_at_the_deadline():
    timeout = 1.0
    start = time.monotonic()
    res = prove_unc(COPS_126, StrategyConfig(methods=("rev+dc",), timeout=timeout))
    assert res.answer == "MAYBE"
    assert time.monotonic() - start < timeout + 0.3


def test_critical_pairs_past_the_deadline_give_no_partial_list():
    with pytest.raises(TimeoutError):
        critical_pairs(COPS_254, Budgets(deadline=time.monotonic() - 1))
    for R in (COPS_254, COPS_126, TRS.of([RewriteRule(f(x), x)])):
        for pred in (STRONGLY_CLOSED, DEVELOPMENT_CLOSED):
            verdict = unc_complete(R, pred, budgets=Budgets(deadline=time.monotonic() - 1))
            assert verdict.status == "MAYBE" and verdict.reason == "timeout"


def _past_only_in(function_name):
    """Budgets whose deadline has passed only at the checks made by one
    function."""
    class Past(Budgets):
        def check(self):
            if sys._getframe(1).f_code.co_name == function_name:
                raise TimeoutError
    return Past()


def test_deadline_inside_critical_pairs_never_gives_unc():
    # a linear NOT-UNC system: an empty or partial pair list would pass
    # the strongly-closed test, or leave cp without its seeds; the
    # deadline passes only inside the overlap search of the critical pairs
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c)])
    for pred in (STRONGLY_CLOSED, DEVELOPMENT_CLOSED):
        verdict = unc_complete(R, pred, budgets=_past_only_in("overlaps"))
        assert verdict.status == "MAYBE" and verdict.reason == "timeout"
    assert disprove_search(R) is not None
    assert disprove_search(R, _past_only_in("overlaps")) is None


def test_a_pair_build_cut_under_a_memo_keeps_nothing():
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c)])
    memo = {}
    with pytest.raises(TimeoutError):
        critical_pairs(R, replace(_past_only_in("overlaps"), pairs=memo))
    assert memo == {}
    pairs = critical_pairs(R, Budgets(pairs=memo))
    assert memo == {R.rules: pairs}
    # a kept list is read without the clock
    assert critical_pairs(R, Budgets(deadline=time.monotonic() - 1, pairs=memo)) is pairs
    assert pairs == critical_pairs(R) and len(pairs) == 2


def test_completion_passes_its_deadline_to_the_pair_test():
    received = []

    def pair_closed(S, cp, budgets):
        received.append(budgets)
        return "closed", False

    budgets = Budgets(deadline=time.monotonic() + 60)
    verdict = unc_complete(COPS_254, ConfluencePredicate("any", lambda S: True, pair_closed),
                           budgets=budgets)
    assert verdict.status == "UNC"
    assert received and all(r is budgets for r in received)


def test_closure_searches_past_the_deadline_raise():
    past = Budgets(deadline=time.monotonic() - 1)
    S = TRS.of([RewriteRule(f(x, x), a), RewriteRule(g(x), f(x, x)), RewriteRule(b, a)])
    with pytest.raises(TimeoutError):
        bounded_reducts(S, g(b), 5, budgets=past)
    assert bounded_reducts(S, g(b), 5) == {g(b), f(b, b), g(a), a, f(a, b), f(b, a),
                                            f(a, a)}
    for R in (S, TRS.of([RewriteRule(b, a), RewriteRule(g(x), x)])):
        with pytest.raises(TimeoutError):
            development_step_reducts(R, g(b), budgets=past)
        assert _pick_join(R, g(b), a, DEFAULT_BUDGETS) is not None
        with pytest.raises(TimeoutError):
            _pick_join(R, g(b), a, past)
    # pairs <g(b), b> and <b, g(b)>: closed, but past the deadline the pair
    # tests raise rather than call them unclosed (h keeps the system
    # non-left-linear)
    S = TRS.of([RewriteRule(a, b), RewriteRule(a, g(b)), RewriteRule(g(x), x),
                RewriteRule(h(x, x), x)])
    cps = critical_pairs(S)
    assert [(cp.left, cp.right) for cp in cps] == [(g(b), b), (b, g(b))]
    for pred in (STRONGLY_CLOSED, DEVELOPMENT_CLOSED):
        assert [pred.pair_closed(S, cp, DEFAULT_BUDGETS)[0] is not None
                for cp in cps] == [True, True]
        for cp in cps:
            with pytest.raises(TimeoutError):
                pred.pair_closed(S, cp, past)


def _two_loop_unc_complete(R: TRS, pred: ConfluencePredicate, max_rounds: int = 3,
                           budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """`unc_complete` as it was before each round became one pass: every
    pair's closure first, then the pass that decides or adds rules."""
    n_original = len(R.rules)
    current = R
    added: list[RewriteRule] = []
    added_traces: list[Trace] = []

    def verdict(status: str, reason: str, rounds: int,
                witness: Optional[Witness] = None) -> Verdict:
        return Verdict(status, reason, witness, tuple(added), tuple(added_traces),
                       rounds)

    try:
        for round_no in range(1, max_rounds + 1):
            budgets.check()
            cps = critical_pairs(current, budgets)
            closed = {}
            for cp in cps:
                budgets.check()
                closed[cp] = pred.pair_closed(current, cp, budgets)[0] is not None
            if pred.guard(current) and all(closed.values()):
                return verdict("UNC", f"completion success with {pred.name} predicate",
                               round_no)
            new_rules: list[tuple[RewriteRule, Trace]] = []
            handled_overlays: set[frozenset[str]] = set()
            known = {canonical_key((r.lhs, r.rhs)) for r in current.rules}
            for cp in cps:
                budgets.check()
                if closed[cp] or cp.left == cp.right:
                    continue
                if cp.overlay:
                    key = frozenset((canonical_key((cp.left,)),
                                     canonical_key((cp.right,))))
                    if key in handled_overlays:
                        continue
                    handled_overlays.add(key)
                # left <- peak -> right
                base = (ConvStep(cp.left, cp.peak, cp.inner, cp.pos, False),
                        ConvStep(cp.peak, cp.right, cp.outer, (), True))
                u, v = cp.left, cp.right
                u_nf, v_nf = is_normal_form(current, u), is_normal_form(current, v)
                if u_nf and v_nf:
                    trace = _expand_trace(base, n_original, added_traces)
                    return verdict("NOT_UNC", "two distinct convertible normal forms",
                                   round_no, Witness(u, v, trace))
                if v_nf and not u_nf:
                    if variables(v) - variables(u):
                        expanded = _expand_trace(base, n_original, added_traces)
                        return verdict("NOT_UNC", "normal form drops a variable",
                                       round_no, _escape_witness(expanded, u, v))
                    _add_rule(new_rules, known, RewriteRule(u, v), base)
                    continue
                if u_nf and not v_nf:
                    rev = tuple(s.reversed_() for s in reversed(base))
                    if variables(u) - variables(v):
                        expanded = _expand_trace(rev, n_original, added_traces)
                        return verdict("NOT_UNC", "normal form drops a variable",
                                       round_no, _escape_witness(expanded, v, u))
                    _add_rule(new_rules, known, RewriteRule(v, u), rev)
                    continue
                choice = _pick_join(current, u, v, budgets)
                if choice is None:
                    continue
                lhs, w, start, path = choice
                fwd = tuple(replay_path(current, start, path))
                if lhs == v:
                    # v <- peak -> u ->* w, oriented v -> w
                    rev = tuple(s.reversed_() for s in reversed(base))
                    trace = rev + fwd
                else:
                    trace = tuple(base) + fwd
                _add_rule(new_rules, known, RewriteRule(lhs, w), trace)
            if not new_rules:
                return verdict("MAYBE", "completion failed: no progress possible",
                               round_no)
            for rule, trace in new_rules:
                expanded = _expand_trace(trace, n_original, added_traces)
                current = TRS(current.rules + (rule,))
                added.append(rule)
                added_traces.append(expanded)
    except TimeoutError:
        return verdict("MAYBE", "timeout", round_no - 1)
    return verdict("MAYBE", f"round budget of {max_rounds} exhausted", max_rounds)


def test_one_pass_rounds_agree_with_the_two_loop_oracle(rng):
    # a trivial pair is closed and a deciding pair is not, so skipping the
    # closures after a deciding pair changes no field of the verdict
    escape = TRS.of([RewriteRule(f(x), c), RewriteRule(f(x), g(x))])
    multistep = TRS.of([RewriteRule(a, b), RewriteRule(a, c), RewriteRule(g(a, a, a), d)])
    # dc on AC adds hundreds of rules in a third round, and the second
    # round of COPS_126 takes seconds
    cases = [(R, 2) for R in (AC, AC_G, CL, COPS_254, escape, multistep)] + [(COPS_126, 1)]
    cases += [(random_system(rng), 3) for _ in range(60)]
    for R, rounds in cases:
        for pred in (STRONGLY_CLOSED, DEVELOPMENT_CLOSED):
            assert unc_complete(R, pred, rounds) == _two_loop_unc_complete(R, pred, rounds)


def test_completion_never_certifies_a_non_left_linear_system(rng):
    # completion only adds rules, so a non-left-linear system stays one, and
    # neither closure criterion holds for it
    statuses = set()
    for _ in range(60):
        R = random_system(rng)
        if R.left_linear:
            R = TRS.of(R.rules + (RewriteRule(f(x, x), x),))
        for pred in (STRONGLY_CLOSED, DEVELOPMENT_CLOSED):
            verdict = unc_complete(R, pred, budgets=Budgets(deadline=time.monotonic() + 2))
            statuses.add(verdict.status)
            assert verdict.status != "UNC"
            assert not TRS.of(R.rules + verdict.added_rules).left_linear
    assert statuses == {"NOT_UNC", "MAYBE"}


def test_a_disproving_pair_answers_before_later_pairs_are_built(monkeypatch):
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c)] + list(COPS_126.rules))
    built = []

    def recording(S, budgets):
        for cp in uncprover.trs.pair_stream(S, budgets):
            built.append(cp)
            yield cp
    monkeypatch.setattr(uncprover.completion, "pair_stream", recording)
    verdict = unc_complete(R, DEVELOPMENT_CLOSED)
    assert verdict.status == "NOT_UNC"
    assert len(built) == 1 < len(critical_pairs(R))


# --- rule reversing --------------------------------------------------------------


def test_rule_reverse_example():
    R = TRS.of([RewriteRule(a, f(a)), RewriteRule(h(c, a), b),
                RewriteRule(h(a, x), h(x, f(x)))])
    Rp = rule_reverse_mapped(R)[0]
    assert Rp.rules == (RewriteRule(a, a), RewriteRule(f(a), a),
                        RewriteRule(h(c, a), b), RewriteRule(h(a, x), h(x, f(x))))


def test_rule_reverse_identity_when_rhs_normal():
    R = TRS.of([RewriteRule(a, b), RewriteRule(g(x), x)])
    assert rule_reverse_mapped(R)[0] is not None
    assert rule_reverse_mapped(R)[0].rules == R.rules


def test_rule_reverse_keeps_needed_identity_rule():
    R = TRS.of([RewriteRule(a, f(a)), RewriteRule(f(x), g(x))])
    Rp = rule_reverse_mapped(R)[0]
    # a -> a stays: nothing else reduces a
    assert RewriteRule(a, a) in Rp.rules
    assert RewriteRule(f(a), a) in Rp.rules
    assert RewriteRule(f(x), g(x)) in Rp.rules


def test_rule_reverse_drops_redundant_identity_rule():
    R = TRS.of([RewriteRule(g(a), f(g(a))), RewriteRule(g(x), x)])
    Rp = rule_reverse_mapped(R)[0]
    # g(a) -> g(a) is redundant: g(x) -> x reduces g(a)
    assert RewriteRule(g(a), g(a)) not in Rp.rules
    assert RewriteRule(f(g(a)), g(a)) in Rp.rules


def test_rule_reverse_preserves_conversions_and_normal_forms(rng):
    violations = 0
    for _ in range(60):
        rules = []
        for _ in range(rng.randint(1, 3)):
            lhs = random_term(rng, depth=2)
            while isinstance(lhs, Var):
                lhs = random_term(rng, depth=2)
            rhs = random_term(rng, depth=2)
            if variables(rhs) - variables(lhs):
                rhs = b
            rules.append(RewriteRule(lhs, rhs))
        R = TRS.of(rules)
        Rp = rule_reverse_mapped(R)[0]
        for _ in range(5):
            t = random_term(rng, depth=2)
            keep = frozenset(variables(t))
            canon = lambda S: {canonical_key((u,), keep)
                               for u in conversion_class(S, t, 3, size_cap=30).reached}
            if canon(R) != canon(Rp):
                violations += 1
            if is_normal_form(R, t) != is_normal_form(Rp, t):
                violations += 1
    assert violations == 0


def _restarting_rule_reverse(R: TRS):
    """Reference for `rule_reverse_mapped`: one loop that starts over
    after every reversal and after every dropped identity rule."""
    rules, origin = list(R.rules), [("kept", i) for i in range(len(R.rules))]
    changed = True
    while changed:
        changed = False
        cur = TRS(tuple(rules))
        for i, rule in enumerate(rules):
            tag, orig = origin[i]
            if tag != "kept" or rule.lhs == rule.rhs:
                continue
            if term_size(rule.lhs) >= term_size(rule.rhs):
                continue
            if isinstance(rule.rhs, Var) or variables(rule.lhs) - variables(rule.rhs):
                continue
            if is_normal_form(cur, rule.rhs):
                continue
            rules[i:i + 1] = [RewriteRule(rule.lhs, rule.lhs),
                              RewriteRule(rule.rhs, rule.lhs)]
            origin[i:i + 1] = [("loop", orig), ("flip", orig)]
            changed = True
            break
        if changed:
            continue
        for i, rule in enumerate(rules):
            if rule.lhs != rule.rhs:
                continue
            rest = TRS(tuple(r for j, r in enumerate(rules) if j != i))
            if not is_normal_form(rest, rule.lhs):
                del rules[i]
                del origin[i]
                changed = True
                break
    first_origin = {}
    for rule, org in zip(rules, origin):
        first_origin.setdefault(rule, org)
    return TRS(tuple(first_origin)), tuple(first_origin.values())


def test_rule_reverse_matches_the_restarting_loop(rng):
    reversed_ = 0
    for _ in range(400):
        rules = []
        for _ in range(rng.randint(1, 4)):
            lhs = random_term(rng, depth=2)
            while isinstance(lhs, Var):
                lhs = random_term(rng, depth=2)
            rhs = random_term(rng, depth=rng.randint(1, 3))
            if variables(rhs) - variables(lhs):
                rhs = b
            rules.append(RewriteRule(lhs, rhs))
        R = TRS.of(rules)
        got = rule_reverse_mapped(R)
        assert got == _restarting_rule_reverse(R)
        reversed_ += got[0] != R
    assert reversed_ >= 40


def _reversal_system(rng):
    """1-5 rules, some identity rules, some sharing a lhs and some repeated;
    built with `TRS(...)`, which keeps the repeats."""
    rules = []
    for _ in range(rng.randint(1, 5)):
        pick = rng.random()
        if rules and pick < 0.15:
            rules.append(rng.choice(rules))
            continue
        lhs = random_term(rng, depth=2)
        while isinstance(lhs, Var):
            lhs = random_term(rng, depth=2)
        if rules and pick < 0.3:
            lhs = rng.choice(rules).lhs
        rhs = lhs if pick > 0.85 else random_term(rng, depth=rng.randint(1, 3))
        if variables(rhs) - variables(lhs):
            rhs = b
        rules.append(RewriteRule(lhs, rhs))
    return TRS(tuple(rules))


def test_rule_reverse_matches_the_restarting_loop_on_the_corpus_and_repeats(rng):
    corpus = [parse_cops(p.read_text()).trs for p in sorted(CORPUS.glob("*.trs"))]
    systems = [S for R in corpus for S in (R, *direct_sum_decompose(R))]
    systems += [_reversal_system(rng) for _ in range(1500)]
    dropped = kept = 0
    for R in systems:
        got = rule_reverse_mapped(R)
        assert got == _restarting_rule_reverse(R), R
        loops = sum(r.lhs == r.rhs for r in R.rules) + len(
            {i for tag, i in got[1] if tag != "kept"})
        kept_loops = sum(r.lhs == r.rhs for r in got[0].rules)
        dropped += kept_loops < loops
        kept += kept_loops > 0
    # the drop pass both drops and keeps identity rules, on about half the systems each
    assert dropped >= 500 and kept >= 500


def test_translate_trace_maps_reversed_witness():
    R = TRS.of([RewriteRule(a, f(a)), RewriteRule(f(x), g(x))])
    Rp, origin = rule_reverse_mapped(R)
    w = disprove_search(Rp)
    if w is not None:
        from uncprover.completion import Witness
        translated = Witness(w.s, w.t, translate_trace(w.trace, origin))
        assert validate_witness(R, translated)


# --- disproof search -------------------------------------------------------------


def test_disprove_two_constants():
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c)])
    w = disprove_search(R)
    assert w is not None and {w.s, w.t} == {b, c}
    assert validate_witness(R, w)


def test_disprove_max_class_zero_is_no_cap():
    # 0 disables the class cap, as it disables the size cap
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c)])
    w = disprove_search(R, Budgets(max_class=0))
    assert w is not None and validate_witness(R, w)


def test_disprove_variable_escape():
    R = TRS.of([RewriteRule(f(x), c), RewriteRule(f(x), g(x))])
    w = disprove_search(R)
    assert w is not None
    assert validate_witness(R, w)
    # route: a normal form with an escaping variable, so the witnesses are
    # renamings of one another
    assert canonical_key((w.s,)) == canonical_key((w.t,))


def test_disprove_variable_escape_to_a_normal_form_found_late():
    # the class of the critical-pair side g(f(x1,a)) holds one normal form
    # up to renaming, f(g(x1),w1); it is found after the seed, whose
    # variables lack w1
    R = TRS.of([RewriteRule(a, a), RewriteRule(f(f(x, a), y), g(x))])
    w = disprove_search(R)
    assert w is not None and validate_witness(R, w)
    assert w.s.sym == w.t.sym == "f"


def test_validate_witness_rejects_a_rule_index_outside_the_system():
    R = TRS.of([RewriteRule(a, b), RewriteRule(a, c)])
    assert validate_witness(R, Witness(b, c, (ConvStep(b, a, 0, (), False),
                                              ConvStep(a, c, 1, (), True))))
    for rule in (-1, 2):
        assert not validate_witness(R, Witness(b, c, (ConvStep(b, a, 0, (), False),
                                                      ConvStep(a, c, rule, (), True))))


def test_disprove_orthogonal_silent():
    assert disprove_search(TRS.of([RewriteRule(f(x), x)])) is None


def test_cp_stops_at_the_deadline():
    timeout = 0.05
    start = time.monotonic()
    res = prove_unc(CL, StrategyConfig(methods=("cp",), timeout=timeout))
    assert res.answer == "MAYBE"
    assert time.monotonic() - start < timeout + 0.1


def test_rev_cp_stops_at_the_deadline_inside_full_classes():
    # reversed, this ground system's first conversion class reaches the
    # 2000-member cap near the deadline; the class scan checks the clock
    # once per member
    R = TRS.of([RewriteRule(h(a), a), RewriteRule(b, f(f(c, g(a)), c)),
                RewriteRule(b, c), RewriteRule(c, f(b, f(a, g(b))))])
    timeout = 0.3
    start = time.monotonic()
    res = prove_unc(R, StrategyConfig(methods=("rev+cp",), timeout=timeout))
    assert res.answer == "MAYBE"
    assert time.monotonic() - start < timeout + 0.1


# cp answers NO on this system with a witness near the start of a class
# that holds 1935 members at the default budgets
EARLY_WITNESS = TRS.of([RewriteRule(f(f(a, x), b), b), RewriteRule(f(a, f(b, b)), b)])


def test_cp_stops_its_class_at_the_first_witness(monkeypatch):
    sizes = []
    real = uncprover.completion.conversion_class

    def counting(*args, **kwargs):
        cls = real(*args, **kwargs)
        sizes.append(len(cls.members))
        return cls

    monkeypatch.setattr(uncprover.completion, "conversion_class", counting)
    res = prove_unc(EARLY_WITNESS, StrategyConfig(methods=("cp",)))
    assert res.answer == "NO"
    assert 0 < sum(sizes) < 50


_WITNESS_PROBE = """
from uncprover.completion import disprove_search
from test_completion import EARLY_WITNESS
print(repr(disprove_search(EARLY_WITNESS)))
"""


def test_cp_witness_does_not_depend_on_the_hash_seed():
    # the found order of a class follows the step enumerators, so the
    # first witness is the same under every hash seed
    root = Path(__file__).resolve().parent.parent
    outs = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
        proc = subprocess.run([sys.executable, "-c", _WITNESS_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].startswith("Witness(") and outs[0] == outs[1]


def _full_class_disprove_search(R: TRS, budgets: Budgets) -> Optional[Witness]:
    """The disproof search as it was before it scanned each class while the
    class grows: every class built in full and sorted by `repr`, then
    scanned for a normal form with an escaping variable, then for two
    distinct normal forms."""
    seeds = [t for cp in critical_pairs(R, budgets) for t in (cp.left, cp.right)]
    seeds += [r.rhs for r in R.rules]
    seen_keys = set()
    for seed in seeds:
        k = canonical_key((seed,))
        if k in seen_keys:
            continue
        seen_keys.add(k)
        cls = conversion_class(R, seed, budgets.conv_depth, budgets.size_cap,
                               budgets.max_class, budgets)
        members = sorted(cls.members, key=repr)
        var_sets = [frozenset(variables(m)) for m in members]
        nf_at = [i for i, t in enumerate(members) if is_normal_form(R, t)]
        for i in nf_at:
            t, t_vars = members[i], var_sets[i]
            for j, s in enumerate(members):
                if j == i or t_vars <= var_sets[j]:
                    continue
                w = _escape_witness(_connect(cls.reached, s, t), s, t)
                if validate_witness(R, w):
                    return w
        nfs = [members[i] for i in nf_at]
        for i, t1 in enumerate(nfs):
            for t2 in nfs[i + 1:]:
                w = Witness(t1, t2, _connect(cls.reached, t1, t2))
                if validate_witness(R, w):
                    return w
    return None


def test_disprove_witnesses_always_validate(rng):
    # and a witness is found exactly when the full-class scan finds one
    budgets = Budgets(conv_depth=3, size_cap=20, max_class=300)
    outcomes = set()
    for _ in range(150):
        R = random_system(rng)
        w = disprove_search(R, budgets)
        assert (w is None) == (_full_class_disprove_search(R, budgets) is None), R
        if w is not None:
            assert validate_witness(R, w)
        outcomes.add(w is None)
    assert outcomes == {True, False}


class _FlagScan(_ClassScan):
    """`_ClassScan` that records the normal-form flag of each member."""

    def __init__(self, R, budgets):
        super().__init__(R, budgets)
        self.flags = {}

    def _candidates(self, m, m_vars, m_nf, reached):
        self.flags[m] = m_nf
        return super()._candidates(m, m_vars, m_nf, reached)


def _distinct_seeds(R):
    seeds = [t for cp in critical_pairs(R) for t in (cp.left, cp.right)]
    return list({canonical_key((t,)): t for t in seeds + [r.rhs for r in R.rules]}.values())


def _scan_flags(R, budgets):
    """Per member of every seed's class: (flag of the scan, whether it is a
    normal form, whether a forward step reached it)."""
    rows = []
    for seed in _distinct_seeds(R):
        scan = _FlagScan(R, budgets)
        cls = conversion_class(R, seed, budgets.conv_depth, budgets.size_cap,
                               budgets.max_class, budgets, scan.visit)
        assert list(scan.flags) == cls.members
        rows += [(scan.flags[m], is_normal_form(R, m),
                  cls.reached[m] is not None and cls.reached[m][1].forward)
                 for m in cls.members]
    return rows


@pytest.mark.parametrize("R", [CL, AC, COPS_254], ids=["CL", "AC", "COPS_254"])
def test_class_scan_reads_the_normal_form_flag_from_the_edge(R):
    rows = _scan_flags(R, Budgets(conv_depth=4, size_cap=30, max_class=500))
    assert all(flag == nf for flag, nf, _ in rows)
    assert not all(fwd for _, _, fwd in rows)


@given(small_systems())
def test_class_scan_reads_the_normal_form_flag_from_the_edge_hypothesis(R):
    rows = _scan_flags(R, Budgets(conv_depth=3, size_cap=20, max_class=150))
    assert all(flag == nf for flag, nf, _ in rows)


def test_class_scan_reads_the_normal_form_flag_from_the_edge_random(rng):
    kinds = Counter()
    for _ in range(100):
        for flag, nf, fwd in _scan_flags(random_system(rng), Budgets(
                conv_depth=3, size_cap=20, max_class=150)):
            assert flag == nf
            kinds[nf, fwd] += 1
    # normal forms and redexes, each reached forward and not (seeds only for
    # the normal forms); observed 41, 263, 77 and 969
    assert min(kinds[k] for k in product((True, False), repeat=2)) >= 20


def test_disprove_search_scans_only_forward_reached_members(monkeypatch):
    calls = 0
    real = uncprover.completion.is_normal_form

    def counting(R, t):
        nonlocal calls
        calls += 1
        return real(R, t)

    monkeypatch.setattr(uncprover.completion, "is_normal_form", counting)
    assert disprove_search(CL) is None
    monkeypatch.undo()
    rows = _scan_flags(CL, DEFAULT_BUDGETS)
    forward = sum(fwd for _, _, fwd in rows)
    # a scan of every member would make len(rows) calls
    assert calls <= len(_distinct_seeds(CL)) + forward < len(rows) // 2


# --- direct-sum decomposition ------------------------------------------------------


def test_decompose_disjoint():
    R = TRS.of([RewriteRule(a, b), RewriteRule(f(x), g(x))])
    comps = direct_sum_decompose(R)
    assert [c_.rules for c_ in comps] == [(RewriteRule(a, b),),
                                          (RewriteRule(f(x), g(x)),)]


def test_decompose_shared_symbol():
    R = TRS.of([RewriteRule(a, b), RewriteRule(f(a), b)])
    assert len(direct_sum_decompose(R)) == 1


def test_decompose_three_rules():
    R = TRS.of([RewriteRule(a, b), RewriteRule(c, d), RewriteRule(f(c), c)])
    comps = direct_sum_decompose(R)
    assert [set(c_.rules) for c_ in comps] == [
        {RewriteRule(a, b)}, {RewriteRule(c, d), RewriteRule(f(c), c)}]


def test_decompose_components_partition_symbols(rng):
    for _ in range(60):
        rules = []
        for _ in range(rng.randint(1, 4)):
            lhs = random_term(rng, depth=2)
            while isinstance(lhs, Var):
                lhs = random_term(rng, depth=2)
            rhs = random_term(rng, depth=1)
            if variables(rhs) - variables(lhs):
                rhs = a
            rules.append(RewriteRule(lhs, rhs))
        R = TRS.of(rules)
        comps = direct_sum_decompose(R)
        all_rules = [r for c_ in comps for r in c_.rules]
        assert sorted(map(repr, all_rules)) == sorted(map(repr, R.rules))
        for i, c1_ in enumerate(comps):
            for c2_ in comps[i + 1:]:
                assert not (c1_.symbols() & c2_.symbols())


def test_unc_verdict_recheck_on_final_system():
    # soundness hook: rebuild the completed system and re-run the guard
    # and the pair test independently
    verdict = unc_complete(COPS_254, STRONGLY_CLOSED, max_rounds=3)
    assert verdict.status == "UNC"
    final = TRS(COPS_254.rules + verdict.added_rules)
    assert STRONGLY_CLOSED.guard(final)
    from uncprover.trs import critical_pairs
    from uncprover.config import DEFAULT_BUDGETS
    for cp in critical_pairs(final):
        assert STRONGLY_CLOSED.pair_closed(final, cp, DEFAULT_BUDGETS)[0] is not None
