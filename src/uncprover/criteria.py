"""Direct UNC criteria and the closure predicates.

* Overlap tests (strong non-overlap, non-omega-overlap) and right
  reducibility are plain decision procedures on the TRS; the omega test
  unifies the overlap sites of `trs.overlaps` over rational trees.

* A `ConfluencePredicate` is a rule-shape guard plus a critical-pair test
  that describes the join it finds.  Each test is a meet (`_meet`) of
  candidate terms with the terms many steps from the other side:
  `STRONGLY_CLOSED` takes it from each side, with the terms at most one
  step away as candidates, and `PARALLEL_CLOSED` and `DEVELOPMENT_CLOSED`
  from the left, one big step away (`trs.parallel_steps`,
  `trs.development_step_reducts`).  Before any meet a pair whose sides
  differ above every redex, and so have no common reduct, is refuted
  (`_joinable`).  They serve `pcl` and `scl` on a linearization, whose
  conditions congruence closure decides, and `sc` and `dc` in
  `completion`.  One critical-pair loop reports `pcl`, `scl`
  and the weight-decreasing check, which works with ranked conversion
  sets: states pair a multiset of still-usable assumption equations with
  a term, one rewrite step costs one rank unit, and equations are
  consumed one use each; a rank-0 closure, which only swaps equation
  sides, is a `trs.reach` search.  One check renames the rules once,
  keeps the memos of its rank-0 closures and rank-1 step queries, and
  drops them when it returns; one step enumerator serves its rank-1 and
  rank-2 queries and matches through `trs.redexes`, a step constrained by
  its target only where the two terms share the context.  These three
  criteria read the `config.Budgets` deadline and answer a truncated
  "timeout" report past it; the two overlap tests read it too, and past
  it raise `TimeoutError`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import product
from math import prod
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .config import Budgets, DEFAULT_BUDGETS
from .ctrs import CongruenceClosure, conditional_linearize, lr_separated_linearize
from .terms import (
    App,
    Term,
    Var,
    match,
    replace_at,
    substitute,
    subterm_at,
    subterms,
    unifiable_rational,
    variables,
)
from .trs import (TRS, CriticalPair, Entails, Equation, critical_pairs,
                  development_step_reducts, is_normal_form, overlaps, parallel_steps,
                  reach, redexes, reducts, single_steps)

Multiset = tuple[Equation, ...]


def multiset(eqs: Iterable[Equation]) -> Multiset:
    return tuple(sorted(eqs, key=repr))


class SimState(NamedTuple):
    """A still-usable condition multiset together with a term."""

    remaining: Multiset
    value: Term

    def __repr__(self) -> str:
        return f"<{{{', '.join(map(repr, self.remaining))}}}, {self.value!r}>"


@dataclass(frozen=True)
class CriterionReport:
    holds: bool
    details: tuple[str, ...] = ()
    failure: Optional[str] = None
    truncated: bool = False


# ---------------------------------------------------------------------------
# overlap-based criteria


def strongly_non_overlapping(R: TRS, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """No critical pair survives the conditional linearization of unconditional `R`."""
    return not critical_pairs(conditional_linearize(R), budgets)


def non_omega_overlapping(R: TRS, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """No two rule lhs's overlap even over infinite (rational) trees."""
    return not any(unifiable_rational(inner.lhs, sub)
                   for _, _, _, inner, sub in overlaps(R.rules, budgets))


def right_reducible(R: TRS, budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """Every rule's right-hand side is reducible; checks the clock per rule."""
    for r in R.rules:
        budgets.check()
        if is_normal_form(R, r.rhs):
            return False
    return True


# ---------------------------------------------------------------------------
# closure of conditional critical pairs under congruence-closure entailment


@dataclass(frozen=True)
class ConfluencePredicate:
    """Rule-shape guard plus critical-pair closure test.

    Contract: if the guard holds for a system and `pair_closed(S, cp,
    budgets)` gives a join description, not None, for each of its critical
    pairs, the system is confluent.  The pair test also tells whether a
    search was cut: the budgets' caps can only make a pair look unclosed,
    and past the deadline it raises `TimeoutError`.  A pair that
    `_joinable` refutes gives (None, False) without a search, also past
    the deadline; only a searched pair raises.
    """

    name: str
    guard: Callable[[TRS], bool]
    pair_closed: Callable[[TRS, CriticalPair, Budgets], tuple[Optional[str], bool]]


def _entails(S: TRS, cp: CriticalPair, budgets: Budgets) -> Optional[Entails]:
    # on a conditional system even a pair without conditions needs a test:
    # without one `redexes` reads no condition
    return CongruenceClosure(cp.conditions, budgets).entails if S.conditional else None


def _meet(S: TRS, holds: Optional[Entails], candidates: Iterable[Term], t: Term,
          budgets: Budgets) -> tuple[Optional[Term], bool]:
    """The least of `candidates` by `repr` within `budgets.conv_depth` steps
    of `t`, None if there is none, and whether that search was cut."""
    joins, cut = reach(single_steps(S, holds), t, budgets.conv_depth, budgets.size_cap,
                       budgets.max_class, budgets)
    return min((w for w in candidates if w in joins), key=repr, default=None), cut


def _joinable(S: TRS, s: Term, t: Term) -> bool:
    """False when `s` and `t` differ in symbol or arity at a position that
    a walk of both from the root reaches; it stops at variables and at
    subterms whose root starts an lhs of `S`.  Every step is at or below
    such a stop, so the two never join (the CAP of Arts and Giesl); the
    conditions of a conditional system only remove steps."""
    roots = S.rules_by_root
    stack = [(s, t)]
    while stack:
        s, t = stack.pop()
        if s is t or type(s) is Var or type(t) is Var or s.sym in roots or t.sym in roots:
            continue
        if s.sym != t.sym or len(s.args) != len(t.args):
            return False
        stack.extend(zip(s.args, t.args))
    return True


def _strong_pair(S: TRS, cp: CriticalPair, budgets: Budgets) -> tuple[Optional[str], bool]:
    """Both strong-closure joins: from each side, the terms at most one step
    away meeting many steps from the other side."""
    if not _joinable(S, cp.left, cp.right):
        return None, False
    holds = _entails(S, cp, budgets)
    a, cut_a = _meet(S, holds, {cp.right} | reducts(S, cp.right, holds), cp.left, budgets)
    b, cut_b = _meet(S, holds, {cp.left} | reducts(S, cp.left, holds), cp.right, budgets)
    return (None if a is None or b is None else f"joins at {a!r} / {b!r}"), cut_a or cut_b


def _big_step_pair(label: str, big_step: Callable[..., dict]):
    """The pair test of one big step from the left, which gives its reducts:
    an inner-outer pair closes by that step to the right, an overlay where
    the step meets many steps from the right, described by the least
    meeting term by `repr`.  Only the meet can be cut."""
    def pair_closed(S: TRS, cp: CriticalPair, budgets: Budgets,
                    ) -> tuple[Optional[str], bool]:
        if not _joinable(S, cp.left, cp.right):
            return None, False
        holds = _entails(S, cp, budgets)
        big = big_step(S, cp.left, holds, budgets)
        if not cp.overlay:
            return (f"{label} {list(big[cp.right])}" if cp.right in big else None), False
        meet, cut = _meet(S, holds, big, cp.right, budgets)
        return (None if meet is None else f"joined at {meet!r}"), cut
    return pair_closed


STRONGLY_CLOSED = ConfluencePredicate("strongly-closed", lambda S: S.linear, _strong_pair)

PARALLEL_CLOSED = ConfluencePredicate(
    "parallel-closed", lambda S: S.left_linear and S.type1,
    _big_step_pair("parallel step", parallel_steps))

# `development_step_reducts` reads no conditions, so the guard admits none;
# the lambda looks it up as a module global when called, so that a tracer
# rebinding the global sees the call
DEVELOPMENT_CLOSED = ConfluencePredicate(
    "development-closed", lambda S: S.left_linear and not S.conditional,
    _big_step_pair("development step",
                   lambda S, t, holds, b: development_step_reducts(S, t, budgets=b)[0]))


def _closure_report(C: TRS, budgets: Budgets,
                    closed: Callable[[CriticalPair], tuple[Optional[str], bool]],
                    ) -> CriterionReport:
    """`closed` run on every critical pair of `C`: the joins so far as
    details, the first unclosed pair as the failure, and past the budget's
    deadline, or on terms too deep for Python's stack, a truncated failure
    ("timeout", "stack depth")."""
    details = []
    try:
        for cp in critical_pairs(C, budgets):
            join, cut = closed(cp)
            if join is None:
                return CriterionReport(False, tuple(details),
                                       failure=f"unclosed critical pair {cp!r}",
                                       truncated=cut)
            details.append(f"{cp!r}: {join}")
    except (TimeoutError, RecursionError) as cut:
        cause = "timeout" if isinstance(cut, TimeoutError) else "stack depth"
        return CriterionReport(False, tuple(details), failure=cause, truncated=True)
    return CriterionReport(True, tuple(details))


def _predicate_report(pred: ConfluencePredicate, misfit: str, C: TRS,
                      budgets: Budgets) -> CriterionReport:
    if not pred.guard(C):
        return CriterionReport(False, failure=misfit)
    return _closure_report(C, budgets, lambda cp: pred.pair_closed(C, cp, budgets))


def parallel_closed_check(C: TRS, budgets: Budgets = DEFAULT_BUDGETS) -> CriterionReport:
    """`PARALLEL_CLOSED` on every conditional critical pair, a parallel
    step being the big step; condition entailment is decided by congruence
    closure of the pair's conditions."""
    return _predicate_report(PARALLEL_CLOSED, "not a left-linear type-1 CTRS", C, budgets)


def strongly_closed_check(C: TRS, budgets: Budgets = DEFAULT_BUDGETS) -> CriterionReport:
    """`STRONGLY_CLOSED` on every conditional critical pair."""
    return _predicate_report(STRONGLY_CLOSED, "CTRS is not linear", C, budgets)


# ---------------------------------------------------------------------------
# ranked conversion sets


def _swaps(st: SimState) -> Iterable[tuple[None, SimState]]:
    """States one equation swap from `st`, as a `reach` step; a swap consumes
    an equation, so depth `len(st.remaining)` reaches every state."""
    subs = list(subterms(st.value))
    for idx, e in enumerate(st.remaining):
        if idx > 0 and st.remaining[idx - 1] == e:
            continue
        rem = st.remaining[:idx] + st.remaining[idx + 1:]
        for here, there in ((e.lhs, e.rhs), (e.rhs, e.lhs)):
            for pos, sub in subs:
                if sub == here:
                    yield None, SimState(rem, replace_at(st.value, pos, there))


def _eq_closure(gamma: Multiset, value: Term) -> frozenset[SimState]:
    return frozenset(reach(_swaps, SimState(gamma, value), len(gamma))[0])


def eq_states(gamma: Iterable[Equation], value: Term) -> frozenset[SimState]:
    """All states reachable from `value` by swapping one literal occurrence
    of an equation side for the other side, consuming that equation.

    This is the rank-0 conversion set: the reflexive state is always a
    member, each equation is usable once, and no rewrite rule is applied.
    """
    return _eq_closure(multiset(gamma), value)


_MAX_ASSIGNMENTS = 4096

#: Prefix of the rule variables in the ranked searches.  The Cops tokenizer
#: splits names at whitespace, and every derived name is a parsed one with
#: digits appended, so no query term has a variable in this namespace.
_RULE_VAR = " "


class _RankedSearch:
    """State of one weight-decreasing check, dropped when the check ends.

    It holds the rules of the LR-separated CTRS renamed once into the
    `_RULE_VAR` namespace, as a `TRS` whose conditions `_steps` settles,
    with each renamed rule's variable set; the memos of the rank-0 closures
    (`states`) and of `step1_remainders`; and the budgets, checked on every
    `step1_remainders` memo miss.  The private ranked searches below take
    one; their public forms (`_public`) build a throwaway one from a CTRS.
    """

    def __init__(self, C: TRS, budgets: Budgets = DEFAULT_BUDGETS):
        self.rules = TRS(tuple(r.rename({n: Var(_RULE_VAR + n) for n in r.all_variables()})
                               for r in C.rules))
        self.rule_vars = tuple(frozenset(r.all_variables()) for r in self.rules.rules)
        self.budgets = budgets
        self.rank0: dict[tuple[Multiset, Term], frozenset[SimState]] = {}
        self.step1: dict[tuple[Multiset, Term, Term], frozenset[Multiset]] = {}

    def states(self, gamma: Multiset, value: Term) -> frozenset[SimState]:
        """`eq_states` of a sorted multiset, memoized for this check."""
        key = (gamma, value)
        hit = self.rank0.get(key)
        if hit is None:
            self.rank0[key] = hit = _eq_closure(gamma, value)
        return hit


def _sites(s: Term, t: Term):
    """(p, s|p) for every function position p of `s` at which `s` and a
    different term `t` share the context (s[□]p == t[□]p).

    Such positions form one path from the root: it goes on while both terms
    have the same head and differ in exactly one argument.
    """
    pos: tuple[int, ...] = ()
    while type(s) is App:
        yield pos, s
        if type(t) is not App or s.sym != t.sym or len(s.args) != len(t.args):
            return
        diff = [i for i, (u, v) in enumerate(zip(s.args, t.args)) if u != v]
        if len(diff) != 1:
            return
        i = diff[0]
        pos += (i + 1,)
        s, t = s.args[i], t.args[i]


def _rule_matches(W: _RankedSearch, s: Term, t: Optional[Term]):
    """Rule matches (pos, rule, theta, rule_vars) of `s`, where `s` shares
    the context with `t` when `t` is given: `theta` binds the renamed
    rule's lhs, and its rhs against `t` too, and `rule_vars`, the renamed
    rule's variables, tells the unbound rule variables from the query's."""
    sites = None if t is None or s == t else _sites(s, t)
    for pos, i, rule, theta in redexes(W.rules, s, sites=sites):
        if t is not None:
            sr = match(rule.rhs, subterm_at(t, pos))
            if sr is None or any(theta.setdefault(k, v) != v for k, v in sr.items()):
                continue
        yield pos, rule, theta, W.rule_vars[i]


def _steps(W: _RankedSearch, gamma: Multiset, s: Term, t: Optional[Term],
           extra_pool: Optional[Callable[[Term], set[Term]]] = None):
    """The rewrite steps from `s` (to `t` when given) with their condition
    tuples: (pos, rule, sigma, condition lhs instances, condition rhs
    instances), once per filling of the rule variables the match leaves
    unbound.

    A match that leaves a condition lhs variable unbound lies outside the
    LR-separated fragment and is skipped.  Candidates for an unbound
    variable are the subterms of the rank-0 conversion closures of the
    condition lhs instances whose rhs has it (extended by `extra_pool` for
    higher ranks); values outside those closures cannot satisfy the
    condition tuple.  A match with more than `_MAX_ASSIGNMENTS` fillings
    gives none.
    """
    for pos, rule, theta, rule_vars in _rule_matches(W, s, t):
        unbound = rule_vars - theta.keys()
        xs = [substitute(c.lhs, theta) for c in rule.conditions]
        if not unbound:
            yield pos, rule, theta, xs, [substitute(c.rhs, theta) for c in rule.conditions]
            continue
        if any(variables(x) & unbound for x in xs):
            continue
        free = sorted(unbound)
        pools: dict[str, set[Term]] = {w: set() for w in free}
        for c, x in zip(rule.conditions, xs):
            names = variables(c.rhs) & unbound
            if names:
                pool = {sub for st in W.states(gamma, x) for _, sub in subterms(st.value)}
                if extra_pool is not None:
                    pool |= extra_pool(x)
                for w in names:
                    pools[w] |= pool
        ordered = [sorted(pools[w], key=repr) for w in free]
        if prod(map(len, ordered)) > _MAX_ASSIGNMENTS:
            continue
        for values in product(*ordered):
            sigma = {**theta, **dict(zip(free, values))}
            yield pos, rule, sigma, xs, [substitute(c.rhs, sigma) for c in rule.conditions]


def _tuple_remainders(W: _RankedSearch, gamma: Multiset, xs: Sequence[Term],
                      ys: Sequence[Term], rank1: Optional[int] = None) -> set[Multiset]:
    """Remainders of conversions relating the tuples componentwise: at rank 1
    for component `rank1`, at rank 0 for the others."""
    rems = {gamma}
    for i, (x, y) in enumerate(zip(xs, ys)):
        nxt: set[Multiset] = set()
        for rem in rems:
            if i == rank1:
                nxt |= _conv1_remainders(W, rem, x, y)
            else:
                nxt |= {st.remaining for st in W.states(rem, x) if st.value == y}
        if not nxt:
            return set()
        rems = nxt
    return rems


def _step1_remainders(W: _RankedSearch, g: Multiset, s: Term, t: Term,
                      ) -> frozenset[Multiset]:
    """Remainders after one rewrite step from `s` to `t` whose condition
    tuple is settled by rank-0 conversions (a rank-1 step).

    Memoized per check on (gamma, s, t); the budget is checked on every
    miss."""
    key = (g, s, t)
    hit = W.step1.get(key)
    if hit is not None:
        return hit
    W.budgets.check()
    out: set[Multiset] = set()
    for _, _, _, xs, ys in _steps(W, g, s, t):
        out |= _tuple_remainders(W, g, xs, ys)
    W.step1[key] = result = frozenset(out)
    return result


def _step1_reducts(W: _RankedSearch, g: Multiset, s: Term,
                   ) -> set[tuple[Multiset, Term]]:
    """All (remainder, reduct) pairs of rank-1 steps from `s`."""
    out: set[tuple[Multiset, Term]] = set()
    for pos, rule, sigma, xs, ys in _steps(W, g, s, None):
        reduct = replace_at(s, pos, substitute(rule.rhs, sigma))
        out |= {(rem, reduct) for rem in _tuple_remainders(W, g, xs, ys)}
    return out


def _step_sandwich(W: _RankedSearch, gamma: Multiset, s: Term, t: Term,
                   ) -> set[Multiset]:
    """Remainders of rank-0 conversion, one rank-1 step, rank-0 conversion
    leading from `s` to `t`."""
    out: set[Multiset] = set()
    for st1 in W.states(gamma, s):
        for st2 in W.states(st1.remaining, t):
            out |= _step1_remainders(W, st2.remaining, st1.value, st2.value)
    return out


def _conv1_remainders(W: _RankedSearch, g: Multiset, s: Term, t: Term,
                      ) -> set[Multiset]:
    """Remainders of rank-1 conversions between `s` and `t` (exactly one
    rewrite step somewhere inside the conversion)."""
    return _step_sandwich(W, g, s, t) | _step_sandwich(W, g, t, s)


def _sim1_pool(W: _RankedSearch, gamma: Multiset) -> Callable[[Term], set[Term]]:
    def pool(seed: Term) -> set[Term]:
        out: set[Term] = set()
        for st in W.states(gamma, seed):
            for rem, v in _step1_reducts(W, st.remaining, st.value):
                for st2 in W.states(rem, v):
                    out |= {sub for _, sub in subterms(st2.value)}
        return out
    return pool


def _step2_remainders(W: _RankedSearch, g: Multiset, s: Term, t: Term,
                      ) -> set[Multiset]:
    """Remainders after one rewrite step from `s` to `t` whose condition
    tuple is settled by a rank-1 tuple conversion (a rank-2 step): one
    component converts at rank 1, the others at rank 0."""
    out: set[Multiset] = set()
    for _, _, _, xs, ys in _steps(W, g, s, t, _sim1_pool(W, g)):
        for j in range(len(xs)):
            out |= _tuple_remainders(W, g, xs, ys, j)
    return out


def _public(search: Callable) -> Callable:
    """`search(W, g, *terms)` of a sorted multiset `g` as a function of a CTRS
    and any equations, sorted once, with a fresh `_RankedSearch`; the
    searches call each other directly, since every multiset they derive is
    still sorted."""
    return wraps(search)(
        lambda C, gamma, *terms: search(_RankedSearch(C), multiset(gamma), *terms))


step1_remainders = _public(_step1_remainders)
step1_reducts = _public(_step1_reducts)
conv1_remainders = _public(_conv1_remainders)
step2_remainders = _public(_step2_remainders)


# ---------------------------------------------------------------------------
# weight-decreasing joinability


def _wd_clause(W: _RankedSearch, g: Multiset, s: Term, t: Term) -> Optional[str]:
    """The satisfied weight-decreasing closure clause for the pair, if any:
    a conversion of rank at most one, a single rank-2 step either way, or a
    step followed by a conversion in both directions (total rank <= 2)."""
    if any(st.value == t for st in W.states(g, s)):
        return "rank-0 conversion"
    if _conv1_remainders(W, g, s, t):
        return "rank-1 conversion"
    if _step2_remainders(W, g, s, t) or _step2_remainders(W, g, t, s):
        return "rank-2 step"
    if _step_then_conv(W, g, s, t) and _step_then_conv(W, g, t, s):
        return "step then conversion, both directions"
    return None


wd_ccp_satisfied = _public(_wd_clause)


def _step_then_conv(W: _RankedSearch, g: Multiset, s: Term, t: Term) -> bool:
    for st in W.states(g, t):
        if (_step1_remainders(W, st.remaining, s, st.value)
                or _step2_remainders(W, st.remaining, s, st.value)):
            return True
    for rem, s2 in _step1_reducts(W, g, s):
        if _conv1_remainders(W, rem, s2, t):
            return True
    return False


def weight_decreasing_unc(R: TRS, budgets: Budgets = DEFAULT_BUDGETS) -> CriterionReport:
    """UNC of unconditional `R` via weight-decreasing joinability of its
    left-right separated linearization; only for non-duplicating systems.

    The ranked conversion sets are finite, so the check is exact when it
    runs to the end.  Past the budget's deadline it stops and reports a
    truncated failure ("timeout").  Its search state lives for this call
    only."""
    if not R.non_duplicating:
        return CriterionReport(False, failure="TRS is duplicating")
    C = lr_separated_linearize(R)
    W = _RankedSearch(C, budgets)

    def closed(cp: CriticalPair) -> tuple[Optional[str], bool]:
        budgets.check()
        return _wd_clause(W, multiset(cp.conditions), cp.left, cp.right), False
    return _closure_report(C, budgets, closed)
