"""UNC completion, rule reversing, disproof search, and direct-sum
decomposition.

The completion loop adds rules connecting critical-pair sides until a
confluence predicate of `criteria` (its guard and pair test) certifies the
grown system; every added rule is conversion-derivable over the original
system and keeps the normal forms unchanged, so UNC transfers back.
Disproofs exhibit two distinct convertible normal forms together with a
replayable conversion trace over the original rules.  A clock cut of the
budgets raises `TimeoutError`, which `unc_complete` and `disprove_search`
each catch once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .config import Budgets, DEFAULT_BUDGETS
from .criteria import ConfluencePredicate
from .terms import (
    Term,
    Var,
    canonical_key,
    find,
    fn_subterms,
    fresh_name,
    match,
    renaming_apart,
    replace_at,
    substitute,
    subterm_at,
    term_size,
    variables,
)
from .trs import (
    TRS,
    ConvStep,
    Reached,
    RewriteRule,
    conversion_class,
    critical_pairs,
    development_step_reducts,
    is_normal_form,
    pair_stream,
    reach_path,
    redexes,
    replay_path,
    reverse_trace,
    trace_valid,
)

Trace = tuple[ConvStep, ...]


@dataclass(frozen=True)
class Witness:
    """Two distinct normal forms joined by a conversion trace."""

    s: Term
    t: Term
    trace: Trace


@dataclass(frozen=True)
class Verdict:
    status: str  # "UNC" | "NOT_UNC" | "MAYBE"
    reason: str = ""
    witness: Optional[Witness] = None
    added_rules: tuple[RewriteRule, ...] = ()
    #: conversion traces over the original system, one per added rule
    added_traces: tuple[Trace, ...] = ()
    rounds: int = 0


def _expand_trace(steps: Iterable[ConvStep], n_original: int,
                  added_traces: list[Trace]) -> Trace:
    """Rewrite trace steps that use added rules into original-rule segments.

    Stored segments connect an added rule's lhs to its rhs over original
    rules only, so one expansion level suffices.
    """
    out: list[ConvStep] = []
    for step in steps:
        if step.rule < n_original:
            out.append(step)
            continue
        seg = added_traces[step.rule - n_original]
        src = step.src if step.forward else step.dst
        lhs_instance = subterm_at(src, step.pos)
        seg_vars: set[str] = set()
        for s in seg:
            seg_vars |= variables(s.src) | variables(s.dst)
        ren = renaming_apart(sorted(seg_vars - variables(seg[0].src)),
                             set(variables(src)) | seg_vars)
        seg = tuple(s.subst(ren) for s in seg)
        sigma = match(seg[0].src, lhs_instance)
        if sigma is None:
            raise ValueError("stored rule trace does not match its instance")
        expanded = [
            ConvStep(replace_at(src, step.pos, substitute(s.src, sigma)),
                     replace_at(src, step.pos, substitute(s.dst, sigma)),
                     s.rule, step.pos + s.pos, s.forward)
            for s in seg
        ]
        if not step.forward:
            expanded = reverse_trace(expanded)
        out.extend(expanded)
    return tuple(out)


def _escape_witness(trace_s_to_t: Trace, s: Term, t: Term) -> Witness:
    """Second normal form obtained by renaming a variable of `t` that does
    not occur in `s`; the witness trace runs through `s`."""
    x = sorted(variables(t) - variables(s))[0]
    pool = set(variables(s) | variables(t))
    for st in trace_s_to_t:
        pool |= variables(st.src) | variables(st.dst)
    y = fresh_name(x, pool)
    ren = {x: Var(y)}
    t2 = substitute(t, ren)
    renamed = tuple(st.subst(ren) for st in trace_s_to_t)
    full = reverse_trace(renamed) + tuple(trace_s_to_t)
    return Witness(t2, t, full)


def _pick_join(S: TRS, u: Term, v: Term, budgets: Budgets):
    """Smallest multistep reduct of either side usable as a new rule's rhs.

    Candidates pair a reduct w of u with rule v -> w and a reduct w of v
    with rule u -> w; the smallest w wins, ties broken lexicographically.
    Returns (lhs, w, path_start, path) or None.
    """
    candidates = []
    for branch, (lhs, other) in enumerate(((v, u), (u, v))):
        dev, _ = development_step_reducts(S, other, budgets=budgets)
        for w, path in dev.items():
            if w == lhs or variables(w) - variables(lhs):
                continue
            candidates.append((term_size(w), repr(w), branch, lhs, w, other, path))
    if not candidates:
        return None
    return min(candidates, key=lambda c: c[:3])[3:]


def unc_complete(R: TRS, pred: ConfluencePredicate, max_rounds: int = 3,
                 budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Grow `R` with conversion-derivable rules until the confluence
    predicate certifies the result, a disproof witness appears, or the
    round budget runs out.

    Each round is one pass over the critical pairs: a trivial or closed
    pair is passed over, and any other pair decides NOT_UNC or proposes a
    rule, so a disproving pair answers before later pairs are closed.

    Addition invariant: each added rule l -> r has l convertible to r over
    the *original* system (a trace is kept) and l was reducible when
    added, so the normal forms never change.

    Past the budget's deadline the answer is MAYBE "timeout": every search
    below raises `TimeoutError` at its clock check and the cut is caught
    here, so neither a partial pair list nor a cut closure search can give
    an UNC.
    """
    n_original = len(R.rules)
    current = R
    added_traces: list[Trace] = []

    def verdict(status: str, reason: str, rounds: int,
                witness: Optional[Witness] = None) -> Verdict:
        return Verdict(status, reason, witness, current.rules[n_original:],
                       tuple(added_traces), rounds)

    # the keys of `current`'s rules and of this round's proposals
    known = {canonical_key((r.lhs, r.rhs)) for r in R.rules}
    try:
        for round_no in range(1, max_rounds + 1):
            budgets.check()
            new_rules: list[tuple[RewriteRule, Trace]] = []
            all_closed = True
            for cp in pair_stream(current, budgets):
                budgets.check()
                if (cp.left == cp.right
                        or pred.pair_closed(current, cp, budgets)[0] is not None):
                    continue
                all_closed = False
                # left <- peak -> right
                base = (ConvStep(cp.left, cp.peak, cp.inner, cp.pos, False),
                        ConvStep(cp.peak, cp.right, cp.outer, (), True))
                u, v = cp.left, cp.right
                u_nf, v_nf = is_normal_form(current, u), is_normal_form(current, v)
                if u_nf and v_nf:
                    trace = _expand_trace(base, n_original, added_traces)
                    return verdict("NOT_UNC", "two distinct convertible normal forms",
                                   round_no, Witness(u, v, trace))
                if u_nf != v_nf:
                    # orient (source, normal form, trace) towards the normal form
                    src, nf, trace = (u, v, base) if v_nf else (v, u, reverse_trace(base))
                    if variables(nf) - variables(src):
                        expanded = _expand_trace(trace, n_original, added_traces)
                        return verdict("NOT_UNC", "normal form drops a variable",
                                       round_no, _escape_witness(expanded, src, nf))
                    _add_rule(new_rules, known, RewriteRule(src, nf), trace)
                    continue
                choice = _pick_join(current, u, v, budgets)
                if choice is None:
                    continue
                lhs, w, start, path = choice
                fwd = tuple(replay_path(current, start, path))
                # if lhs == v: v <- peak -> u ->* w, oriented v -> w
                trace = (reverse_trace(base) if lhs == v else base) + fwd
                _add_rule(new_rules, known, RewriteRule(lhs, w), trace)
            if all_closed and pred.guard(current):
                return verdict("UNC", f"completion success with {pred.name} predicate",
                               round_no)
            if not new_rules:
                return verdict("MAYBE", "completion failed: no progress possible",
                               round_no)
            for rule, trace in new_rules:
                expanded = _expand_trace(trace, n_original, added_traces)
                current = TRS(current.rules + (rule,))
                added_traces.append(expanded)
    except TimeoutError:
        return verdict("MAYBE", "timeout", round_no - 1)
    return verdict("MAYBE", f"round budget of {max_rounds} exhausted", max_rounds)


def _add_rule(new_rules, known, rule: RewriteRule, trace: Trace) -> None:
    key = canonical_key((rule.lhs, rule.rhs))
    if key in known:
        return
    known.add(key)
    new_rules.append((rule, trace))


# ---------------------------------------------------------------------------
# rule reversing


def rule_reverse_mapped(R: TRS, budgets: Budgets = DEFAULT_BUDGETS,
                        ) -> tuple[TRS, tuple[tuple[str, int], ...]]:
    """Reverse rules with reducible right-hand sides and drop redundant
    identity rules; returns the new system and per-rule provenance, each
    ("kept" | "loop" | "flip", original rule index).

    A rule l -> r becomes l -> l and r -> l, in its place, when `R` reduces
    r, l is smaller than r and r -> l is well-formed.  One pass suffices: an
    instance of a reversed r holds an instance of the redex inside r, which
    `R` reduces, so no reversal makes another rhs reducible.  Then an
    identity rule is dropped, in order, when a rule neither it nor dropped
    reduces its lhs.  Both passes check the budget's clock once per rule.
    """
    rules: list[tuple[RewriteRule, tuple[str, int]]] = []
    for i, rule in enumerate(R.rules):
        budgets.check()
        lhs, rhs = rule.lhs, rule.rhs
        if (term_size(lhs) < term_size(rhs) and not variables(lhs) - variables(rhs)
                and not is_normal_form(R, rhs)):
            rules += [(RewriteRule(lhs, lhs), ("loop", i)),
                      (RewriteRule(rhs, lhs), ("flip", i))]
        else:
            rules.append((rule, ("kept", i)))
    grown = TRS(tuple(rule for rule, _ in rules))
    dropped: set[int] = set()
    first_origin: dict[RewriteRule, tuple[str, int]] = {}
    for k, (rule, org) in enumerate(rules):
        budgets.check()
        if rule.lhs == rule.rhs and any(
                j != k and j not in dropped for _, j, _, _ in redexes(grown, rule.lhs)):
            dropped.add(k)
        else:
            first_origin.setdefault(rule, org)
    return TRS(tuple(first_origin)), tuple(first_origin.values())


def translate_trace(steps: Iterable[ConvStep], origin: tuple[tuple[str, int], ...],
                    ) -> Trace:
    """Map a conversion trace over a reversed system back to the original.

    Flipped rules swap step direction, identity rules vanish, kept rules
    map straight through.
    """
    out: list[ConvStep] = []
    for step in steps:
        tag, i = origin[step.rule]
        if tag == "kept":
            out.append(ConvStep(step.src, step.dst, i, step.pos, step.forward))
        elif tag == "flip":
            out.append(ConvStep(step.src, step.dst, i, step.pos, not step.forward))
        elif step.src != step.dst:
            raise ValueError("identity rule step changed the term")
    return tuple(out)


# ---------------------------------------------------------------------------
# disproof search


def validate_witness(R: TRS, w: Witness) -> bool:
    if w.s == w.t:
        return False
    if not (is_normal_form(R, w.s) and is_normal_form(R, w.t)):
        return False
    if not w.trace:
        return False
    if w.trace[0].src != w.s or w.trace[-1].dst != w.t:
        return False
    return trace_valid(R, w.trace)


def disprove_search(R: TRS, budgets: Budgets = DEFAULT_BUDGETS) -> Optional[Witness]:
    """Bounded conversion search for a UNC counterexample.

    Seeds are critical-pair sides and rule right-hand sides.  Each seed's
    conversion class is scanned member by member as `reach` finds it, and
    the search stops at the first witness that validates (`_ClassScan`).
    Every pair of members is tried once the later of the two is found, so
    a class yields a witness if and only if its full search would.  The
    budget is checked in the critical pairs, per seed, inside the class
    search and once per class member; past the deadline the search returns
    None.
    """
    try:
        seeds: list[Term] = []
        for cp in critical_pairs(R, budgets):
            seeds.extend([cp.left, cp.right])
        seeds.extend(r.rhs for r in R.rules)
        seen_keys: set[str] = set()
        for seed in seeds:
            budgets.check()
            k = canonical_key((seed,))
            if k in seen_keys:
                continue
            seen_keys.add(k)
            scan = _ClassScan(R, budgets)
            conversion_class(R, seed, budgets.conv_depth, budgets.size_cap,
                             budgets.max_class, budgets, scan.visit)
            if scan.witness is not None:
                return scan.witness
    except TimeoutError:
        pass
    return None


class _ClassScan:
    """The witness test of one conversion class, run on each member as it
    is found.  A new member `m` is tried, in this order: as a normal form
    with a variable that an earlier member lacks (a second witness then
    arises by renaming), as a member that lacks a variable of an earlier
    normal form, and as a normal form distinct from an earlier one.  Only
    the seed and members reached by a forward step are scanned for a
    redex: an expansion edge puts one into the member it reaches."""

    def __init__(self, R: TRS, budgets: Budgets):
        self.R = R
        self.budgets = budgets
        self.members: list[tuple[Term, frozenset[str]]] = []
        self.nfs: list[tuple[Term, frozenset[str]]] = []
        # equal variable sets shared to keep memory flat
        self.var_sets: dict[frozenset[str], frozenset[str]] = {}
        self.witness: Optional[Witness] = None

    def visit(self, m: Term, reached: Reached) -> bool:
        self.budgets.check()
        vs = frozenset(variables(m))
        m_vars = self.var_sets.setdefault(vs, vs)
        m_nf = (reached[m] is None or reached[m][1].forward) and is_normal_form(self.R, m)
        for w in self._candidates(m, m_vars, m_nf, reached):
            if validate_witness(self.R, w):
                self.witness = w
                return True
        self.members.append((m, m_vars))
        if m_nf:
            self.nfs.append((m, m_vars))
        return False

    def _candidates(self, m: Term, m_vars: frozenset[str], m_nf: bool,
                    reached: Reached) -> Iterator[Witness]:
        if m_nf:
            for s, s_vars in self.members:
                if not m_vars <= s_vars:
                    yield _escape_witness(_connect(reached, s, m), s, m)
        for t, t_vars in self.nfs:
            if not t_vars <= m_vars:
                yield _escape_witness(_connect(reached, m, t), m, t)
        if m_nf:
            for t, _ in self.nfs:
                yield Witness(t, m, _connect(reached, t, m))


def _connect(reached: Reached, a: Term, b: Term) -> Trace:
    """Conversion a ~* b inside a class, shared path segments trimmed."""
    pa = reach_path(reached, a)
    pb = reach_path(reached, b)
    k = 0
    while k < len(pa) and k < len(pb) and pa[k] == pb[k]:
        k += 1
    return reverse_trace(pa[k:]) + tuple(pb[k:])


# ---------------------------------------------------------------------------
# direct-sum decomposition


def direct_sum_decompose(R: TRS) -> tuple[TRS, ...]:
    """Finest partition of the rules into systems over disjoint symbols."""
    if not R.rules:
        return (R,)
    parent: dict[str, str] = {}
    rule_syms: list[list[str]] = []
    for rule in R.rules:
        syms = sorted({s.sym for _, s in fn_subterms(rule.lhs)} |
                      {s.sym for _, s in fn_subterms(rule.rhs)})
        rule_syms.append(syms)
        for a, b in zip(syms, syms[1:]):
            parent[find(parent, a)] = find(parent, b)
    # root -> rules of one component, in order of first rule
    groups: dict[str, list[RewriteRule]] = {}
    for rule, syms in zip(R.rules, rule_syms):
        groups.setdefault(find(parent, syms[0]), []).append(rule)
    return tuple(TRS(tuple(rules)) for rules in groups.values())
