"""Conditional rewrite systems: the two linearizations, and congruence
closure for condition entailment.

A conditional rule is a `trs.RewriteRule` with conditions, and a
conditional system is a `trs.TRS`; `Equation` is re-exported from `trs`.  So
`trs.critical_pairs` builds the pairs of a conditional system
(`conditional_critical_pairs` is another name for it) and `trs.redexes`
rewrites with it given an entailment test for the instantiated conditions.

Both linearizations take an unconditional system and rest on one walk,
`_separate`, that renames lhs variable occurrences apart.  Conditions are
read semi-equationally and never rewritten with directly: criteria decide
them by congruence closure (`CongruenceClosure(gamma).entails(s, t)`) or by
the ranked conversion sets in `criteria`.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .terms import (
    App, Term, Var, find, fresh_name, replace_at, subterms, substitute)
from .trs import TRS, Equation, RewriteRule, critical_pairs


def _separate(R: TRS, repeated: bool) -> Iterator[tuple[RewriteRule, Term, list]]:
    """Per rule of `R`: the rule, its lhs with each separated variable
    occurrence renamed to a fresh name, and the (name, fresh) pairs, left to
    right.  `repeated` separates only the occurrences of variables that
    occur more than once; otherwise every occurrence is separated."""
    if R.conditional:
        raise ValueError("the linearizations take unconditional systems only")
    symbols = None
    for rule in R.rules:
        occs = [(p, s.name) for p, s in subterms(rule.lhs) if type(s) is Var]
        names = [name for _, name in occs]
        occs = [(p, name) for p, name in occs if not repeated or names.count(name) > 1]
        lhs, pairs = rule.lhs, []
        if occs:
            symbols = R.symbols() if symbols is None else symbols
            used = set(names) | symbols  # an unconditional rhs has only lhs variables
            for pos, name in occs:
                fresh = fresh_name(name, used)
                used.add(fresh)
                lhs = replace_at(lhs, pos, Var(fresh))
                pairs.append((name, fresh))
        yield rule, lhs, pairs


def conditional_linearize(R: TRS) -> TRS:
    """Replace non-left-linear rules by left-linear conditional rules.

    Repeated variables get fresh distinct copies; the conditions are a
    minimal chain of variable equations identifying exactly the copies of
    one original variable, and the rhs keeps the first copy.  Left-linear
    rules pass through as the same objects, and a left-linear `R` is
    returned itself.
    """
    if not R.conditional and R.left_linear:
        return R
    out = []
    for rule, lhs, pairs in _separate(R, repeated=True):
        if not pairs:
            out.append(rule)
            continue
        copies: dict[str, list[str]] = {}
        for name, fresh in pairs:
            copies.setdefault(name, []).append(fresh)
        first_copy = {name: Var(cs[0]) for name, cs in copies.items()}
        conds = tuple(Equation(Var(a), Var(b)) for name in sorted(copies)
                      for a, b in zip(copies[name], copies[name][1:]))
        out.append(RewriteRule(lhs, substitute(rule.rhs, first_copy), conds))
    return TRS(tuple(out))


def lr_separated_linearize(R: TRS) -> TRS:
    """Separate every lhs variable occurrence from the rhs via a fresh
    variable and a condition equating it with the original variable."""
    return TRS(tuple(RewriteRule(lhs, rule.rhs, tuple(
        Equation(Var(fresh), Var(name)) for name, fresh in pairs))
        for rule, lhs, pairs in _separate(R, repeated=False)))


conditional_critical_pairs = critical_pairs


class CongruenceClosure:
    """Union-find over the subterm graph of an equation set, with
    congruence propagation; variables are opaque constants.

    `CongruenceClosure(gamma).entails(s, t)` is the whole interface: the
    constructor unions the sides of each equation, and `entails` adds its
    two terms to the universe and closes it under congruence once before it
    decides.  Instances are single-threaded."""

    def __init__(self, equations: Iterable[Equation] = ()):
        self._parent: dict[Term, Term] = {}
        self._apps: list[App] = []
        for eq in equations:
            self._add(eq.lhs)
            self._add(eq.rhs)
            self._union(eq.lhs, eq.rhs)

    def _add(self, t: Term) -> None:
        stack = [t]
        while stack:
            u = stack.pop()
            if u not in self._parent:
                self._parent[u] = u
                if isinstance(u, App):
                    self._apps.append(u)
                    stack.extend(u.args)

    def _union(self, s: Term, t: Term) -> bool:
        rs, rt = find(self._parent, s), find(self._parent, t)
        self._parent[rt] = rs
        return rs != rt

    def entails(self, s: Term, t: Term) -> bool:
        self._add(s)
        self._add(t)
        changed = True
        while changed:
            changed = False
            canon: dict[tuple, Term] = {}
            for u in self._apps:
                key = (u.sym, tuple(find(self._parent, a) for a in u.args))
                other = canon.setdefault(key, u)
                if other is not u and self._union(other, u):
                    changed = True
        return find(self._parent, s) == find(self._parent, t)
