"""Conditional rewrite systems: the two linearizations, and congruence
closure for condition entailment.

A conditional rule is a `trs.RewriteRule` with conditions, and a
conditional system is a `trs.TRS`; `Equation` is re-exported from `trs`.  So
`trs.critical_pairs` builds the pairs of a conditional system
(`conditional_critical_pairs` is another name for it) and `trs.redexes`
rewrites with it given an entailment test for the instantiated conditions.

Only the semi-equational reading of conditions is relevant here, and it is
never rewritten with directly: criteria work on conditional critical pairs
whose condition part is handled by congruence closure or by the ranked
conversion sets in `criteria`.
"""
from __future__ import annotations

from typing import Iterable

from .terms import (
    App,
    Term,
    Var,
    find,
    fresh_name,
    substitute,
    var_occurrences,
    variables,
)
from .trs import TRS, Equation, RewriteRule, critical_pairs


def conditional_linearize(R: TRS) -> TRS:
    """Replace non-left-linear rules by left-linear conditional rules.

    Repeated variables get fresh distinct copies; the conditions are a
    minimal chain of variable equations identifying exactly the copies of
    one original variable, and the rhs keeps the first copy.  Left-linear
    rules pass through unchanged.
    """
    out = []
    symbols = R.symbols()
    for rule in R.rules:
        if rule.left_linear:
            out.append(rule)
            continue
        used = variables(rule.lhs) | variables(rule.rhs) | symbols
        occ_names = var_occurrences(rule.lhs)
        copies: dict[str, list[str]] = {}
        new_names: list[str] = []
        for name in occ_names:
            if occ_names.count(name) == 1:
                copies.setdefault(name, [name])
                new_names.append(name)
            else:
                fresh = fresh_name(name, used)
                used.add(fresh)
                copies.setdefault(name, []).append(fresh)
                new_names.append(fresh)
        lhs = _relabel_occurrences(rule.lhs, new_names)
        first_copy = {name: Var(cs[0]) for name, cs in copies.items()}
        rhs = substitute(rule.rhs, first_copy)
        conds = []
        for name in sorted(copies):
            cs = copies[name]
            conds.extend(Equation(Var(a), Var(b)) for a, b in zip(cs, cs[1:]))
        out.append(RewriteRule(lhs, rhs, tuple(conds)))
    return TRS(tuple(out))


def lr_separated_linearize(R: TRS) -> TRS:
    """Separate every lhs variable occurrence from the rhs via a fresh
    variable and a condition equating it with the original variable."""
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
        lhs = _relabel_occurrences(rule.lhs, new_names)
        out.append(RewriteRule(lhs, rule.rhs, tuple(conds)))
    return TRS(tuple(out))


def _relabel_occurrences(t: Term, names: list[str]) -> Term:
    """Replace variable occurrences of `t` left to right by `names`."""
    it = iter(names)

    def go(u: Term) -> Term:
        if isinstance(u, Var):
            return Var(next(it))
        return App(u.sym, tuple(go(a) for a in u.args))

    return go(t)


conditional_critical_pairs = critical_pairs


class CongruenceClosure:
    """Union-find over the subterm graph of an equation set, with
    congruence propagation; variables are opaque constants.

    The term universe extends lazily: `entails` adds its argument terms
    before deciding.  Instances are single-threaded builders.
    """

    def __init__(self, equations: Iterable[Equation] = ()):
        self._parent: dict[Term, Term] = {}
        self._apps: list[App] = []
        for eq in equations:
            self.merge(eq.lhs, eq.rhs)

    def _add(self, t: Term) -> None:
        if t in self._parent:
            return
        self._parent[t] = t
        if isinstance(t, App):
            self._apps.append(t)
            for a in t.args:
                self._add(a)

    def _union(self, s: Term, t: Term) -> bool:
        rs, rt = find(self._parent, s), find(self._parent, t)
        if rs == rt:
            return False
        self._parent[rt] = rs
        return True

    def _propagate(self) -> None:
        changed = True
        while changed:
            changed = False
            canon: dict[tuple, Term] = {}
            for t in self._apps:
                key = (t.sym, tuple(find(self._parent, a) for a in t.args))
                other = canon.get(key)
                if other is None:
                    canon[key] = t
                elif self._union(other, t):
                    changed = True

    def merge(self, s: Term, t: Term) -> None:
        self._add(s)
        self._add(t)
        self._union(s, t)
        self._propagate()

    def entails(self, s: Term, t: Term) -> bool:
        self._add(s)
        self._add(t)
        self._propagate()
        return find(self._parent, s) == find(self._parent, t)
