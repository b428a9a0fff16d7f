"""Conditional rewrite systems, linearizations, and congruence closure for
condition entailment.

A `CTRS` has the rule interface and the root index of a `TRS`, so
`trs.critical_pairs` builds its pairs (`conditional_critical_pairs` is
another name for it) and `trs.redexes` rewrites with it given an
entailment test for the instantiated conditions.

Only the semi-equational reading of conditions is relevant here, and it is
never rewritten with directly: criteria work on conditional critical pairs
whose condition part is handled by congruence closure or by the ranked
conversion sets in `criteria`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .terms import (
    App,
    Signature,
    Term,
    Var,
    count_var,
    fresh_name,
    infer_signature,
    is_linear,
    substitute,
    var_occurrences,
    variables,
)
from .trs import TRS, critical_pairs, index_by_root


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"{self.lhs!r} = {self.rhs!r}"

    def subst(self, sigma) -> "Equation":
        return Equation(substitute(self.lhs, sigma), substitute(self.rhs, sigma))


@dataclass(frozen=True)
class ConditionalRule:
    lhs: Term
    rhs: Term
    conditions: tuple[Equation, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise ValueError(f"rule lhs is a variable: {self.lhs!r}")

    def __repr__(self) -> str:
        if not self.conditions:
            return f"{self.lhs!r} -> {self.rhs!r}"
        conds = ", ".join(map(repr, self.conditions))
        return f"{self.lhs!r} -> {self.rhs!r} <= {conds}"

    @property
    def left_linear(self) -> bool:
        return is_linear(self.lhs)

    @property
    def linear(self) -> bool:
        return is_linear(self.lhs) and is_linear(self.rhs)

    @property
    def type1(self) -> bool:
        deps = variables(self.rhs)
        for c in self.conditions:
            deps |= variables(c.lhs) | variables(c.rhs)
        return deps <= variables(self.lhs)

    @property
    def lr_separated(self) -> bool:
        """Linear lhs whose variables are exactly the condition lhs
        variables, pairwise distinct and disjoint from the condition rhs
        and rule rhs variables."""
        if not is_linear(self.lhs):
            return False
        xs = [c.lhs for c in self.conditions]
        if not all(isinstance(x, Var) for x in xs):
            return False
        names = [x.name for x in xs]
        if len(names) != len(set(names)):
            return False
        if set(names) != variables(self.lhs):
            return False
        ys: set[str] = set()
        for c in self.conditions:
            ys |= variables(c.rhs)
        if set(names) & ys:
            return False
        return variables(self.rhs) <= ys

    @property
    def non_duplicating(self) -> bool:
        """Non-duplication in the LR-separated sense: every rhs variable
        occurs at most as often as in the condition rhs vector."""
        cond_rhs = [c.rhs for c in self.conditions]
        for y in variables(self.rhs):
            if count_var(self.rhs, y) > sum(count_var(t, y) for t in cond_rhs):
                return False
        return True

    def rename(self, sigma) -> "ConditionalRule":
        return ConditionalRule(
            substitute(self.lhs, sigma), substitute(self.rhs, sigma),
            tuple(c.subst(sigma) for c in self.conditions))

    def all_variables(self) -> set[str]:
        out = variables(self.lhs) | variables(self.rhs)
        for c in self.conditions:
            out |= variables(c.lhs) | variables(c.rhs)
        return out


@dataclass(frozen=True)
class CTRS:
    signature: Signature
    rules: tuple[ConditionalRule, ...]

    @staticmethod
    def of(rules: Iterable[ConditionalRule],
           signature: Optional[Signature] = None) -> "CTRS":
        rules = tuple(rules)
        if signature is None:
            ts = []
            for r in rules:
                ts.extend([r.lhs, r.rhs])
                for c in r.conditions:
                    ts.extend([c.lhs, c.rhs])
            signature = infer_signature(ts)
        return CTRS(signature, rules)

    @property
    def left_linear(self) -> bool:
        return all(r.left_linear for r in self.rules)

    @property
    def linear(self) -> bool:
        return all(r.linear for r in self.rules)

    @property
    def type1(self) -> bool:
        return all(r.type1 for r in self.rules)

    @property
    def lr_separated(self) -> bool:
        return all(r.lr_separated for r in self.rules)

    @property
    def non_duplicating(self) -> bool:
        return all(r.non_duplicating for r in self.rules)

    @cached_property
    def rules_by_root(self) -> dict[str, tuple[tuple[int, ConditionalRule], ...]]:
        return index_by_root(self.rules)


def lift_trs(R: TRS) -> CTRS:
    """A TRS viewed as a CTRS with empty condition parts."""
    return CTRS(R.signature, tuple(ConditionalRule(r.lhs, r.rhs) for r in R.rules))


def conditional_linearize(R: TRS) -> CTRS:
    """Replace non-left-linear rules by left-linear conditional rules.

    Repeated variables get fresh distinct copies; the conditions are a
    minimal chain of variable equations identifying exactly the copies of
    one original variable, and the rhs keeps the first copy.  Left-linear
    rules pass through unchanged.
    """
    out = []
    for rule in R.rules:
        if rule.left_linear:
            out.append(ConditionalRule(rule.lhs, rule.rhs))
            continue
        used = variables(rule.lhs) | variables(rule.rhs) | set(R.signature.symbols())
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
        out.append(ConditionalRule(lhs, rhs, tuple(conds)))
    return CTRS(R.signature, tuple(out))


def lr_separated_linearize(R: TRS) -> CTRS:
    """Separate every lhs variable occurrence from the rhs via a fresh
    variable and a condition equating it with the original variable."""
    out = []
    for rule in R.rules:
        used = variables(rule.lhs) | variables(rule.rhs) | set(R.signature.symbols())
        occ_names = var_occurrences(rule.lhs)
        new_names = []
        conds = []
        for name in occ_names:
            fresh = fresh_name(name, used)
            used.add(fresh)
            new_names.append(fresh)
            conds.append(Equation(Var(fresh), Var(name)))
        lhs = _relabel_occurrences(rule.lhs, new_names)
        out.append(ConditionalRule(lhs, rule.rhs, tuple(conds)))
    return CTRS(R.signature, tuple(out))


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

    def _find(self, t: Term) -> Term:
        p = self._parent
        while p.get(t, t) != t:
            p[t] = p.get(p[t], p[t])
            t = p[t]
        return t

    def _add(self, t: Term) -> None:
        if t in self._parent:
            return
        self._parent[t] = t
        if isinstance(t, App):
            self._apps.append(t)
            for a in t.args:
                self._add(a)

    def _union(self, s: Term, t: Term) -> bool:
        rs, rt = self._find(s), self._find(t)
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
                key = (t.sym, tuple(repr(self._find(a)) for a in t.args))
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
        return self._find(s) == self._find(t)


def cc_entails(gamma: Iterable[Equation], s: Term, t: Term) -> bool:
    """True iff `s` and `t` are equal in the congruence closure of `gamma`."""
    return CongruenceClosure(gamma).entails(s, t)
