"""Rewrite systems: rewriting, closures of steps, critical pairs.

There is one rule type and one system type: a `RewriteRule` carries a
(possibly empty) tuple of `Equation` conditions, and a `TRS` is its rules
alone, conditional when some rule has conditions.  `TRS.of` checks the
rules' depth and arities, raising `ValueError`; `TRS(rules)` trusts them.
The searches here serve the conditional systems of `ctrs` and `criteria`
as well: `redexes` is the one root-indexed match loop, conditions included,
at every function position or at the sites a caller picks (the root, for
`_big_step`; the shared-context path, for `criteria`'s ranked steps);
`overlaps` yields the overlap sites of `critical_pairs` and of the omega
test; `reach` is the one bounded breadth-first search, over any one-step
relation, and keeps the edge by which it first reached each node: it runs
the joins of the closure tests, the conversion classes and the rank-0
closures of `criteria`; and `_big_step` is the one recursion behind the
parallel step and the multistep.  `development_step_reducts` is that
multistep on every system, left-linear or not, with a path of single steps
per reduct for `replay_path`.

All operations are pure, except that `critical_pairs` keeps each list it
finishes in the pair memo that its budgets carry (`Budgets.pairs`, one per
`strategy.prove_unc` call), which is read without the clock.  Step
budgets are per call, and the long searches call `config.Budgets.check`, so
a clock cut raises `TimeoutError` and never returns a partial result.
Result sets are deduplicated literally except for critical pairs, which are
identified up to renaming and condition order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, product
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .config import Budgets, DEFAULT_BUDGETS
from .terms import (
    App,
    Position,
    Term,
    Var,
    arities,
    canonical_key,
    canonical_walk,
    check_depth,
    count_var,
    fn_subterms,
    is_linear,
    match,
    mgu,
    renaming_apart,
    replace_at,
    substitute,
    subterm_at,
    subterms,
    term_size,
    variables,
)


class Equation(NamedTuple):
    lhs: Term
    rhs: Term

    def __repr__(self) -> str:
        return f"{self.lhs!r} = {self.rhs!r}"

    def subst(self, sigma) -> "Equation":
        return Equation(substitute(self.lhs, sigma), substitute(self.rhs, sigma))


@dataclass(frozen=True)
class RewriteRule:
    """A rule `lhs -> rhs <= conditions`; a plain rule has no conditions.

    Every rhs variable must occur in the lhs or in a condition, so a plain
    rule introduces no variable."""

    lhs: Term
    rhs: Term
    conditions: tuple[Equation, ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.lhs, Var):
            raise ValueError(f"rule lhs is a variable: {self.lhs!r}")
        extra = variables(self.rhs) - variables(self.lhs)
        for c in self.conditions:
            extra -= variables(c.lhs) | variables(c.rhs)
        if extra:
            raise ValueError(f"rule {self!r} introduces variables {sorted(extra)}")

    def __repr__(self) -> str:
        if not self.conditions:
            return f"{self.lhs!r} -> {self.rhs!r}"
        conds = ", ".join(map(repr, self.conditions))
        return f"{self.lhs!r} -> {self.rhs!r} <= {conds}"

    @property
    def left_linear(self) -> bool:
        return is_linear(self.lhs)

    @property
    def right_linear(self) -> bool:
        return is_linear(self.rhs)

    @property
    def linear(self) -> bool:
        return self.left_linear and self.right_linear

    @property
    def type1(self) -> bool:
        return self.all_variables() <= variables(self.lhs)

    @property
    def lr_separated(self) -> bool:
        """Linear lhs whose variables are exactly the condition lhs
        variables, pairwise distinct and disjoint from the condition rhs
        and rule rhs variables."""
        if not self.left_linear:
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
        """Every rhs variable occurs at most as often as in the lhs and the
        condition rhs's together: the plain notion on a plain rule, and the
        LR-separated one on an LR-separated rule, whose lhs shares no
        variable with its rhs."""
        return all(count_var(self.rhs, y) <= count_var(self.lhs, y)
                   + sum(count_var(c.rhs, y) for c in self.conditions)
                   for y in variables(self.rhs))

    def rename(self, sigma) -> "RewriteRule":
        return RewriteRule(substitute(self.lhs, sigma), substitute(self.rhs, sigma),
                           tuple(c.subst(sigma) for c in self.conditions))

    def sides(self) -> tuple[Term, ...]:
        """lhs, rhs, then both sides of each condition in order."""
        return (self.lhs, self.rhs) + tuple(
            t for c in self.conditions for t in (c.lhs, c.rhs))

    def all_variables(self) -> set[str]:
        out = variables(self.lhs) | variables(self.rhs)
        for c in self.conditions:
            out |= variables(c.lhs) | variables(c.rhs)
        return out


@dataclass(frozen=True)
class TRS:
    """A rewrite system; it is conditional when some rule has conditions."""

    rules: tuple[RewriteRule, ...]

    @staticmethod
    def of(rules: Iterable[RewriteRule]) -> "TRS":
        """`TRS(rules)` without duplicates, once `check_depth` and `arities` pass."""
        rules = tuple(rules)
        check_depth(t for r in rules for t in r.sides())
        deduped = tuple(dict.fromkeys(rules))
        arities([t for r in deduped for t in r.sides()])
        return TRS(deduped)

    @property
    def conditional(self) -> bool:
        return any(r.conditions for r in self.rules)

    @property
    def left_linear(self) -> bool:
        return all(r.left_linear for r in self.rules)

    @property
    def right_linear(self) -> bool:
        return all(r.right_linear for r in self.rules)

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
    def rules_by_root(self) -> dict[str, tuple[tuple[int, RewriteRule], ...]]:
        """(rule index, rule) pairs by lhs root symbol, in rule order."""
        index: dict[str, list[tuple[int, RewriteRule]]] = {}
        for i, r in enumerate(self.rules):
            index.setdefault(r.lhs.sym, []).append((i, r))
        return {sym: tuple(rs) for sym, rs in index.items()}

    @cached_property
    def dropped_variables(self) -> tuple[tuple[str, ...], ...]:
        """Per rule, the sorted variables of its lhs that its rhs drops."""
        return tuple(tuple(sorted(variables(r.lhs) - variables(r.rhs)))
                     for r in self.rules)

    def symbols(self) -> set[str]:
        """The function symbols of the rules, conditions included."""
        out: set[str] = set()
        stack = [t for r in self.rules for t in r.sides()]
        while stack:
            t = stack.pop()
            if type(t) is App:
                out.add(t.sym)
                stack.extend(t.args)
        return out


@dataclass(frozen=True)
class CriticalPair:
    """Conditions plus pair <inner result, outer result> from a unifiable
    overlap of two rules of a `TRS`, conditional or not.

    `left` is the result of the inner step, `right` the result of the outer
    (root) step; `pos` is the overlap position inside the outer lhs, and
    `peak` the outer lhs under the unifier, from which both steps start.
    The conditions juxtapose the instantiated condition parts of the inner
    and the outer rule, duplicates kept; a plain pair has none.
    """

    left: Term
    right: Term
    outer: int
    inner: int
    pos: Position
    peak: Term
    conditions: tuple[Equation, ...] = ()

    @property
    def overlay(self) -> bool:
        return self.pos == ()

    @property
    def kind(self) -> str:
        return "overlay" if self.overlay else "inner-outer"

    def __repr__(self) -> str:
        conds = ", ".join(map(repr, self.conditions)) if self.conditions else "{}"
        return f"{conds} => <{self.left!r}, {self.right!r}> [{self.kind}]"


#: Entailment test for an instantiated condition `s = t` of a conditional rule.
Entails = Callable[[Term, Term], bool]


def redexes(R: TRS, t: Term, holds: Optional[Entails] = None,
            sites: Optional[Iterable[tuple[Position, App]]] = None,
            ) -> Iterator[tuple[Position, int, RewriteRule, dict[str, Term]]]:
    """Redexes of `t` in a `TRS` `R`: (position, rule index, rule,
    matcher) by site, then rule index.  The sites are (position, subterm)
    pairs of function positions of `t`, by default all of them, root
    first, left to right.

    Only rules whose lhs root is the subterm's symbol are matched.  Given
    `holds`, every instantiated condition of the rule must hold; without it
    no condition is read, and a caller with conditional rules settles them."""
    by_root = R.rules_by_root
    for pos, sub in fn_subterms(t) if sites is None else sites:
        for i, rule in by_root.get(sub.sym, ()):
            sigma = match(rule.lhs, sub)
            if sigma is not None and (holds is None or all(
                    holds(substitute(c.lhs, sigma), substitute(c.rhs, sigma))
                    for c in rule.conditions)):
                yield pos, i, rule, sigma


def rewrite_steps(R: TRS, t: Term, holds: Optional[Entails] = None,
                  ) -> list[tuple[Position, int, Term]]:
    """All one-step reducts of `t` with redex position and rule index, in
    the order of `redexes`."""
    return [(pos, i, replace_at(t, pos, substitute(rule.rhs, sigma)))
            for pos, i, rule, sigma in redexes(R, t, holds)]


def reducts(R: TRS, t: Term, holds: Optional[Entails] = None) -> set[Term]:
    return {u for _, _, u in rewrite_steps(R, t, holds)}


def is_normal_form(R: TRS, t: Term) -> bool:
    return next(redexes(R, t), None) is None


#: What `reach` found: each node mapped to the node and edge it was first
#: reached from, or to None for the start.
Reached = dict[Hashable, Optional[tuple[Hashable, object]]]


#: Called by `reach` on each node it keeps, with the map so far; a true
#: return stops the search.
Visit = Callable[[Hashable, Reached], bool]


def reach(step: Callable[[Hashable], Iterable[tuple[object, Hashable]]], t: Hashable,
          depth: int, size_cap: int = 0, max_terms: int = 0,
          budgets: Budgets = DEFAULT_BUDGETS,
          visit: Optional[Visit] = None) -> tuple[Reached, bool]:
    """Nodes (terms, or any hashable values without `size_cap`) reachable
    from `t` in at most `depth` applications of `step`, which yields (edge,
    successor) pairs, as a `Reached` map, plus a flag telling whether the
    search was cut with the frontier open.

    `size_cap` drops oversized terms and `max_terms` stops the search once
    that many nodes were found; 0 disables either, and both keep the result
    a sound subset of the reachable nodes.  A `max_terms` cut sets the flag
    and a `size_cap` drop does not, and which nodes a cut keeps follows the
    order `step` yields them in; the budget is checked per frontier node.
    `visit`, if given, sees each kept node in found order, `t` first, as
    soon as it is in the map; a true return stops the search as a cut.
    """
    seen: Reached = {t: None}
    if visit is not None and visit(t, seen):
        return seen, True
    frontier = [t]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            budgets.check()
            for edge, v in step(u):
                link = (u, edge)
                # one lookup: a term hashes by walking all of it
                if seen.setdefault(v, link) is not link:
                    continue
                if size_cap and term_size(v) > size_cap:
                    del seen[v]
                    continue
                nxt.append(v)
                if visit is not None and visit(v, seen):
                    return seen, True
                if max_terms and len(seen) >= max_terms:
                    return seen, True
        if not nxt:
            return seen, False
        frontier = nxt
    return seen, bool(frontier)


def reach_path(reached: Reached, t: Hashable) -> list:
    """The edges from the start of a `reach` search to `t`, in order."""
    edges = []
    while reached[t] is not None:
        t, edge = reached[t]
        edges.append(edge)
    return edges[::-1]


def single_steps(R: TRS, holds: Optional[Entails] = None,
                 ) -> Callable[[Term], Iterator[tuple[tuple[Position, int], Term]]]:
    """The rewrite relation of `R` as a `reach` step: ((position, rule
    index), reduct) pairs in the order of `rewrite_steps`."""
    return lambda u: (((pos, i), v) for pos, i, v in rewrite_steps(R, u, holds))


def bounded_reducts(R: TRS, t: Term, depth: int, size_cap: int = 0,
                    max_terms: int = 0, budgets: Budgets = DEFAULT_BUDGETS) -> set[Term]:
    """Terms reachable from `t` in at most `depth` rewrite steps, cut as
    `reach` cuts."""
    return set(reach(single_steps(R), t, depth, size_cap, max_terms, budgets)[0])


#: A path of single steps: (redex position, rule index) to apply in order.
#: A big step's path contracts a redex before the redexes in its contractum.
DevPath = tuple[tuple[Position, int], ...]


def _big_step(R: TRS, t: Term, nested: bool, holds: Optional[Entails],
              memo: dict[Term, dict[Term, DevPath]], budgets: Budgets,
              ) -> dict[Term, DevPath]:
    """Reducts of one big step from `t`, each with the path of the first
    combination that gives it: the argument combinations, then the root
    contractions in rule order.  A contracted rhs variable takes its binding
    in a parallel step, and in a multistep (`nested`) any reduct of the
    binding's own multistep.  The budget is checked once per combination."""
    if isinstance(t, Var):
        return {t: ()}
    if t in memo:
        return memo[t]
    out: dict[Term, DevPath] = {}
    # reducts come by redex position set, then by rules, the order of an
    # enumeration of position sets: group each argument's by positions
    groups = [[list(g) for _, g in groupby(_big_step(R, a, nested, holds, memo, budgets)
                                           .items(), lambda e: [p for p, _ in e[1]])]
              for a in t.args]
    for combo in (c for places in product(*groups) for c in product(*places)):
        budgets.check()
        out.setdefault(App(t.sym, tuple(u for u, _ in combo)), tuple(
            ((i,) + p, ri) for i, (_, path) in enumerate(combo, 1) for p, ri in path))
    for _, ri, rule, sigma in redexes(R, t, holds, (((), t),)):
        names = sorted(variables(rule.rhs))
        maps = [_big_step(R, sigma.get(n, Var(n)), nested, holds, memo, budgets) if nested
                else {sigma.get(n, Var(n)): ()} for n in names]
        slots = [(p, names.index(s.name)) for p, s in subterms(rule.rhs) if type(s) is Var]
        for tau in product(*maps):
            budgets.check()
            u = substitute(rule.rhs, dict(zip(names, tau)))
            out.setdefault(u, (((), ri),) + tuple(
                (p + q, rj) for p, k in slots for q, rj in maps[k][tau[k]]))
    memo[t] = out
    return out


def parallel_steps(R: TRS, t: Term, holds: Optional[Entails] = None,
                   budgets: Budgets = DEFAULT_BUDGETS) -> dict[Term, DevPath]:
    """Reducts of `t` under one parallel step, which contracts any set of
    the redexes of `redexes(R, t, holds)` at disjoint positions, each with
    the first such set that gives it, by position; `t` maps to `()`."""
    return _big_step(R, t, False, holds, {}, budgets)


def parallel_step_reducts(R: TRS, t: Term) -> set[Term]:
    """The reducts of `parallel_steps`, `t` itself included."""
    return set(parallel_steps(R, t))


def replay_path(R: TRS, start: Term, path: DevPath) -> list["ConvStep"]:
    """Turn a (position, rule) path into concrete forward conversion steps."""
    steps: list[ConvStep] = []
    cur = start
    for pos, ri in path:
        rule = R.rules[ri]
        sigma = match(rule.lhs, subterm_at(cur, pos))
        if sigma is None:
            raise ValueError("path does not replay")
        nxt = replace_at(cur, pos, substitute(rule.rhs, sigma))
        steps.append(ConvStep(cur, nxt, ri, pos, True))
        cur = nxt
    return steps


def development_step_reducts(R: TRS, t: Term, max_terms: int = 4096,
                             budgets: Budgets = DEFAULT_BUDGETS,
                             ) -> tuple[dict[Term, DevPath], bool]:
    """Reducts of `t` under one multistep, each with a path for
    `replay_path`, and a flag set when there are more than `max_terms`."""
    out = _big_step(R, t, True, None, {}, budgets)
    return out, len(out) > max_terms


def overlaps(rules: Sequence[RewriteRule], budgets: Budgets = DEFAULT_BUDGETS,
             ) -> Iterator[tuple]:
    """Overlap sites of `rules`: (outer index, inner index, position, inner
    rule renamed apart, outer-lhs subterm), to be unified as the caller sees
    fit.

    Every ordered rule pair is overlapped, including a rule with its own
    renamed copy; the root overlap of a rule with itself is excluded.  Only
    sites whose symbol is the inner lhs root are yielded, since distinct
    function symbols unify neither syntactically nor over rational trees,
    and the inner rule is renamed away from the outer one only when a site
    is left.  The budget is checked once per ordered rule pair and once per
    yielded site.
    """
    for oi, outer in enumerate(rules):
        used = outer.all_variables()
        sites = list(fn_subterms(outer.lhs))
        for ii, inner in enumerate(rules):
            budgets.check()
            root = inner.lhs.sym
            hits = [(pos, sub) for pos, sub in sites
                    if sub.sym == root and (pos or ii != oi)]
            if not hits:
                continue
            renamed = inner.rename(
                renaming_apart(sorted(inner.all_variables()), set(used)))
            for pos, sub in hits:
                budgets.check()
                yield oi, ii, pos, renamed, sub


def _conditions_key(ren: dict[str, str], conditions: tuple[Equation, ...],
                    ) -> tuple[str, ...]:
    """Condition part of a pair's identity up to renaming, given the
    renaming `ren` of the sides from `canonical_walk`: side variables take
    their canonical names, condition-only ones by first occurrence in the
    conditions sorted by repr with them masked; condition order is ignored."""
    sigma: dict[str, Term] = {n: Var(alias) for n, alias in ren.items()}
    rest = {n for c in conditions for u in c for n in variables(u)} - ren.keys()
    if rest:
        mask = dict.fromkeys(rest, Var("\x00w"))
        ordered = sorted((c.subst(sigma) for c in conditions),
                         key=lambda c: repr(c.subst(mask)))
        names = canonical_walk([u for c in ordered for u in c], frozenset(ren.values()))[2]
        sigma.update((n, Var(names[n])) for n in rest)
    return tuple(sorted(repr(c.subst(sigma)) for c in conditions))


def pair_stream(R: TRS, budgets: Budgets = DEFAULT_BUDGETS) -> Iterator[CriticalPair]:
    """The critical pairs of a `TRS` `R`, conditional or not, deduplicated
    up to renaming and condition order, built one at a time as they are
    asked for; a clock cut in `overlaps` raises in the consumer."""
    seen: set[tuple] = set()
    for oi, ii, pos, inner, sub in overlaps(R.rules, budgets):
        sigma = mgu(inner.lhs, sub)
        if sigma is None:
            continue
        outer = R.rules[oi]
        peak = substitute(outer.lhs, sigma)
        # left shares all of the peak outside `pos`
        left = replace_at(peak, pos, substitute(inner.rhs, sigma))
        right = substitute(outer.rhs, sigma)
        conds = tuple(c.subst(sigma) for c in inner.conditions + outer.conditions)
        sides, _, ren = canonical_walk((left, right))
        key = (pos == (), sides, conds and _conditions_key(ren, conds))
        if key in seen:
            continue
        seen.add(key)
        yield CriticalPair(left, right, oi, ii, pos, peak, conds)


def critical_pairs(R: TRS, budgets: Budgets = DEFAULT_BUDGETS) -> tuple[CriticalPair, ...]:
    """All the pairs of `pair_stream`; a clock cut raises, so no caller sees
    a partial list.  With a memo in `budgets.pairs`, a finished list is kept
    there and returned again for the same rules."""
    memo = budgets.pairs
    if memo is None:
        return tuple(pair_stream(R, budgets))
    pairs = memo.get(R.rules)
    if pairs is None:
        pairs = memo[R.rules] = tuple(pair_stream(R, budgets))
    return pairs


@dataclass(frozen=True)
class ConvStep:
    """One conversion edge: src -> dst if forward, else dst -> src."""

    src: Term
    dst: Term
    rule: int
    pos: Position
    forward: bool

    def reversed_(self) -> "ConvStep":
        return ConvStep(self.dst, self.src, self.rule, self.pos, not self.forward)

    def subst(self, sigma) -> "ConvStep":
        return ConvStep(substitute(self.src, sigma), substitute(self.dst, sigma),
                        self.rule, self.pos, self.forward)


def reverse_trace(trace: Sequence[ConvStep]) -> tuple[ConvStep, ...]:
    """The same conversion walked from its end to its start."""
    return tuple(s.reversed_() for s in reversed(trace))


def step_valid(R: TRS, step: ConvStep) -> bool:
    src, dst = (step.src, step.dst) if step.forward else (step.dst, step.src)
    # a negative index would pick a rule from the end
    if not 0 <= step.rule < len(R.rules):
        return False
    try:
        return replay_path(R, src, ((step.pos, step.rule),))[0].dst == dst
    except (IndexError, ValueError):
        return False


def trace_valid(R: TRS, trace: Iterable[ConvStep]) -> bool:
    steps = list(trace)
    for a, b in zip(steps, steps[1:]):
        if a.dst != b.src:
            return False
    return all(step_valid(R, s) for s in steps)


def expansion_steps(R: TRS, t: Term, used_names: set[str],
                    ) -> Iterator[tuple[Position, int, Term]]:
    """Predecessors of `t`: terms u with u -> t in one step.

    Rule variables absent from the rhs are instantiated with the first
    fresh variables w1, w2, ... outside `used_names` and the variables of
    `t`, giving the most general predecessor at each position.  A rule
    whose rhs root is not the subterm's is passed over before matching.
    """
    dropped = R.dropped_variables
    taken = variables(t)
    fresh: list[Term] = []
    k = 0
    for _ in range(max(map(len, dropped), default=0)):
        k += 1
        while f"w{k}" in used_names or f"w{k}" in taken:
            k += 1
        fresh.append(Var(f"w{k}"))
    for pos, sub in subterms(t):
        for i, rule in enumerate(R.rules):
            rhs = rule.rhs
            if type(rhs) is App and (type(sub) is Var or rhs.sym != sub.sym):
                continue
            sigma = match(rhs, sub)
            if sigma is None:
                continue
            sigma.update(zip(dropped[i], fresh))
            yield pos, i, replace_at(t, pos, substitute(rule.lhs, sigma))


def conversion_steps(R: TRS, seed: Term, size_cap: int = 0,
                     ) -> Callable[[Term], Iterator[tuple[ConvStep, Term]]]:
    """The symmetric rewrite relation as a `reach` step from `seed`: the
    steps of `rewrite_steps`, then those of `expansion_steps`, as
    (`ConvStep`, term) pairs.  It drops terms above `size_cap`, yields only
    terms new up to renaming of the variables not in `seed`, and picks fresh
    variables away from those of the terms it yielded before.  A candidate
    tried before, literally, is passed over before it is walked; any other
    is walked once, by `canonical_walk`, for its key, size and variables."""
    keep = frozenset(variables(seed))
    keys = {canonical_key((seed,), keep)}
    names = set(keep)
    tried = {seed}

    def step(u: Term) -> Iterator[tuple[ConvStep, Term]]:
        # the fresh names of the expansions are picked before `names` grows
        expansions = list(expansion_steps(R, u, names))
        for forward, candidates in ((True, rewrite_steps(R, u)), (False, expansions)):
            for pos, i, v in candidates:
                if v in tried:
                    continue
                tried.add(v)
                k, size, vs = canonical_walk((v,), keep)
                if size_cap and size > size_cap or k in keys:
                    continue
                keys.add(k)
                names.update(vs)
                yield ConvStep(u, v, i, pos, forward), v
    return step


@dataclass(frozen=True)
class ConversionClass:
    """The members in found order, the `reach` map of `conversion_steps`,
    and whether the search was cut (by `max_class`, by `visit`, or with
    the frontier open at `depth`)."""

    members: list[Term]
    reached: Reached
    cut: bool


def conversion_class(R: TRS, seed: Term, depth: int,
                     size_cap: int = DEFAULT_BUDGETS.size_cap,
                     max_class: int = DEFAULT_BUDGETS.max_class,
                     budgets: Budgets = DEFAULT_BUDGETS,
                     visit: Optional[Visit] = None) -> ConversionClass:
    """Terms within `depth` conversion steps of `seed`, up to renaming of
    the variables not in the seed; `max_class` and `visit` cut as `reach`'s
    `max_terms` and `visit` do."""
    reached, cut = reach(conversion_steps(R, seed, size_cap), seed, depth,
                         max_terms=max_class, budgets=budgets, visit=visit)
    return ConversionClass(list(reached), reached, cut)
