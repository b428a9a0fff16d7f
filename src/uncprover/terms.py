"""First-order terms: variables and applications of function symbols.

Terms are immutable values; variables are identified by name and names are
disjoint from function symbols.  Positions are tuples of 1-based argument
indices, the empty tuple being the root.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union

# Tuples, so the sets and memos of the searches hash and compare terms in C;
# a term hashes as the tuple of its fields.  A variable is a 1-tuple and an
# application a 2-tuple, so the two never compare equal.
class Var(NamedTuple):
    name: str

    def __repr__(self) -> str:
        return self.name


class App(NamedTuple):
    sym: str
    args: tuple["Term", ...] = ()

    def __repr__(self) -> str:
        if not self.args:
            return self.sym
        return f"{self.sym}({','.join(map(repr, self.args))})"


Term = Union[Var, App]

Subst = Mapping[str, Term]
Position = tuple[int, ...]


def arities(terms: Iterable[Term]) -> dict[str, int]:
    """Arity of every function symbol used in `terms`; `ValueError` on a
    symbol used with two arities or one that contains NUL, which is
    reserved for canonical variable names."""
    table: dict[str, int] = {}
    stack = list(terms)
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            if table.setdefault(t.sym, len(t.args)) != len(t.args):
                raise ValueError(f"conflicting arities for {t.sym}")
            stack.extend(t.args)
    for sym in table:
        if "\x00" in sym:
            raise ValueError(f"symbol {sym!r} contains NUL")
    return table


#: Deepest nesting of argument lists a term may have.  The prover recurses
#: over terms, and from 245 levels on some inputs overflowed the stack.
MAX_DEPTH = 100


def check_depth(terms: Iterable[Term]) -> None:
    """Raise `ValueError` if a term nests more than `MAX_DEPTH` argument
    lists; the walk goes one nesting level at a time, without recursion."""
    level = list(terms)
    for _ in range(MAX_DEPTH + 1):
        level = [a for t in level if type(t) is App for a in t.args]
        if not level:
            return
    raise ValueError(f"term nests deeper than {MAX_DEPTH} argument lists")


def subterms(t: Term) -> Iterator[tuple[Position, Term]]:
    """All (position, subterm) pairs of `t`, root first, left to right."""
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        p, s = stack.pop()
        yield p, s
        if type(s) is App:
            for i in range(len(s.args), 0, -1):
                stack.append((p + (i,), s.args[i - 1]))


def fn_subterms(t: Term) -> Iterator[tuple[Position, Term]]:
    """Like `subterms` but restricted to non-variable subterms."""
    for p, s in subterms(t):
        if type(s) is App:
            yield p, s


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        if isinstance(t, Var) or not 1 <= i <= len(t.args):
            raise IndexError(f"position {pos} not in term")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, pos: Position, s: Term) -> Term:
    """`t` with `s` at `pos`, rebuilt bottom-up without recursion."""
    if not pos:
        return s
    path: list[tuple[str, list[Term], int]] = []
    for i in pos:
        if type(t) is Var:
            raise IndexError(f"position {pos} not in term")
        path.append((t.sym, list(t.args), i))
        t = t.args[i - 1]
    for sym, args, i in reversed(path):
        args[i - 1] = s
        s = App(sym, tuple(args))
    return s


def variables(t: Term) -> set[str]:
    out: set[str] = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.add(u.name)
        else:
            stack.extend(u.args)
    return out


def var_occurrences(t: Term) -> list[str]:
    """Variable names of `t` in left-to-right occurrence order."""
    return [s.name for _, s in subterms(t) if type(s) is Var]


def count_var(t: Term, name: str) -> int:
    return var_occurrences(t).count(name)


def is_linear(t: Term) -> bool:
    occs = var_occurrences(t)
    return len(occs) == len(set(occs))


def term_size(t: Term) -> int:
    """Number of symbol and variable occurrences."""
    n = 0
    stack = [t]
    while stack:
        u = stack.pop()
        n += 1
        if type(u) is App:
            stack.extend(u.args)
    return n


def substitute(t: Term, sigma: Subst) -> Term:
    if type(t) is Var:
        return sigma.get(t.name, t)
    if not t.args:
        return t
    return App(t.sym, tuple([substitute(a, sigma) for a in t.args]))


def match(pattern: Term, subject: Term) -> Optional[dict[str, Term]]:
    """Minimal substitution with pattern*sigma == subject, or None."""
    binding: dict[str, Term] = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if type(p) is Var:
            seen = binding.setdefault(p.name, s)
            if seen is not s and seen != s:
                return None
        elif type(s) is Var or p.sym != s.sym or len(p.args) != len(s.args):
            return None
        else:
            stack.extend(zip(p.args, s.args))
    return {x: t for x, t in binding.items() if type(t) is not Var or t.name != x}


def mgu(s: Term, t: Term) -> Optional[dict[str, Term]]:
    """Idempotent most general unifier of `s` and `t`, or None.

    Occurs check included; on a variable/variable equation the left
    variable is eliminated.  Bindings are kept in triangular form (a value
    may mention variables bound later) and resolved once at the end;
    equations are solved first in, first out, so the unifier and the order
    of its keys are those of substituting every binding eagerly.
    """
    bound: dict[str, Term] = {}
    queue = deque([(s, t)])
    while queue:
        a, b = queue.popleft()
        while type(a) is Var and a.name in bound:
            a = bound[a.name]
        while type(b) is Var and b.name in bound:
            b = bound[b.name]
        if type(b) is Var and type(a) is not Var:
            a, b = b, a
        if type(a) is Var:
            if a == b:
                continue
            if _occurs(a.name, b, bound):
                return None
            bound[a.name] = b
        elif a.sym != b.sym or len(a.args) != len(b.args):
            return None
        else:
            queue.extend(zip(a.args, b.args))
    resolved: dict[str, Term] = {}

    def resolve(u: Term) -> Term:
        if type(u) is Var:
            if u.name not in bound:
                return u
            if u.name not in resolved:
                resolved[u.name] = resolve(bound[u.name])
            return resolved[u.name]
        return App(u.sym, tuple(map(resolve, u.args))) if u.args else u

    return {x: resolve(Var(x)) for x in bound}


def _occurs(name: str, t: Term, bound: Mapping[str, Term]) -> bool:
    """Whether variable `name` occurs in `t` with the bindings applied."""
    stack = [t]
    followed: set[str] = set()
    while stack:
        u = stack.pop()
        if type(u) is not Var:
            stack.extend(u.args)
        elif u.name == name:
            return True
        elif u.name in bound and u.name not in followed:
            followed.add(u.name)
            stack.append(bound[u.name])
    return False


def find(parent: dict, x):
    """Root of `x` in the union-find forest `parent`, which maps a node to
    its parent and leaves a root out or maps it to itself; halves the path."""
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def unifiable_rational(s: Term, t: Term) -> bool:
    """Unifiability of `s` and `t` over infinite (rational) trees.

    Syntactic unification without the occurs check: a union-find over the
    subterm equations detects symbol clashes, cycles are permitted.
    """
    parent: dict[Term, Term] = {}
    pairs = [(s, t)]
    while pairs:
        a, b = pairs.pop()
        ra, rb = find(parent, a), find(parent, b)
        if ra == rb:
            continue
        if isinstance(ra, App) and isinstance(rb, App):
            if ra.sym != rb.sym or len(ra.args) != len(rb.args):
                return False
            parent[rb] = ra
            pairs.extend(zip(ra.args, rb.args))
        elif isinstance(ra, App):
            parent[rb] = ra
        else:
            parent[ra] = rb
    return True


def fresh_name(base: str, used: set[str]) -> str:
    """First name of the form base, base1, base2, ... not in `used`."""
    if base not in used:
        return base
    k = 1
    while f"{base}{k}" in used:
        k += 1
    return f"{base}{k}"


def renaming_apart(names: Iterable[str], used: set[str]) -> dict[str, Term]:
    """Rename `names` away from `used`, extending `used` as it goes."""
    out: dict[str, Term] = {}
    for n in names:
        if n in used:
            m = fresh_name(n, used)
            out[n] = Var(m)
            used.add(m)
        else:
            used.add(n)
    return out


def canonical_walk(ts: Iterable[Term], keep: frozenset[str] = frozenset(),
                   ) -> tuple[str, int, dict[str, str]]:
    """Key identifying the sequence `ts` up to renaming of non-kept
    variables, its number of symbol and variable occurrences, and its
    renaming, from one walk without recursion.

    This is the one writer of canonical names.  The non-kept variables are
    named \x00v1, \x00v2, ... by first occurrence, skipping kept names; the
    key is the comma-joined reprs of `ts` under that renaming, which maps a
    kept name to itself.  The \x00 prefix keeps canonical names clear of
    symbol and variable names.
    """
    names: dict[str, str] = {}
    out: list[str] = []
    emit = out.append
    size = k = 0
    # terms, separators and closing parentheses left to write, next on top
    stack: list = [u for t in ts for u in (",", t)][:0:-1]
    push = stack.append
    while stack:
        t = stack.pop()
        if type(t) is str:
            emit(t)
            continue
        size += 1
        if type(t) is Var:
            alias = names.get(t.name)
            if alias is None:
                alias = t.name
                if alias not in keep:
                    k += 1
                    while f"\x00v{k}" in keep:
                        k += 1
                    alias = f"\x00v{k}"
                names[t.name] = alias
            emit(alias)
        elif t.args:
            emit(t.sym + "(")
            push(")")
            for a in t.args[:0:-1]:
                stack += (a, ",")
            push(t.args[0])
        else:
            emit(t.sym)
    return "".join(out), size, names


def canonical_key(ts: Iterable[Term], keep: frozenset[str] = frozenset()) -> str:
    """The key of `canonical_walk`."""
    return canonical_walk(ts, keep)[0]
