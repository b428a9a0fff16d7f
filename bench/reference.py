"""Verdict checks that do not use the prover's code.

Terms are the benchmark's own: a variable is a `str`, an application a
`(symbol, args)` tuple.  The Cops text of an item and the certificate the
prover prints are parsed here, a NO is replayed step by step with this
module's matcher, and a YES on a random system is refuted, if it can be, by
a bounded search over ground conversions.
"""
from __future__ import annotations

import re
from typing import Optional

_TOKEN = re.compile(r"->|[(),]|[^\s(),]+")


class _Terms:
    """Recursive-descent reader of `f(t1,...,tn)` terms from a token list."""

    def __init__(self, tokens: list[str], is_var):
        self.tokens = tokens
        self.i = 0
        self.is_var = is_var

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected or 'a token'}, found {tok!r}")
        self.i += 1
        return tok

    def term(self):
        name = self.take()
        if name in ("(", ")", ",", "->"):
            raise ValueError(f"expected a term, found {name!r}")
        if self.peek() == "(":
            self.take("(")
            args = [self.term()]
            while self.peek() == ",":
                self.take(",")
                args.append(self.term())
            self.take(")")
            return (name, tuple(args))
        return name if self.is_var(name) else (name, ())


def parse_problem(text: str) -> tuple[list[tuple], dict[str, int]]:
    """Rules and signature of a Cops problem with VAR and RULES blocks."""
    tokens = _TOKEN.findall(text)
    declared: set[str] = set()
    rules_tokens: list[str] = []
    i = 0
    while i < len(tokens):
        depth, j = 0, i
        while True:
            depth += {"(": 1, ")": -1}.get(tokens[j], 0)
            if depth == 0:
                break
            j += 1
        head, body = tokens[i + 1], tokens[i + 2:j]
        if head == "VAR":
            declared.update(body)
        elif head == "RULES":
            rules_tokens = body
        i = j + 1
    reader = _Terms(rules_tokens, declared.__contains__)
    rules = []
    while reader.peek() is not None:
        lhs = reader.term()
        reader.take("->")
        rules.append((lhs, reader.term()))
    signature: dict[str, int] = {}
    for rule in rules:
        for side in rule:
            for _, sub in _subterms(side):
                if not isinstance(sub, str):
                    signature[sub[0]] = len(sub[1])
    return rules, signature


def parse_term(text: str, signature: dict[str, int]):
    """A term printed by the prover; a name outside the signature is a variable."""
    reader = _Terms(_TOKEN.findall(text), lambda name: name not in signature)
    t = reader.term()
    if reader.peek() is not None:
        raise ValueError(f"trailing text after term {text!r}")
    return t


# ---------------------------------------------------------------------------
# terms


def _subterms(t, pos=()):
    yield pos, t
    if not isinstance(t, str):
        for k, a in enumerate(t[1], 1):
            yield from _subterms(a, pos + (k,))


def _at(t, pos):
    for k in pos:
        if isinstance(t, str) or not 1 <= k <= len(t[1]):
            raise IndexError(f"no position {pos}")
        t = t[1][k - 1]
    return t


def _replace(t, pos, s):
    if not pos:
        return s
    k = pos[0] - 1
    args = t[1]
    return (t[0], args[:k] + (_replace(args[k], pos[1:], s),) + args[k + 1:])


def _match(pattern, t, sigma: dict) -> bool:
    if isinstance(pattern, str):
        bound = sigma.setdefault(pattern, t)
        return bound == t
    if isinstance(t, str) or pattern[0] != t[0] or len(pattern[1]) != len(t[1]):
        return False
    return all(_match(p, a, sigma) for p, a in zip(pattern[1], t[1]))


def _instance(t, sigma):
    if isinstance(t, str):
        return sigma[t]
    return (t[0], tuple(_instance(a, sigma) for a in t[1]))


def _rewrites_at(rules, t, pos) -> list:
    sub = _at(t, pos)
    out = []
    for lhs, rhs in rules:
        sigma: dict = {}
        if _match(lhs, sub, sigma):
            out.append(_replace(t, pos, _instance(rhs, sigma)))
    return out


def _normal(rules, t) -> bool:
    return not any(_match(lhs, sub, {}) for _, sub in _subterms(t) for lhs, _ in rules)


# ---------------------------------------------------------------------------
# checks


def _witness(certificate: str, signature):
    """The two normal forms and the conversion steps of a NO certificate."""
    lines = certificate.splitlines()
    for k, line in enumerate(lines):
        if line.strip().startswith("witness normal forms:"):
            left, right = line.split(":", 1)[1].split("  and  ")
            steps = []
            for step in lines[k + 2:]:
                parts = step.split()
                if len(parts) != 7 or parts[1] not in ("->", "<-"):
                    break
                pos = () if parts[6] == "root)" else tuple(
                    int(p) for p in parts[6].rstrip(")").split("."))
                steps.append((parse_term(parts[0], signature), parts[1] == "->",
                              parse_term(parts[2], signature), pos))
            return parse_term(left.strip(), signature), parse_term(right.strip(), signature), steps
    raise ValueError("no witness in the certificate")


def replay_no(certificate: str, rules, signature) -> Optional[str]:
    """Why the NO witness fails to replay over `rules`, or None if it holds.

    A step names the rule of a direct-sum component, so any rule of the
    system may justify it at the stated position.
    """
    try:
        s, t, steps = _witness(certificate, signature)
    except ValueError as e:
        return f"unreadable witness: {e}"
    if s == t:
        return "the two normal forms are equal"
    if not (_normal(rules, s) and _normal(rules, t)):
        return "a witness term is not a normal form"
    if not steps or steps[0][0] != s or steps[-1][2] != t:
        return "the trace does not run from one normal form to the other"
    for (src, forward, dst, pos), nxt in zip(steps, steps[1:] + [None]):
        if nxt is not None and nxt[0] != dst:
            return "the trace is not connected"
        before, after = (src, dst) if forward else (dst, src)
        try:
            ok = after in _rewrites_at(rules, before, pos)
        except IndexError:
            ok = False
        if not ok:
            return f"no rule rewrites {before} to {after} at {pos}"
    return None


def _ground_terms(signature: dict[str, int], max_size: int) -> list:
    by_size: dict[int, list] = {n: [] for n in range(1, max_size + 1)}
    for n in range(1, max_size + 1):
        for sym, arity in sorted(signature.items()):
            for args in _splits(by_size, arity, n - 1):
                by_size[n].append((sym, args))
    return [t for n in sorted(by_size) for t in by_size[n]]


def _splits(by_size, arity: int, total: int):
    """Argument tuples of `arity` ground terms whose sizes sum to `total`."""
    if arity == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - arity + 2):
        for t in by_size.get(first, ()):
            for rest in _splits(by_size, arity - 1, total - first):
                yield (t,) + rest


def refute_yes(rules, signature, max_size: int = 6) -> Optional[tuple]:
    """Two distinct normal forms convertible among ground terms of size at
    most `max_size`, or None.  Classes are unions of one-step rewrites that
    stay inside the bounded term set, so a pair found is a true
    counterexample to UNC."""
    terms = _ground_terms(signature, max_size)
    parent = {t: t for t in terms}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for t in terms:
        for pos, _ in _subterms(t):
            for u in _rewrites_at(rules, t, pos):
                if u in parent:
                    parent[find(u)] = find(t)
    normal_forms: dict = {}
    for t in terms:
        if _normal(rules, t):
            other = normal_forms.setdefault(find(t), t)
            if other != t:
                return other, t
    return None
