"""Reader and writer for the Cops TRS problem format.

A problem is a sequence of parenthesised blocks: an optional `(VAR ...)`
block declaring variable names, a `(RULES ...)` block of `lhs -> rhs`
rules, and an optional trailing `(COMMENT ...)` block kept verbatim.
Identifiers not declared as variables are function symbols; arities are
inferred from first use and checked globally.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .terms import App, Signature, Term, Var, variables
from .trs import TRS, RewriteRule


class CopsParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col
        self.msg = msg


@dataclass(frozen=True)
class ProblemFile:
    variables: tuple[str, ...]
    trs: TRS
    comment: Optional[str] = None


_TOKEN = re.compile(r"->|[(),]|(?:[^\s(),\-]|-(?!>))+|-")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    out = []
    for ln, line in enumerate(text.splitlines(), 1):
        for m in _TOKEN.finditer(line):
            if "\x00" in m.group():
                raise CopsParseError("identifier contains NUL", ln, m.start() + 1)
            out.append(_Tok(m.group(), ln, m.start() + 1))
    return out


class _Parser:
    def __init__(self, toks: list[_Tok], variables: set[str],
                 arities: dict[str, tuple[int, _Tok]]):
        self.toks = toks
        self.i = 0
        self.vars = variables
        self.arities = arities

    def _err(self, msg: str, tok: Optional[_Tok] = None):
        if tok is None:
            tok = self.toks[self.i] if self.i < len(self.toks) else self.toks[-1]
        raise CopsParseError(msg, tok.line, tok.col)

    def peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: Optional[str] = None) -> _Tok:
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else _Tok("", 1, 1)
            raise CopsParseError("unexpected end of input", last.line, last.col)
        if expected is not None and tok.text != expected:
            self._err(f"expected {expected!r}, found {tok.text!r}", tok)
        self.i += 1
        return tok

    def term(self) -> Term:
        tok = self.take()
        if tok.text in ("(", ")", ",", "->"):
            self._err(f"expected a term, found {tok.text!r}", tok)
        name = tok.text
        nxt = self.peek()
        if nxt is not None and nxt.text == "(":
            if name in self.vars:
                self._err(f"variable {name!r} used with arguments", tok)
            self.take("(")
            args: list[Term] = []
            if self.peek() is not None and self.peek().text != ")":
                args.append(self.term())
                while self.peek() is not None and self.peek().text == ",":
                    self.take(",")
                    args.append(self.term())
            self.take(")")
            self._note_arity(name, len(args), tok)
            return App(name, tuple(args))
        if name in self.vars:
            return Var(name)
        self._note_arity(name, 0, tok)
        return App(name)

    def _note_arity(self, name: str, arity: int, tok: _Tok) -> None:
        prev = self.arities.get(name)
        if prev is not None and prev[0] != arity:
            self._err(
                f"symbol {name!r} used with arity {arity}, "
                f"but arity {prev[0]} at {prev[1].line}:{prev[1].col}", tok)
        self.arities.setdefault(name, (arity, tok))


def parse_cops(text: str) -> ProblemFile:
    toks = _tokenize(text)
    if not toks:
        raise CopsParseError("empty problem file", 1, 1)
    i = 0
    var_names: list[str] = []
    rules_toks: Optional[list[_Tok]] = None
    comment: Optional[str] = None
    seen_blocks: set[str] = set()
    while i < len(toks):
        if toks[i].text != "(":
            raise CopsParseError(f"expected '(', found {toks[i].text!r}",
                                 toks[i].line, toks[i].col)
        if i + 1 >= len(toks):
            raise CopsParseError("unexpected end of input", toks[i].line, toks[i].col)
        head = toks[i + 1]
        if head.text not in ("VAR", "RULES", "COMMENT"):
            raise CopsParseError(f"unknown block {head.text!r}", head.line, head.col)
        if head.text in seen_blocks:
            raise CopsParseError(f"duplicate {head.text} block", head.line, head.col)
        seen_blocks.add(head.text)
        # find the matching close parenthesis
        depth = 0
        j = i
        while j < len(toks):
            if toks[j].text == "(":
                depth += 1
            elif toks[j].text == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if j >= len(toks):
            raise CopsParseError("unbalanced parenthesis", toks[i].line, toks[i].col)
        body = toks[i + 2:j]
        if head.text == "VAR":
            for tok in body:
                if tok.text in ("(", ")", ",", "->"):
                    raise CopsParseError(f"bad variable name {tok.text!r}",
                                         tok.line, tok.col)
                if tok.text in var_names:
                    raise CopsParseError(f"duplicate variable {tok.text!r}",
                                         tok.line, tok.col)
                var_names.append(tok.text)
        elif head.text == "RULES":
            rules_toks = body
        else:
            comment = " ".join(t.text for t in body)
        i = j + 1
    if rules_toks is None:
        raise CopsParseError("missing RULES block", toks[-1].line, toks[-1].col)
    arities: dict[str, tuple[int, _Tok]] = {}
    parser = _Parser(rules_toks, set(var_names), arities)
    rules: list[RewriteRule] = []
    while parser.peek() is not None:
        at = parser.peek()
        lhs = parser.term()
        parser.take("->")
        rhs = parser.term()
        if isinstance(lhs, Var):
            raise CopsParseError(f"rule left-hand side is a variable {lhs!r}",
                                 at.line, at.col)
        extra = variables(rhs) - variables(lhs)
        if extra:
            raise CopsParseError(
                f"rule introduces fresh variables {sorted(extra)} on the right",
                at.line, at.col)
        rules.append(RewriteRule(lhs, rhs))
    sig = Signature.of({name: ar for name, (ar, _) in arities.items()})
    return ProblemFile(tuple(var_names), TRS.of(rules, sig), comment)


def render_cops(pf: ProblemFile) -> str:
    out = []
    if pf.variables:
        out.append(f"(VAR {' '.join(pf.variables)})")
    lines = ["(RULES"]
    for rule in pf.trs.rules:
        lines.append(f"  {_render_term(rule.lhs)} -> {_render_term(rule.rhs)}")
    lines.append(")")
    out.append("\n".join(lines))
    if pf.comment is not None:
        out.append(f"(COMMENT {pf.comment})")
    return "\n".join(out) + "\n"


def _render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.sym
    return f"{t.sym}({','.join(_render_term(a) for a in t.args)})"
