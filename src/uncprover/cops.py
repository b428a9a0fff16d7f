"""Reader for the Cops TRS problem format.

A problem is a sequence of parenthesised blocks, in any order: an optional
`(VAR ...)` block declaring variable names, a `(RULES ...)` block of
`lhs -> rhs` rules, and an optional `(COMMENT ...)` block kept as its
tokens joined by spaces.  Identifiers not declared as variables are
function symbols; arities are inferred from first use and checked
globally.  A term nests at most `MAX_DEPTH` argument lists.  Having checked
what `TRS.of` checks, the reader builds its `TRS` directly.  Every error is
a `CopsParseError` that carries the line and column where it was found.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, NoReturn, Optional

from .terms import MAX_DEPTH, App, Term, Var, variables
from .trs import TRS, RewriteRule


class CopsParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg, self.line, self.col = msg, line, col


@dataclass(frozen=True)
class ProblemFile:
    variables: tuple[str, ...]
    trs: TRS
    comment: Optional[str] = None


_TOKEN = re.compile(r"->|[(),]|(?:[^\s(),\-]|-(?!>))+|-")
_PUNCTUATION = ("(", ")", ",", "->")
_NESTING = {"(": 1, ")": -1}


class _Tok(NamedTuple):
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


def _fail(msg: str, tok: _Tok) -> NoReturn:
    raise CopsParseError(msg, tok.line, tok.col)


class _Parser:
    """Recursive descent over the tokens of one problem file.  The RULES
    body is read after the block loop, so that a VAR block after it still
    declares variables; then input can end only inside a block, which is
    an unbalanced parenthesis at the block's `(`."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.opening = _Tok("(", 1, 1)
        self.vars: set[str] = set()
        self.arities: dict[str, tuple[int, _Tok]] = {}

    def peek(self) -> str:
        return self.toks[self.i].text if self.i < len(self.toks) else ""

    def take(self, expected: Optional[str] = None) -> _Tok:
        if self.i == len(self.toks):
            _fail("unbalanced parenthesis", self.opening)
        tok = self.toks[self.i]
        if expected is not None and tok.text != expected:
            _fail(f"expected {expected!r}, found {tok.text!r}", tok)
        self.i += 1
        return tok

    def problem(self) -> ProblemFile:
        if not self.toks:
            raise CopsParseError("empty problem file", 1, 1)
        var_names: list[str] = []
        body_at: dict[str, int] = {}
        comment: Optional[str] = None
        while self.peek():
            self.opening = self.take("(")
            head = self.take()
            if head.text not in ("VAR", "RULES", "COMMENT"):
                _fail(f"unknown block {head.text!r}", head)
            if head.text in body_at:
                _fail(f"duplicate {head.text} block", head)
            start = body_at[head.text] = self.i
            if head.text == "VAR":
                while (tok := self.take()).text != ")":
                    if tok.text in _PUNCTUATION:
                        _fail(f"bad variable name {tok.text!r}", tok)
                    if tok.text in var_names:
                        _fail(f"duplicate variable {tok.text!r}", tok)
                    var_names.append(tok.text)
                continue
            depth = 1
            while depth:
                depth += _NESTING.get(self.take().text, 0)
            if head.text == "COMMENT":
                comment = " ".join(t.text for t in self.toks[start:self.i - 1])
        if "RULES" not in body_at:
            _fail("missing RULES block", self.toks[-1])
        self.vars = set(var_names)
        self.i = body_at["RULES"]
        rules = []
        while self.peek() != ")":
            at = self.toks[self.i]
            lhs, _, rhs = self.term(0), self.take("->"), self.term(0)
            if isinstance(lhs, Var):
                _fail(f"rule left-hand side is a variable {lhs!r}", at)
            extra = variables(rhs) - variables(lhs)
            if extra:
                _fail(f"rule introduces fresh variables {sorted(extra)} on the right", at)
            rules.append(RewriteRule(lhs, rhs))
        return ProblemFile(tuple(var_names), TRS(tuple(dict.fromkeys(rules))), comment)

    def term(self, depth: int) -> Term:
        tok = self.take()
        if tok.text in _PUNCTUATION:
            _fail(f"expected a term, found {tok.text!r}", tok)
        args: list[Term] = []
        if self.peek() == "(":
            if tok.text in self.vars:
                _fail(f"variable {tok.text!r} used with arguments", tok)
            if depth == MAX_DEPTH:
                _fail(f"term nests deeper than {MAX_DEPTH} argument lists", tok)
            self.i += 1
            if self.peek() != ")":
                args.append(self.term(depth + 1))
                while self.peek() == ",":
                    self.i += 1
                    args.append(self.term(depth + 1))
            self.take(")")
        elif tok.text in self.vars:
            return Var(tok.text)
        prev = self.arities.setdefault(tok.text, (len(args), tok))
        if prev[0] != len(args):
            _fail(f"symbol {tok.text!r} used with arity {len(args)}, "
                  f"but arity {prev[0]} at {prev[1].line}:{prev[1].col}", tok)
        return App(tok.text, tuple(args))


def parse_cops(text: str) -> ProblemFile:
    return _Parser(text).problem()
