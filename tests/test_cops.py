import pytest

from uncprover.cops import MAX_DEPTH, CopsParseError, parse_cops
from uncprover.terms import arities
from uncprover.trs import TRS, RewriteRule

from conftest import a, b, c, f, h, random_system, random_term, x


def _arities(pf):
    return arities(t for r in pf.trs.rules for t in r.sides())


def test_parse_minimal():
    pf = parse_cops("(VAR x) (RULES f(x) -> x)")
    assert pf.variables == ("x",)
    assert pf.trs.rules == (RewriteRule(f(x), x),)
    assert _arities(pf) == {"f": 1}


def test_parse_cops254():
    pf = parse_cops("(VAR x) (RULES a -> f(c) a -> f(h(c)) f(x) -> h(f(x)))")
    assert pf.trs.rules == (
        RewriteRule(a, f(c)), RewriteRule(a, f(h(c))),
        RewriteRule(f(x), h(f(x))))
    assert _arities(pf) == {"a": 0, "c": 0, "f": 1, "h": 1}


def test_parse_rejects_fresh_rhs_variable():
    with pytest.raises(CopsParseError) as e:
        parse_cops("(VAR x) (RULES a -> x)")
    assert "fresh variables" in str(e.value)


def test_parse_rejects_variable_lhs():
    with pytest.raises(CopsParseError) as e:
        parse_cops("(VAR x) (RULES x -> a)")
    assert "left-hand side" in str(e.value)


def test_parse_rejects_arity_conflict():
    with pytest.raises(CopsParseError) as e:
        parse_cops("(RULES f(a) -> a f(a,a) -> a)")
    assert "arity" in str(e.value)


def test_parse_rejects_variable_with_arguments():
    with pytest.raises(CopsParseError):
        parse_cops("(VAR x) (RULES x(a) -> a)")


def test_parse_error_carries_position():
    with pytest.raises(CopsParseError) as e:
        parse_cops("(VAR x)\n(RULES a -> )")
    assert e.value.line == 2


def test_parse_unknown_block():
    with pytest.raises(CopsParseError):
        parse_cops("(FOO bar) (RULES a -> b)")


def test_parse_comment_block():
    pf = parse_cops("(VAR x)(RULES f(x) -> x)(COMMENT taken from somewhere)")
    assert pf.comment == "taken from somewhere"


def test_whitespace_insensitive():
    one = parse_cops("(VAR x y)(RULES f(x,y)->g(x))")
    two = parse_cops("(VAR x y)\n(RULES\n  f( x , y ) ->\n     g(x)\n)\n")
    assert one == two


def test_roundtrip(rng):
    # `RewriteRule.__repr__` writes Cops syntax
    for _ in range(200):
        R = random_system(rng)
        text = "(VAR x y)(RULES " + " ".join(map(repr, R.rules)) + ")"
        assert parse_cops(text).trs == R


def test_roundtrip_no_vars(rng):
    for _ in range(100):
        R = TRS.of([RewriteRule(random_term(rng, (), 2), random_term(rng, (), 2))
                    for _ in range(rng.randint(1, 3))])
        assert parse_cops("(RULES " + " ".join(map(repr, R.rules)) + ")").trs == R


def test_var_block_after_rules_declares_variables():
    pf = parse_cops("(RULES f(x) -> x)\n(VAR x)")
    assert pf.variables == ("x",)
    assert pf.trs.rules == (RewriteRule(f(x), x),)
    assert _arities(pf) == {"f": 1}


def test_rules_are_deduplicated():
    pf = parse_cops("(RULES a -> b  a -> c  a -> b)")
    assert pf.trs.rules == (RewriteRule(a, b), RewriteRule(a, c))


@pytest.mark.parametrize("text, at", [
    ("(", (1, 1)),
    ("(VAR x", (1, 1)),
    ("(RULES a -> b", (1, 1)),
    ("(VAR x)\n (RULES f(a -> b)", (2, 2)),
    ("(RULES a -> b)(COMMENT (x)", (1, 15)),
])
def test_unbalanced_parenthesis_at_the_block_opening(text, at):
    with pytest.raises(CopsParseError) as e:
        parse_cops(text)
    assert e.value.msg == "unbalanced parenthesis"
    assert (e.value.line, e.value.col) == at


def test_rules_end_reported_at_the_closing_parenthesis():
    with pytest.raises(CopsParseError) as e:
        parse_cops("(RULES a -> b c)")
    assert str(e.value) == "1:16: expected '->', found ')'"


def _nest(n: int, inner: str = "a") -> str:
    return "f(" * n + inner + ")" * n


def test_nesting_bound():
    pf = parse_cops(f"(RULES g({_nest(MAX_DEPTH - 1)}) -> a)")
    assert _arities(pf) == {"a": 0, "f": 1, "g": 1}
    with pytest.raises(CopsParseError) as e:
        parse_cops(f"(VAR x)\n(RULES a -> b\n  g({_nest(MAX_DEPTH)}) -> a)")
    # the f that opens argument list number MAX_DEPTH + 1
    assert (e.value.line, e.value.col) == (3, 5 + 2 * (MAX_DEPTH - 1))
    assert f"deeper than {MAX_DEPTH}" in e.value.msg


@pytest.mark.parametrize("text", [
    f"(RULES a -> {_nest(MAX_DEPTH + 1)})",
    f"(VAR x)(RULES {_nest(5000, 'x')} -> x)",
])
def test_deep_terms_are_parse_errors(text):
    with pytest.raises(CopsParseError, match="deeper than"):
        parse_cops(text)


def test_deep_comment_is_kept():
    pf = parse_cops("(RULES a -> b)(COMMENT " + "(" * 5000 + ")" * 5000 + ")")
    assert pf.comment == " ".join("(" * 5000 + ")" * 5000)


def test_arrow_tokenizes_without_spaces():
    pf = parse_cops("(RULES a->b)")
    assert pf.trs.rules == (RewriteRule(a, b),)
