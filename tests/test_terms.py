import sys

from hypothesis import given
from hypothesis import strategies as st

from uncprover.terms import (
    App,
    Var,
    arities,
    canonical_key,
    canonical_walk,
    match,
    mgu,
    substitute,
    subterm_at,
    subterms,
    replace_at,
    term_size,
    unifiable_rational,
    variables,
)
from uncprover.trs import TRS, RewriteRule

from conftest import a, b, canonical_renaming, f, g, term_strategy, x, y, z

XYZ = ("x", "y", "z")


def test_match_basics():
    assert match(f(x, x), f(a, a)) == {"x": a}
    assert match(f(x, x), f(a, b)) is None


def test_match_cops126_rhs_matches_own_lhs():
    # the divergence rule's rhs is an instance of its lhs
    sigma = match(f(f(x, y), z), f(f(x, z), f(y, z)))
    assert sigma is not None
    assert substitute(f(f(x, y), z), sigma) == f(f(x, z), f(y, z))
    # identity bindings are dropped from the domain
    assert set(sigma) == {"y", "z"}


@given(term_strategy(), term_strategy())
def test_match_reproduces_subject(p, s):
    sigma = match(p, s)
    if sigma is not None:
        assert substitute(p, sigma) == s


def test_mgu_basics():
    assert mgu(x, f(y, y)) == {"x": f(y, y)}
    assert mgu(g(y), g(a)) == {"y": a}
    assert mgu(x, g(x)) is None


@given(term_strategy(), term_strategy())
def test_mgu_sound_idempotent_symmetric(s, t):
    sigma = mgu(s, t)
    tau = mgu(t, s)
    assert (sigma is None) == (tau is None)
    if sigma is None:
        return
    assert substitute(s, sigma) == substitute(t, sigma)
    for val in sigma.values():
        assert substitute(val, sigma) == val  # idempotence


# oracle: eager-substitution unification, whose unifiers and key order the
# triangular `mgu` must reproduce exactly
def _compose(first, second):
    out = {}
    for x_, t in first.items():
        u = substitute(t, second)
        if u != Var(x_):
            out[x_] = u
    for x_, t in second.items():
        if x_ not in first and t != Var(x_):
            out[x_] = t
    return out


def _oracle_mgu(s, t):
    subst = {}
    queue = [(s, t)]
    while queue:
        a_, b_ = queue.pop(0)
        a_, b_ = substitute(a_, subst), substitute(b_, subst)
        if a_ == b_:
            continue
        if isinstance(b_, Var) and not isinstance(a_, Var):
            a_, b_ = b_, a_
        if isinstance(a_, Var):
            if a_.name in variables(b_):
                return None
            subst = _compose(subst, {a_.name: b_})
            subst[a_.name] = b_
        else:
            if a_.sym != b_.sym or len(a_.args) != len(b_.args):
                return None
            queue.extend(zip(a_.args, b_.args))
    return subst


def _assert_same_unifier(s, t):
    got, want = mgu(s, t), _oracle_mgu(s, t)
    if want is None:
        assert got is None
    else:
        assert got == want
        assert list(got) == list(want)


@given(term_strategy(XYZ, max_leaves=8), term_strategy(XYZ, max_leaves=8))
def test_mgu_matches_eager_oracle(s, t):
    _assert_same_unifier(s, t)
    _assert_same_unifier(t, s)
    _assert_same_unifier(f(s, t), f(t, s))


def test_mgu_matches_eager_oracle_on_edge_cases():
    cases = [
        (x, x), (x, y), (y, x), (f(x, y), f(y, x)), (f(x, y), f(y, z)),
        (x, g(x)), (f(x, g(x)), f(y, y)), (f(x, y), f(g(y), g(x))),
        (f(x, f(y, z)), f(g(y), f(g(z), a))),
        (f(f(x, y), z), f(f(z, x), g(y))),
        (f(x, x), f(y, g(y))), (g(x), f(x, y)), (f(x, a), f(b, y)),
    ]
    for s, t in cases:
        _assert_same_unifier(s, t)
        _assert_same_unifier(t, s)
    # the left variable of a variable/variable equation is eliminated
    assert list(mgu(f(x, y), f(y, z)).items()) == [("x", z), ("y", z)]
    # the occurs check looks through earlier bindings
    assert mgu(f(x, y), f(g(y), g(x))) is None


def test_rational_unification_examples():
    assert unifiable_rational(x, g(x))
    assert not unifiable_rational(f(x, a), f(y, b))
    assert unifiable_rational(f(x, x), f(y, g(y)))


def test_rational_unification_closes_equation_set():
    # {x = y, x = g(y)} closes without a symbol clash, so the pair is
    # solvable over infinite trees though not syntactically
    assert mgu(f(x, x), f(y, g(y))) is None
    assert unifiable_rational(f(x, x), f(y, g(y)))


@given(term_strategy(), term_strategy())
def test_syntactic_unifiability_implies_rational(s, t):
    if mgu(s, t) is not None:
        assert unifiable_rational(s, t)


@given(term_strategy())
def test_positions_roundtrip(t):
    for pos, sub in subterms(t):
        assert subterm_at(t, pos) == sub
        assert replace_at(t, pos, sub) == t


@given(term_strategy())
def test_substitution_preserves_well_formedness(t):
    sig = {"f": 2, "g": 1, "a": 0, "b": 0}
    assert arities([t]).items() <= sig.items()
    image = substitute(t, {"x": g(a), "y": f(a, b)})
    assert arities([image]).items() <= sig.items()
    assert variables(image) <= variables(t) | set()


def test_canonical_key_identifies_renamings():
    assert canonical_key((f(x, g(y)),)) == canonical_key((f(z, g(x)),))
    assert canonical_key((f(x, x),)) != canonical_key((f(x, y),))


# the string keys that canonical_key replaced, as the callers built them
def _old_class_key(t, keep):
    return repr(substitute(t, canonical_renaming([t], keep, prefix="@")))


def _old_term_key(t):
    return repr(substitute(t, canonical_renaming([t], prefix="\x00v")))


def _old_pair_key(left, right):
    ren = canonical_renaming([left, right])
    return (repr(substitute(left, ren)), repr(substitute(right, ren)))


RENAMINGS = st.sampled_from([
    {}, {"x": Var("y"), "y": Var("x")}, {"x": Var("z")}, {"y": Var("x")},
    {"x": Var("y"), "y": Var("z"), "z": Var("x")}])


@given(term_strategy(XYZ), term_strategy(XYZ), RENAMINGS,
       st.sampled_from([frozenset(), frozenset({"x"}), frozenset({"x", "z"})]))
def test_canonical_key_agrees_with_repr_keys(t1, t2, ren, keep):
    for u in (t2, substitute(t1, ren)):
        new_eq = canonical_key((t1,), keep) == canonical_key((u,), keep)
        assert new_eq == (_old_class_key(t1, keep) == _old_class_key(u, keep))
        if not keep:
            assert new_eq == (_old_term_key(t1) == _old_term_key(u))
    ts = (t1, t2)
    for other in ((t2, t1), (substitute(t1, ren), substitute(t2, ren))):
        assert (canonical_key(ts) == canonical_key(other)) \
            == (_old_pair_key(*ts) == _old_pair_key(*other))
    image = canonical_renaming(ts, keep, prefix="\x00v")
    assert canonical_key(ts, keep) == ",".join(repr(substitute(t, image)) for t in ts)


def test_canonical_key_keeps_kept_names():
    assert canonical_key((f(x, y),), frozenset({"x"})) == "f(x,\x00v1)"
    assert canonical_key((f(x, y), g(y))) == canonical_key((f(y, z), g(z)))
    assert canonical_key((f(x, y), g(y))) != canonical_key((f(x, y), g(x)))


def _recursive_key(ts, keep=frozenset()):
    """The recursive writer that `canonical_walk`'s loop replaced."""
    names = {}
    k = 0
    out = []
    emit = out.append

    def write(t):
        nonlocal k
        if isinstance(t, Var):
            name = t.name
            if name in keep:
                emit(name)
                return
            alias = names.get(name)
            if alias is None:
                k += 1
                while f"\x00v{k}" in keep:
                    k += 1
                alias = names[name] = f"\x00v{k}"
            emit(alias)
        elif t.args:
            emit(t.sym + "(")
            write(t.args[0])
            for a in t.args[1:]:
                emit(",")
                write(a)
            emit(")")
        else:
            emit(t.sym)

    for i, t in enumerate(ts):
        if i:
            emit(",")
        write(t)
    return "".join(out)


# variables named like canonical ones, and a ternary symbol besides f and g
NAMES = ("x", "y", "\x00v1", "\x00v2")
WIDE_TERMS = st.recursive(
    st.sampled_from([Var(v) for v in NAMES] + [a, b]),
    lambda kids: st.one_of(
        st.builds(lambda l, r: App("f", (l, r)), kids, kids),
        st.builds(lambda t: App("g", (t,)), kids),
        st.builds(lambda *ts: App("h", ts), kids, kids, kids)),
    max_leaves=10)


@given(st.lists(WIDE_TERMS, max_size=4),
       st.frozensets(st.sampled_from(NAMES + ("\x00v3", "z"))))
def test_canonical_walk_gives_the_recursive_key_size_and_variables(ts, keep):
    key, size, ren = canonical_walk(ts, keep)
    assert key == _recursive_key(ts, keep) == canonical_key(ts, keep)
    assert size == sum(map(term_size, ts))
    assert ren.keys() == set().union(*map(variables, ts))
    # the renaming is the oracle's \x00v image, and kept names map to themselves
    image = canonical_renaming(ts, keep, prefix="\x00v")
    assert {n: v for n, v in ren.items() if n not in keep} \
        == {n: v.name for n, v in image.items()}
    assert all(ren[n] == n for n in ren.keys() & keep)
    assert canonical_walk(iter(ts), keep) == (key, size, ren)


def test_canonical_key_of_a_term_deeper_than_the_stack():
    depth = 3 * sys.getrecursionlimit()
    t = x
    for _ in range(depth):
        t = App("g", (t,))
    assert canonical_key((t, a)) == "g(" * depth + "\x00v1" + ")" * depth + ",a"


def test_signature_rejects_nul_in_symbols():
    import pytest
    with pytest.raises(ValueError, match="contains NUL"):
        arities([g(App("\x00v1"))])
    with pytest.raises(ValueError, match="contains NUL"):
        TRS.of([RewriteRule(App("\x00v1"), a)])


def test_signature_rejects_conflicts():
    import pytest
    with pytest.raises(ValueError, match="conflicting arities for f"):
        arities([f(x, f(a))])
    with pytest.raises(ValueError, match="conflicting arities for f"):
        TRS.of([RewriteRule(f(x, y), x), RewriteRule(f(a), b)])
    assert arities([f(x, g(a)), g(b)]) == {"f": 2, "g": 1, "a": 0, "b": 0}


@given(term_strategy(XYZ))
def test_term_hash_is_the_hash_of_its_field_tuple(t):
    # set and dict orders, and with them search orders and certificates,
    # follow these hash values
    for _, s in subterms(t):
        if isinstance(s, Var):
            assert hash(s) == hash((s.name,))
        else:
            assert hash(s) == hash((s.sym, s.args))


def test_variable_and_constant_of_one_name_differ():
    assert Var("a") != App("a")
    assert App("a") != Var("a")
    assert len({Var("a"), App("a")}) == 2
    assert repr(Var("a")) == repr(App("a")) == "a"
