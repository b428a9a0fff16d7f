import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from uncprover.terms import App, Term, Var, var_occurrences, variables
from uncprover.trs import TRS, RewriteRule

settings.register_profile(
    "det", derandomize=True, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
settings.load_profile("det")


# term builders shared by the whole suite
def f(*args):
    return App("f", args)


def g(*args):
    return App("g", args)


def h(*args):
    return App("h", args)


def c1(*args):
    return App("c", args)


def g_tower(n, t):
    """g^n(t), built without recursion."""
    for _ in range(n):
        t = g(t)
    return t


x, y, z = Var("x"), Var("y"), Var("z")
a, b, c, d = App("a"), App("b"), App("c"), App("d")


def ap(*args):
    return App("ap", args)


# combinatory logic: orthogonal, with conversion classes that hit every cap
S, K, I = App("S"), App("K"), App("I")
CL = TRS.of([RewriteRule(ap(ap(ap(S, x), y), z), ap(ap(x, z), ap(y, z))),
             RewriteRule(ap(ap(K, x), y), x), RewriteRule(ap(I, x), x)])

# associativity and commutativity: large conversion classes, and AC_G
# adds a second direct-sum component
AC = TRS.of([RewriteRule(f(f(x, y), z), f(x, f(y, z))), RewriteRule(f(x, y), f(y, x))])
AC_G = TRS.of(AC.rules + (RewriteRule(g(x), g(g(x))),))

# Cops #126: one duplicating rule whose completion grows fast
COPS_126 = TRS.of([RewriteRule(f(f(x, y), z), f(f(x, z), f(y, z)))])


def ground_chain(n: int) -> TRS:
    """h(c_i) -> c_{i+1} and c_i -> h(c_{7i}), indices mod n: 2n ground
    rules, each rhs reducible, each c_i -> h(c_{7i}) reversible, and one root
    bucket of 2n rules for h once they are reversed."""
    c = [App(f"c{i}") for i in range(n)]
    return TRS(tuple(rule for i in range(n) for rule in (
        RewriteRule(h(c[i]), c[(i + 1) % n]), RewriteRule(c[i], h(c[7 * i % n])))))


def unifier_free(n):
    """f(k_i(x), y) -> g(y, k_i(x)) for i < n: no two lhs's unify, but the
    overlap loop still meets n^2 ordered rule pairs."""
    k = [App(f"k{i}", (x,)) for i in range(n)]
    return TRS.of([RewriteRule(f(k[i], y), g(y, k[i])) for i in range(n)])


@pytest.fixture
def rng():
    return random.Random(20240817)


def leaf_terms(var_names=("x", "y")):
    return st.sampled_from([Var(v) for v in var_names] + [App("a"), App("b")])


def term_strategy(var_names=("x", "y"), max_leaves=6):
    return st.recursive(
        leaf_terms(var_names),
        lambda kids: st.one_of(
            st.builds(lambda l, r: App("f", (l, r)), kids, kids),
            st.builds(lambda t: App("g", (t,)), kids)),
        max_leaves=max_leaves)


@st.composite
def small_systems(draw):
    """1-3 rules over f/2, g/1, a and b, each rhs over its lhs variables."""
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(term_strategy(max_leaves=4).filter(lambda t: isinstance(t, App)))
        rhs = draw(term_strategy(tuple(sorted(variables(lhs))), max_leaves=4))
        rules.append(RewriteRule(lhs, rhs))
    return TRS.of(rules)


def random_term(rnd: random.Random, var_names=("x", "y"), depth=2) -> Term:
    syms = [("f", 2), ("g", 1), ("a", 0), ("b", 0)]
    if depth == 0 or rnd.random() < 0.35:
        if var_names and rnd.random() < 0.5:
            return Var(rnd.choice(var_names))
        return App(rnd.choice(["a", "b"]))
    sym, ar = rnd.choice(syms)
    return App(sym, tuple(random_term(rnd, var_names, depth - 1) for _ in range(ar)))


def random_system(rnd: random.Random) -> TRS:
    """1-3 rules over f/2, g/1, a, b and x, y; an rhs with a variable
    outside its lhs becomes `a`."""
    rules = []
    for _ in range(rnd.randint(1, 3)):
        lhs = random_term(rnd, depth=2)
        while isinstance(lhs, Var):
            lhs = random_term(rnd, depth=2)
        rhs = random_term(rnd, depth=1)
        if variables(rhs) - variables(lhs):
            rhs = App("a")
        rules.append(RewriteRule(lhs, rhs))
    return TRS.of(rules)


def canonical_renaming(ts, keep=frozenset(), prefix="V") -> dict[str, Term]:
    """Renaming of the variables of `ts` (except `keep`) to V1, V2, ...
    numbered by first occurrence over the term sequence: the reference
    for the canonical names of `terms.canonical_walk` (prefix "\x00v")
    and for the key writers that it replaced."""
    out: dict[str, Term] = {}
    k = 0
    for t in ts:
        for name in var_occurrences(t):
            if name in keep or name in out:
                continue
            k += 1
            while f"{prefix}{k}" in keep:
                k += 1
            out[name] = Var(f"{prefix}{k}")
    return out
