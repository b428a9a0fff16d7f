"""Growth bounds of three kernels on families of doubling size.

Each test counts the calls of one primitive at size n and at 2n, through
the module global that the kernel looks up, and bounds their ratio.  The
form count(2n) <= 4.1 * count(n) still holds when a filter brings a count
to 0.  A bound is only ever lowered, as filters cut the calls.
"""
import uncprover.ctrs
import uncprover.trs
from uncprover.criteria import right_reducible
from uncprover.ctrs import CongruenceClosure
from uncprover.trs import Equation, critical_pairs

from conftest import a, b, g_tower, ground_chain, unifier_free

#: quadratic growth, with room for the lower-order terms
BOUND = 4.1


def _calls(monkeypatch, module, name, run):
    """How often `run()` calls `module.name`."""
    count = 0
    inner = getattr(module, name)

    def counting(*args, **kwargs):
        nonlocal count
        count += 1
        return inner(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(module, name, counting)
        run()
    return count


def _assert_quadratic(monkeypatch, module, name, run, n):
    small = _calls(monkeypatch, module, name, lambda: run(n))
    large = _calls(monkeypatch, module, name, lambda: run(2 * n))
    assert large <= BOUND * small, (small, large)


def test_right_reducible_matches_grow_quadratically(monkeypatch):
    # the n rules of root h are tried on each rhs h(c_j) up to the one that
    # matches (5150 -> 20300 calls at n = 100 -> 200)
    _assert_quadratic(monkeypatch, uncprover.trs, "match",
                      lambda n: right_reducible(ground_chain(n)), 100)


def test_critical_pair_unifications_grow_quadratically(monkeypatch):
    # the n(n-1) ordered pairs of distinct rules meet at the root, and none
    # unifies (2450 -> 9900 calls at n = 50 -> 100)
    _assert_quadratic(monkeypatch, uncprover.trs, "mgu",
                      lambda n: critical_pairs(unifier_free(n)), 50)


def test_congruence_closure_finds_grow_quadratically(monkeypatch):
    # congruence lifts a = b to g^i(a) = g^i(b) level by level up to n
    # (7754 -> 30504 calls at n = 50 -> 100)
    def entails(n):
        assert CongruenceClosure([Equation(a, b)]).entails(g_tower(n, a), g_tower(n, b))
    _assert_quadratic(monkeypatch, uncprover.ctrs, "find", entails, 50)
