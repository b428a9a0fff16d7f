"""Machine-speed calibration for the timed metrics.

On a virtual machine with 2 shared vCPUs (Intel Xeon, 2.1 GHz) the same
pass took 5 s in one minute and 8.5 s a few minutes later, with no change
in the work.  A fixed kernel is therefore timed in short slices between
the items, and every time the benchmark reports is scaled by
`REFERENCE_S / (mean time of the slices just before and after it)`, so it
reads as seconds at the speed at which one slice takes `REFERENCE_S`.  The
kernel has the prover's kind of work (frozen-dataclass terms, matching,
substitution, sets of printed terms) but none of its code, so a change to
the prover does not move it.
Do not edit the kernel or `REFERENCE_S`: that would move every timed
metric.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

#: Time of one slice at the reference speed.
REFERENCE_S = 0.006


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _App:
    sym: str
    args: tuple = ()

    def __repr__(self) -> str:
        if not self.args:
            return self.sym
        return f"{self.sym}({','.join(map(repr, self.args))})"


def _subterms(t, pos=()):
    yield pos, t
    if isinstance(t, _App):
        for i, a in enumerate(t.args, 1):
            yield from _subterms(a, pos + (i,))


def _match(p, t, sigma) -> bool:
    if isinstance(p, _Var):
        return sigma.setdefault(p.name, t) == t
    if not isinstance(t, _App) or p.sym != t.sym or len(p.args) != len(t.args):
        return False
    return all(_match(q, u, sigma) for q, u in zip(p.args, t.args))


def _instance(t, sigma):
    if isinstance(t, _Var):
        return sigma[t.name]
    return _App(t.sym, tuple(_instance(a, sigma) for a in t.args))


def _replace(t, pos, u):
    if not pos:
        return u
    i = pos[0] - 1
    return _App(t.sym, t.args[:i] + (_replace(t.args[i], pos[1:], u),) + t.args[i + 1:])


_X, _Y, _Z = _Var("x"), _Var("y"), _Var("z")


def _f(a, b):
    return _App("f", (a, b))


_RULES = ((_f(_f(_X, _Y), _Z), _f(_X, _f(_Y, _Z))), (_f(_X, _Y), _f(_Y, _X)),
          (_App("g", (_X,)), _App("g", (_App("g", (_X,)),))))
_SEED = _f(_f(_App("a"), _App("g", (_App("b"),))), _App("c"))


def _kernel(limit: int = 60) -> int:
    """Breadth-first rewriting from a fixed term until `limit` new terms."""
    seen = {repr(_SEED)}
    frontier = [_SEED]
    found = 0
    while frontier and found < limit:
        nxt = []
        for t in frontier:
            for pos, sub in _subterms(t):
                for lhs, rhs in _RULES:
                    sigma: dict = {}
                    if _match(lhs, sub, sigma):
                        u = _replace(t, pos, _instance(rhs, sigma))
                        if repr(u) not in seen:
                            seen.add(repr(u))
                            nxt.append(u)
                            found += 1
        frontier = nxt
    return found


def slice_time() -> float:
    """Wall time of one calibration slice."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
