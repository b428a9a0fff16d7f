import time

import pytest

from uncprover.strategy import StrategyConfig, prove_unc
from uncprover.terms import App
from uncprover.trs import TRS, RewriteRule

from conftest import AC, AC_G, COPS_126, CL, a, b, c, d

TAGS = ("sno", "omega", "rr", "pcl", "scl", "wd", "cp", "sc", "dc", "rev+sc", "rev+dc")


def multistep(n):
    """a -> b, a -> c, g(a,...,a) -> d: g(a,...,a) has 3^n multistep reducts."""
    return TRS.of([RewriteRule(a, b), RewriteRule(a, c),
                   RewriteRule(App("g", (a,) * n), d)])


def _elapsed(R, method, timeout):
    start = time.monotonic()
    res = prove_unc(R, StrategyConfig(methods=(method,), timeout=timeout))
    return res, time.monotonic() - start


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("R", [AC, AC_G, CL, COPS_126, multistep(8)],
                         ids=["AC", "AC_g", "CL", "COPS_126", "multistep_8"])
def test_every_method_stops_at_the_deadline(R, tag):
    timeout = 0.1
    _, elapsed = _elapsed(R, tag, timeout)
    assert elapsed < timeout + 0.3


@pytest.mark.parametrize("tag", ["dc", "rev+dc"])
def test_multistep_enumeration_stops_at_the_deadline(tag):
    # 3^12 multistep reducts of g(a,...,a): far more than 0.5 s of work
    timeout = 0.5
    res, elapsed = _elapsed(multistep(12), tag, timeout)
    assert res.answer == "MAYBE"
    assert elapsed < timeout + 0.3
