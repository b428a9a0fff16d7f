"""Shared search budgets, and the state one proof shares beside them.

The undecidable searches (many-step reachability, conversion search,
completion) are bounded by these knobs; every bound errs on the side of
answering "unknown" rather than guessing.  The integer caps cut with a
truncation flag; past the deadline `check` raises `TimeoutError`.  A
multistep is finite, so only the clock bounds it.  Every `replace`d copy
shares the proof's pair memo, which equality, hashing and `repr` ignore.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Budgets:
    #: depth bound for conversion / many-step reachability searches
    conv_depth: int = 5
    #: maximal term size (symbol count) kept during searches, 0 for no cap
    size_cap: int = 40
    #: most terms one conversion class or bounded search keeps, 0 for no cap
    max_class: int = 2000
    #: `time.monotonic` value past which `check` raises, None for none;
    #: `prove_unc` sets it from `StrategyConfig.timeout`
    deadline: Optional[float] = None
    #: pair memo, rule tuple -> finished `trs.critical_pairs`; one per `prove_unc`
    pairs: Optional[dict] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if min(self.conv_depth, self.size_cap, self.max_class) < 0:
            raise ValueError("budgets must not be negative")

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise TimeoutError("search cut at the deadline")


DEFAULT_BUDGETS = Budgets()
