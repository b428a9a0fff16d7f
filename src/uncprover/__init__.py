"""uncprover: decide unique normal forms w.r.t. conversion (UNC) of TRSs.

The package exports the names below; every other name is imported from its
own module (`uncprover.criteria`, `uncprover.completion`, ...)."""

from .config import Budgets
from .terms import App, Term, Var
from .trs import TRS, RewriteRule
from .completion import unc_complete
from .cops import CopsParseError, ProblemFile, parse_cops
from .strategy import DEFAULT_METHODS, ProofResult, StrategyConfig, prove_unc

__all__ = [
    "App", "Budgets", "CopsParseError", "DEFAULT_METHODS", "ProblemFile",
    "ProofResult", "RewriteRule", "StrategyConfig", "TRS", "Term", "Var",
    "parse_cops", "prove_unc", "unc_complete",
]
