"""uncprover: decide unique normal forms w.r.t. conversion (UNC) of TRSs."""

from .config import Budgets, DEFAULT_BUDGETS
from .terms import App, Signature, Term, Var, match, mgu, unifiable_rational
from .trs import (
    TRS,
    ConvStep,
    CriticalPair,
    Equation,
    RewriteRule,
    critical_pairs,
    development_step_reducts,
    is_normal_form,
    parallel_step_reducts,
    rewrite_steps,
)
from .ctrs import (
    CongruenceClosure,
    conditional_critical_pairs,
    conditional_linearize,
    lr_separated_linearize,
)
from .criteria import (
    DEVELOPMENT_CLOSED,
    PARALLEL_CLOSED,
    STRONGLY_CLOSED,
    ConfluencePredicate,
    CriterionReport,
    SimState,
    eq_states,
    non_omega_overlapping,
    parallel_closed_check,
    right_reducible,
    strongly_closed_check,
    strongly_non_overlapping,
    weight_decreasing_unc,
    wd_ccp_satisfied,
)
from .completion import (
    Verdict,
    Witness,
    direct_sum_decompose,
    disprove_search,
    unc_complete,
    validate_witness,
)
from .cops import CopsParseError, ProblemFile, parse_cops
from .strategy import DEFAULT_METHODS, ProofResult, StrategyConfig, prove_unc

__all__ = [
    "App", "Budgets", "ConfluencePredicate", "CongruenceClosure", "ConvStep",
    "CopsParseError", "CriterionReport", "CriticalPair", "DEFAULT_BUDGETS",
    "DEFAULT_METHODS", "DEVELOPMENT_CLOSED", "Equation", "PARALLEL_CLOSED",
    "ProblemFile", "ProofResult", "RewriteRule", "STRONGLY_CLOSED", "Signature",
    "SimState", "StrategyConfig", "TRS", "Term", "Var", "Verdict", "Witness",
    "conditional_critical_pairs", "conditional_linearize", "critical_pairs",
    "development_step_reducts", "direct_sum_decompose", "disprove_search",
    "eq_states", "is_normal_form", "lr_separated_linearize", "match", "mgu",
    "non_omega_overlapping", "parallel_closed_check", "parallel_step_reducts",
    "parse_cops", "prove_unc", "rewrite_steps", "right_reducible",
    "strongly_closed_check", "strongly_non_overlapping", "unc_complete",
    "unifiable_rational", "validate_witness", "wd_ccp_satisfied",
    "weight_decreasing_unc",
]
