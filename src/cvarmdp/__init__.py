"""Exact risk-aware verification of Markov decision processes.

Decides expectation / value-at-risk / conditional-value-at-risk lower-bound
queries over Markov chains and MDPs for weighted-reachability and mean-payoff
objectives, with exact rational arithmetic throughout and witness strategy
synthesis for satisfiable queries.
"""
from .model import (
    Constraint,
    MarkovChain,
    Mdp,
    ModelError,
    Query,
    Rational,
    StrategySpec,
    UnsupportedQueryError,
    Verdict,
    induced_chain,
    memoryless,
    rat,
    validate,
    validate_query,
)
from .risk import FiniteDistribution, cvar, expectation, mixture, var
from .graphs import mec_decomposition, mec_quotient, cleanup
from .chain import PayoffLaw, decide_mc, payoff_law_mean, payoff_law_reach
from .lp import LinearProgram, LpResult, solve_feasibility, solve_optimize
from .solver import decide
from .synthesis import check_strategy, evaluate
from .gadgets import Cnf3, example, random_mdp, sat_reduction

__version__ = "0.1.0"

__all__ = [
    "Constraint",
    "MarkovChain",
    "Mdp",
    "ModelError",
    "Query",
    "Rational",
    "StrategySpec",
    "UnsupportedQueryError",
    "Verdict",
    "induced_chain",
    "memoryless",
    "rat",
    "validate",
    "validate_query",
    "FiniteDistribution",
    "cvar",
    "expectation",
    "mixture",
    "var",
    "mec_decomposition",
    "mec_quotient",
    "cleanup",
    "PayoffLaw",
    "decide_mc",
    "payoff_law_mean",
    "payoff_law_reach",
    "LinearProgram",
    "LpResult",
    "solve_feasibility",
    "solve_optimize",
    "decide",
    "check_strategy",
    "evaluate",
    "Cnf3",
    "example",
    "random_mdp",
    "sat_reduction",
]
