"""Hybrid K-SAT solving over Hamming balls with an exactly simulated quantum core."""

from .formula import (
    CONFLICT,
    Formula,
    ParseError,
    decompose,
    evaluate,
    first_unsat_clause,
    m_metric,
    max_disjoint_unsat,
    parse_dimacs,
    restrict,
    top_k_vars,
    unsat_count,
)
from .oracle import brute_sat
from .orchestrator import ConfigError, SolveConfig, solve

__version__ = "0.1.0"

__all__ = [
    "CONFLICT",
    "ConfigError",
    "Formula",
    "ParseError",
    "SolveConfig",
    "brute_sat",
    "decompose",
    "evaluate",
    "first_unsat_clause",
    "m_metric",
    "max_disjoint_unsat",
    "parse_dimacs",
    "restrict",
    "solve",
    "top_k_vars",
    "unsat_count",
]
