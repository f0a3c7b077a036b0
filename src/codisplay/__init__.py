"""Solver library for social-aware group item-display configuration.

Builds the assignment integer program, solves its linear relaxation with
HiGHS's dual simplex (scipy's copy of HiGHS, called directly), rounds fractional solutions through
co-display subgroup formation (randomized and deterministic), and benchmarks
against baseline strategies with an exact brute-force oracle at small scale.
"""

from .core import (
    Configuration,
    DomainError,
    Edge,
    Instance,
    MetricsReport,
    StParams,
    StructuralError,
    metrics,
    scale_preferences,
    st_feasibility,
    st_objective,
    total_objective,
    validate,
)
from .lp import (
    FractionalSolution,
    LpModel,
    LpResult,
    build_full_lp,
    build_simplified_lp,
    build_st_lp,
    expand_solution,
    export_model,
    frac_from_full_result,
    solve_fractional,
    solve_lp,
)
from .rounding import (
    FocalParams,
    RoundingState,
    avg,
    avg_replay,
    avg_st,
    avgd,
    best_of,
    csf_step,
)
from .baselines import (
    auto_partition,
    group_topk,
    independent_rounding,
    per_topk,
    subgroup_static,
)
from .oracle import (
    OracleSizeError,
    brute_force,
    brute_force_st,
    gen_gap_g,
    gen_gap_p,
    gen_lemma1,
    gen_random,
)

__version__ = "0.1.0"
