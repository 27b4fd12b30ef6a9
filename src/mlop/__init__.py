"""Mixture Linear Ordering Problem toolkit.

Decomposes an aggregated pairwise preference matrix into up to g latent
group rankings with simplex weights, minimizing the L1 reconstruction gap.
Ships an exact enumerative solver for small instances, a multi-start
alternating-direction matheuristic, a synthetic instance generator,
ranking-file ingestion, and linear-ordering-polytope geometry utilities.
"""

from .core import (
    DimensionMismatch,
    InvalidInput,
    LinearOrder,
    MixtureSolution,
    PreferenceMatrix,
    canonicalize,
    fit,
    fit_from_objective,
    kendall_distance,
    l1_objective,
    lop_value,
    mixture_point,
    num_pairs,
)
from .exact import ExactConfig, SizeGuardExceeded, opt_curve, solve_exact
from .heuristic import (
    HeuristicConfig,
    HeuristicTrace,
    random_simplex_weights,
    solve_heuristic,
    step_rankings,
    step_weights,
)
from .instances import (
    GeneratorSpec,
    RankingSample,
    aggregate,
    allocate_counts,
    dispersion_from_percentage,
    generate_instance,
    ingest_rankings,
    sample_centers,
    sample_within_ball,
)
from .lop import BenefitMatrix, lop_exact, lop_heuristic

__version__ = "0.1.0"

__all__ = [
    "BenefitMatrix",
    "DimensionMismatch",
    "ExactConfig",
    "GeneratorSpec",
    "HeuristicConfig",
    "HeuristicTrace",
    "InvalidInput",
    "LinearOrder",
    "MixtureSolution",
    "PreferenceMatrix",
    "RankingSample",
    "SizeGuardExceeded",
    "aggregate",
    "allocate_counts",
    "canonicalize",
    "dispersion_from_percentage",
    "fit",
    "fit_from_objective",
    "generate_instance",
    "ingest_rankings",
    "kendall_distance",
    "l1_objective",
    "lop_exact",
    "lop_heuristic",
    "lop_value",
    "mixture_point",
    "num_pairs",
    "opt_curve",
    "random_simplex_weights",
    "sample_centers",
    "sample_within_ball",
    "solve_exact",
    "solve_heuristic",
    "step_rankings",
    "step_weights",
]
