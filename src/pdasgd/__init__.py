"""Approximate optimal transport via accelerated stochastic gradient descent.

A numpy library for computing epsilon-approximate transport plans between
discrete distributions: an entropy-regularized semi-dual oracle, a
variance-reduced accelerated stochastic solver over it, polytope rounding,
Sinkhorn/Greenkhorn baselines, and a reproducible benchmark harness.
"""

from .approx import ApproxConfig, ApproxResult, approx_ot
from .baselines import greenkhorn, sinkhorn
from .core import (
    CostMatrix,
    Distribution,
    OTInstance,
    TransportPlan,
    entropy,
    marginal_distance,
    regularized_objective,
    transport_cost,
)
from .exact import exact_ot_oracle
from .images import (
    ImageInstance,
    gen_synthetic_image,
    grid_cost_matrix,
    image_to_instance,
    load_csv_matrix,
    load_idx,
    load_pgm,
    save_csv_matrix,
)
from .bench import BenchPlan, run_benchmark
from .rng import SplitMix64, derive_seed
from .rounding import RoundingReport, round_to_polytope
from .semidual import SemiDualOracle
from .solver import SolverOptions, run

__version__ = "0.1.0"

__all__ = [
    "ApproxConfig",
    "ApproxResult",
    "BenchPlan",
    "CostMatrix",
    "Distribution",
    "ImageInstance",
    "OTInstance",
    "RoundingReport",
    "SemiDualOracle",
    "SolverOptions",
    "SplitMix64",
    "TransportPlan",
    "approx_ot",
    "derive_seed",
    "entropy",
    "exact_ot_oracle",
    "gen_synthetic_image",
    "greenkhorn",
    "grid_cost_matrix",
    "image_to_instance",
    "load_csv_matrix",
    "load_idx",
    "load_pgm",
    "marginal_distance",
    "regularized_objective",
    "round_to_polytope",
    "run",
    "run_benchmark",
    "save_csv_matrix",
    "sinkhorn",
    "transport_cost",
]
