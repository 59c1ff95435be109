"""Approximate optimal transport via accelerated stochastic gradient descent.

The root exports the epsilon-approximate pipeline (``approx_ot``), its
containers and functionals, rounding, the exact oracle, image I/O and the
benchmark harness; the solvers are imported from their own modules.
"""

from .approx import ApproxConfig, ApproxResult, approx_ot
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
from .rounding import RoundingReport, round_to_polytope

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
    "TransportPlan",
    "approx_ot",
    "entropy",
    "exact_ot_oracle",
    "gen_synthetic_image",
    "grid_cost_matrix",
    "image_to_instance",
    "load_csv_matrix",
    "load_idx",
    "load_pgm",
    "marginal_distance",
    "regularized_objective",
    "round_to_polytope",
    "run_benchmark",
    "save_csv_matrix",
    "transport_cost",
]
