"""Core containers and elementary functionals for discrete optimal transport.

The problem data is a nonnegative square cost matrix ``C`` and two
probability vectors ``alpha`` (row marginal) and ``beta`` (column marginal).
A transport plan is a nonnegative matrix whose row sums match ``alpha`` and
column sums match ``beta``; the set of such matrices is the transport
polytope.  All containers are immutable after construction and safe to share
across threads; the functionals below are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_ATOL = 1e-12
FEASIBLE_MASS_ATOL = 1e-10


def _frozen_f64(a, ndim: int) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out is a and a.flags.writeable:
        out = out.copy()  # freeze our own copy, never the caller's array
    if out.ndim != ndim or out.size == 0:
        raise ValueError(f"expected a nonempty {ndim}-d float array")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Distribution:
    """Probability vector: finite nonnegative entries summing to 1 (within 1e-12)."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen_f64(self.weights, 1)
        if not np.isfinite(w).all():
            raise ValueError("distribution weights must be finite, got non-finite entries")
        if np.any(w < 0):
            raise ValueError("distribution weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise ValueError(f"distribution weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def strictly_positive(self) -> bool:
        return float(self.weights.min()) > 0.0


@dataclass(frozen=True)
class CostMatrix:
    """Square finite nonnegative cost matrix with its max entry cached."""

    entries: np.ndarray
    max_abs: float = None  # filled in __post_init__

    def __post_init__(self):
        c = _frozen_f64(self.entries, 2)
        if c.shape[0] != c.shape[1]:
            raise ValueError(f"cost matrix must be square, got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("cost entries must be finite, got non-finite entries")
        if np.any(c < 0):
            raise ValueError("cost entries must be nonnegative")
        object.__setattr__(self, "entries", c)
        object.__setattr__(self, "max_abs", float(np.abs(c).max()))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative square matrix of transported mass."""

    entries: np.ndarray

    def __post_init__(self):
        x = _frozen_f64(self.entries, 2)
        if x.shape[0] != x.shape[1]:
            raise ValueError(f"transport plan must be square, got {x.shape}")
        if np.any(x < 0):
            raise ValueError("transport plan entries must be nonnegative")
        object.__setattr__(self, "entries", x)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.entries.sum(axis=0)

    def total_mass(self) -> float:
        return float(self.entries.sum())


@dataclass(frozen=True)
class OTInstance:
    """Cost matrix, the two marginals, and the entropic penalty ``eta``.

    ``eta`` may be 0 for purely linear uses; operations that need the
    entropic term require ``eta > 0`` and say so.
    """

    cost: CostMatrix
    row_marginal: Distribution
    col_marginal: Distribution
    eta: float = 0.0

    def __post_init__(self):
        n = self.cost.n
        if self.row_marginal.n != n or self.col_marginal.n != n:
            raise ValueError(
                "marginal sizes must match the cost matrix: "
                f"cost {n}, rows {self.row_marginal.n}, cols {self.col_marginal.n}"
            )
        if not np.isfinite(self.eta) or self.eta < 0:
            raise ValueError("eta must be a finite nonnegative real")

    @property
    def n(self) -> int:
        return self.cost.n


def as_weights(x) -> np.ndarray:
    """Accept a Distribution or raw vector, return the float64 array."""
    if isinstance(x, Distribution):
        return x.weights
    return np.ascontiguousarray(x, dtype=np.float64)


def as_matrix(x) -> np.ndarray:
    """Accept a CostMatrix/TransportPlan or raw matrix, return the array."""
    if isinstance(x, (CostMatrix, TransportPlan)):
        return x.entries
    return np.ascontiguousarray(x, dtype=np.float64)


def transport_cost(plan, cost) -> float:
    """Total cost sum_ij C_ij X_ij of a plan under a cost matrix."""
    x = as_matrix(plan)
    c = as_matrix(cost)
    if x.shape != c.shape:
        raise ValueError(f"shape mismatch: plan {x.shape}, cost {c.shape}")
    return float(np.sum(c * x))


def sum_xlogx(x: np.ndarray) -> float:
    """sum_ij x_ij ln x_ij with the convention 0 ln 0 = 0.

    Takes the vectorised ``np.log`` of the nonzero entries, which is several
    times faster than ``scipy.special.xlogy``'s scalar calls at n = 256; the
    two may differ in the last ulp of a few entries.  A NaN entry gives NaN.
    """
    buf = np.zeros_like(x)
    np.log(x, out=buf, where=x != 0)
    buf *= x
    return float(buf.sum())


def entropy(plan) -> float:
    """Plan entropy -sum_ij X_ij ln X_ij with the convention 0 ln 0 = 0.

    For a plan of total mass 1 the value lies in [0, 2 ln n].
    """
    x = as_matrix(plan)
    if np.any(x < 0):
        raise ValueError("entropy requires nonnegative entries")
    return -sum_xlogx(x)


def regularized_objective(plan, inst: OTInstance) -> float:
    """Entropy-penalized cost <C, X> + eta * sum X ln X = <C, X> - eta H(X)."""
    if inst.eta <= 0:
        raise ValueError("regularized_objective requires eta > 0")
    x = as_matrix(plan)
    c = inst.cost.entries
    if x.shape != c.shape:
        raise ValueError(f"shape mismatch: plan {x.shape}, cost {c.shape}")
    return float(np.sum(c * x) + inst.eta * sum_xlogx(x))


def marginal_distance(plan, alpha, beta) -> float:
    """L1 distance of a plan's marginals to the targets.

    ``|row_sums(X) - alpha|_1 + |col_sums(X) - beta|_1``; zero exactly when
    the plan lies in the transport polytope of (alpha, beta).
    """
    x = as_matrix(plan)
    a = as_weights(alpha)
    b = as_weights(beta)
    if x.shape != (a.size, b.size):
        raise ValueError(
            f"shape mismatch: plan {x.shape}, marginals ({a.size}, {b.size})"
        )
    return float(
        np.abs(x.sum(axis=1) - a).sum() + np.abs(x.sum(axis=0) - b).sum()
    )
