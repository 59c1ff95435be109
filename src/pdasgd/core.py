"""Core containers and elementary functionals for discrete optimal transport.

The problem data is a nonnegative square cost matrix ``C`` and two
probability vectors ``alpha`` (row marginal) and ``beta`` (column marginal).
A transport plan is a nonnegative matrix whose row sums match ``alpha`` and
column sums match ``beta``; the set of such matrices is the transport
polytope.  All containers are immutable after construction and safe to share
across threads; the functionals below are pure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

SIMPLEX_ATOL = 1e-12


def _frozen_f64(a, ndim: int) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out is a and a.flags.writeable:
        out = out.copy()  # freeze our own copy, never the caller's array
    if out.ndim != ndim or out.size == 0:
        raise ValueError(f"expected a nonempty {ndim}-d float array")
    out.flags.writeable = False
    return out


def _finite_nonnegative(x: np.ndarray, entries: str) -> np.ndarray:
    """``x`` itself, once its ``entries`` (named in the messages) are checked finite and nonnegative."""
    if not np.isfinite(x).all():
        raise ValueError(f"{entries} must be finite, got non-finite entries")
    if np.any(x < 0):
        raise ValueError(f"{entries} must be nonnegative")
    return x


def _frozen_square(a, matrix: str, entries: str) -> np.ndarray:
    """A frozen square finite nonnegative matrix; the messages name the ``matrix`` and its ``entries``."""
    x = _frozen_f64(a, 2)
    if x.shape[0] != x.shape[1]:
        raise ValueError(f"{matrix} must be square, got {x.shape}")
    return _finite_nonnegative(x, entries)


@dataclass(frozen=True)
class Distribution:
    """Probability vector: finite nonnegative entries summing to 1 (within 1e-12)."""

    weights: np.ndarray

    def __post_init__(self):
        w = _finite_nonnegative(_frozen_f64(self.weights, 1), "distribution weights")
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
        c = _frozen_square(self.entries, "cost matrix", "cost entries")
        object.__setattr__(self, "entries", c)
        object.__setattr__(self, "max_abs", float(c.max()))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class TransportPlan:
    """Finite nonnegative square matrix of transported mass."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_square(self.entries, "transport plan", "transport plan entries"))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


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

    @classmethod
    def of(cls, cost, alpha, beta, eta: float = 0.0) -> "OTInstance":
        """The instance of raw arrays or containers; each raw input is validated by its container."""
        a, b = (x if isinstance(x, Distribution) else Distribution(x) for x in (alpha, beta))
        return cls(cost if isinstance(cost, CostMatrix) else CostMatrix(cost), a, b, eta)

    @property
    def n(self) -> int:
        return self.cost.n


class Checkpoint(NamedTuple):
    """What a solver's stopping rule sees once per dense pass, an immutable record read by field name.

    ``index`` counts the solver's checkpoints so far: pdasgd's outer
    iterations, Sinkhorn's sweeps or Greenkhorn's rounds of n updates, the
    unit of every solver's budget.  ``rows`` and ``cols`` are
    the current plan's row and column sums, and ``violation`` is their L1
    distance to the marginals the solver was given.  ``gap`` is pdasgd's
    zero-argument duality gap, an n^2 pass paid on its first call, and None
    for the scaling methods.  A rule returns a reason to stop, or None.
    """

    index: int
    rows: np.ndarray
    cols: np.ndarray
    violation: float
    gap: Optional[Callable[[], float]] = None


StoppingRule = Callable[[Checkpoint], Optional[str]]


@dataclass
class SolveResult:
    """What ``run``, ``sinkhorn`` and ``greenkhorn`` return: results only, never a solver's working state."""

    plan: Optional[np.ndarray]  # unrounded; None only when pdasgd's first outer iteration diverged
    dual: np.ndarray  # the column dual in cost units: pdasgd's lambda_tilde, or v0 + eta ln v
    stop_reason: Optional[str]  # drive's reason
    iterations: int  # drive's index: checkpoints, the budget's unit; a diverged dense pass counts
    op_counts: dict
    records: list = field(default_factory=list)  # pdasgd's RunRecords; empty for the scaling methods


STOP_DIVERGED = "diverged"  # drive's reason for a non-finite checkpoint, in every solver
# The log-domain drift past which the semi-dual workspace's kernel is rebuilt, in every solver.  Two
# bounds of the float range limit it.  Dust: every kernel row holds an entry of 1, so r_i >= e^-span,
# and the n entries below 2.2e-308 = e^-708.4 that each build flushes stay under half an ulp of r_i,
# at least e^-span 2^-54 = e^(-span - 37.4), while span < 708.4 - 37.4 - ln n (657 at n = 10^6).
# Overflow: the scaling methods' u, v and u K v stay below e^(2 span), finite while span < 354.  At
# 300, the kernel form's e and a b > 1 step's E >= e^(-300 - drift) stay normal doubles.
REBASE_SPAN = 300.0


def drive(points: Iterable[Checkpoint], max_iter: int, stop: StoppingRule) -> tuple[Optional[str], int]:
    """Every solver's stop policy: ``(reason, index)`` of the first of a method's checkpoints that ends its run.

    The method runs no further than that checkpoint.  A non-finite
    ``violation`` marks a plan that no further pass repairs: it ends the
    run as :data:`STOP_DIVERGED` before the rule sees it.  Otherwise
    ``stop(checkpoint)``'s reason ends it, and otherwise index ``max_iter``,
    the budget, ends it with reason None.  No solver warns or raises.
    """
    for point in points:
        if not math.isfinite(point.violation):
            return STOP_DIVERGED, point.index
        reason = stop(point)
        if reason is not None or point.index == max_iter:
            return reason, point.index


def is_integer(x, least: float = -math.inf) -> bool:
    """True for an integer >= ``least`` that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= least


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


def max_subtracted_exp(t: np.ndarray, axis: int = -1) -> np.ndarray:
    """Overwrite ``t`` with ``exp(t - max)`` along ``axis``; returns the maxima, keeping the axis.

    Every line of the result along ``axis`` has an entry of exactly 1.
    """
    m = t.max(axis=axis, keepdims=True)
    t -= m
    np.exp(t, out=t)
    return m


def flush_subnormals(kernel: np.ndarray) -> np.ndarray:
    """Zero a nonnegative kernel's entries below the smallest normal double, in place, and return it."""
    # a multiply costs one pass whatever the share of dust, unlike a masked store; NaN stays NaN
    return np.multiply(kernel, kernel >= np.finfo(np.float64).tiny, out=kernel)


def logsumexp(t: np.ndarray, axis: int = -1):
    """Max-subtracted ``log(sum(exp(t)))`` along ``axis``; overwrites ``t``."""
    m = max_subtracted_exp(t, axis)
    return np.squeeze(m, axis=axis) + np.log(t.sum(axis=axis))


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
    return transport_cost(plan, inst.cost) + inst.eta * sum_xlogx(as_matrix(plan))


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
    return marginal_residual(x.sum(axis=1), x.sum(axis=0), a, b)


def marginal_residual(rows, cols, alpha, beta) -> float:
    """``|rows - alpha|_1 + |cols - beta|_1`` for a plan's row and column sums."""
    return float(np.abs(rows - alpha).sum() + np.abs(cols - beta).sum())
