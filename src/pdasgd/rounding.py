"""Projection of an almost-feasible plan onto the transport polytope.

Rows are shrunk to fit the row marginal, columns likewise, and the mass
removed by the shrinking is put back as a rank-one outer product of the
remaining row and column deficits.  The output has exact marginals and moves
at most twice the input's marginal L1 distance:

    |E - F|_1 <= 2 (|row_sums(F) - alpha|_1 + |col_sums(F) - beta|_1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Distribution, TransportPlan, as_matrix, as_weights, marginal_residual

_MASS_ATOL = 1e-6
_ZERO_CORRECTION = 1e-15


@dataclass(frozen=True)
class RoundingReport:
    input_marginal_gap: float
    correction_mass: float
    l1_change: float


def round_to_polytope(plan, alpha, beta) -> tuple[TransportPlan, RoundingReport]:
    """Round a nonnegative plan of total mass ~1 onto the polytope of (alpha, beta)."""
    f = as_matrix(plan).copy()
    a = Distribution(as_weights(alpha)).weights  # rejects non-finite, negative or unnormalised marginals
    b = Distribution(as_weights(beta)).weights
    if f.shape != (a.size, b.size):
        raise ValueError(f"shape mismatch: plan {f.shape}, marginals ({a.size}, {b.size})")
    if not np.isfinite(f).all():
        raise ValueError("rounding input must be finite, got non-finite entries")
    if f.min() < 0:
        raise ValueError("rounding input must be entrywise nonnegative")
    mass = float(f.sum())
    if abs(mass - 1.0) > _MASS_ATOL:
        raise ValueError(f"rounding input must have total mass 1 (got {mass!r})")

    rows = f.sum(axis=1)
    input_gap = marginal_residual(rows, f.sum(axis=0), a, b)
    # A zero row has no mass to shrink; leave its (zero) entries alone.
    scale_r = np.where(rows > 0, np.minimum(a / np.where(rows > 0, rows, 1.0), 1.0), 1.0)
    f *= scale_r[:, None]
    cols = f.sum(axis=0)
    scale_c = np.where(cols > 0, np.minimum(b / np.where(cols > 0, cols, 1.0), 1.0), 1.0)
    f *= scale_c[None, :]

    err_r = a - f.sum(axis=1)
    err_c = b - f.sum(axis=0)
    # Shrinking can only create deficits; anything below is floating-point dust.
    if err_r.min() < -1e-9 or err_c.min() < -1e-9:
        raise AssertionError("rounding produced a negative marginal deficit")
    err_r = np.maximum(err_r, 0.0)
    err_c = np.maximum(err_c, 0.0)
    correction = float(err_r.sum())

    if correction > _ZERO_CORRECTION:
        f += np.outer(err_r, err_c) / correction
    rounded = TransportPlan(f)
    l1_change = float(np.abs(rounded.entries - as_matrix(plan)).sum())
    report = RoundingReport(
        input_marginal_gap=input_gap,
        correction_mass=correction,
        l1_change=l1_change,
    )
    return rounded, report
