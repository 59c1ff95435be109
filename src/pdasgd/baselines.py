"""Sinkhorn and Greenkhorn matrix-scaling baselines, log domain only.

Both scale the kernel ``exp(-C/eta)`` toward the target marginals; the
naive kernel underflows at the penalties this package runs at, so all
scaling state lives in the log domain.  Sinkhorn alternates full row and
column updates; Greenkhorn updates the single row or column with the worst
marginal-violation score.  Both stop when the plan's L1 marginal distance
drops below a tolerance, and both plug into the same smoothing and rounding
pipeline as the stochastic solver so benchmark curves differ only in the
solver.  Both stop at once, with reason ``"non-finite"``, when the
marginal distance is not finite: a kernel that overflows or underflows
everywhere gives a NaN plan that no further update can repair.

A stop callback is passed the row and column sums the marginal distance
was just computed from, so a caller's rule on the marginals costs no
further pass over the plan.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Optional

import numpy as np

from .core import TransportPlan, as_matrix, as_weights, logsumexp, marginal_residual

# Called with the current plan's row and column sums; a returned string
# stops the run with that reason.
StopCallback = Callable[[np.ndarray, np.ndarray], Optional[str]]
NON_FINITE = "non-finite"


def _validate(cost, alpha, beta, eta):
    c = as_matrix(cost)
    a = as_weights(alpha)
    b = as_weights(beta)
    if c.shape != (a.size, b.size):
        raise ValueError("cost and marginal shapes disagree")
    for name, x in (("cost", c), ("alpha", a), ("beta", b)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} entries must be finite, got non-finite entries")
    if a.min() <= 0 or b.min() <= 0:
        raise ValueError("scaling baselines require strictly positive marginals")
    if eta <= 0:
        raise ValueError("eta must be positive")
    return c, a, b


def _distance_reason(d: float, tol: float) -> Optional[str]:
    # written so that a NaN distance never reads as converged
    if d <= tol:
        return "marginal-tol"
    return None if math.isfinite(d) else NON_FINITE


def _finish(name: str, plan: np.ndarray, iteration: int, max_iter: int, d: float, reason, log_u, log_v):
    """The (plan, info) pair of a scaling run; warns unless it stopped on its tolerance or callback."""
    if reason is None or reason == NON_FINITE:
        warnings.warn(
            f"{name} stopped after {iteration} of max_iter={max_iter} steps with marginal distance {d:.3e}",
            RuntimeWarning,
            stacklevel=3,
        )
    return TransportPlan(plan), {
        "iterations": iteration,
        "marginal_distance": d,
        "stop_reason": reason,
        "log_u": log_u,
        "log_v": log_v,
    }


def _scaled_plan(log_k: np.ndarray, log_u: np.ndarray, log_v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(log_k + log_u[:, None] + log_v[None, :]), written into ``out``."""
    np.add(log_k, log_u[:, None], out=out)
    out += log_v
    return np.exp(out, out=out)


def sinkhorn(cost, alpha, beta, eta, tol_marginal=1e-9, max_iter=10_000, stop: StopCallback = None):
    """Alternating log-domain row/column scaling of exp(-C/eta).

    Runs until the current plan's marginal distance to (alpha, beta) falls
    below ``tol_marginal``, the distance is not finite, the stop callback
    returns a reason, or ``max_iter`` sweeps elapse; the last two of these
    warn.  The callback is called as ``stop(rows, cols)`` after every
    sweep that has not met the tolerance.  Returns ``(plan, info)``: the
    unrounded plan and a dict of the sweep count ``iterations``, the final
    ``marginal_distance``, the duals ``log_u`` and ``log_v``, and
    ``stop_reason`` (None at the cap).

    A sweep allocates no n^2 array: it works in one preallocated array and
    rewrites the plan in place.
    """
    c, a, b = _validate(cost, alpha, beta, eta)
    log_k = -c / eta
    log_a = np.log(a)
    log_b = np.log(b)
    log_u, log_v = np.zeros(a.size), np.zeros(b.size)
    iteration = 0
    d = np.inf
    reason = None
    work = np.empty_like(log_k)
    plan = _scaled_plan(log_k, log_u, log_v, np.empty_like(log_k))
    while iteration < max_iter:
        np.add(log_k, log_v, out=work)
        log_u = log_a - logsumexp(work, axis=1)
        np.add(log_k, log_u[:, None], out=work)
        log_v = log_b - logsumexp(work, axis=0)
        iteration += 1
        _scaled_plan(log_k, log_u, log_v, plan)
        rows, cols = plan.sum(1), plan.sum(0)
        d = marginal_residual(rows, cols, a, b)
        reason = _distance_reason(d, tol_marginal)
        if reason is not None:
            break
        if stop is not None:
            reason = stop(rows, cols)
            if reason is not None:
                break
    return _finish("sinkhorn", plan, iteration, max_iter, d, reason, log_u, log_v)


def _line_scores(actual: np.ndarray, target: np.ndarray) -> np.ndarray:
    # Bregman-style distance rho(t, s) = s - t + t ln(t/s) of an actual
    # marginal s to its target t, evaluated as t * (x - log1p(x)) with
    # x = (s - t)/t.  The naive form cancels catastrophically for small
    # violations and makes the greedy pick rounding noise; this form is
    # accurate down to the float floor.  An empty line scores +inf.
    x = (actual - target) / target
    with np.errstate(divide="ignore"):
        return target * (x - np.log1p(x))


def greenkhorn(cost, alpha, beta, eta, tol_marginal=1e-9, max_iter=1_000_000, stop: StopCallback = None):
    """Greedy coordinate version of Sinkhorn.

    Each step rescales the single row or column with the largest
    distance-to-marginal score so that its sum matches the target exactly.
    ``max_iter`` counts coordinate updates; the stop callback is polled every
    n updates, as ``stop(rows, cols)`` with the freshly summed marginals.
    Stops and returns ``(plan, info)`` as :func:`sinkhorn` does, with
    ``iterations`` counting updates.
    """
    c, a, b = _validate(cost, alpha, beta, eta)
    n = a.size
    log_k = -c / eta
    log_a = np.log(a)
    log_b = np.log(b)
    # Start from the mass-1 normalization of the kernel.
    shift = -logsumexp(log_k.flatten())
    log_u, log_v = np.full(n, shift), np.zeros(n)
    iteration = 0
    plan = _scaled_plan(log_k, log_u, log_v, np.empty_like(log_k))
    r = plan.sum(axis=1)
    col = plan.sum(axis=0)
    d = marginal_residual(r, col, a, b)
    reason = _distance_reason(d, tol_marginal)
    while reason is None and iteration < max_iter:
        rows = _line_scores(r, a)
        cols = _line_scores(col, b)
        i = int(np.argmax(rows))
        j = int(np.argmax(cols))
        if rows[i] >= cols[j]:
            log_u[i] = log_a[i] - logsumexp(log_k[i] + log_v)
            new_row = np.exp(log_k[i] + log_u[i] + log_v)
            col += new_row - plan[i]
            plan[i] = new_row
            r[i] = new_row.sum()
        else:
            log_v[j] = log_b[j] - logsumexp(log_k[:, j] + log_u)
            new_col = np.exp(log_k[:, j] + log_u + log_v[j])
            r += new_col - plan[:, j]
            plan[:, j] = new_col
            col[j] = new_col.sum()
        iteration += 1
        if iteration % n == 0:
            # Refresh incrementally maintained sums to shed rounding drift.
            r = plan.sum(axis=1)
            col = plan.sum(axis=0)
            if stop is not None:
                reason = stop(r, col)
                if reason is not None:
                    break
        d = marginal_residual(r, col, a, b)
        reason = _distance_reason(d, tol_marginal)
    return _finish("greenkhorn", plan, iteration, max_iter, d, reason, log_u, log_v)
