"""Sinkhorn and Greenkhorn matrix-scaling baselines, stabilized in the log domain.

Both scale the kernel ``exp(-C/eta)`` toward the target marginals, whose
naive form underflows at the penalties this package runs at.  Sinkhorn
alternates full row and column updates on a kernel re-based at its log
scalings; Greenkhorn keeps its scalings in the log domain and updates the
single row or column with the worst marginal-violation score.  Both plug
into the same smoothing and rounding pipeline as the stochastic solver so
benchmark curves differ only in the solver.

Both take the same contract as the stochastic solver's ``run``: an
:class:`~pdasgd.core.OTInstance` with ``eta > 0`` and strictly positive
marginals, a budget ``max_iter`` counted in checkpoints (Sinkhorn's
sweeps, Greenkhorn's rounds of n updates) and a required rule, called as
``stop(checkpoint)`` once per checkpoint, and both return a
:class:`~pdasgd.core.SolveResult`.
Before the rule, both stop with the solver's reason ``"diverged"`` when
the violation is not finite: a kernel that overflows or underflows
everywhere gives a NaN plan that no update can repair.  The stop reason
is the only report of how a run ended; neither warns.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import REBASE_SPAN, STOP_DIVERGED, Checkpoint, OTInstance, SolveResult, StoppingRule
from .core import flush_subnormals, is_integer, logsumexp, marginal_residual


def _validate(instance: OTInstance, max_iter):
    """The instance's (cost, alpha, beta, eta), after the checks its types do not make."""
    if not is_integer(max_iter, least=1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not (instance.row_marginal.strictly_positive and instance.col_marginal.strictly_positive):
        raise ValueError("scaling baselines require strictly positive marginals")
    if instance.eta <= 0:
        raise ValueError("eta must be positive")
    return instance.cost.entries, instance.row_marginal.weights, instance.col_marginal.weights, instance.eta


def _checkpoint(stop: StoppingRule, index: int, rows, cols, a, b) -> tuple[Checkpoint, Optional[str]]:
    """The checkpoint of a plan's sums at checkpoint ``index`` and its stop reason, ``"diverged"`` before the rule's."""
    point = Checkpoint(index, rows, cols, marginal_residual(rows, cols, a, b))
    # written so that a NaN violation never reaches the rule
    return point, stop(point) if math.isfinite(point.violation) else STOP_DIVERGED


def _scaled_plan(log_k: np.ndarray, log_u: np.ndarray, log_v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(log_k + log_u[:, None] + log_v[None, :]), written into ``out``."""
    np.add(log_k, log_u[:, None], out=out)
    out += log_v
    return np.exp(out, out=out)


def sinkhorn(instance: OTInstance, max_iter: int, stop: StoppingRule) -> SolveResult:
    """Alternating row/column scaling of exp(-C/eta) on a re-based kernel.

    After every sweep the rule is called as ``stop(checkpoint)``, with the
    sweep count as ``index``.  A non-finite violation stops the run with
    reason ``"diverged"``, and ``max_iter`` sweeps stop it with reason
    None.  The result's ``op_counts`` is ``{"sweeps": iterations}``.

    The plan is diag(u) K diag(v), for ``K = exp(-C/eta + f + g)`` with the
    log scalings f, g absorbed (Schmitzer 2019).  A sweep, ``u = alpha / Kv``
    and ``v = beta / K^T u``, is two matrix-vector products and no exp; the
    checkpoint's sums are ``u * Kv`` (Kv is reused next sweep) and ``v *
    K^T u``.  Once u or v leaves exp(+-REBASE_SPAN), the next sweep is
    log-domain: it absorbs v into g, scales both halves so that every row
    of K sums to >= alpha_i min(beta) and every column to beta_j, clear of
    underflow, and rebuilds K at u = v = 1 with one n^2 exp pass, zeroing its
    entries below 2.2e-308 as :mod:`pdasgd.semidual` does.  The bits hold: with
    u, v within exp(+-REBASE_SPAN), Kv and K^T u far exceed 2^53 n dropped terms.
    """
    c, a, b, eta = _validate(instance, max_iter)
    log_k = -c / eta
    log_a, log_b = np.log(a), np.log(b)
    f, g = np.zeros(a.size), np.zeros(b.size)  # the log scalings absorbed into the kernel
    u, v = np.ones(a.size), np.ones(b.size)
    kernel, work = np.empty_like(log_k), np.empty_like(log_k)
    bound = math.exp(REBASE_SPAN)
    iteration, reason, rebase = 0, None, True
    while reason is None and iteration < max_iter:
        if rebase:
            g += np.log(v)  # the u half overwrites f
            np.add(log_k, g, out=work)
            f = log_a - logsumexp(work, axis=1)
            np.add(log_k, f[:, None], out=work)
            g = log_b - logsumexp(work, axis=0)
            flush_subnormals(_scaled_plan(log_k, f, g, kernel))
            u[:] = v[:] = 1.0
            kt_u = u @ kernel
        else:
            np.divide(a, k_v, out=u)
            kt_u = u @ kernel
            np.divide(b, kt_u, out=v)
        k_v = kernel @ v
        iteration += 1
        _, reason = _checkpoint(stop, iteration, u * k_v, v * kt_u, a, b)
        rebase = max(u.max(), v.max()) > bound or min(u.min(), v.min()) * bound < 1.0
    kernel *= u[:, None]
    kernel *= v
    return SolveResult(kernel, eta * (g + np.log(v)), reason, iteration, {"sweeps": iteration})


def _line_scores(actual: np.ndarray, target: np.ndarray) -> np.ndarray:
    # Bregman-style distance rho(t, s) = s - t + t ln(t/s) of an actual
    # marginal s to its target t, evaluated as t * (x - log1p(x)) with
    # x = (s - t)/t.  The naive form cancels catastrophically for small
    # violations and makes the greedy pick rounding noise; this form is
    # accurate down to the float floor.  An empty line scores +inf.
    x = (actual - target) / target
    with np.errstate(divide="ignore"):
        return target * (x - np.log1p(x))


def greenkhorn(instance: OTInstance, max_iter: int, stop: StoppingRule) -> SolveResult:
    """Greedy coordinate version of Sinkhorn.

    Each update rescales the single row or column with the largest
    distance-to-marginal score so that its sum matches the target exactly.
    The rule is called as in :func:`sinkhorn`, but once per round of n
    updates, on sums re-summed from the plan, with the round count as
    ``index``; ``max_iter`` and ``iterations`` count rounds, and
    ``op_counts`` is ``{"updates": n * iterations}``.  A non-finite plan
    stops the run before its first update.
    """
    c, a, b, eta = _validate(instance, max_iter)
    n = a.size
    log_k = -c / eta
    log_a = np.log(a)
    log_b = np.log(b)
    # Start from the mass-1 normalization of the kernel.
    shift = -logsumexp(log_k.flatten())
    log_u, log_v = np.full(n, shift), np.zeros(n)
    rounds = 0
    plan = _scaled_plan(log_k, log_u, log_v, np.empty_like(log_k))
    r, col = plan.sum(axis=1), plan.sum(axis=0)
    reason = None if math.isfinite(marginal_residual(r, col, a, b)) else STOP_DIVERGED
    while reason is None and rounds < max_iter:
        for _ in range(n):
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
        rounds += 1
        # Re-summing sheds the incremental sums' drift; updates change copies.
        point, reason = _checkpoint(stop, rounds, plan.sum(axis=1), plan.sum(axis=0), a, b)
        r, col = point.rows.copy(), point.cols.copy()
    return SolveResult(plan, eta * log_v, reason, rounds, {"updates": rounds * n})
