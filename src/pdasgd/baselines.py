"""Sinkhorn and Greenkhorn matrix-scaling baselines, safe from underflow.

Both scale the kernel ``exp(-C/eta)``, whose naive form underflows at the
penalties this package runs at, in the re-based form the stochastic solver
keeps (:class:`~pdasgd.semidual.KernelWorkspace`), from the same first
sweep.  Sinkhorn alternates full row and column updates; Greenkhorn
updates the single row or column with the worst marginal-violation score.
Both plug into the same smoothing and rounding pipeline as the stochastic
solver so benchmark curves differ only in the solver.

Both take the same contract as the stochastic solver's ``run``: an
:class:`~pdasgd.core.OTInstance` with ``eta > 0`` and strictly positive
marginals, a budget ``max_iter`` counted in checkpoints (Sinkhorn's
sweeps, Greenkhorn's rounds of n updates) and a required rule, both
applied by :func:`~pdasgd.core.drive`, and both return a
:class:`~pdasgd.core.SolveResult`.
"""

from __future__ import annotations

import math
from itertools import count

import numpy as np

from .core import REBASE_SPAN, Checkpoint, OTInstance, SolveResult, StoppingRule
from .core import drive, is_integer, logsumexp, marginal_residual
from .semidual import SemiDualOracle


def _start(instance: OTInstance, max_iter):
    """(alpha, beta, eta, workspace, u, v) after the checks the instance's types do not make and the first sweep.

    That sweep is two n^2 logsumexps over ``-C/eta - 1`` at v = 0, so that the workspace's K, built at its
    dual ``eta g`` with ``u = exp(f + m0)`` and v = 1, has no column of zeros.  The oracle rejects eta <= 0.
    """
    if not is_integer(max_iter, least=1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not (instance.row_marginal.strictly_positive and instance.col_marginal.strictly_positive):
        raise ValueError("scaling baselines require strictly positive marginals")
    a, b, eta = instance.row_marginal.weights, instance.col_marginal.weights, instance.eta
    oracle = SemiDualOracle(instance)
    f = np.log(a) - logsumexp(oracle.shift.copy(), axis=1)
    ws = oracle.workspace(eta * (np.log(b) - logsumexp(oracle.shift + f[:, None], axis=0)))
    return a, b, eta, ws, np.exp(f + ws.offsets), np.ones(b.size)


def _checkpoint(index: int, rows, cols, a, b) -> Checkpoint:
    """The checkpoint ``index`` of a plan's row and column sums."""
    return Checkpoint(index, rows, cols, marginal_residual(rows, cols, a, b))


def sinkhorn(instance: OTInstance, max_iter: int, stop: StoppingRule) -> SolveResult:
    """Alternating row/column scaling on the semi-dual's re-based kernel.

    Every sweep is a checkpoint, with the sweep count as ``index``.  The
    result's ``op_counts`` is ``{"sweeps": iterations}``.

    The plan is diag(u) K diag(v) on the workspace's kernel K (Schmitzer
    2019's absorption), after :func:`_start`'s first sweep: a sweep, ``u =
    alpha / Kv`` and ``v = beta / K^T u``, is two matrix-vector products
    and no exp, and the checkpoint's sums are ``u * Kv`` (Kv is reused
    next sweep) and ``v * K^T u``.  Once v leaves exp(+-REBASE_SPAN), K is
    re-based at the current dual ``v0 + eta ln v`` (one n^2 exp pass and a
    flush) and v restarts at 1; every row of K has an entry of 1, so a
    bounded v bounds u.
    """
    a, b, eta, ws, u, v = _start(instance, max_iter)
    bound = math.exp(REBASE_SPAN)

    def sweeps():
        kt_u = u @ ws.kernel
        for index in count(1):
            k_v = ws.kernel @ v
            yield _checkpoint(index, u * k_v, v * kt_u, a, b)
            if v.max() > bound or v.min() * bound < 1.0:
                ws.rebuild(ws.base + eta * np.log(v))
                v[:] = 1.0
                k_v = ws.kernel @ v
            np.divide(a, k_v, out=u)
            kt_u = u @ ws.kernel
            np.divide(b, kt_u, out=v)

    reason, iterations = drive(sweeps(), max_iter, stop)
    plan = ws.kernel  # the workspace ends with this call, so its kernel becomes the plan
    plan *= u[:, None]
    plan *= v
    return SolveResult(plan, ws.base + eta * np.log(v), reason, iterations, {"sweeps": iterations})


def _line_scores(actual: np.ndarray, target: np.ndarray, out: np.ndarray) -> None:
    # Bregman-style distance rho(t, s) = s - t + t ln(t/s) of an actual
    # marginal s to its target t, written into out as t * (x - log1p(x)) with
    # x = (s - t)/t.  The naive form cancels catastrophically for small
    # violations and makes the greedy pick rounding noise; this form is
    # accurate down to the float floor.  An empty line scores +inf.
    x = np.subtract(actual, target, out=out)
    x /= target
    if np.minimum.reduce(x) <= -1.0:  # only an empty line needs the block, which costs more than log1p
        with np.errstate(divide="ignore"):
            x -= np.log1p(x)
    else:
        x -= np.log1p(x)
    x *= target


def greenkhorn(instance: OTInstance, max_iter: int, stop: StoppingRule) -> SolveResult:
    """Greedy coordinate version of Sinkhorn.

    Each update rescales the row or column with the largest of one vector of
    2n distance-to-marginal scores, a row on a tie, so that its sum matches
    the target exactly.  Every round of n updates is a checkpoint, on sums
    re-summed from the plan, with the round count as ``index``, and
    ``op_counts`` is ``{"updates": n * iterations}``.  A non-finite start
    is checkpoint 0, so its run ends before its first update.

    A row update sets ``u_i = alpha_i / (K_i . v)``, adds the change times
    ``K_i * v`` to the column sums and rescores them, columns likewise, with
    no exp; a new v_j outside exp(+-REBASE_SPAN) re-bases K as Sinkhorn
    does, and u absorbs the row maxima's change ``exp(m0' - m0)``.
    """
    a, b, eta, ws, u, v = _start(instance, max_iter)
    n = a.size
    plan = ws.kernel * u[:, None]
    plan *= v
    sums = np.concatenate((plan.sum(axis=1), plan.sum(axis=0)))  # the n rows, then the n columns
    targets, scores = np.concatenate((a, b)), np.empty(2 * n)
    # per axis: its scalings, the other axis's, and the other axis's sums, targets and scores
    axes = ((u, v, sums[n:], b, scores[n:]), (v, u, sums[:n], a, scores[:n]))

    def rounds():
        start = _checkpoint(0, sums[:n], sums[n:], a, b)
        if not math.isfinite(start.violation):
            yield start
        for index in count(1):
            _line_scores(sums, targets, scores)
            for _ in range(n):
                k = int(scores.argmax())  # the first maximum, so a row wins a tie
                axis, i = divmod(k, n)
                own, other, other_sums, other_targets, other_scores = axes[axis]
                line = (ws.kernel.T if axis else ws.kernel)[i] * other
                new = targets[k] / line.sum()
                other_sums += (new - own[i]) * line
                own[i] = new
                sums[k] = targets[k]
                _line_scores(other_sums, other_targets, other_scores)
                scores[k] = 0.0  # the score of a line at its target
                if axis and abs(math.log(new)) > REBASE_SPAN:
                    offsets = ws.offsets
                    ws.rebuild(ws.base + eta * np.log(v))
                    np.multiply(u, np.exp(ws.offsets - offsets), out=u)
                    v[:] = 1.0
            np.multiply(ws.kernel, u[:, None], out=plan)
            np.multiply(plan, v, out=plan)
            # Re-summing sheds the incremental sums' drift; updates write sums, not the checkpoint's.
            point = _checkpoint(index, plan.sum(axis=1), plan.sum(axis=0), a, b)
            yield point
            np.concatenate((point.rows, point.cols), out=sums)

    reason, iterations = drive(rounds(), max_iter, stop)
    return SolveResult(plan, ws.base + eta * np.log(v), reason, iterations, {"updates": iterations * n})
