"""Finite-sum semi-dual oracle of the entropy-regularized transport problem.

Eliminating the row block of the entropic dual in closed form leaves a
smooth convex objective of the column dual variable ``v`` alone:

    G(v)   = (1/n) sum_i g_i(v),        g_i(v) = n * alpha_i * h_i(v),
    h_i(v) = eta * logsumexp_j((v_j - C_ij - eta) / eta)
             - sum_j beta_j v_j - eta ln alpha_i + eta.

The primal plan recovered from ``v`` has row i equal to ``alpha_i`` times
the softmax of ``(v - C_i) / eta``, so its row sums always match ``alpha``
and the gradient of G is exactly ``col_sums(x(v)) - beta``.  Dual points are
plain float64 vectors.

Every exponential goes through one max-subtracted logsumexp/softmax kernel:
the raw formulas overflow for the small ``eta`` this package runs at.  One
dense pass of that kernel, ``snapshot(v)``, yields G(v), its gradient and
the component gradients at v, read in batches of rows, so a solver
anchored at v pays for the exponentials once.

The oracle is immutable and shareable across threads; gradient buffers are
caller-owned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Distribution, OTInstance, sum_xlogx


def lse_softmax(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (logsumexp, softmax) of the trailing axis, max-subtracted.

    Works in place: ``t`` is overwritten and returned as the softmax, so
    callers pass a fresh array they no longer need.  The arithmetic is that
    of ``w = exp(t - max); w / w.sum()`` op for op, so the results are the
    same bits as the allocating form.
    """
    m = t.max(axis=-1, keepdims=True)
    t -= m
    np.exp(t, out=t)
    s = t.sum(axis=-1, keepdims=True)
    t /= s
    return np.squeeze(m + np.log(s), axis=-1), t


@dataclass(frozen=True)
class SemiDualSnapshot:
    """G(v), grad G(v) and the softmax rows of one dense pass at v."""

    value: float
    gradient: np.ndarray
    softmax: np.ndarray
    beta: np.ndarray
    scale: np.ndarray  # n alpha_i, the weight of component i

    def anchors(self, indices) -> np.ndarray:
        """Rows grad g_i(v) = n alpha_i (softmax_i(v) - beta) for i in ``indices``.

        Returns a fresh (len(indices), n) array, read from the kept softmax
        rows without computing an exponential; row k equals
        ``component_gradient(indices[k], v)`` bit for bit.
        """
        rows = self.softmax[indices]
        rows -= self.beta
        rows *= self.scale[indices, None]
        return rows


class SemiDualOracle:
    """Component values/gradients, snapshots, primal map and sampling weights.

    Requires a strictly positive row marginal (its logarithm enters the
    objective); the column marginal only needs to be nonnegative.  Callers
    with zero row mass must smooth the marginals first.
    """

    def __init__(self, instance: OTInstance):
        if instance.eta <= 0:
            raise ValueError("semi-dual oracle requires eta > 0")
        if not instance.row_marginal.strictly_positive:
            raise ValueError(
                "semi-dual oracle requires a strictly positive row marginal; "
                "smooth the marginals first"
            )
        self.instance = instance
        self.eta = float(instance.eta)
        self.alpha = instance.row_marginal.weights
        self.beta = instance.col_marginal.weights
        self.cost = instance.cost.entries
        self.log_alpha = np.log(self.alpha)
        self.n = instance.n
        # Row i of the softmax argument is v/eta + shift[i].
        self._shift = -self.cost / self.eta - 1.0
        self._shift.flags.writeable = False
        self._scale = self.n * self.alpha
        # component_gradient's scalar operands are 0-d arrays, which ufuncs
        # take faster than Python floats, with the same values.
        self._eta = np.array(self.eta)

    # -- finite-sum structure ------------------------------------------------

    @property
    def component_count(self) -> int:
        return self.n

    @property
    def dual_dimension(self) -> int:
        return self.n

    def component_value(self, i: int, v: np.ndarray) -> float:
        """Value of the i-th component g_i at the dual point v."""
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")
        t = v / self.eta + self._shift[i]
        m = float(t.max())
        lse = m + np.log(np.exp(t - m).sum())
        return float(
            self.n
            * self.alpha[i]
            * (self.eta * lse - self.beta @ v - self.eta * self.log_alpha[i] + self.eta)
        )

    def snapshot(self, v: np.ndarray) -> SemiDualSnapshot:
        """G(v), grad G(v) and the component gradients at v from one dense pass."""
        lse, sm = lse_softmax(v / self.eta + self._shift)
        return SemiDualSnapshot(
            value=float(self.eta * self.alpha @ (lse - self.log_alpha + 1.0) - self.beta @ v),
            gradient=sm.T @ self.alpha - self.beta,
            softmax=sm,
            beta=self.beta,
            scale=self._scale,
        )

    def component_gradient(self, i: int, v: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Gradient of g_i at v, written into ``out`` (allocated if None).

        Equals ``n alpha_i (softmax_i(v) - beta)``; its entries sum to zero.
        Every step works in ``out``, with the ops of the allocating form
        ``exp(t - max t) / sum`` for ``t = v/eta + shift_i``, so the result
        is the same bits.
        """
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")
        if out is None:
            out = np.empty(self.n)
        np.divide(v, self._eta, out=out)
        out += self._shift[i]
        out -= np.maximum.reduce(out)
        np.exp(out, out=out)
        out /= np.add.reduce(out)
        out -= self.beta
        out *= self._scale[i, ...]
        return out

    def full_gradient(self, v: np.ndarray) -> np.ndarray:
        """Gradient of G at v: col_sums(x(v)) - beta."""
        return self.snapshot(v).gradient

    def sampling_weights(self) -> Distribution:
        """Component sampling probabilities L_i / (h Lbar); here just alpha.

        Component i is L_i-smooth with L_i = n alpha_i / eta.
        """
        return Distribution(self.alpha)

    def average_smoothness(self) -> float:
        """Lbar = mean of the L_i = 1/eta."""
        return 1.0 / self.eta

    # -- primal recovery -----------------------------------------------------

    def primal_map(self, v: np.ndarray) -> np.ndarray:
        """Plan x(v): row i is alpha_i times the softmax of (v - C_i)/eta.

        Returns a fresh array that the caller owns.
        """
        _, sm = lse_softmax(v / self.eta + self._shift)
        sm *= self.alpha[:, None]
        return sm

    # -- telemetry hooks used by the solver ----------------------------------

    def dual_value(self, v: np.ndarray) -> float:
        """G(v), the mean of the component values."""
        return self.snapshot(v).value

    def primal_objective(self, x: np.ndarray) -> float:
        """f(x) = <C, x> + eta sum x ln x for a plan matrix x."""
        return float(np.sum(self.cost * x) + self.eta * sum_xlogx(x))

    def constraint_violation_l1(self, x: np.ndarray) -> float:
        """L1 distance of x's marginals to this oracle's own marginals."""
        return float(
            np.abs(x.sum(axis=1) - self.alpha).sum()
            + np.abs(x.sum(axis=0) - self.beta).sum()
        )
