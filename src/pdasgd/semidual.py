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

Every n^2 exponential goes through the package's one max-subtracted exp
(:func:`pdasgd.core.max_subtracted_exp`): the raw formulas overflow for
the small ``eta`` this package runs at.  One dense pass of it,
``snapshot(v)``, yields G(v), its gradient u and the row logsumexps lse
(:func:`pdasgd.core.logsumexp`) as a :class:`KernelSnapshot`.  The solver
reaches the same quantities through a :class:`KernelWorkspace`.  Both
build the one snapshot type, a slotted record whose ``value`` (G(v))
and ``lse`` are lazy: None until the first read computes them from the
same expressions.  A run reads G(v) only to certify, and lse only for
the log-domain rows below.

Component i is sampled with probability alpha_i, so the importance
gradient that ``steps`` writes per solver step on one component is softmax
row i, ``grad g_i(v) / (n alpha_i) + beta``; ``component_gradient`` is that
row, minus beta, times n alpha_i.  The solver's steps average b such
rows, and the snapshot and the oracle pick their arithmetic from b.  At
b = 1 a snapshot at v~ writes the v-free log rows ``a'_i = shift_i - lse_i``,
finite where a softmax row underflows, and the corrections ``u - exp(a'_i
+ v~/eta)``.  Softmax row i at v is the softmax of ``a'_i + v/eta``, the
log-softmax row at v~ plus the drift (v - v~)/eta: exp, a sum and a
divide, and no max.  The solver's drifts stay far below 709, past which
exp overflows and the row is NaN, which it reports as divergence.

A solver run's dual moves little on the eta scale between outer
iterations, so the workspace keeps the kernel instead of the softmax
(the absorption trick of stabilized log-domain scaling, Schmitzer 2019).
Built at its base point v0, it holds the row maxima m0 of ``(v0 - C)/eta -
1`` and ``K = exp((v0 - C)/eta - 1 - m0)``, whose rows each have an entry
of 1.  At v, with ``d = (v - v0)/eta``, ``c = max d`` and ``e = exp(d -
c)``, softmax row i is ``K_i e / r_i`` for ``r = K e``, and its logsumexp
is ``m0_i + c + log r_i``: a snapshot costs two matrix-vector products and
n exponentials.  K is rebuilt at v, one n^2 exp pass, only when the spread
of d exceeds :data:`pdasgd.core.REBASE_SPAN`; below it e >=
exp(-REBASE_SPAN), so r never underflows.  Both :mod:`pdasgd.baselines`
methods scale it too.  Each build zeroes K's subnormals, below 2.2e-308 and
slow on x86 (:func:`pdasgd.core.flush_subnormals`), and the bits hold: row
i's entry of 1 puts r_i over exp(-REBASE_SPAN) ~ 5e-131, and n dropped terms
below 2.2e-308 stay under half its ulp for REBASE_SPAN < 708.4 - 37.4 - ln n
(657 at n = 10^6); a column sum of dust alone differs only before beta is
subtracted.  The reference snapshot's K is its softmax matrix, with e = r
= 1, v0 = v and c = 0.  A step on b > 1 components reads their raw rows K_i:
softmax row i at v' is K_i E normalised, for ``E = exp(a' + v'/eta)`` and
the one v-free row ``a' = -v0/eta - c``, whose base row -v0/eta the
workspace caches at each rebuild (the reference snapshot computes it
from its v), so a' costs one subtraction.  E's exponent is the drift
``(v' - v)/eta`` plus d - c, in [-REBASE_SPAN, 0], and never a log-softmax
entry in exp's subnormal range.  A snapshot's ``rows`` gathers them and
subtracts their mean at v, ``e * (w @ K_B)`` for ``w = 1 / (b r_B)``, from
u, with no exp.  A drift past 709 overflows E, and a row sum that
underflows to 0 divides by it; the solver reports the inf or NaN either
leaves as divergence.  The workspace also keeps the solver's
weighted sum of primal maps in factors: a snapshot of v with weight w adds
w times the map of v, ``K * outer(w alpha / r, e)``, as that pair, from
the r and e it has just computed, and w (grad G(v) + beta) to the sum's
column sums, in O(n); every map's row sums are alpha.  The pairs are
folded into a dense sum by one matrix product when K is rebuilt or
:data:`PENDING_PAIRS` of them are held, in place of the three n^2 passes
that adding each map densely would cost; reading the sum leaves it
unchanged, so the sum's bits do not depend on when it was read.  The
workspace also keeps the sum's total weight, so it hands out the weighted
average, its marginals and their L1 violation.

The oracle is immutable and shareable across threads; gradient buffers and
workspaces are caller-owned.
"""

from __future__ import annotations

import numpy as np

from .core import (
    REBASE_SPAN,
    Distribution,
    OTInstance,
    flush_subnormals,
    logsumexp,
    marginal_distance,
    max_subtracted_exp,
    regularized_objective,
)

# Factor pairs a workspace holds before folding them into its dense sum.
# It bounds their memory and the matrix product that reading the sum
# costs; a dense solve at epsilon = 0.05 adds its ~600 maps on one kernel.
PENDING_PAIRS = 32


class KernelSnapshot:
    """G(v) and grad G(v), with the solver's anchor rows and corrections at v.

    Softmax row i at v is ``kernel_i * e / r_i`` for ``r = kernel @ e``, and
    at v' it is ``kernel_i * exp(a' + v'/eta)`` normalised, for the v-free
    row ``a' = base_row - c``: ``base_row = -v0/eta`` for the kernel's base
    point v0, which the workspace caches at each rebuild.  ``value`` and
    ``lse`` (the row logsumexps, ``offsets + c + log r``) are lazy, None in
    their ``_`` slots until their first read computes them.  v is kept,
    not copied, so its owner must not write it.
    """

    __slots__ = ("oracle", "v", "gradient", "kernel", "e", "r", "offsets", "c", "base_row", "_lse", "_value")

    def __init__(self, oracle: "SemiDualOracle", v, gradient, kernel, e, r, offsets, c: float, base_row):
        self.oracle, self.v, self.gradient, self.kernel, self.e, self.r = oracle, v, gradient, kernel, e, r
        self.offsets, self.c, self.base_row = offsets, c, base_row
        self._lse = self._value = None

    @property
    def lse(self) -> np.ndarray:
        if self._lse is None:
            self._lse = self.offsets + self.c + np.log(self.r)
        return self._lse

    @property
    def value(self) -> float:
        if self._value is None:
            o = self.oracle
            self._value = float(o.eta * o.alpha @ (self.lse - o.log_alpha + 1.0) - o.beta @ self.v)
        return self._value

    def rows(self, indices, anchors: np.ndarray, rows: np.ndarray, corrections: np.ndarray) -> None:
        """Write the solver's rows of ``indices`` into caller-owned views, step j on the j-th run of b = len(indices) / len(corrections).

        At b = 1 ``anchors`` takes ``shift_i - lse_i`` and ``corrections``
        ``grad G(v) - softmax_i(v)``, with ``rows`` the buffer the
        arithmetic runs in.  At b > 1 ``rows`` takes ``kernel_i``, every
        row of ``anchors`` a', and row j of ``corrections`` grad G(v)
        minus the run's mean softmax row, ``e * (w @ kernel_B)`` for ``w =
        1 / (b r_B)``.  ``rows`` must be contiguous.
        """
        steps = len(corrections)
        b = len(indices) // steps
        if b == 1:
            self.oracle.shift.take(indices, 0, rows, "clip")  # the method skips np.take's wrapper, "clip" its buffered copy
            anchors[...] = np.subtract(rows, self.lse[indices][:, None], out=rows)
            rows += self.v / self.oracle.eta
            np.exp(rows, rows)
            np.subtract(self.gradient, rows, corrections)
        else:
            self.kernel.take(indices, 0, rows, "clip")
            np.subtract(self.base_row, self.c, out=anchors)
            weights = 1.0 / (b * self.r[indices])
            np.matmul(weights.reshape(steps, 1, b), rows.reshape(steps, b, -1), out=corrections[:, None])
            corrections *= self.e
            np.subtract(self.gradient, corrections, corrections)


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
        self.log_alpha = np.log(self.alpha)
        self.n = instance.n
        # -C/eta - 1, frozen: row i of the softmax argument is v/eta + shift[i]
        self.shift = -instance.cost.entries / self.eta - 1.0
        self.shift.flags.writeable = False
        self._ones = np.ones(self.n)  # never written: a row sum's weights

    # -- finite-sum structure ------------------------------------------------

    @property
    def dual_dimension(self) -> int:
        return self.n

    def component_value(self, i: int, v: np.ndarray) -> float:
        """Value of the i-th component g_i at the dual point v."""
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")
        lse = logsumexp(v / self.eta + self.shift[i])
        return float(
            self.n
            * self.alpha[i]
            * (self.eta * lse - self.beta @ v - self.eta * self.log_alpha[i] + self.eta)
        )

    def snapshot(self, v: np.ndarray) -> KernelSnapshot:
        """G(v), grad G(v) and the row logsumexps at v from one dense pass, with the softmax matrix as its kernel."""
        sm = v / self.eta + self.shift
        lse = logsumexp(sm)  # overwrites sm with its max-subtracted exp
        sm /= sm.sum(axis=-1, keepdims=True)
        gradient = sm.T @ self.alpha
        gradient -= self.beta
        return KernelSnapshot(self, v, gradient, sm, self._ones, self._ones, lse, 0.0, np.divide(v, -self.eta))

    def steps(self, steps, product) -> None:
        """Run one chunk of inner steps: the mean softmax row at v of each step's b components into its h, then ``product(block, after)``.

        Each of ``steps`` is ``(t, h, block, after, rows)``, with ``rows``
        the (b, n) rows a snapshot's :meth:`~KernelSnapshot.rows` wrote, and
        h takes the mean of grad g_i(v) / (n alpha_i) + beta.  At b = 1 t is
        the log row ``a'_i + v/eta`` and h its exp over its sum, a dot with
        ones (cheaper than a reduce on short rows); the rows are not read.
        At b > 1 t is ``a' + v/eta`` and the rows are the kernel's K_i:
        softmax row i at v is ``K_i * e / r_i`` for ``e = exp(t)`` and ``r =
        K e``, so the mean is ``e * (w @ K)`` for ``w = 1 / (b r)``.  The
        scratch of either form is allocated once per call.
        """
        b = len(steps[0][4])
        if b == 1:
            exp, divide, ones, scalar = np.exp, np.divide, self._ones, np.empty(())
            for t, h, block, after, _ in steps:
                exp(t, h)
                h.dot(ones, scalar)  # the bound method skips np.dot's dispatcher
                divide(h, scalar, h)
                product(block, after)
        else:
            exp, reciprocal, e, weights = np.exp, np.reciprocal, np.empty(self.n), np.empty(b)
            for t, h, block, after, rows in steps:
                exp(t, e)
                rows.dot(e, weights)  # the bound methods skip np.dot's dispatcher
                weights *= b
                reciprocal(weights, weights)
                weights.dot(rows, h)
                h *= e
                product(block, after)

    def component_gradient(self, i: int, v: np.ndarray) -> np.ndarray:
        """Gradient of g_i at v, ``n alpha_i (softmax_i(v) - beta)``, as a fresh array; its entries sum to zero."""
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")
        g = v / self.eta + self.shift[i]
        max_subtracted_exp(g)
        g /= g.sum()
        g -= self.beta
        g *= self.n * self.alpha[i]
        return g

    def workspace(self, v0: np.ndarray) -> "KernelWorkspace":
        """A fresh :class:`KernelWorkspace` over this oracle with its kernel built at v0, for one solver run."""
        return KernelWorkspace(self, v0)

    def full_gradient(self, v: np.ndarray) -> np.ndarray:
        """Gradient of G at v: col_sums(x(v)) - beta."""
        return self.snapshot(v).gradient

    def sampling_weights(self) -> Distribution:
        """Component sampling probabilities L_i / (h Lbar): the row marginal alpha itself.

        Component i is L_i-smooth with L_i = n alpha_i / eta.
        """
        return self.instance.row_marginal

    def average_smoothness(self) -> float:
        """Lbar = mean of the L_i = 1/eta."""
        return 1.0 / self.eta

    # -- primal recovery -----------------------------------------------------

    def primal_map(self, v: np.ndarray) -> np.ndarray:
        """Plan x(v): row i is alpha_i times the softmax of (v - C_i)/eta.

        Returns a fresh array that the caller owns.
        """
        x = v / self.eta + self.shift
        max_subtracted_exp(x)
        x /= x.sum(axis=-1, keepdims=True)
        x *= self.alpha[:, None]
        return x

    # -- telemetry hooks used by the solver ----------------------------------

    def dual_value(self, v: np.ndarray) -> float:
        """G(v), the mean of the component values."""
        return self.snapshot(v).value

    def primal_objective(self, x: np.ndarray) -> float:
        """f(x) = <C, x> + eta sum x ln x for a plan matrix x."""
        return regularized_objective(x, self.instance)

    def constraint_violation_l1(self, x: np.ndarray) -> float:
        """L1 distance of x's marginals to this oracle's own marginals."""
        return marginal_distance(x, self.alpha, self.beta)


class KernelWorkspace:
    """One solver run's re-based kernel and weighted primal average (see the module docstring).

    The kernel is built at v0, and ``snapshot(v, weight)`` re-bases it at
    v first when v has drifted more than :data:`REBASE_SPAN` on the eta
    scale from the base point.  A rebuild allocates a new kernel, so
    snapshots taken before it stay valid.
    """

    def __init__(self, oracle: SemiDualOracle, v0: np.ndarray):
        self.oracle = oracle
        n = oracle.n
        self._dense = np.zeros((n, n))  # the pairs folded in so far
        # (w alpha / r, e) of the primal maps since the last fold, one per row
        self._left = np.empty((PENDING_PAIRS, n))
        self._right = np.empty((PENDING_PAIRS, n))
        self._pending_count = 0
        self._col_sums = np.zeros(n)
        self.weight = 0.0  # the total weight accumulated so far
        self.rebuild(v0)  # last: a rebuild folds the pending pairs

    def rebuild(self, v: np.ndarray) -> None:
        """Fold the pending pairs into the dense sum and re-base the kernel at v."""
        self._fold()
        self.base_row = np.divide(v, -self.oracle.eta)  # -v0/eta: the v-free part of its snapshots' a'
        kernel = self.oracle.shift - self.base_row  # v/eta + shift, bit for bit
        self.offsets = np.squeeze(max_subtracted_exp(kernel), axis=-1)  # m0, the row maxima of (v0 - C)/eta - 1
        self.kernel = flush_subnormals(kernel)
        self.base = v.copy()  # v0

    def _weights(self, v: np.ndarray) -> tuple[np.ndarray, float]:
        """(e, c) of v against the base point, re-basing at v first if needed."""
        d = (v - self.base) / self.oracle.eta
        c = np.maximum.reduce(d)
        if c - np.minimum.reduce(d) > REBASE_SPAN:
            self.rebuild(v)
            d, c = np.zeros_like(v), 0.0
        d -= c
        np.exp(d, out=d)
        return d, c

    def _pending(self) -> np.ndarray:
        """K * sum_k outer(a_k, e_k) over the pending pairs: one matrix product."""
        k = self._pending_count
        total = self._left[:k].T @ self._right[:k]
        total *= self.kernel
        return total

    def _fold(self) -> None:
        if self._pending_count:
            self._dense += self._pending()
            self._pending_count = 0

    def snapshot(self, v: np.ndarray, weight: float = 0.0) -> KernelSnapshot:
        """G(v), grad G(v) and the row logsumexps at v; equals ``oracle.snapshot(v)`` to rounding.

        A positive ``weight`` also adds ``weight * oracle.primal_map(v)`` to
        the sum, as one factor pair, and weight to the total.
        """
        o = self.oracle
        e, c = self._weights(v)
        r = self.kernel.dot(e)
        gradient = np.divide(o.alpha, r).dot(self.kernel)
        gradient *= e  # the column sums of the primal map of v
        if weight:
            k = self._pending_count
            a = np.multiply(o.alpha, weight, out=self._left[k])
            a /= r
            self._right[k] = e
            self._pending_count = k + 1
            self._col_sums += weight * gradient
            self.weight += weight
            if self._pending_count == PENDING_PAIRS:
                self._fold()
        gradient -= o.beta
        return KernelSnapshot(o, v, gradient, self.kernel, e, r, self.offsets, c, self.base_row)

    def marginals(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The average's row sums, the oracle's frozen alpha itself as every map's are; fresh column sums; and their violation, |cols - beta|_1."""
        cols = self._col_sums / self.weight
        return self.oracle.alpha, cols, float(np.abs(cols - self.oracle.beta).sum())

    def average(self) -> np.ndarray:
        """The weighted average of the primal maps, as a fresh array; the sum itself is unchanged."""
        if self.weight <= 0:
            raise RuntimeError("no primal iterate accumulated yet")
        if self._pending_count:
            total = self._pending()
            total += self._dense
        else:
            total = self._dense.copy()
        total /= self.weight
        return total
