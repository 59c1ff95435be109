from contextlib import contextmanager

import numpy as np
import pytest

import pdasgd.solver
from pdasgd.core import CostMatrix, Distribution, OTInstance
from pdasgd.semidual import SemiDualOracle


def random_instance(rng, n, eta, concentration=2.0, normalize_cost=True):
    """Random strictly positive instance for oracle tests."""
    c = rng.random((n, n))
    if normalize_cost and c.max() > 0:
        c = c / c.max()
    a = rng.dirichlet(np.full(n, concentration))
    b = rng.dirichlet(np.full(n, concentration))
    # Dirichlet draws can come arbitrarily close to zero; floor and renorm.
    a = (a + 1e-3) / (1 + n * 1e-3)
    b = (b + 1e-3) / (1 + n * 1e-3)
    return OTInstance(CostMatrix(c), Distribution(a), Distribution(b), eta=eta)


def random_oracle(rng, n, eta):
    return SemiDualOracle(random_instance(rng, n, eta))


def never_stop(point):
    """A stopping rule that runs a solver to its budget."""
    return None


def finite_only(point):
    """``never_stop``, failing the test if a checkpoint whose violation is not finite reaches the rule."""
    assert np.isfinite(point.violation), f"checkpoint {point.index} reached the rule with violation {point.violation}"
    return None


def certify_every(point):
    """A stopping rule that runs pdasgd to its budget with every record certified (its gap evaluated)."""
    point.gap()
    return None


@contextmanager
def captured_states():
    """Yields a list that collects the ``SolverState`` of every ``run`` in the block.

    ``run`` keeps its state to itself; a wrapped ``pdasgd.solver.init_state``
    hands each one to the test as well.
    """
    states, init_state = [], pdasgd.solver.init_state

    def capturing(oracle, options):
        states.append(init_state(oracle, options))
        return states[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pdasgd.solver, "init_state", capturing)
        yield states


def marginal_tol(tol):
    """A stopping rule: reason ``"marginal-tol"`` once the plan is within ``tol`` in L1 of the solver's marginals."""
    return lambda point: "marginal-tol" if point.violation <= tol else None


def snapshot_rows(snapshot, indices, d):
    """A snapshot's single-step (b = 1) (anchors, corrections) for ``indices``, written into fresh (len(indices), d) arrays."""
    anchors, rows, corrections = (np.empty((len(indices), d)) for _ in range(3))
    snapshot.rows(indices, anchors, rows, corrections)
    return anchors, corrections


def assert_batch_corrections(snapshot, indices, corrections):
    """Each step's batched correction is u minus the mean of its b components' single-step softmax rows, to their rounding.

    A single-step row ``exp(shift_i + v/eta - lse_i)`` rounds the exponents
    of its terms; a batched one, ``K_i e / r_i``, those of its kernel at the
    base point and of the drift from there.  exp turns each unit of
    exponent into about 1e-15 of relative error, and the subtraction from
    u, whose entries lie in [-1, 1], rounds at 1e-15 more.
    """
    d = len(snapshot.gradient)
    _, singles = snapshot_rows(snapshot, indices, d)
    softmax = snapshot.gradient - singles
    size = (
        1.0 + np.abs(snapshot.oracle.shift[indices]) + np.abs(snapshot.v / snapshot.oracle.eta) + np.abs(snapshot.lse[indices])[:, None]
        + np.abs(snapshot.base_row) + np.abs(snapshot.offsets[indices])[:, None]
    )
    want = snapshot.gradient - softmax.reshape(len(corrections), -1, d).mean(axis=1)
    bound = 1e-15 * ((softmax * size).reshape(len(corrections), -1, d).mean(axis=1) + 1.0)
    assert np.all(np.abs(corrections - want) <= bound)


def estimator(oracle, snapshot, i, lam):
    """The solver's variance-reduced gradient on component i at lam, freshly allocated.

    The estimate is the oracle's importance gradient at ``t = a'_i + Lbar
    lam``, for i's anchor row a'_i from ``snapshot``, plus i's correction.
    """
    (anchor_row,), (correction,) = snapshot_rows(snapshot, [i], lam.size)
    out = step_gradient(oracle, anchor_row + oracle.average_smoothness() * lam, np.empty((1, lam.size)))
    out += correction
    return out


def no_product(block, after):
    """A step product that writes nothing, for running an oracle's step loop on one step alone."""


def step_gradient(oracle, t, rows):
    """The oracle's h of one step at ``t`` with its b snapshot ``rows``, from its step loop run on that step alone, as a fresh array.

    h is the mean importance gradient of the step's b = len(rows)
    components; at b = 1 the semi-dual reads t alone.
    """
    out = np.empty_like(t)
    oracle.steps([(t, out, None, None, rows)], no_product)
    return out


def component_smoothness(oracle):
    """L_i = h Lbar p_i, read back from the sampling weights p_i = L_i / (h Lbar)."""
    return oracle.n * oracle.average_smoothness() * oracle.sampling_weights().weights


class QuadraticSnapshot:
    """Value, gradient and rows of the quadratic at an anchor.

    Its one component is the whole sum and Lbar = 1, so its anchor row is
    u itself, whose lam-free part is u - anchor, and every correction row
    is u - u.
    """

    def __init__(self, anchor, gradient):
        self.anchor = anchor
        self.gradient = gradient
        self.value = 0.5 * float((gradient**2).sum())

    def rows(self, indices, anchors, rows, corrections):
        anchors[...] = self.gradient - self.anchor
        corrections[...] = self.gradient - self.gradient


class QuadraticOracle:
    """Single-component finite sum phi(lam) = |lam - target|^2 / 2."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)
        self.dual_dimension = self.target.size

    def component_gradient(self, i, lam):
        return lam - self.target

    def steps(self, steps, product):
        # h = p_0 = Lbar = 1: t is the gradient at the anchor plus lam - anchor
        for t, h, block, after, _ in steps:
            np.copyto(h, t)
            product(block, after)

    def snapshot(self, lam):
        return QuadraticSnapshot(lam, lam - self.target)

    def sampling_weights(self):
        return np.array([1.0])

    def average_smoothness(self):
        return 1.0

    def primal_map(self, lam):
        return lam.copy()

    def workspace(self, lam):
        return DenseWorkspace(self)

    def primal_objective(self, x):
        return 0.0


class DenseWorkspace:
    """A solver workspace over a test oracle's own snapshot and primal map.

    The primal points are the dual vectors themselves, so they carry no
    marginals: both sums are the average itself and the violation is 0.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.total = 0.0
        self.weight = 0.0

    def snapshot(self, lam, weight=0.0):
        if weight:
            self.total = self.total + weight * self.oracle.primal_map(lam)
            self.weight += weight
        return self.oracle.snapshot(lam)

    def marginals(self):
        return self.average(), self.average(), 0.0

    def average(self):
        return np.array(self.total) / self.weight


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
