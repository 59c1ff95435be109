import numpy as np
import pytest

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


class QuadraticSnapshot:
    """Value, gradient and (single) anchor component gradient of the quadratic."""

    def __init__(self, gradient):
        self.gradient = gradient
        self.value = 0.5 * float((gradient**2).sum())

    def anchor(self, i, out):
        out[:] = self.gradient
        return out


class QuadraticOracle:
    """Single-component finite sum phi(lam) = |lam - target|^2 / 2."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)
        self.component_count = 1
        self.dual_dimension = self.target.size

    def component_gradient(self, i, lam, out=None):
        if out is None:
            out = np.empty_like(lam)
        np.subtract(lam, self.target, out=out)
        return out

    def snapshot(self, lam):
        return QuadraticSnapshot(lam - self.target)

    def sampling_weights(self):
        return np.array([1.0])

    def average_smoothness(self):
        return 1.0

    def primal_map(self, lam):
        return lam.copy()

    def primal_objective(self, x):
        return 0.0

    def constraint_violation_l1(self, x):
        return 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
