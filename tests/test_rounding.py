import numpy as np
import pytest

from pdasgd.core import TransportPlan, marginal_distance
from pdasgd.rounding import round_to_polytope


HALF = np.array([0.5, 0.5])


def test_feasible_input_unchanged(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        f = np.outer(a, b)
        e, report = round_to_polytope(f, a, b)
        assert np.allclose(e.entries, f, atol=1e-15)
        assert report.l1_change < 1e-12
        assert report.correction_mass < 1e-12


def test_worked_2x2_example():
    f = np.array([[0.4, 0.2], [0.1, 0.3]])
    e, report = round_to_polytope(f, HALF, HALF)
    expected = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    assert np.abs(e.entries - expected).max() < 1e-12
    assert report.input_marginal_gap == pytest.approx(0.2, abs=1e-14)
    assert report.correction_mass == pytest.approx(0.1, abs=1e-12)


def _perturbed_plan(rng, n, scale):
    f = np.outer(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
    f = f * (1 + scale * rng.normal(size=(n, n)))
    f = np.maximum(f, 0.0)
    if rng.random() < 0.25:
        f[rng.integers(n), :] = 0.0  # exercise the zero-row guard
    if rng.random() < 0.25:
        f[:, rng.integers(n)] = 0.0
    total = f.sum()
    if total <= 0:
        return None
    return f / total  # mass gate requires ~1


def test_random_property_bound(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        f = _perturbed_plan(rng, n, scale=0.3)
        if f is None:
            continue
        e, report = round_to_polytope(f, a, b)
        d_in = marginal_distance(f, a, b)
        assert report.input_marginal_gap == d_in  # from the one row-sum pass, bit for bit
        assert marginal_distance(e, a, b) <= 1e-10
        assert np.abs(e.entries - f).sum() <= 2 * d_in + 1e-10
        assert e.entries.min() >= 0


def test_idempotence(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        f = _perturbed_plan(rng, n, scale=0.2)
        if f is None:
            continue
        e1, _ = round_to_polytope(f, a, b)
        e2, report2 = round_to_polytope(e1.entries, a, b)
        assert np.abs(e2.entries - e1.entries).max() < 1e-12
        assert report2.l1_change < 1e-10


def test_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        round_to_polytope(np.array([[0.6, -0.1], [0.2, 0.3]]), HALF, HALF)
    with pytest.raises(ValueError, match="mass"):
        round_to_polytope(np.full((2, 2), 0.5), HALF, HALF)
    with pytest.raises(ValueError, match="shape"):
        round_to_polytope(np.full((2, 2), 0.25), HALF, np.array([0.2, 0.3, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(bad):
    # before: a NaN plan passed both the sign and the mass check
    f = np.full((2, 2), bad)
    with pytest.raises(ValueError, match="non-finite"):
        round_to_polytope(f, HALF, HALF)


QUARTERS = np.full((2, 2), 0.25)


@pytest.mark.parametrize(
    "make, match",
    [
        # before: a NaN plan
        (lambda: round_to_polytope(QUARTERS, np.array([np.nan, 0.5]), HALF), "non-finite"),
        # before: a plan with column sums 0.3 and 0.3, off the promised polytope
        (lambda: round_to_polytope(QUARTERS, np.array([0.3, 0.3]), HALF), "must sum to 1"),
        # before: "transport plan entries must be nonnegative", blaming the plan
        (lambda: round_to_polytope(QUARTERS, np.array([-0.5, 1.5]), HALF), "distribution weights must be nonnegative"),
        # before: accepted
        (lambda: TransportPlan(np.array([[np.nan, 0.1], [0.2, 0.3]])), "transport plan entries must be finite"),
    ],
    ids=["nan-marginal", "unnormalised-marginal", "negative-marginal", "nan-plan"],
)
def test_rounding_marginals_and_plans_are_validated(make, match):
    with pytest.raises(ValueError, match=match):
        make()
