import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import xlogy

from pdasgd.core import (
    CostMatrix,
    Distribution,
    OTInstance,
    TransportPlan,
    entropy,
    marginal_distance,
    regularized_objective,
    sum_xlogx,
    transport_cost,
)


HALF = np.array([0.5, 0.5])
SWAP_COST = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_distribution_validation():
    d = Distribution(np.array([0.25, 0.75]))
    assert d.n == 2 and d.strictly_positive
    assert not Distribution(np.array([1.0, 0.0])).strictly_positive
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Distribution(np.array([-0.1, 1.1]))


def test_containers_immutable():
    d = Distribution(HALF.copy())
    with pytest.raises(ValueError):
        d.weights[0] = 0.9
    c = CostMatrix(SWAP_COST.copy())
    with pytest.raises(ValueError):
        c.entries[0, 0] = 5.0


def test_containers_leave_caller_arrays_writable():
    weights, entries = HALF.copy(), SWAP_COST.copy()
    Distribution(weights)
    CostMatrix(entries)
    TransportPlan(entries)
    weights[0] = 0.9
    entries[0, 0] = 5.0


def test_cost_matrix_max_abs():
    c = CostMatrix(np.array([[0.0, 2.5], [1.0, 0.3]]))
    assert c.max_abs == 2.5
    with pytest.raises(ValueError):
        CostMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        CostMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distribution_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        Distribution(np.array([bad, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cost_matrix_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        CostMatrix(np.array([[bad, 1.0], [1.0, 0.0]]))


def test_instance_dimension_check():
    with pytest.raises(ValueError):
        OTInstance(CostMatrix(np.zeros((3, 3))), Distribution(HALF), Distribution(HALF))


def test_transport_cost_examples():
    alpha = Distribution(HALF)
    # zero-diagonal cost with the diagonal coupling
    assert transport_cost(np.diag(HALF), SWAP_COST) == 0.0
    # single atom
    assert transport_cost(np.array([[1.0]]), np.array([[3.25]])) == 3.25
    # product coupling under the swap cost: hand sum = 0.5
    product = np.outer(alpha.weights, alpha.weights)
    assert transport_cost(product, SWAP_COST) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        transport_cost(np.zeros((2, 2)), np.zeros((3, 3)))


def test_entropy_examples():
    point = np.zeros((3, 3))
    point[1, 2] = 1.0
    assert entropy(point) == 0.0
    n = 5
    uniform = np.full((n, n), 1.0 / n**2)
    assert entropy(uniform) == pytest.approx(2 * math.log(n), abs=1e-12)
    # direct scalar evaluation
    x = np.array([[0.4, 0.1], [0.1, 0.4]])
    expected = -(2 * 0.4 * math.log(0.4) + 2 * 0.1 * math.log(0.1))
    assert entropy(x) == pytest.approx(expected, abs=1e-12)
    assert abs(entropy(x) - 1.19355) < 1e-4
    with pytest.raises(ValueError):
        entropy(np.array([[-0.1, 0.6], [0.2, 0.3]]))


def test_entropy_range_random_plans(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        x = rng.random((n, n))
        x /= x.sum()
        assert -1e-12 <= entropy(x) <= 2 * math.log(n) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 30), st.integers(1, 30)),
        elements=st.one_of(st.just(0.0), st.floats(1e-310, 1.0)),
    )
)
def test_sum_xlogx_matches_xlogy(raw):
    if raw.sum() == 0:
        raw[0, 0] = 1.0
    x = raw / raw.sum()
    ref = float(xlogy(x, x).sum())
    assert abs(sum_xlogx(x) - ref) <= 1e-15 * abs(ref)


def test_sum_xlogx_point_mass_and_nan():
    point = np.zeros((4, 4))
    point[2, 1] = 1.0
    assert sum_xlogx(point) == 0.0
    point[0, 0] = np.nan
    assert math.isnan(sum_xlogx(point))


def test_regularized_objective_examples():
    alpha = Distribution(HALF)
    inst = OTInstance(CostMatrix(SWAP_COST), alpha, alpha, eta=1.0)
    point = np.zeros((2, 2))
    point[0, 0] = 1.0
    zero_diag_inst = OTInstance(CostMatrix(np.zeros((2, 2)) + SWAP_COST * 0), alpha, alpha, eta=1.0)
    assert regularized_objective(point, zero_diag_inst) == 0.0
    uniform = np.full((2, 2), 0.25)
    assert regularized_objective(uniform, zero_diag_inst) == pytest.approx(-2 * math.log(2), abs=1e-12)
    assert regularized_objective(uniform, inst) == pytest.approx(0.5 - 2 * math.log(2), abs=1e-12)
    with pytest.raises(ValueError):
        regularized_objective(uniform, OTInstance(CostMatrix(SWAP_COST), alpha, alpha, eta=0.0))


def test_marginal_distance_examples(rng):
    alpha = HALF
    assert marginal_distance(np.diag(HALF), alpha, alpha) == 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        assert marginal_distance(np.outer(a, b), a, b) < 1e-14
    x = np.array([[0.4, 0.2], [0.1, 0.3]])
    assert marginal_distance(x, alpha, alpha) == pytest.approx(0.2, abs=1e-14)


def test_transport_plan_sums():
    p = TransportPlan(np.array([[0.4, 0.2], [0.1, 0.3]]))
    assert np.allclose(p.row_sums(), [0.6, 0.4])
    assert np.allclose(p.col_sums(), [0.5, 0.5])
    assert p.total_mass() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        TransportPlan(np.array([[0.5, -0.1], [0.3, 0.3]]))
