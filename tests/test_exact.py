import numpy as np
import pytest

from pdasgd.core import marginal_distance, transport_cost
from pdasgd.exact import exact_ot_oracle


def test_identity_coupling_optimal():
    # equal marginals with a zero diagonal: stay-in-place transport is free
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        c = rng.random((n, n))
        np.fill_diagonal(c, 0.0)
        a = rng.dirichlet(np.ones(n))
        plan, value = exact_ot_oracle(c, a, a)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert marginal_distance(plan, a, a) < 1e-10


def test_two_by_two_endpoint():
    # the 2x2 polytope is a segment in X11; a linear objective picks an endpoint
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = np.array([0.3, 0.7])
    b = np.array([0.6, 0.4])
    plan, value = exact_ot_oracle(c, a, b)
    assert value == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(plan.entries, [[0.3, 0.0], [0.3, 0.4]], atol=1e-12)


def test_grid_search_cross_oracle():
    # exhaustive grid over the 4 free variables of a fixed 3x3 instance
    rng = np.random.default_rng(5)
    c = rng.random((3, 3))
    c /= c.max()
    a = np.array([0.15, 0.25, 0.60])
    b = np.array([0.20, 0.10, 0.70])
    _, value = exact_ot_oracle(c, a, b)

    step = 1e-3
    x11 = np.arange(0.0, min(a[0], b[0]) + step, step)
    x12 = np.arange(0.0, min(a[0], b[1]) + step, step)
    x21 = np.arange(0.0, min(a[1], b[0]) + step, step)
    x22 = np.arange(0.0, min(a[1], b[1]) + step, step)
    best = np.inf
    g21 = x21[:, None]
    g22 = x22[None, :]
    for v11 in x11:
        for v12 in x12:
            x13 = a[0] - v11 - v12
            if x13 < 0:
                continue
            x23 = a[1] - g21 - g22
            x31 = b[0] - v11 - g21
            x32 = b[1] - v12 - g22
            x33 = b[2] - x13 - x23
            feas = (x23 >= 0) & (x31 >= 0) & (x32 >= 0) & (x33 >= 0)
            if not feas.any():
                continue
            cost = (
                c[0, 0] * v11 + c[0, 1] * v12 + c[0, 2] * x13
                + c[1, 0] * g21 + c[1, 1] * g22 + c[1, 2] * x23
                + c[2, 0] * x31 + c[2, 1] * x32 + c[2, 2] * x33
            )
            best = min(best, float(cost[feas].min()))
    assert 0 <= best - value <= 2e-3


def test_permutation_invariance(rng):
    n = 4
    c = rng.random((n, n))
    a = rng.dirichlet(np.ones(n))
    b = rng.dirichlet(np.ones(n))
    _, value = exact_ot_oracle(c, a, b)
    perm_r = rng.permutation(n)
    perm_c = rng.permutation(n)
    _, permuted = exact_ot_oracle(c[np.ix_(perm_r, perm_c)], a[perm_r], b[perm_c])
    assert permuted == pytest.approx(value, abs=1e-12)


def test_cost_shift_invariance(rng):
    n = 3
    c = rng.random((n, n))
    a = rng.dirichlet(np.ones(n))
    b = rng.dirichlet(np.ones(n))
    _, value = exact_ot_oracle(c, a, b)
    for k in (0.5, 2.0):
        _, shifted = exact_ot_oracle(c + k, a, b)
        assert shifted == pytest.approx(value + k, abs=1e-10)


def test_feasibility_of_returned_plan(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        c = rng.random((n, n))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        plan, value = exact_ot_oracle(c, a, b)
        assert marginal_distance(plan, a, b) < 1e-10
        assert transport_cost(plan, c) == pytest.approx(value, abs=1e-12)


def test_deterministic_tie_breaking():
    # uniform cost: every vertex has equal cost; output must be reproducible
    c = np.ones((3, 3))
    a = np.full(3, 1 / 3)
    p1, v1 = exact_ot_oracle(c, a, a)
    p2, v2 = exact_ot_oracle(c, a, a)
    assert v1 == v2 == pytest.approx(1.0)
    assert np.array_equal(p1.entries, p2.entries)


def test_oracle_errors():
    with pytest.raises(ValueError, match="n <= 5"):
        exact_ot_oracle(np.zeros((6, 6)), np.full(6, 1 / 6), np.full(6, 1 / 6))
    # unnormalised marginals are rejected by their Distribution, even at equal mass
    with pytest.raises(ValueError, match="sum to 1"):
        exact_ot_oracle(np.zeros((2, 2)), np.array([0.5, 0.5]), np.array([0.4, 0.4]))
    with pytest.raises(ValueError, match="marginal sizes must match the cost matrix"):
        exact_ot_oracle(np.zeros((2, 2)), np.full(3, 1 / 3), np.array([0.5, 0.5]))


HALF = np.array([0.5, 0.5])
SWAP = [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize(
    "cost, alpha, message",
    [
        # before: a plan that avoided the NaN cell, with value 1.0
        ([[np.nan, 1.0], [1.0, 0.0]], HALF, "cost entries must be finite"),
        # before: both accepted, the negative cost with value -0.5
        ([[np.inf, 1.0], [1.0, 0.0]], HALF, "cost entries must be finite"),
        ([[-1.0, 1.0], [1.0, 0.0]], HALF, "cost entries must be nonnegative"),
        # before: "no feasible vertex found; marginals are inconsistent"
        (SWAP, np.array([np.nan, 1.0]), "distribution weights must be finite"),
        (SWAP, np.array([-0.5, 1.5]), "distribution weights must be nonnegative"),
    ],
)
def test_oracle_rejects_bad_input_by_its_container(cost, alpha, message):
    with pytest.raises(ValueError, match=message):
        exact_ot_oracle(np.array(cost), alpha, HALF)
    with pytest.raises(ValueError, match=message):
        exact_ot_oracle(np.array(cost), HALF, alpha)
