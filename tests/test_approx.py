import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from pdasgd.approx import (
    METHODS,
    STOP_CAP,
    STOP_TRIVIAL,
    ApproxConfig,
    approx_ot,
    approx_ot_scaling,
    derive_parameters,
    resolve_profile,
    smooth_marginals,
    theoretical_iteration_cap,
)
from pdasgd.baselines import sinkhorn
from pdasgd.bench import make_image_pair
from pdasgd.core import CostMatrix, Distribution, OTInstance, marginal_distance
from pdasgd.exact import exact_ot_oracle
from pdasgd.semidual import SemiDualOracle


def test_derive_parameters_examples():
    eta, eps_prime = derive_parameters(0.1, 100, np.ones((2, 2)))
    assert eta == pytest.approx(0.0027144, abs=1e-6)
    assert eps_prime == pytest.approx(1 / 60, abs=1e-12)
    # linear in epsilon
    eta2, eps2 = derive_parameters(0.2, 100, np.ones((2, 2)))
    assert eta2 == pytest.approx(2 * eta) and eps2 == pytest.approx(2 * eps_prime)
    eta3, _ = derive_parameters(0.01, 784, np.ones((2, 2)))
    assert eta3 == pytest.approx(1.8756e-4, rel=1e-4)


def test_derive_parameters_errors_and_trivial():
    with pytest.raises(ValueError):
        derive_parameters(0.1, 1, np.ones((1, 1)))
    with pytest.raises(ValueError):
        derive_parameters(-0.1, 4, np.ones((2, 2)))
    assert derive_parameters(0.1, 4, np.zeros((4, 4))) is None
    # epsilon >= 48 |C|_inf: any feasible plan is within |C|_inf <= epsilon/48
    assert derive_parameters(0.048, 4, np.full((4, 4), 1e-3)) is None
    assert derive_parameters(0.047, 4, np.full((4, 4), 1e-3)) is not None
    # |C|_inf / eta overflows
    with pytest.raises(ValueError, match=r"\|C\|_inf = 1\.5e\+307 .* epsilon = 0\.05"):
        derive_parameters(0.05, 2, np.full((2, 2), 1.5e307))


def test_smooth_marginals_examples():
    n = 4
    uniform = np.full(n, 0.25)
    a_s, b_s = smooth_marginals(uniform, uniform, 0.1, n)
    assert np.allclose(a_s.weights, uniform, atol=1e-15)  # uniform is a fixed point
    a_s, _ = smooth_marginals(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.08, 2)
    assert np.allclose(a_s.weights, [0.995, 0.005], atol=1e-15)


def test_smooth_marginals_bounds(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        eps_prime = float(rng.uniform(0.001, 2.0))
        a_s, b_s = smooth_marginals(a, b, eps_prime, n)
        assert a_s.weights.min() >= eps_prime / (8 * n) - 1e-16
        assert b_s.weights.min() >= eps_prime / (8 * n) - 1e-16
        perturb = np.abs(a_s.weights - a).sum() + np.abs(b_s.weights - b).sum()
        assert perturb <= eps_prime / 2 + 1e-12
    # point mass hits the lower bound
    a_s, _ = smooth_marginals(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.4, 2)
    assert a_s.weights.min() == pytest.approx(0.4 / 16)
    with pytest.raises(ValueError):
        smooth_marginals(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 9.0, 2)


def test_iteration_cap_examples():
    assert theoretical_iteration_cap(0.1, 100, 1.0) == 2146
    # linear in n (times the sqrt-log factor), inverse in epsilon
    base = theoretical_iteration_cap(0.01, 64, 1.0)
    log_factor = math.sqrt(math.log(128) / math.log(64))
    assert theoretical_iteration_cap(0.01, 128, 1.0) == pytest.approx(2 * log_factor * base, rel=1e-3)
    assert theoretical_iteration_cap(0.005, 64, 1.0) == pytest.approx(2 * base, rel=1e-3)
    assert theoretical_iteration_cap(0.1, 100, 1.0, kappa=2.0) == 2 * 2146
    # before: OverflowError from math.ceil of an infinite cap
    with pytest.raises(ValueError, match="overflows at"):
        theoretical_iteration_cap(0.05, 2, 1e306, kappa=8.0)


def test_resolve_profile():
    assert resolve_profile("theory", 64) == (64, 1.0)
    assert resolve_profile("benchmark", 64) == (16, 15.0)
    assert resolve_profile("benchmark", 2) == (3, 15.0)
    with pytest.raises(ValueError):
        resolve_profile("fast", 4)


def test_trivial_instance_zero_cost(rng):
    a = rng.dirichlet(np.ones(3))
    b = rng.dirichlet(np.ones(3))
    res = approx_ot(np.zeros((3, 3)), a, b, ApproxConfig(epsilon=0.1))
    assert res.stop_reason == STOP_TRIVIAL
    assert res.ot_value == 0.0
    assert np.allclose(res.plan.entries, np.outer(a, b), atol=1e-15)


def test_equal_marginals_zero_diagonal(rng):
    # optimum is 0, so any epsilon-approximation has value <= epsilon
    n = 3
    c = rng.random((n, n))
    np.fill_diagonal(c, 0.0)
    a = rng.dirichlet(np.ones(n))
    res = approx_ot(c, a, a, ApproxConfig(epsilon=0.05, solver_profile="benchmark", max_outer=100000))
    assert res.ot_value <= 0.05
    assert marginal_distance(res.plan, a, a) <= 1e-10


def test_two_by_two_endpoint_approximation():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = np.array([0.3, 0.7])
    b = np.array([0.6, 0.4])
    res = approx_ot(c, a, b, ApproxConfig(epsilon=0.02, solver_profile="benchmark", max_outer=200000, seed=4))
    assert res.stop_reason == "gap+marginal"
    assert abs(res.ot_value - 0.3) <= 0.02


def test_random_small_instance_vs_oracle(rng):
    n = 4
    c = rng.random((n, n))
    c /= c.max()
    a = rng.dirichlet(np.ones(n))
    b = rng.dirichlet(np.ones(n))
    _, opt = exact_ot_oracle(c, a, b)
    res = approx_ot(c, a, b, ApproxConfig(epsilon=0.05, solver_profile="benchmark", max_outer=200000, seed=7))
    assert res.ot_value - opt <= 0.05
    assert marginal_distance(res.plan, a, b) <= 1e-10


def test_output_feasible_for_original_marginals(rng):
    # rounding targets the original marginals, not the smoothed ones
    n = 5
    c = rng.random((n, n))
    a = rng.dirichlet(np.ones(n))
    b = np.zeros(n)
    b[0] = 0.7
    b[2] = 0.3  # zeros in the original marginal
    res = approx_ot(c, a, b, ApproxConfig(epsilon=0.1, solver_profile="benchmark", max_outer=50000, seed=1))
    assert marginal_distance(res.plan, a, b) <= 1e-10


def test_iteration_cap_flags_result(rng):
    n = 4
    c = rng.random((n, n)); c /= c.max()
    a = rng.dirichlet(np.ones(n))
    b = rng.dirichlet(np.ones(n))
    res = approx_ot(c, a, b, ApproxConfig(epsilon=0.02, solver_profile="benchmark", max_outer=3))
    assert res.stop_reason == "iteration-cap"
    assert res.flagged
    assert marginal_distance(res.plan, a, b) <= 1e-10  # still rounded and feasible


def test_gap_surrogate_lower_bound(rng):
    # the surrogate upper-bounds primal suboptimality; its negative part is
    # bounded by the dual scale times the marginal violation
    n = 4
    c = rng.random((n, n)); c /= c.max()
    a = rng.dirichlet(np.ones(n)); a = (a + 0.01) / (1 + n * 0.01)
    b = rng.dirichlet(np.ones(n)); b = (b + 0.01) / (1 + n * 0.01)
    res = approx_ot(c, a, b, ApproxConfig(epsilon=0.05, solver_profile="benchmark", max_outer=100000, seed=2))
    eta, eps_prime = derive_parameters(0.05, n, c)
    a_s, b_s = smooth_marginals(a, b, eps_prime, n)
    oracle = SemiDualOracle(OTInstance(CostMatrix(c), a_s, b_s, eta))
    _, info = sinkhorn(c, a_s.weights, b_s.weights, eta, tol_marginal=1e-9, max_iter=10**6)
    dual_scale = np.abs(eta * info["log_v"]).max()
    for record in res.records:
        floor = -(dual_scale + 1.0) * record.constraint_violation_l1 - 1e-9
        assert record.duality_gap >= floor


def test_scaling_pipeline_matches_contract(rng):
    n = 3
    c = rng.random((n, n)); c /= c.max()
    a = rng.dirichlet(np.ones(n))
    b = rng.dirichlet(np.ones(n))
    _, opt = exact_ot_oracle(c, a, b)
    for method in ("sinkhorn", "greenkhorn"):
        res = approx_ot(c, a, b, ApproxConfig(epsilon=0.05), method=method)
        assert res.ot_value - opt <= 0.05
        assert marginal_distance(res.plan, a, b) <= 1e-10
        # the older entry point is the same call
        alias = approx_ot_scaling(c, a, b, ApproxConfig(epsilon=0.05), method=method)
        assert np.array_equal(alias.plan.entries, res.plan.entries)
    with pytest.raises(ValueError):
        approx_ot(c, a, b, ApproxConfig(epsilon=0.05), method="bogus")
    with pytest.raises(ValueError):
        approx_ot(c, a, b, ApproxConfig(epsilon=0.05), stop="never")


@pytest.mark.parametrize(
    "method, outer_iterations, op_counts, ot_value",
    [
        ("sinkhorn", 313, {"sweeps": 313}, 0.013391275388077144),
        ("greenkhorn", 19684, {"updates": 19684}, 0.013349052643578966),
    ],
)
def test_scaling_profile_replay(method, outer_iterations, op_counts, ot_value):
    # stop index, op counts and ot_value of certified scaling solves
    alpha, beta, cost = make_image_pair(0, 8, 0)
    result = approx_ot(cost, alpha, beta, ApproxConfig(epsilon=0.05, kappa=8), method=method)
    assert result.stop_reason == "gap+marginal"
    assert result.outer_iterations == outer_iterations
    assert result.op_counts == op_counts
    assert result.ot_value == pytest.approx(ot_value, abs=1e-12)


def _bad_inputs():
    c = np.array([[0.0, 0.4, 1.0], [0.4, 0.0, 0.6], [1.0, 0.6, 0.0]])
    a = np.array([0.2, 0.3, 0.5])
    b = np.array([0.6, 0.1, 0.3])
    nan_cost = c.copy()
    nan_cost[0, 1] = np.nan
    return {
        "negative-cost": ((-c, a, b), "nonnegative"),
        "nan-cost": ((nan_cost, a, b), "non-finite"),
        "alpha-sums-to-1.1": ((c, np.array([0.2, 0.3, 0.6]), b), r"sum to 1, got 1\.1"),
    }


@pytest.mark.parametrize("case", sorted(_bad_inputs()))
@pytest.mark.parametrize("method", METHODS)
def test_bad_input_rejected_at_entry(method, case):
    # every method rejects bad input before deriving parameters, and the
    # message names the fault in the caller's own data
    (cost, alpha, beta), message = _bad_inputs()[case]
    with pytest.raises(ValueError, match=message):
        approx_ot(cost, alpha, beta, ApproxConfig(epsilon=0.05), method=method)


def test_config_validation():
    with pytest.raises(ValueError):
        ApproxConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ApproxConfig(epsilon=0.1, solver_profile="warp")


@pytest.mark.parametrize("method", METHODS)
def test_small_scale_cost_is_trivial(rng, method):
    # before: eps' = epsilon / (6 |C|_inf) = 8.3 >= 8 raised
    # "eps_prime must lie in (0, 8)" on this valid input
    a = rng.dirichlet(np.ones(4))
    b = rng.dirichlet(np.ones(4))
    c = 1e-3 * rng.random((4, 4))
    c[0, 1] = 1e-3
    res = approx_ot(c, a, b, ApproxConfig(epsilon=0.05), method=method)
    assert res.stop_reason == STOP_TRIVIAL
    assert np.array_equal(res.plan.entries, np.outer(a, b))
    assert res.ot_value <= 1e-3
    assert set(res.op_counts.values()) == {0}


@pytest.mark.parametrize("method", METHODS)
def test_cost_out_of_float_range_rejected(method):
    # before: the scaling methods ran their whole budget to an all-NaN plan
    # flagged "iteration-cap", and pdasgd raised OverflowError
    half = np.array([0.5, 0.5])
    cost = 1.5e307 * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match=r"\|C\|_inf = 1\.5e\+307 is out of float range"):
        approx_ot(cost, half, half, ApproxConfig(epsilon=0.05), method=method)


def _lp_optimum(cost, a, b) -> float:
    n = a.size
    rows = np.kron(np.eye(n), np.ones((1, n)))
    cols = np.kron(np.ones((1, n)), np.eye(n))
    res = linprog(cost.ravel(), A_eq=np.vstack([rows, cols]), b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


@st.composite
def small_instances(draw):
    """n in [2, 5], marginals that may contain zeros, |C|_inf up to 10^scale."""
    n = draw(st.integers(2, 5))
    mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    marginal = st.lists(mass, min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    a = np.array(draw(marginal))
    b = np.array(draw(marginal))
    scale = 10.0 ** draw(st.floats(-4.0, 2.0))
    cost = scale * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    return cost, a / a.sum(), b / b.sum()


@pytest.mark.filterwarnings("ignore:.*stopped after:RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(instance=small_instances(), seed=st.integers(0, 2**32 - 1))
def test_pipeline_properties(instance, seed):
    # The paper's guarantees for every method.  At epsilon = 0.5 the scale
    # range covers the trivial case epsilon >= 48 |C|_inf.  A capped run is
    # flagged and certifies nothing, so the epsilon bound is asserted on
    # every result that is not flagged.
    cost, a, b = instance
    epsilon = 0.5
    optimum = _lp_optimum(cost, a, b)
    for method in METHODS:
        config = ApproxConfig(epsilon=epsilon, seed=seed)
        res = approx_ot(cost, a, b, config, method=method)
        plan = res.plan.entries
        assert plan.min() >= 0
        assert marginal_distance(plan, a, b) <= 1e-10
        if res.stop_reason != STOP_CAP:
            assert res.ot_value - optimum <= epsilon
        if res.rounding_report is not None:
            report = res.rounding_report
            assert report.l1_change <= 2 * report.input_marginal_gap + 1e-12
        again = approx_ot(cost, a, b, config, method=method)
        assert again.plan.entries.tobytes() == plan.tobytes()
