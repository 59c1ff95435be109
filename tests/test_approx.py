import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog, minimize

import pdasgd.approx
import pdasgd.baselines
from pdasgd.approx import (
    DEFAULT_KAPPA,
    METHODS,
    MIN_BUDGET,
    OP_COUNTS,
    STOP_ACCURACY,
    STOP_CAP,
    STOP_CONVERGED,
    STOP_DIVERGED,
    STOP_RULES,
    STOP_TRIVIAL,
    ApproxConfig,
    approx_ot,
    approx_ot_scaling,
    derive_parameters,
    resolve_profile,
    smooth_marginals,
    stopping_rule,
    theoretical_iteration_cap,
)
from pdasgd.baselines import greenkhorn, sinkhorn
from pdasgd.bench import make_image_pair
from pdasgd.core import CostMatrix, Distribution, OTInstance, marginal_distance
from pdasgd.exact import exact_ot_oracle
from pdasgd.rounding import round_to_polytope
from pdasgd.semidual import SemiDualOracle
from pdasgd.solver import SolverOptions, run

from conftest import certify_every, marginal_tol, never_stop


def test_derive_parameters_examples():
    eta, eps_prime = derive_parameters(0.1, np.ones((100, 100)))
    assert eta == pytest.approx(0.0027144, abs=1e-6)
    assert eps_prime == pytest.approx(1 / 60, abs=1e-12)
    # linear in epsilon
    eta2, eps2 = derive_parameters(0.2, np.ones((100, 100)))
    assert eta2 == pytest.approx(2 * eta) and eps2 == pytest.approx(2 * eps_prime)
    eta3, _ = derive_parameters(0.01, np.ones((784, 784)))
    assert eta3 == pytest.approx(1.8756e-4, rel=1e-4)


def test_derive_parameters_errors_and_trivial():
    with pytest.raises(ValueError):
        derive_parameters(0.1, np.ones((1, 1)))
    with pytest.raises(ValueError):
        derive_parameters(-0.1, np.ones((4, 4)))
    # before: "cost scale ... is out of float range at epsilon = nan"
    with pytest.raises(ValueError, match="^epsilon must be positive"):
        derive_parameters(math.nan, np.ones((4, 4)))
    assert derive_parameters(math.inf, np.ones((4, 4))) is None
    assert derive_parameters(0.1, np.zeros((4, 4))) is None
    # epsilon >= 48 |C|_inf: any feasible plan is within |C|_inf <= epsilon/48
    assert derive_parameters(0.048, np.full((4, 4), 1e-3)) is None
    assert derive_parameters(0.047, np.full((4, 4), 1e-3)) is not None
    # |C|_inf / eta overflows
    with pytest.raises(ValueError, match=r"\|C\|_inf = 1\.5e\+307 .* epsilon = 0\.05"):
        derive_parameters(0.05, np.full((2, 2), 1.5e307))


@pytest.mark.parametrize(
    "entry, message",
    [
        (np.nan, "cost entries must be finite"),  # before: read as a trivial instance, None
        (np.inf, "cost entries must be finite"),  # before: "out of float range"
        (-1.0, "cost entries must be nonnegative"),  # before: accepted
    ],
)
def test_derive_parameters_rejects_a_bad_raw_cost_by_name(entry, message):
    cost = np.ones((3, 3))
    cost[1, 2] = entry
    with pytest.raises(ValueError, match=message):
        derive_parameters(0.1, cost)


def test_smooth_marginals_examples():
    n = 4
    uniform = np.full(n, 0.25)
    a_s, b_s = smooth_marginals(uniform, uniform, 0.1)
    assert np.allclose(a_s.weights, uniform, atol=1e-15)  # uniform is a fixed point
    a_s, _ = smooth_marginals(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.08)
    assert np.allclose(a_s.weights, [0.995, 0.005], atol=1e-15)
    # each marginal's floor eps'/(8n) takes n from its own size
    a_s, b_s = smooth_marginals(np.full(4, 0.25), np.full(5, 0.2), 0.1)
    assert np.allclose(a_s.weights, 0.25, atol=1e-15) and np.allclose(b_s.weights, 0.2, atol=1e-15)
    _, b_s = smooth_marginals(np.full(4, 0.25), np.array([1.0, 0, 0, 0, 0]), 0.08)
    assert b_s.weights.min() == pytest.approx(0.08 / 40)


def test_smooth_marginals_bounds(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        eps_prime = float(rng.uniform(0.001, 2.0))
        a_s, b_s = smooth_marginals(a, b, eps_prime)
        assert a_s.weights.min() >= eps_prime / (8 * n) - 1e-16
        assert b_s.weights.min() >= eps_prime / (8 * n) - 1e-16
        perturb = np.abs(a_s.weights - a).sum() + np.abs(b_s.weights - b).sum()
        assert perturb <= eps_prime / 2 + 1e-12
    # point mass hits the lower bound
    a_s, _ = smooth_marginals(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 0.4)
    assert a_s.weights.min() == pytest.approx(0.4 / 16)
    with pytest.raises(ValueError):
        smooth_marginals(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 9.0)


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
    # before: "the iteration cap overflows ...; set max_outer"
    for kappa in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="^kappa must be positive and finite"):
            theoretical_iteration_cap(0.1, 100, 1.0, kappa=kappa)
    for epsilon, max_cost in ((math.nan, 1.0), (0.1, math.nan)):
        with pytest.raises(ValueError, match="^cap requires epsilon > 0"):
            theoretical_iteration_cap(epsilon, 100, max_cost)


def test_resolve_profile():
    assert resolve_profile("theory", 64) == (64, 1.0, 1)
    assert resolve_profile("benchmark", 64) == (16, 60.0, 4)
    assert resolve_profile("benchmark", 2) == (4, 15.0, 1)
    assert resolve_profile("benchmark", 9) == (8, 30.0, 2)
    assert resolve_profile("benchmark", 49) == (16, 60.0, 4)
    assert resolve_profile("benchmark", 256) == (32, 120.0, 8)
    # four steps of b components each, at the z step per component of 15
    # single steps; at an even image side m is 2 sqrt(n)
    for side in range(2, 33):
        m, multiplier, b = resolve_profile("benchmark", side * side)
        assert (m, multiplier) == (4 * b, 15.0 * b)
        assert side % 2 or m == 2 * side
    with pytest.raises(ValueError):
        resolve_profile("fast", 4)


def test_trivial_instance_zero_cost(rng):
    a = rng.dirichlet(np.ones(3))
    b = rng.dirichlet(np.ones(3))
    res = approx_ot(np.zeros((3, 3)), a, b, ApproxConfig(epsilon=0.1))
    assert res.stop_reason == STOP_TRIVIAL
    assert res.ot_value == 0.0
    assert np.allclose(res.plan.entries, np.outer(a, b), atol=1e-15)
    # an infinite epsilon is trivial at any cost, not a bad value
    assert approx_ot(rng.random((3, 3)), a, b, ApproxConfig(epsilon=math.inf)).stop_reason == STOP_TRIVIAL


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


@pytest.mark.parametrize("method", METHODS)
def test_capped_run_is_flagged_without_warning(method):
    # before: capped Sinkhorn and Greenkhorn runs warned while a capped
    # pdasgd run was silent; pyproject turns any RuntimeWarning into an error
    alpha, beta, cost = make_image_pair(0, 4, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = approx_ot(cost, alpha, beta, ApproxConfig(epsilon=0.05, max_outer=2), method=method)
    assert res.stop_reason == STOP_CAP
    assert res.flagged
    assert res.outer_iterations == 2


@pytest.mark.parametrize("multiplier", [1e5, 5e3])
def test_divergence_is_a_flagged_result(monkeypatch, multiplier):
    # before: an exception escaped approx_ot.  A z step far past the cliff
    # drives a step's drift past 709 eta, where its exp overflows: at outer
    # iteration 1 for 1e5 (no finite iterate), and later for 5e3.
    monkeypatch.setattr(pdasgd.approx, "resolve_profile", lambda profile, n: (8, multiplier, 1))
    alpha, beta, cost = make_image_pair(0, 4, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = approx_ot(cost, alpha, beta, ApproxConfig(epsilon=0.05, max_outer=3000))
    assert res.stop_reason == STOP_DIVERGED
    assert res.flagged
    assert len(res.records) == res.outer_iterations - 1
    assert res.op_counts["inner_steps"] == 8 * res.outer_iterations
    assert np.isfinite(res.unrounded).all()
    assert marginal_distance(res.plan, alpha.weights, beta.weights) <= 1e-10  # rounded and feasible
    if multiplier == 1e5:
        assert res.outer_iterations == 1
        a_s, b_s = smooth_marginals(alpha, beta, res.eps_prime)
        assert np.array_equal(res.unrounded, np.outer(a_s.weights, b_s.weights))
    else:
        assert 1 < res.outer_iterations < 3000


@pytest.mark.parametrize("multiplier", [1e5, 5e3])
def test_batched_divergence_is_a_flagged_result(monkeypatch, multiplier):
    # the same for batched steps of b = 2 components: a step whose drift
    # overflows exp leaves a non-finite iterate, flagged without a warning
    # (a row sum that underflows to 0: test_solver's row-sum test)
    monkeypatch.setattr(pdasgd.approx, "resolve_profile", lambda profile, n: (8, multiplier, 2))
    alpha, beta, cost = make_image_pair(0, 4, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = approx_ot(cost, alpha, beta, ApproxConfig(epsilon=0.05, max_outer=3000))
    assert res.stop_reason == STOP_DIVERGED
    assert res.flagged
    assert len(res.records) == res.outer_iterations - 1
    assert res.op_counts["inner_steps"] == 4 * res.outer_iterations
    assert np.isfinite(res.unrounded).all()
    assert marginal_distance(res.plan, alpha.weights, beta.weights) <= 1e-10
    assert (res.outer_iterations == 1) == (multiplier == 1e5)


def _pipeline_solver(cost, a, b, config):
    """The oracle and solver options ``approx_ot`` builds for pdasgd."""
    n = a.size
    eta, eps_prime = derive_parameters(config.epsilon, cost)
    a_s, b_s = smooth_marginals(a, b, eps_prime)
    oracle = SemiDualOracle(OTInstance(CostMatrix(cost), a_s, b_s, eta))
    m, multiplier, batch = resolve_profile(config.solver_profile, n)
    cap = theoretical_iteration_cap(config.epsilon, n, np.abs(cost).max(), config.kappa)
    outer = config.max_outer or max(MIN_BUDGET, math.ceil(cap / m))
    options = SolverOptions(m, outer, seed=config.seed, z_step_multiplier=multiplier, batch=batch)
    return oracle, options


@pytest.mark.parametrize("profile, kappa", [("benchmark", 8.0), ("theory", 32.0)])
def test_lazy_certificate_matches_full_records(profile, kappa):
    # The certificate rule evaluates the gap only where the violation half
    # passes; applying the whole AND to fully certified records afterwards
    # must pick the same stop index, op counts and plans.
    alpha, beta, cost = make_image_pair(0, 4, 1)
    a, b, c = alpha.weights, beta.weights, cost.entries
    config = ApproxConfig(epsilon=0.05, solver_profile=profile, kappa=kappa, seed=7)
    res = approx_ot(c, a, b, config)
    assert res.stop_reason == STOP_CONVERGED
    oracle, options = _pipeline_solver(c, a, b, config)
    full = run(oracle, options, certify_every)
    assert all(r.duality_gap is not None for r in full.records)
    first = next(
        r for r in full.records
        if r.constraint_violation_l1 <= res.eps_prime / 2 and r.duality_gap <= config.epsilon / 4
    )
    assert first.outer_index == res.outer_iterations
    assert first.cumulative_component_gradients == res.op_counts["component_gradients"]
    assert first == res.records[-1]
    assert all(r.duality_gap is None for r in res.records if r.constraint_violation_l1 > res.eps_prime / 2)
    options.outer_iterations = first.outer_index
    capped = run(oracle, options, never_stop)
    assert capped.plan.tobytes() == res.unrounded.tobytes()
    rounded, _ = round_to_polytope(capped.plan / capped.plan.sum(), alpha, beta)
    assert rounded.entries.tobytes() == res.plan.entries.tobytes()


def test_certificate_evaluated_once(monkeypatch):
    # x ln x is paid at the checkpoint whose violation passed, and here
    # that is only the stop checkpoint; the accuracy rule never pays it
    calls = []
    primal_objective = SemiDualOracle.primal_objective

    def counted(self, x):
        calls.append(x.shape)
        return primal_objective(self, x)

    monkeypatch.setattr(SemiDualOracle, "primal_objective", counted)
    alpha, beta, cost = make_image_pair(0, 8, 0)
    config = ApproxConfig(epsilon=0.05, solver_profile="benchmark", kappa=8, seed=0)
    res = approx_ot(cost, alpha, beta, config)
    assert res.stop_reason == STOP_CONVERGED
    assert len(calls) == 1
    assert [i for i, r in enumerate(res.records) if r.duality_gap is not None] == [len(res.records) - 1]
    calls.clear()
    res = approx_ot(cost, alpha, beta, config, stop="accuracy")
    assert res.stop_reason == STOP_ACCURACY
    assert calls == []
    assert all(r.primal_objective is None and r.duality_gap is None for r in res.records)


def test_gap_surrogate_lower_bound(rng):
    # the surrogate upper-bounds primal suboptimality; its negative part is
    # bounded by the dual scale times the marginal violation
    n = 4
    c = rng.random((n, n)); c /= c.max()
    a = rng.dirichlet(np.ones(n)); a = (a + 0.01) / (1 + n * 0.01)
    b = rng.dirichlet(np.ones(n)); b = (b + 0.01) / (1 + n * 0.01)
    config = ApproxConfig(epsilon=0.05, solver_profile="benchmark", max_outer=100000, seed=2)
    res = approx_ot(c, a, b, config)
    # the same trajectory, certified at every checkpoint
    oracle, options = _pipeline_solver(c, a, b, config)
    options.outer_iterations = res.outer_iterations
    full = run(oracle, options, certify_every)
    assert [r.constraint_violation_l1 for r in full.records] == [r.constraint_violation_l1 for r in res.records]
    dual_scale = np.abs(sinkhorn(oracle.instance, max_iter=10**6, stop=marginal_tol(1e-9)).dual).max()
    for record in full.records:
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
        # Greenkhorn checks its certificate once per round of n = 64
        # updates, and outer_iterations counts those rounds; it stopped at
        # update 18919 when it checked after each.
        ("greenkhorn", 296, {"updates": 18944}, 0.013363980080817914),
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


def _direct_solve(method, cost, a_s, b_s, eta, budget, rule, profile=ApproxConfig.solver_profile, seed=0):
    """The ``SolveResult`` of the solver call ``approx_ot`` makes for ``method``, made directly."""
    instance = OTInstance(cost, a_s, b_s, eta)
    if method == "pdasgd":
        m, multiplier, batch = resolve_profile(profile, a_s.n)
        options = SolverOptions(m, budget, seed=seed, z_step_multiplier=multiplier, batch=batch)
        return run(SemiDualOracle(instance), options, rule)
    return (sinkhorn if method == "sinkhorn" else greenkhorn)(instance, budget, rule)


@pytest.mark.parametrize("method", METHODS)
def test_one_stopping_rule_for_every_method(method):
    # one rule object, called once per checkpoint with the plan's sums, and
    # one budget in checkpoints: a rule that stops on its third call stops
    # every method at index 3, also when 3 is the budget, where the rule's
    # reason wins over the cap; a rule that never stops runs every method to
    # its budget, 1 included, with the indices 1..budget
    alpha, beta, cost = make_image_pair(0, 4, 0)
    eta, eps_prime = derive_parameters(0.05, cost)
    a_s, b_s = smooth_marginals(alpha, beta, eps_prime)
    for budget, stop_at in ((100, 3), (3, 3), (3, None), (1, None), (1, 1)):
        seen = []

        def rule(point):
            seen.append(point)
            return "stop" if len(seen) == stop_at else None

        res = _direct_solve(method, cost, a_s, b_s, eta, budget, rule)
        end = stop_at or budget
        assert (res.stop_reason, res.iterations) == ("stop" if stop_at else None, end)
        assert [p.index for p in seen] == list(range(1, end + 1))
        assert all(callable(p.gap) if method == "pdasgd" else p.gap is None for p in seen)
        last = seen[-1]
        assert np.allclose(last.rows, res.plan.sum(axis=1), rtol=0, atol=1e-15)
        assert np.allclose(last.cols, res.plan.sum(axis=0), rtol=0, atol=1e-15)
        assert last.violation == pytest.approx(marginal_distance(res.plan, a_s, b_s), abs=1e-14)


@pytest.mark.parametrize("method", METHODS)
def test_rule_runs_in_the_callers_numpy_error_state(method):
    # numpy's error state is a context variable: an errstate block left open
    # at a method's yield would be active in the rule, and in the caller,
    # while the method is suspended; pdasgd's gap is evaluated under it too
    alpha, beta, cost = make_image_pair(0, 4, 0)
    eta, eps_prime = derive_parameters(0.05, cost)
    a_s, b_s = smooth_marginals(alpha, beta, eps_prime)
    caller, states = np.geterr(), []

    def rule(point):
        states.append(np.geterr())
        if point.gap is not None:
            point.gap()
            states.append(np.geterr())
        return None

    res = _direct_solve(method, cost, a_s, b_s, eta, 5, rule)
    assert res.iterations == 5
    assert len(states) == (10 if method == "pdasgd" else 5)
    assert all(state == caller for state in states)
    assert np.geterr() == caller


def test_greenkhorn_max_outer_counts_rounds():
    # max_outer counts checkpoints, and a Greenkhorn checkpoint is a round
    # of n updates; before, max_outer = 2 gave it 2 updates
    alpha, beta, cost = make_image_pair(0, 4, 0)
    n = alpha.n
    res = approx_ot(cost, alpha, beta, ApproxConfig(epsilon=0.05, max_outer=2), method="greenkhorn")
    assert res.stop_reason == STOP_CAP
    assert res.outer_iterations == 2
    assert res.op_counts["updates"] == 2 * n


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon", math.nan),
        ("kappa", -1.0),
        ("kappa", math.nan),
        ("kappa", math.inf),
        ("max_outer", 0),
        ("max_outer", -3),
        ("max_outer", 2.5),
        ("max_outer", True),
        ("seed", None),
        ("seed", 1.5),
        ("seed", "x"),
        ("seed", True),
    ],
)
def test_config_rejects_bad_values_at_entry(field, value):
    # before: NaN epsilon raised a cost-scale message, kappa = -1 ran
    # Sinkhorn on the floor budget, NaN kappa failed in int(), max_outer
    # = 0 returned a 0-sweep plan, seed = None ran Sinkhorn and failed
    # pdasgd with a TypeError, 1.5 ran as seed 1 and "x" failed in int()
    with pytest.raises(ValueError, match=rf"^{field} .*got {value!r}$"):
        ApproxConfig(**{"epsilon": 0.05, field: value})


@pytest.mark.parametrize("seed", [0, -7, 2**70, np.int64(3)])
def test_every_integer_is_a_seed(seed):
    assert ApproxConfig(epsilon=0.05, seed=seed).seed == seed
    assert SolverOptions(1, 1, seed=seed).seed == seed


@pytest.mark.parametrize("method", ["sinkhorn", "greenkhorn"])
def test_scaling_budget_overflow_asks_for_max_outer(method):
    # before: (|C|_inf / epsilon) ** 2 raised OverflowError at |C|_inf =
    # 1e200, while pdasgd's linear cap solves the same call
    cost, half = np.array([[0.0, 1e200], [1e200, 0.0]]), np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="the iteration cap overflows at .*; set max_outer$"):
        approx_ot(cost, half, half, ApproxConfig(epsilon=1.0), method=method)
    # a set budget is never checked against the cap
    res = approx_ot(cost, half, half, ApproxConfig(epsilon=1.0, max_outer=5), method=method)
    assert res.outer_iterations <= 5
    assert approx_ot(cost, half, half, ApproxConfig(epsilon=1.0)).stop_reason == STOP_CONVERGED


@pytest.mark.parametrize("seed, n", [(11, 2), (0, 5)])
def test_default_config_certifies_small_instances(seed, n):
    # Uniform [0, 1) costs, Dirichlet marginals with a zero entry, epsilon =
    # 0.05.  The bare cap ceil(kappa n |C|_inf sqrt(ln n) / epsilon) is a few
    # hundred inner iterations here: the default config stopped at it after
    # 81 (n = 2) and 190 (n = 5) outer iterations; the MIN_BUDGET floor lets
    # the certificate hold.
    rng = np.random.default_rng(seed)
    assert int(rng.integers(2, 6)) == n
    c = rng.random((n, n))
    a = rng.dirichlet(np.ones(n))
    b = rng.dirichlet(np.ones(n))
    a[int(rng.integers(n))] = 0.0
    a /= a.sum()
    res = approx_ot(c, a, b, ApproxConfig(epsilon=0.05))
    assert res.stop_reason == STOP_CONVERGED
    assert res.ot_value - _lp_optimum(c, a, b) <= 0.05


# (side, pair) of make_image_pair(0, side, pair) -> outer iterations at
# which the theory profile certifies at the default kappa.
THEORY_STOPS = {(4, 0): 796, (4, 1): 871, (5, 0): 737, (5, 1): 640, (8, 0): 565, (8, 1): 594}


@pytest.mark.parametrize("side, pair", sorted(THEORY_STOPS))
def test_default_config_certifies_image_pairs(side, pair):
    # before: the default config ran the theory profile under a floor of
    # ceil(10^4 / m) outer iterations and stopped on the cap at 625 (n = 16),
    # 400 (n = 25) and 327 (n = 64) on every pair
    alpha, beta, cost = make_image_pair(0, side, pair)
    res = approx_ot(cost, alpha, beta, ApproxConfig(epsilon=0.05))
    assert res.stop_reason == STOP_CONVERGED
    assert res.ot_value - _lp_optimum(cost.entries, alpha.weights, beta.weights) <= 0.05
    # the theory profile certifies too, where uncapped runs stop: the floor
    # of 10^4 outer iterations moved only the cap
    res = approx_ot(cost, alpha, beta, ApproxConfig(epsilon=0.05, solver_profile="theory"))
    assert res.stop_reason == STOP_CONVERGED
    assert res.outer_iterations == THEORY_STOPS[side, pair]


def test_pdasgd_budget_floors_outer_iterations(monkeypatch):
    # MIN_BUDGET counts outer iterations, as it counts Sinkhorn's sweeps:
    # the pipeline hands the solver max(10^4, ceil(cap / m)) of them
    budgets = []

    def capture(oracle, options, stop):
        budgets.append(options.outer_iterations)
        options.outer_iterations = 1
        return run(oracle, options, stop=stop)

    monkeypatch.setattr(pdasgd.approx, "run", capture)
    alpha, beta, cost = make_image_pair(0, 4, 0)
    m, _, _ = resolve_profile(ApproxConfig.solver_profile, alpha.n)
    cap = theoretical_iteration_cap(1e-3, alpha.n, cost.max_abs, DEFAULT_KAPPA)
    assert math.ceil(cap / m) > MIN_BUDGET
    for epsilon in (0.05, 1e-3):
        approx_ot(cost, alpha, beta, ApproxConfig(epsilon=epsilon))
    assert budgets == [MIN_BUDGET, math.ceil(cap / m)]


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
        assert res.stop_reason in (STOP_CONVERGED, STOP_CAP, STOP_TRIVIAL)
        if res.stop_reason != STOP_CAP:
            assert res.ot_value - optimum <= epsilon
        if res.rounding_report is not None:
            report = res.rounding_report
            assert report.l1_change <= 2 * report.input_marginal_gap + 1e-12
        again = approx_ot(cost, a, b, config, method=method)
        assert again.plan.entries.tobytes() == plan.tobytes()


def test_scaling_budget_scales_with_cost():
    # At |C|_inf ~ 23.2 and epsilon = 0.05, a budget without the |C|_inf^2
    # factor (10^4 sweeps, 5 * 10^4 Greenkhorn updates) stops both methods
    # on the cap before their certificate holds.
    rng = np.random.default_rng(0)
    for _ in range(4):
        c = rng.random((5, 5)) * 24
        a = rng.dirichlet(np.ones(5))
        b = rng.dirichlet(np.ones(5))
    optimum = _lp_optimum(c, a, b)
    for method, old_budget in (("sinkhorn", 10_000), ("greenkhorn", 50_000)):
        res = approx_ot(c, a, b, ApproxConfig(epsilon=0.05), method=method)
        assert res.stop_reason == STOP_CONVERGED
        (count,) = res.op_counts.values()
        assert count > old_budget
        assert res.ot_value - optimum <= 0.05


@st.composite
def smoothed_problems(draw):
    """A smoothed pipeline problem: n in [2, 5], |C|_inf <= 1, epsilon in [0.25, 1] below 48 |C|_inf."""
    n = draw(st.integers(2, 5))
    mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    marginal = st.lists(mass, min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    a = np.array(draw(marginal))
    b = np.array(draw(marginal))
    cost = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    assume(cost.max() >= 0.01)  # smaller costs are trivial at these epsilons
    trivial_from = 48 * float(cost.max())  # epsilon >= 48 |C|_inf is trivial too: nothing is solved
    config = ApproxConfig(
        epsilon=draw(st.floats(0.25, min(1.0, trivial_from), exclude_max=trivial_from <= 1.0)),
        solver_profile=draw(st.sampled_from(["theory", "benchmark"])),
        max_outer=30,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return cost, a / a.sum(), b / b.sum(), config


def _smoothed_optimum(oracle) -> float:
    """f*_eta as f(x(v*)), with v* minimising G to |grad G|_1 <= 1e-12.

    BFGS gets close; where its line search runs out of precision in G,
    Newton steps on grad G, with the Hessian (diag(col sums of x) -
    x^T diag(1/alpha) x) / eta, finish.  x(v*) has the row sums alpha and
    the column sums beta + grad G(v*), so f(x(v*)) is f*_eta up to
    |v*|_inf |grad G(v*)|_1.  It is the primal objective, not -G, so an
    error in G cannot cancel out of the bound.
    """
    v = minimize(
        oracle.dual_value, np.zeros(oracle.n), jac=oracle.full_gradient, method="BFGS",
        options={"gtol": 1e-14, "maxiter": 10_000},
    ).x
    for _ in range(20):
        grad = oracle.full_gradient(v)
        if np.abs(grad).sum() <= 1e-12:
            break
        x = oracle.primal_map(v)
        hessian = (np.diag(x.sum(axis=0)) - x.T @ (x / oracle.alpha[:, None])) / oracle.eta
        v = v - np.linalg.lstsq(hessian, grad, rcond=None)[0]
    assert np.abs(oracle.full_gradient(v)).sum() <= 1e-12
    return oracle.primal_objective(oracle.primal_map(v))


@settings(max_examples=25, deadline=None)
@given(problem=smoothed_problems())
# a Sinkhorn reference for f*_eta misses 1e-12 here within 10^6 sweeps;
# the property holds with a slack of 2.9e-4
@example(problem=(
    np.array([[1.5e-2, 0.0, 1e-2], [8.06591385e-173, 8.59735006e-1, 4.04457075e-2], [0.0, 9.05924655e-1, 0.0]]),
    np.array([0.0, 1.0, 0.0]),
    np.array([1.0, 0.0, 0.0]),
    ApproxConfig(epsilon=0.25, solver_profile="theory", max_outer=30, seed=0),
))
def test_gap_bounds_smoothed_suboptimality(problem):
    # Weak duality: -G(lambda) <= f*_eta for every lambda, so the recorded
    # gap f(x_s) + G(lambda_tilde) bounds f(x_s) - f*_eta at every checkpoint.
    cost, a, b, config = problem
    oracle, options = _pipeline_solver(cost, a, b, config)
    f_star = _smoothed_optimum(oracle)
    for record in run(oracle, options, certify_every).records:
        assert record.duality_gap >= record.primal_objective - f_star - 1e-9


@settings(max_examples=20, deadline=None)
@given(problem=smoothed_problems())
def test_pipeline_adds_nothing_to_the_solver(problem):
    # approx_ot's counts, records, stop reason and unrounded plan are those
    # of a direct solver call at the same smoothed marginals, budget and rule
    cost, a, b, config = problem
    eta, eps_prime = derive_parameters(config.epsilon, cost)
    a_s, b_s = smooth_marginals(a, b, eps_prime)
    for method in METHODS:
        for stop in STOP_RULES:
            res = approx_ot(cost, a, b, config, method=method, stop=stop)
            rule = stopping_rule(stop, a, b, config.epsilon, eps_prime)
            direct = _direct_solve(
                method, CostMatrix(cost), a_s, b_s, eta, config.max_outer, rule, config.solver_profile, config.seed
            )
            assert res.outer_iterations == direct.iterations
            assert res.op_counts == direct.op_counts
            assert tuple(direct.op_counts) == OP_COUNTS[method]  # the keys of a trivial result too
            assert res.records == direct.records
            assert res.stop_reason == (direct.stop_reason or STOP_CAP)
            assert res.unrounded.tobytes() == direct.plan.tobytes()


@pytest.mark.parametrize("method", METHODS)
def test_solver_state_released_before_rounding(monkeypatch, method):
    # the run's workspace holds an n^2 kernel (and, for pdasgd, a dense
    # primal sum); the solver must let it go when it returns, with no
    # generator of its checkpoints left to hold it, so it is gone before the
    # rounding
    workspaces, released, checked = [], [], []
    workspace = SemiDualOracle.workspace

    def tracked_workspace(oracle, v0):
        ws = workspace(oracle, v0)
        workspaces.append(weakref.ref(ws))
        return ws

    def tracked(solver):
        def call(*args):
            result = solver(*args)
            released.append(workspaces[-1]() is None)
            return result

        return call

    def rounding(plan, alpha, beta):
        checked.append(workspaces[-1]() is None)
        return round_to_polytope(plan, alpha, beta)

    monkeypatch.setattr(SemiDualOracle, "workspace", tracked_workspace)
    if method == "pdasgd":
        monkeypatch.setattr(pdasgd.approx, "run", tracked(run))
    else:
        monkeypatch.setattr(pdasgd.baselines, method, tracked(getattr(pdasgd.baselines, method)))
    monkeypatch.setattr(pdasgd.approx, "round_to_polytope", rounding)
    alpha, beta, cost = make_image_pair(0, 4, 0)
    res = approx_ot(cost, alpha, beta, ApproxConfig(epsilon=0.05), method=method)
    assert res.stop_reason == STOP_CONVERGED
    assert len(workspaces) == 1
    assert released == [True]
    assert checked == [True]
