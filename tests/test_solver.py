import math
from collections import Counter

import numpy as np
import pytest

import pdasgd.solver
from conftest import QuadraticOracle, QuadraticSnapshot, random_instance, random_oracle
from pdasgd.approx import ApproxConfig, approx_ot
from pdasgd.bench import make_image_pair
from pdasgd.core import CostMatrix, Distribution, OTInstance
from pdasgd.rng import CategoricalSampler, SplitMix64
from pdasgd.semidual import KernelWorkspace, SemiDualOracle
from pdasgd.solver import (
    DivergenceError,
    SolverOptions,
    certify,
    gamma,
    init_state,
    inner_step,
    make_record,
    outer_iteration,
    run,
    step_constants,
    tau1,
    variance_reduced_gradient,
)


def test_tau1_values():
    assert tau1(0) == 0.5
    assert tau1(4) == 0.25
    for s in range(200):
        assert tau1(s) + 0.5 <= 1.0 + 1e-15  # step-8 mixing weight stays >= 0
    with pytest.raises(ValueError):
        tau1(-1)


def test_gamma_values():
    assert gamma(0, 1.0) == pytest.approx(2.0 / 9.0)
    assert gamma(0, 2.0) == pytest.approx(1.0 / 9.0)
    for s in range(0, 50, 7):
        assert gamma(s, 3.0) * tau1(s) * 9 * 3.0 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gamma(1, 0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("inner_iterations", 2.5),
        ("inner_iterations", True),
        ("inner_iterations", 0),
        ("outer_iterations", 2.5),
        ("outer_iterations", False),
        ("outer_iterations", -1),
        ("z_step_multiplier", math.nan),
        ("z_step_multiplier", math.inf),
        ("z_step_multiplier", 0.0),
    ],
)
def test_options_reject_bad_values_at_entry(field, value):
    # before: inner_iterations = 2.5 raised a TypeError in the index draw,
    # outer_iterations = 2.5 a TypeError in range(), z_step_multiplier = NaN
    # a DivergenceError after outer iteration 1, and True was run as 1
    options = {"inner_iterations": 2, "outer_iterations": 3, field: value}
    with pytest.raises(ValueError, match=rf"^{field} .*got {value!r}$"):
        SolverOptions(**options)


def test_schedule_identities():
    for S in (1, 3, 10, 57):
        total = sum(1.0 / tau1(s) for s in range(S))
        assert total == pytest.approx((S**2 + 7 * S) / 4)
    for s in range(20):
        assert 0.5 / tau1(s) ** 2 == pytest.approx((s + 4) ** 2 / 8)


def test_ccoef_accumulation(rng):
    oracle = random_oracle(rng, 3, eta=0.5)
    res = run(oracle, SolverOptions(inner_iterations=2, outer_iterations=3, seed=0))
    assert res.state.workspace.weight == pytest.approx(2 + 2.5 + 3)


def test_operation_counter(rng):
    n, m, S = 5, 3, 7
    oracle = random_oracle(rng, n, eta=0.5)
    res = run(oracle, SolverOptions(inner_iterations=m, outer_iterations=S, seed=0))
    assert res.state.n_component_gradients == S * (n + m)
    assert res.state.s == S  # one snapshot (full gradient) per outer iteration
    assert res.state.n_inner_steps == S * m
    counts = [r.cumulative_component_gradients for r in res.records]
    assert counts == sorted(counts)
    assert res.records[-1].cumulative_component_gradients == S * (n + m)


def test_variance_reduction_collapse(rng):
    # when lam equals the anchor, the estimator is exactly the snapshot
    oracle = random_oracle(rng, 4, eta=0.3)
    anchor = rng.normal(size=4)
    u = oracle.full_gradient(anchor)
    snap = oracle.snapshot(anchor)
    rows = snap.anchors(np.arange(4))
    out = np.empty(4)
    for i in range(4):
        p_i = oracle.sampling_weights().weights[i]
        got = variance_reduced_gradient(oracle, i, anchor, rows[i], 4 * p_i, snap.gradient, out)
        assert np.allclose(got, u, atol=1e-15)


def test_estimator_unbiased_exhaustive(rng):
    # p-weighted average over all components equals the full gradient
    n = 4
    oracle = random_oracle(rng, n, eta=0.2)
    weights = oracle.sampling_weights().weights
    for _ in range(50):
        lam = rng.normal(size=n)
        anchor = rng.normal(size=n)
        snap = oracle.snapshot(anchor)
        rows = snap.anchors(np.arange(n))
        acc = np.zeros(n)
        out = np.empty(n)
        for i in range(n):
            variance_reduced_gradient(oracle, i, lam, rows[i], n * weights[i], snap.gradient, out)
            acc += weights[i] * out
        assert np.abs(acc - oracle.full_gradient(lam)).max() < 1e-12


def test_first_outer_mixing_drops_y(rng):
    # at s=0 the mixing weight on y is zero: lambda_1 = z_0/2 + lambda_tilde/2
    oracle = random_oracle(rng, 3, eta=0.4)
    options = SolverOptions(inner_iterations=1, outer_iterations=1, seed=9)
    state = init_state(oracle, options)
    state.y[:] = rng.normal(size=3)  # must not influence lambda_1
    state.z[:] = rng.normal(size=3)
    state.lambda_tilde[:] = rng.normal(size=3)
    state.snapshot = oracle.snapshot(state.lambda_tilde)
    expected = 0.5 * state.z + 0.5 * state.lambda_tilde
    i = state.sampler.draw(state.rng)
    inner_step(state, oracle, step_constants(state, options), i, state.snapshot.anchors([i])[0])
    assert np.allclose(state.lambda_cur, expected, atol=1e-15)


def test_inner_step_called_once_per_step(rng, monkeypatch):
    # through the module global, so a wrapper (a profiler's span) sees every
    # step, with the components in stream order
    seen = []
    original = pdasgd.solver.inner_step

    def counting(state, oracle, step, i, anchor):
        seen.append(i)
        return original(state, oracle, step, i, anchor)

    monkeypatch.setattr(pdasgd.solver, "inner_step", counting)
    m, S, seed = 3, 5, 2
    oracle = random_oracle(rng, 6, eta=0.3)
    res = run(oracle, SolverOptions(inner_iterations=m, outer_iterations=S, seed=seed))
    assert len(seen) == res.state.n_inner_steps == S * m
    stream = SplitMix64(seed)
    sampler = CategoricalSampler(oracle.sampling_weights().weights)
    expected = []
    for _ in range(S):
        stream.next_index(m)
        expected += [sampler.draw(stream) for _ in range(m)]
    assert seen == expected


def test_quadratic_oracle_converges():
    oracle = QuadraticOracle([3.0, -1.0, 2.0])
    res = run(oracle, SolverOptions(inner_iterations=10, outer_iterations=200, seed=1))
    assert np.linalg.norm(res.dual - oracle.target) <= 1e-3
    assert np.linalg.norm(res.primal - oracle.target) <= 1e-3
    # the workspace owns the average: its total weight, the average and its sums
    ws = res.state.workspace
    assert ws.weight == pytest.approx(sum(1.0 / tau1(s) for s in range(200)))
    assert res.primal.tobytes() == ws.average().tobytes()
    assert all(m.tobytes() == res.primal.tobytes() for m in ws.marginals())


def test_stationary_start_keeps_gap_tiny():
    half = Distribution(np.array([0.5, 0.5]))
    cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    oracle = SemiDualOracle(OTInstance(cost, half, half, eta=1.0))
    res = run(oracle, SolverOptions(inner_iterations=2, outer_iterations=1, seed=5))
    assert abs(res.records[0].duality_gap) <= 1e-10


def test_bitwise_determinism(rng):
    oracle = random_oracle(rng, 6, eta=0.2)
    options = SolverOptions(inner_iterations=4, outer_iterations=20, seed=123)
    r1 = run(oracle, options)
    r2 = run(oracle, options)
    assert np.array_equal(r1.dual, r2.dual)
    assert np.array_equal(r1.primal, r2.primal)
    for a, b in zip(r1.records, r2.records):
        assert a == b  # dataclass equality, bit-for-bit floats


def test_seed_changes_trajectory(rng):
    oracle = random_oracle(rng, 6, eta=0.2)
    r1 = run(oracle, SolverOptions(inner_iterations=4, outer_iterations=5, seed=1))
    r2 = run(oracle, SolverOptions(inner_iterations=4, outer_iterations=5, seed=2))
    assert not np.array_equal(r1.dual, r2.dual)


def test_primal_average_row_feasible(rng):
    # averaged primal is a convex combination of primal maps
    oracle = random_oracle(rng, 5, eta=0.2)
    res = run(oracle, SolverOptions(inner_iterations=3, outer_iterations=10, seed=2))
    x = res.primal
    assert x.min() >= 0
    assert np.abs(x.sum(axis=1) - oracle.alpha).max() < 1e-13
    assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_stopping_rule_fires(rng):
    oracle = random_oracle(rng, 4, eta=0.3)
    calls = []

    def stop(record, marginals, gap):
        calls.append(record.outer_index)
        if record.outer_index == 2:
            assert gap() == gap() == record.duality_gap
        return "enough" if record.outer_index >= 3 else None

    res = run(oracle, SolverOptions(inner_iterations=2, outer_iterations=50, seed=0), stop=stop)
    assert res.stop_reason == "enough"
    assert res.state.s == 3
    assert calls == [1, 2, 3]
    # only the checkpoint whose rule asked for the gap carries it
    assert [r.duality_gap is not None for r in res.records] == [False, True, False]
    assert [r.primal_objective is not None for r in res.records] == [False, True, False]


def test_stale_gap_raises(rng):
    # a gap kept past its checkpoint would read the next iteration's x_s
    oracle = random_oracle(rng, 4, eta=0.3)
    kept = []

    def stop(record, marginals, gap):
        if kept:
            with pytest.raises(RuntimeError, match="outer iteration 1 at outer iteration 2"):
                kept[0]()
            return "checked"
        kept.append(gap)
        return None

    res = run(oracle, SolverOptions(inner_iterations=2, outer_iterations=5, seed=0), stop=stop)
    assert res.stop_reason == "checked"
    assert [r.duality_gap for r in res.records] == [None, None]


def test_every_outer_iteration_is_a_checkpoint(rng):
    oracle = random_oracle(rng, 4, eta=0.3)
    res = run(oracle, SolverOptions(inner_iterations=2, outer_iterations=10, seed=0))
    assert [r.outer_index for r in res.records] == list(range(1, 11))


def test_initial_dual_option(rng):
    oracle = random_oracle(rng, 4, eta=0.3)
    v0 = rng.normal(size=4)
    options = SolverOptions(inner_iterations=2, outer_iterations=1, seed=0, initial_dual=v0)
    state = init_state(oracle, options)
    assert np.array_equal(state.lambda_tilde, v0)
    assert np.array_equal(state.z, v0)
    with pytest.raises(ValueError):
        init_state(oracle, SolverOptions(inner_iterations=2, outer_iterations=1, initial_dual=np.zeros(7)))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_detection(rng):
    class ExplodingOracle(QuadraticOracle):
        def component_gradient(self, i, lam, out=None):
            if out is None:
                out = np.empty_like(lam)
            out[:] = np.inf
            return out

        def snapshot(self, lam):
            return QuadraticSnapshot(np.full_like(lam, np.inf))

    with pytest.raises(DivergenceError):
        run(ExplodingOracle([1.0, 2.0]), SolverOptions(inner_iterations=2, outer_iterations=3, seed=0))


def test_convergence_rate_consistency(rng):
    # |duality gap| on a fixed instance shrinks at least 3x from S=50 to S=200
    n = 16
    oracle = random_oracle(rng, n, eta=0.1)
    gaps_50, gaps_200 = [], []
    for seed in range(20):
        res = run(
            oracle,
            SolverOptions(inner_iterations=n, outer_iterations=200, seed=seed),
        )
        by_index = {r.outer_index: abs(r.duality_gap) for r in res.records}
        gaps_50.append(by_index[50])
        gaps_200.append(by_index[200])
    assert np.median(gaps_200) <= np.median(gaps_50) / 3


def test_record_metrics_match_oracle(rng):
    oracle = random_oracle(rng, 5, eta=0.25)
    options = SolverOptions(inner_iterations=3, outer_iterations=4, seed=11)
    state = init_state(oracle, options)
    for _ in range(4):
        outer_iteration(state, oracle, options)
    record, (rows, cols) = make_record(state)
    assert record.primal_objective is None and record.duality_gap is None
    assert certify(record, state, oracle) == record.duality_gap
    x_s = state.workspace.average()
    assert np.allclose(rows, x_s.sum(axis=1), rtol=0, atol=1e-15)
    assert np.allclose(cols, x_s.sum(axis=0), rtol=0, atol=1e-15)
    assert record.primal_objective == pytest.approx(oracle.primal_objective(x_s))
    assert record.constraint_violation_l1 == pytest.approx(oracle.constraint_violation_l1(x_s))
    assert record.duality_gap == pytest.approx(
        oracle.primal_objective(x_s) + oracle.dual_value(state.lambda_tilde)
    )


def _counted(name):
    def method(self, *args, **kwargs):
        self.calls[name] += 1
        return getattr(SemiDualOracle, name)(self, *args, **kwargs)

    return method


class CountingWorkspace(KernelWorkspace):
    def snapshot(self, v):
        self.oracle.calls["workspace.snapshot"] += 1
        return super().snapshot(v)

    def accumulate(self, v, weight):
        self.oracle.calls["workspace.accumulate"] += 1
        return super().accumulate(v, weight)


class CountingOracle(SemiDualOracle):
    def __init__(self, instance):
        super().__init__(instance)
        self.calls = Counter()

    def workspace(self):
        return CountingWorkspace(self)


for _name in ("snapshot", "primal_map", "component_gradient", "full_gradient", "dual_value", "constraint_violation_l1"):
    setattr(CountingOracle, _name, _counted(_name))


def test_one_snapshot_per_outer_iteration(rng):
    n, m, S = 6, 4, 5
    oracle = CountingOracle(random_instance(rng, n, eta=0.3))
    options = SolverOptions(inner_iterations=m, outer_iterations=S, seed=3)
    state = init_state(oracle, options)
    # the init snapshot of lambda_tilde, taken by the run's workspace
    assert oracle.calls == Counter({"workspace.snapshot": 1})
    for _ in range(S):
        before = oracle.calls.copy()
        outer_iteration(state, oracle, options)
        make_record(state)
        # no dense oracle pass: the workspace snapshots and accumulates
        assert oracle.calls - before == Counter(
            {"workspace.snapshot": 1, "workspace.accumulate": 1, "component_gradient": m}
        )

    oracle.calls = Counter()
    run(oracle, options)
    assert oracle.calls == Counter(
        {"workspace.snapshot": S + 1, "workspace.accumulate": S, "component_gradient": S * m}
    )


def test_kernel_rebuilds_are_rare(monkeypatch):
    # a certified 64-point solve re-bases its kernel in at most a tenth of
    # its outer iterations
    rebuilds = []
    rebuild = KernelWorkspace.rebuild

    def counted(self, v):
        rebuilds.append(v.copy())
        return rebuild(self, v)

    monkeypatch.setattr(KernelWorkspace, "rebuild", counted)
    alpha, beta, cost = make_image_pair(0, 8, 0)
    for profile, kappa in (("benchmark", 8), ("theory", 32)):
        rebuilds.clear()
        result = approx_ot(cost, alpha, beta, ApproxConfig(epsilon=0.05, solver_profile=profile, kappa=kappa, seed=0))
        assert result.stop_reason == "gap+marginal"
        assert 1 <= len(rebuilds) <= result.outer_iterations / 10


def test_theory_profile_replay():
    # stop index, op count and ot_value of a certified theory-profile solve
    alpha, beta, cost = make_image_pair(0, 8, 0)
    config = ApproxConfig(epsilon=0.05, solver_profile="theory", kappa=32, seed=0)
    result = approx_ot(cost, alpha, beta, config)
    assert result.outer_iterations == 565
    assert result.op_counts["component_gradients"] == 72320
    assert result.ot_value == pytest.approx(0.013563316950434157, abs=1e-12)


def test_benchmark_profile_replay():
    # the dense path's trajectory: stop index, op count, final gap and ot_value
    alpha, beta, cost = make_image_pair(0, 8, 0)
    config = ApproxConfig(epsilon=0.05, solver_profile="benchmark", kappa=8, seed=0)
    result = approx_ot(cost, alpha, beta, config)
    assert result.stop_reason == "gap+marginal"
    assert result.outer_iterations == 292
    assert result.op_counts["component_gradients"] == 23360
    assert result.records[-1].duality_gap == pytest.approx(-0.00013520071328123294, abs=1e-12)
    assert result.ot_value == pytest.approx(0.013555110721631031, abs=1e-12)
