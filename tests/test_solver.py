import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pdasgd.solver
from conftest import QuadraticOracle, assert_batch_corrections, QuadraticSnapshot, estimator, random_instance, random_oracle, snapshot_rows
from conftest import captured_states, certify_every, finite_only, never_stop
from pdasgd.approx import ApproxConfig, approx_ot, derive_parameters, resolve_profile, smooth_marginals
from pdasgd.bench import make_image_pair
from pdasgd.core import STOP_DIVERGED, CostMatrix, Distribution, OTInstance, as_weights
from pdasgd.rng import CategoricalSampler, SplitMix64
from pdasgd.semidual import KernelSnapshot, KernelWorkspace, SemiDualOracle
from pdasgd.solver import (
    TAU2,
    C,
    T,
    SolverOptions,
    certify,
    gamma,
    init_state,
    outer_iteration,
    run,
    step_matrices,
    tau1,
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
        ("seed", None),
        ("seed", 1.5),
        ("seed", "x"),
        ("seed", True),
        ("batch", 0),
        ("batch", -2),
        ("batch", 2.0),
        ("batch", False),
        ("batch", "2"),
        ("batch", 3),  # does not divide inner_iterations = 2
    ],
)
def test_options_reject_bad_values_at_entry(field, value):
    # before: inner_iterations = 2.5 raised a TypeError in the index draw,
    # outer_iterations = 2.5 a TypeError in range(), z_step_multiplier = NaN
    # a divergence after outer iteration 1, and True was run as 1; seed =
    # None raised a TypeError in the generator and 1.5 ran as seed 1
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
    with captured_states() as states:
        run(oracle, SolverOptions(inner_iterations=2, outer_iterations=3, seed=0), never_stop)
    (state,) = states
    assert state.workspace.weight == pytest.approx(2 + 2.5 + 3)


def test_operation_counter(rng):
    n, m, S = 5, 3, 7
    oracle = random_oracle(rng, n, eta=0.5)
    res = run(oracle, SolverOptions(inner_iterations=m, outer_iterations=S, seed=0), never_stop)
    assert res.op_counts["component_gradients"] == S * (n + m)
    assert res.iterations == S  # one snapshot (full gradient) per outer iteration
    assert res.op_counts["inner_steps"] == S * m
    assert res.op_counts == {"component_gradients": S * (n + m), "inner_steps": S * m}
    counts = [r.cumulative_component_gradients for r in res.records]
    assert counts == sorted(counts)
    assert res.records[-1].cumulative_component_gradients == S * (n + m)


def test_variance_reduction_collapse(rng):
    # when lam equals the anchor, the estimator is exactly the snapshot
    oracle = random_oracle(rng, 4, eta=0.3)
    anchor = rng.normal(size=4)
    u = oracle.full_gradient(anchor)
    snapshot = oracle.snapshot(anchor)
    for i in range(4):
        got = estimator(oracle, snapshot, i, anchor)
        assert np.allclose(got, u, atol=1e-15)


def test_estimator_unbiased_exhaustive(rng):
    # p-weighted average over all components equals the full gradient
    n = 4
    for oracle in (random_oracle(rng, n, eta=0.2), QuadraticOracle(rng.normal(size=n))):
        weights = as_weights(oracle.sampling_weights())
        h = weights.size
        for _ in range(50):
            lam = rng.normal(size=n)
            anchor = rng.normal(size=n)
            snapshot = oracle.snapshot(anchor)
            acc = np.zeros(n)
            for i in range(h):
                acc += weights[i] * estimator(oracle, snapshot, i, lam)
            assert np.abs(acc - oracle.snapshot(lam).gradient).max() < 1e-12


def test_first_outer_mixing_drops_y(rng, monkeypatch):
    # at s=0 the mixing weight on y is zero: lambda_1 = z_0/2 + lambda_tilde/2
    oracle = random_oracle(rng, 3, eta=0.4)
    options = SolverOptions(inner_iterations=1, outer_iterations=1, seed=9)
    state = init_state(oracle, options)
    state.y[:] = rng.normal(size=3)  # must not influence lambda_1
    state.z[:] = rng.normal(size=3)
    state.lambda_tilde[:] = rng.normal(size=3)
    state.snapshot = oracle.snapshot(state.lambda_tilde)
    expected = 0.5 * state.z + 0.5 * state.lambda_tilde
    anchor = state.lambda_tilde.copy()
    first_t = []
    original = pdasgd.solver.inner_step

    def reading(state, oracle, update, steps):
        first_t.append(state.blocks[1, T].copy())
        return original(state, oracle, update, steps)

    monkeypatch.setattr(pdasgd.solver, "inner_step", reading)
    outer_iteration(state, oracle, options)
    # lambda itself is never formed; the one step's gradient was taken at
    # t = Lbar lambda + a'_i, for the component drawn for it
    i = CategoricalSampler(oracle.sampling_weights()).draw(SplitMix64(9))
    (a_i,), _ = snapshot_rows(oracle.snapshot(anchor), [i], 3)
    lambda_cur = (first_t[0] - a_i) / state.avg_smoothness
    assert np.allclose(lambda_cur, expected, atol=1e-15)


def test_inner_step_called_once_per_step(rng, monkeypatch):
    # once per chunk of steps, through the module global, so a wrapper (a
    # profiler's span) sees every chunk, with the components in stream order
    seen = []
    original = pdasgd.solver.inner_step

    def counting(state, oracle, update, steps):
        seen.append((state.snapshot, state.blocks[1:steps + 1, C].copy()))
        return original(state, oracle, update, steps)

    monkeypatch.setattr(pdasgd.solver, "inner_step", counting)
    m, S, seed = 5, 4, 2
    oracle = random_oracle(rng, 6, eta=0.3)
    for chunk, lengths in ((2, [2, 2, 1]), (64, [5])):
        seen.clear()
        monkeypatch.setattr(pdasgd.solver, "CHUNK_STEPS", chunk)
        res = run(oracle, SolverOptions(inner_iterations=m, outer_iterations=S, seed=seed), never_stop)
        assert res.op_counts["inner_steps"] == S * m
        assert [len(c) for _, c in seen] == lengths * S
        stream = SplitMix64(seed)
        sampler = CategoricalSampler(oracle.sampling_weights())
        expected = iter([sampler.draw(stream) for _ in range(S * m)])
        # each step's block holds the correction of the component drawn for it
        for snapshot, corrections in seen:
            _, want = snapshot_rows(snapshot, [next(expected) for _ in corrections], 6)
            assert corrections.tobytes() == want.tobytes()


def reference_run(oracle, options):
    """The module docstring's four update lines, written plainly, on run()'s draws.

    A batched step's g averages its b components' variance-reduced gradients.

    Returns (z, y, lambda_tilde, primal average) after the options' outer
    iterations, from the reference snapshot, component gradients and primal
    map; the average weights the map of each new lambda_tilde by 1/tau1_s.
    """
    weights = as_weights(oracle.sampling_weights())
    h = weights.size
    smoothness = oracle.average_smoothness()
    stream, sampler = SplitMix64(options.seed), CategoricalSampler(Distribution(weights))
    m, b = options.inner_iterations, options.batch
    lam0 = np.zeros(oracle.dual_dimension) if options.initial_dual is None else options.initial_dual
    z, y, lam_tilde = lam0.copy(), lam0.copy(), lam0.copy()
    total, weight = 0.0, 0.0
    for s in range(options.outer_iterations):
        u = oracle.snapshot(lam_tilde).gradient
        ys = []
        for _ in range(m // b):
            batch = [sampler.draw(stream) for _ in range(b)]
            lam = tau1(s) * z + TAU2 * lam_tilde + (1 - tau1(s) - TAU2) * y
            g = u + np.mean([
                (oracle.component_gradient(i, lam) - oracle.component_gradient(i, lam_tilde)) / (h * weights[i])
                for i in batch
            ], axis=0)
            z = z - options.z_step_multiplier * gamma(s, smoothness) * g / 2
            y = lam - g / (9 * smoothness)
            ys.append(y)
        lam_tilde = np.mean(ys, axis=0)
        total = total + oracle.primal_map(lam_tilde) / tau1(s)
        weight += 1.0 / tau1(s)
    return z, y, lam_tilde, total / weight


def assert_matches_reference_run(oracle, options, state, res, rows):
    """z, y and lambda_tilde of a run within their rounding bound of :func:`reference_run`'s, its primal average to 1e-12.

    ``rows`` is the scale R of the rows each inner step's g is made of.
    Each step forms g = u + (row at lam) - (row at lambda_tilde), and the
    solver and the reference round each row entry to a few ulps of R (the
    exp, the sum and the divide; the reference's n alpha_i scaling and its
    division by h p_i), whatever the size of g: c = 8 ulps of R in all.
    The z step carries that rounding into z times multiplier * gamma_s / 2,
    the y step into y times 1 / (9 Lbar), and lam, y and lambda_tilde are
    convex combinations of z, y and lambda_tilde, so over the run's m / b
    steps per outer iteration

        atol = c eps R sum_s (m / b) (multiplier gamma_s / 2 + 1 / (9 Lbar)).

    From a zero start, where z is smallest, z's error reached 1.5 eps R
    times that sum in 2000 random runs of the chunked test.  Each update
    also rounds to a few ulps of the iterate itself, at most 4 * 36 of
    them: the rtol of 1e-12 covers those.
    """
    smoothness, m = oracle.average_smoothness(), options.inner_iterations // options.batch
    steps = sum(options.z_step_multiplier * gamma(s, smoothness) / 2 + 1 / (9 * smoothness) for s in range(options.outer_iterations))
    atol = 8 * np.finfo(float).eps * rows * m * steps
    got = (state.z, state.y, res.dual)
    want = reference_run(oracle, options)
    for name, a, b in zip(("z", "y", "lambda_tilde"), got, want):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max() + atol, name
    assert np.abs(res.plan - want[3]).max() <= 1e-12 * np.abs(want[3]).max(), "primal average"


# The rows of a semi-dual step are grad g_i / (h p_i) = softmax_i - beta
# (h = n, p = alpha), and their means over b components: every entry lies
# in [-1, 1].  The quadratic oracle's rows are lam - target, differences of
# iterates whose rounding the relative bound already covers.
SEMIDUAL_ROWS, QUADRATIC_ROWS = 1.0, 0.0


@pytest.mark.parametrize("case", ["semidual-m<n", "semidual-m=n", "quadratic", "semidual-initial-y"])
def test_run_reproduces_the_reference_loop(case):
    rng = np.random.default_rng(7)
    n = 6
    oracle = QuadraticOracle(rng.normal(size=n)) if case == "quadratic" else random_oracle(rng, n, eta=0.2)
    options = SolverOptions(inner_iterations=3 if case == "semidual-m<n" else n, outer_iterations=6, seed=4)
    if case == "semidual-m<n":
        options.z_step_multiplier = 15.0
    if case == "semidual-initial-y":
        # y is nonzero at s = 0, where its weight 1 - tau1 - tau2 is 0
        options.initial_dual = rng.normal(size=n)
    with captured_states() as states:
        res = run(oracle, options, never_stop)
    (state,) = states
    assert_matches_reference_run(oracle, options, state, res, QUADRATIC_ROWS if case == "quadratic" else SEMIDUAL_ROWS)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    m=st.sampled_from(["1", "2", "n", "3n"]),
    multiplier=st.sampled_from([1.0, 15.0]),
    random_start=st.booleans(),
    quadratic=st.booleans(),
    chunk=st.integers(1, 5),
)
# z's entries are about 1e-5 here, and its error of 9.6e-18 is 1.04e-12 of them
@example(seed=7660, n=2, m="1", multiplier=1.0, random_start=False, quadratic=False, chunk=1)
def test_run_in_chunks_reproduces_the_reference_loop(seed, n, m, multiplier, random_start, quadratic, chunk):
    # chunks of 1 to 5 steps put chunk boundaries inside the inner loops
    rng = np.random.default_rng(seed)
    oracle = QuadraticOracle(rng.normal(size=n)) if quadratic else random_oracle(rng, n, eta=0.2)
    options = SolverOptions(
        inner_iterations={"1": 1, "2": 2, "n": n, "3n": 3 * n}[m],
        outer_iterations=4,
        seed=seed,
        z_step_multiplier=multiplier,
        initial_dual=rng.normal(size=n) if random_start else None,
    )
    with pytest.MonkeyPatch.context() as patch, captured_states() as states:
        patch.setattr(pdasgd.solver, "CHUNK_STEPS", chunk)
        res = run(oracle, options, never_stop)
    (state,) = states
    assert len(state.blocks) == min(chunk, options.inner_iterations) + 2
    assert_matches_reference_run(oracle, options, state, res, QUADRATIC_ROWS if quadratic else SEMIDUAL_ROWS)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    b=st.sampled_from([2, 3, 4]),
    steps=st.sampled_from([1, 2, 4, 5]),
    random_start=st.booleans(),
    chunk=st.integers(1, 5),
)
def test_batched_run_reproduces_the_reference_loop(seed, n, b, steps, random_start, chunk):
    # kernel-form batched steps, in chunks of 1 to 5, against the plain
    # lines with g averaged over each step's b components
    rng = np.random.default_rng(seed)
    oracle = random_oracle(rng, n, eta=0.2)
    options = SolverOptions(
        inner_iterations=b * steps,
        outer_iterations=4,
        seed=seed,
        z_step_multiplier=15.0 * b,
        initial_dual=rng.normal(size=n) if random_start else None,
        batch=b,
    )
    with pytest.MonkeyPatch.context() as patch, captured_states() as states:
        patch.setattr(pdasgd.solver, "CHUNK_STEPS", chunk)
        res = run(oracle, options, never_stop)
    (state,) = states
    assert len(state.blocks) == min(chunk, steps) + 2
    assert res.op_counts == {"component_gradients": 4 * (n + b * steps), "inner_steps": 4 * steps}
    assert_matches_reference_run(oracle, options, state, res, SEMIDUAL_ROWS)


def test_batched_steps_run_through_inner_step(rng, monkeypatch):
    # the module global sees every chunk of batched steps too, and each
    # step's block holds the mean correction of its b components, drawn in
    # stream order, to the rounding of the kernel and log-domain rows
    seen = []
    original = pdasgd.solver.inner_step

    def counting(state, oracle, update, steps):
        seen.append((state.snapshot, state.blocks[1:steps + 1, C].copy()))
        return original(state, oracle, update, steps)

    monkeypatch.setattr(pdasgd.solver, "inner_step", counting)
    monkeypatch.setattr(pdasgd.solver, "CHUNK_STEPS", 3)
    m, b, S, seed = 8, 2, 3, 5
    oracle = random_oracle(rng, 6, eta=0.3)
    res = run(oracle, SolverOptions(inner_iterations=m, outer_iterations=S, seed=seed, batch=b), never_stop)
    assert res.op_counts["inner_steps"] == S * m // b
    assert [len(c) for _, c in seen] == [3, 1] * S
    stream = SplitMix64(seed)
    sampler = CategoricalSampler(oracle.sampling_weights())
    expected = iter([sampler.draw(stream) for _ in range(S * m)])
    for snapshot, corrections in seen:
        assert_batch_corrections(snapshot, [next(expected) for _ in range(b * len(corrections))], corrections)


def test_run_draws_only_the_components(rng):
    # the stream's one use is the m component draws of each outer iteration
    m, S, seed = 3, 7, 5
    with captured_states() as states:
        run(random_oracle(rng, 6, eta=0.3), SolverOptions(inner_iterations=m, outer_iterations=S, seed=seed), never_stop)
    (state,) = states
    fresh = SplitMix64(seed)
    fresh.doubles(S * m)
    assert state.rng.next_uint64() == fresh.next_uint64()


@pytest.mark.parametrize("bound, batches", [(7, [6, 6, 3]), (2, [3] * 5)])
def test_component_draws_batch_across_outer_iterations(rng, monkeypatch, bound, batches):
    # a bound of 7 draws at m = 3 batches two outer iterations at a time, so
    # batch boundaries fall inside the run, and the last batch is cut to the
    # one outer iteration left; a bound below m batches one at a time
    drawn, counts = [], []
    rows, draws = KernelSnapshot.rows, CategoricalSampler.draws

    def recording(self, indices, *views):
        drawn.extend(int(i) for i in indices)
        return rows(self, indices, *views)

    def counting(self, rng, count):
        counts.append(count)
        return draws(self, rng, count)

    monkeypatch.setattr(KernelSnapshot, "rows", recording)
    monkeypatch.setattr(CategoricalSampler, "draws", counting)
    monkeypatch.setattr(pdasgd.solver, "DRAW_BATCH", bound)
    monkeypatch.setattr(pdasgd.solver, "CHUNK_STEPS", 2)  # chunk boundaries as well
    m, S, seed = 3, 5, 11
    oracle = random_oracle(rng, 6, eta=0.3)
    with captured_states() as states:
        run(oracle, SolverOptions(inner_iterations=m, outer_iterations=S, seed=seed), never_stop)
    (state,) = states
    assert counts == batches
    stream = SplitMix64(seed)
    sampler = CategoricalSampler(oracle.sampling_weights())
    assert drawn == [sampler.draw(stream) for _ in range(S * m)]
    assert state.rng.next_uint64() == stream.next_uint64()


def stacked_step_matrix(s, avg_smoothness, multiplier):
    """The step matrix as three np.array rows and one np.stack, as a bitwise reference."""
    w_y = 1.0 - tau1(s) - TAU2
    y_coef = -1.0 / (9.0 * avg_smoothness)
    p_coef = -(tau1(s) * (multiplier * gamma(s, avg_smoothness) / 2.0))
    y_row = np.array([w_y, 1.0, 0.0, y_coef, y_coef, 0.0])
    p_row = np.array([0.0, 1.0, 0.0, p_coef, p_coef, 0.0])
    t_row = avg_smoothness * (p_row + w_y * y_row) + [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    return np.stack([y_row, p_row, t_row])


@settings(max_examples=200, deadline=None)
@given(
    s=st.integers(0, 10**4),
    multiplier=st.sampled_from([1.0, 15.0]),
    avg_smoothness=st.sampled_from([1.0, 20.0, 1 / 1.13e-3]),
)
def test_step_matrix_is_bitwise_the_stacked_rows(s, multiplier, avg_smoothness):
    (out,), (t1,), (w_y,) = step_matrices(np.array([s]), avg_smoothness, multiplier)
    assert out.tobytes() == stacked_step_matrix(s, avg_smoothness, multiplier).tobytes()
    assert (t1, w_y) == (tau1(s), 1.0 - tau1(s) - TAU2)


@pytest.mark.parametrize("start", [0, 63, 127])
@pytest.mark.parametrize("multiplier", [1.0, 15.0])
def test_step_matrices_of_a_batch_are_bitwise_the_stacked_rows(start, multiplier):
    # one vectorised pass over a draw batch's outer indices gives each row
    # the bits of that index alone
    s = np.arange(start, start + 64)
    matrices, t1, w_y = step_matrices(s, 1 / 1.13e-3, multiplier)
    assert matrices.shape == (64, 3, 6)
    for j, index in enumerate(s.tolist()):
        assert matrices[j].tobytes() == stacked_step_matrix(index, 1 / 1.13e-3, multiplier).tobytes()
        assert (t1[j], w_y[j]) == (tau1(index), 1.0 - tau1(index) - TAU2)


@pytest.mark.parametrize("outer_iterations", [150, 200])
def test_each_outer_iteration_steps_with_its_own_step_matrix(rng, monkeypatch, outer_iterations):
    # draw batches of 63 outer iterations start at 0, 63 and 126; the last
    # is cut to a budget of 150, and a rule that stops at 140 ends the run
    # inside a batch.  Every outer iteration's steps take the step matrix of
    # its own index, and the batches draw only their outer iterations' m
    # components each
    m, seen, counts = 2, [], []
    step, draws = pdasgd.solver.inner_step, CategoricalSampler.draws

    def recording(state, oracle, update, steps):
        seen.append((state.s, update.tobytes()))
        return step(state, oracle, update, steps)

    def counting(self, rng, count):
        counts.append(count)
        return draws(self, rng, count)

    monkeypatch.setattr(pdasgd.solver, "inner_step", recording)
    monkeypatch.setattr(CategoricalSampler, "draws", counting)
    monkeypatch.setattr(pdasgd.solver, "DRAW_BATCH", 63 * m)
    options = SolverOptions(inner_iterations=m, outer_iterations=outer_iterations, seed=3, z_step_multiplier=15.0)
    oracle = random_oracle(rng, 4, eta=0.3)
    res = run(oracle, options, lambda point: "enough" if point.index == 140 else None)
    assert res.iterations == 140
    assert counts == [63 * m, 63 * m, (24 if outer_iterations == 150 else 63) * m]
    Lbar = oracle.average_smoothness()
    assert seen == [(s, stacked_step_matrix(s, Lbar, 15.0).tobytes()) for s in range(140)]


@pytest.mark.parametrize("b", [1, 2])
def test_chunk_views_share_the_state_buffers(rng, monkeypatch, b):
    # every view an outer iteration reads or writes is built once, into the
    # block buffer or the rows buffer, which exists at every b
    monkeypatch.setattr(pdasgd.solver, "CHUNK_STEPS", 3)
    m, n = 8, 5  # 8 / b steps: chunks of 3, 3 and 2 at b = 1, of 3 and 1 at b = 2
    oracle = random_oracle(rng, n, eta=0.3)
    state = init_state(oracle, SolverOptions(inner_iterations=m, outer_iterations=2, batch=b))
    bounds = [(0, 3, 3), (3, 6, 3), (6, 8, 2)] if b == 1 else [(0, 6, 3), (6, 8, 1)]
    assert [chunk[:3] for chunk in state._chunks] == bounds
    buffer = state._steps[0][4].base  # the rows buffer, which the state reaches only through its views
    assert buffer.shape == (3 * b, n)
    snap = state.snapshot
    for lo, hi, steps, anchors, corrections, rows, tail, ys, last in state._chunks:
        assert anchors.shape == corrections.shape == ys.shape == (steps, n)
        assert rows.shape == (steps * b, n) and np.shares_memory(rows, buffer)
        for view in (anchors, corrections, tail, ys, last):
            assert np.shares_memory(view, state.blocks)
        # the snapshot writes the chunk's rows into the buffer: at b = 1 the
        # log form's arithmetic, ending in the softmax rows at the anchor, at
        # b = 2 the kernel rows the steps read
        idx = rng.integers(n, size=hi - lo)
        snap.rows(idx, anchors, rows, corrections)
        want = np.exp(anchors + snap.v / oracle.eta) if b == 1 else snap.kernel[idx]
        assert rows.tobytes() == want.tobytes()
    for view in state._first:
        assert np.shares_memory(view, state.blocks)
    for *views, rows in state._steps:
        assert all(np.shares_memory(view, state.blocks) for view in views)
        assert rows.shape == (b, n) and np.shares_memory(rows, buffer)
    assert state._mean == b / m


def test_quadratic_oracle_converges():
    oracle = QuadraticOracle([3.0, -1.0, 2.0])
    with captured_states() as states:
        res = run(oracle, SolverOptions(inner_iterations=10, outer_iterations=200, seed=1), never_stop)
    (state,) = states
    assert np.linalg.norm(res.dual - oracle.target) <= 1e-3
    assert np.linalg.norm(res.plan - oracle.target) <= 1e-3
    # the workspace owns the average: its total weight, the average and its sums
    ws = state.workspace
    assert ws.weight == pytest.approx(sum(1.0 / tau1(s) for s in range(200)))
    assert res.plan.tobytes() == ws.average().tobytes()
    rows, cols, violation = ws.marginals()
    assert rows.tobytes() == cols.tobytes() == res.plan.tobytes() and violation == 0.0


def test_stationary_start_keeps_gap_tiny():
    half = Distribution(np.array([0.5, 0.5]))
    cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    oracle = SemiDualOracle(OTInstance(cost, half, half, eta=1.0))
    res = run(oracle, SolverOptions(inner_iterations=2, outer_iterations=1, seed=5), certify_every)
    assert abs(res.records[0].duality_gap) <= 1e-10


def test_bitwise_determinism(rng):
    oracle = random_oracle(rng, 6, eta=0.2)
    options = SolverOptions(inner_iterations=4, outer_iterations=20, seed=123)
    r1 = run(oracle, options, certify_every)
    r2 = run(oracle, options, certify_every)
    assert np.array_equal(r1.dual, r2.dual)
    assert np.array_equal(r1.plan, r2.plan)
    for a, b in zip(r1.records, r2.records):
        assert a == b  # dataclass equality, bit-for-bit floats


def test_seed_changes_trajectory(rng):
    oracle = random_oracle(rng, 6, eta=0.2)
    r1 = run(oracle, SolverOptions(inner_iterations=4, outer_iterations=5, seed=1), never_stop)
    r2 = run(oracle, SolverOptions(inner_iterations=4, outer_iterations=5, seed=2), never_stop)
    assert not np.array_equal(r1.dual, r2.dual)


def test_primal_average_row_feasible(rng):
    # averaged primal is a convex combination of primal maps
    oracle = random_oracle(rng, 5, eta=0.2)
    res = run(oracle, SolverOptions(inner_iterations=3, outer_iterations=10, seed=2), never_stop)
    x = res.plan
    assert x.min() >= 0
    assert np.abs(x.sum(axis=1) - oracle.alpha).max() < 1e-13
    assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_stopping_rule_fires(rng):
    oracle = random_oracle(rng, 4, eta=0.3)
    calls, gaps = [], []

    def stop(point):
        calls.append(point.index)
        if point.index == 2:
            gaps.extend((point.gap(), point.gap()))
        return "enough" if point.index >= 3 else None

    res = run(oracle, SolverOptions(inner_iterations=2, outer_iterations=50, seed=0), stop=stop)
    assert res.stop_reason == "enough"
    assert res.iterations == 3
    assert calls == [1, 2, 3]
    assert gaps[0] == gaps[1] == res.records[1].duality_gap
    # only the checkpoint whose rule asked for the gap carries it
    assert [r.duality_gap is not None for r in res.records] == [False, True, False]
    assert [r.primal_objective is not None for r in res.records] == [False, True, False]


def test_stale_gap_raises(rng):
    # a gap kept past its checkpoint would read the next iteration's x_s
    oracle = random_oracle(rng, 4, eta=0.3)
    kept = []

    def stop(point):
        if kept:
            with pytest.raises(RuntimeError, match="outer iteration 1 at outer iteration 2"):
                kept[0]()
            return "checked"
        kept.append(point.gap)
        return None

    res = run(oracle, SolverOptions(inner_iterations=2, outer_iterations=5, seed=0), stop=stop)
    assert res.stop_reason == "checked"
    assert [r.duality_gap for r in res.records] == [None, None]


def test_every_outer_iteration_is_a_checkpoint(rng):
    oracle = random_oracle(rng, 4, eta=0.3)
    res = run(oracle, SolverOptions(inner_iterations=2, outer_iterations=10, seed=0), never_stop)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_initial_dual_must_be_finite(bad):
    # before: a NaN start ran one outer iteration and returned "diverged" with no plan
    with pytest.raises(ValueError, match="initial_dual must be finite"):
        SolverOptions(2, 5, initial_dual=[bad, 0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "weights, message",
    [([0.5, 0.6], "distribution weights must sum to 1"), ([-0.1, 1.1], "distribution weights must be nonnegative")],
    ids=["sums-to-1.1", "negative"],
)
def test_sampling_weights_are_validated_as_a_distribution(weights, message):
    oracle = QuadraticOracle([1.0, 2.0])
    oracle.sampling_weights = lambda: np.array(weights)
    options = SolverOptions(inner_iterations=2, outer_iterations=1)
    with pytest.raises(ValueError, match=message):
        init_state(oracle, options)
    with pytest.raises(ValueError, match=message):
        run(oracle, options, never_stop)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_detection(rng):
    class ExplodingOracle(QuadraticOracle):
        def steps(self, steps, product):
            for t, h, block, after, _ in steps:
                h[:] = np.inf
                product(block, after)

        def snapshot(self, lam):
            return QuadraticSnapshot(lam, np.full_like(lam, np.inf))

    res = run(ExplodingOracle([1.0, 2.0]), SolverOptions(inner_iterations=2, outer_iterations=3, seed=0), finite_only)
    assert res.stop_reason == STOP_DIVERGED
    assert res.iterations == 1
    assert res.records == []
    assert res.plan is None


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergence_carries_the_run_so_far():
    class LateExplodingOracle(QuadraticOracle):
        def __init__(self, target):
            super().__init__(target)
            self.snapshots = 0

        def snapshot(self, lam):
            # the third snapshot, taken after outer iteration 2, is non-finite
            self.snapshots += 1
            return QuadraticSnapshot(lam, lam - self.target if self.snapshots < 3 else np.full_like(lam, np.inf))

    partial = run(LateExplodingOracle([1.0, 2.0]), SolverOptions(inner_iterations=2, outer_iterations=5, seed=0), finite_only)
    assert partial.stop_reason == STOP_DIVERGED
    finished = run(QuadraticOracle([1.0, 2.0]), SolverOptions(inner_iterations=2, outer_iterations=2, seed=0), never_stop)
    assert partial.iterations == 3
    assert [r.outer_index for r in partial.records] == [1, 2]
    # the average of the two finite outer iterations, as a run that stopped there
    assert partial.plan.tobytes() == finished.plan.tobytes()


def test_step_overflow_is_divergence_without_warnings():
    # At a z step of 1e5 the first outer iteration's drift passes 709 eta,
    # where a step's exp overflows.  The NaN it leaves is caught as
    # divergence, and no RuntimeWarning is raised on the way.  The previous
    # max-subtracted step ran all 3000 outer iterations here, uncertified.
    alpha, beta, cost = make_image_pair(0, 4, 0)
    eta, eps_prime = derive_parameters(0.05, cost)
    a_s, b_s = smooth_marginals(alpha, beta, eps_prime)
    oracle = SemiDualOracle(OTInstance(cost, a_s, b_s, eta))
    options = SolverOptions(inner_iterations=8, outer_iterations=3000, seed=0, z_step_multiplier=1e5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(oracle, options, never_stop)
    assert res.stop_reason == STOP_DIVERGED
    assert res.iterations == 1
    assert not np.isfinite(res.dual).all()
    assert res.records == []
    assert res.plan is None  # no finite iterate was averaged


@pytest.mark.parametrize("multiplier", [1e4, 1e5])
def test_batched_row_sum_underflow_is_divergence_without_warnings(multiplier):
    # Every softmax row at lam_tilde = 0 sits on column 0, so g = u moves
    # that column's drift 15 times faster, and downwards, than the others.
    # It passes -745 before any other passes 709, so each row sum r = S e
    # underflows to 0 and the step's 1 / (b r) divides by zero.  The inf
    # it leaves is caught as divergence, and no RuntimeWarning is raised.
    n = 16
    cost = np.ones((n, n))
    cost[:, 0] = 0.0
    uniform = Distribution(np.full(n, 1.0 / n))
    oracle = SemiDualOracle(OTInstance(CostMatrix(cost), uniform, uniform, 1e-3))
    options = SolverOptions(inner_iterations=8, outer_iterations=3000, z_step_multiplier=multiplier, batch=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(oracle, options, never_stop)
    assert res.stop_reason == STOP_DIVERGED
    assert res.iterations == 1
    assert res.plan is None


def test_convergence_rate_consistency(rng):
    # |duality gap| on a fixed instance shrinks at least 3x from S=50 to S=200
    n = 16
    oracle = random_oracle(rng, n, eta=0.1)
    gaps_50, gaps_200 = [], []
    for seed in range(20):
        res = run(
            oracle,
            SolverOptions(inner_iterations=n, outer_iterations=200, seed=seed),
            certify_every,
        )
        by_index = {r.outer_index: abs(r.duality_gap) for r in res.records}
        gaps_50.append(by_index[50])
        gaps_200.append(by_index[200])
    assert np.median(gaps_200) <= np.median(gaps_50) / 3


def test_record_metrics_match_oracle(rng):
    oracle = random_oracle(rng, 5, eta=0.25)
    options = SolverOptions(inner_iterations=3, outer_iterations=4, seed=11)
    points = []
    with captured_states() as states:
        res = run(oracle, options, points.append)  # keeps every checkpoint and never stops
    (state,) = states
    record, rows, cols = res.records[-1], points[-1].rows, points[-1].cols
    assert record.outer_index == state.s == 4
    assert record.cumulative_component_gradients == 4 * (5 + 3)
    assert points[-1].violation == record.constraint_violation_l1
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
    def snapshot(self, v, weight=0.0):
        self.oracle.calls["workspace.snapshot"] += 1
        return super().snapshot(v, weight)


class CountingOracle(SemiDualOracle):
    def __init__(self, instance):
        super().__init__(instance)
        self.calls = Counter()

    def workspace(self, v0):
        return CountingWorkspace(self, v0)

    def steps(self, steps, product):
        self.calls["steps"] += 1
        self.calls["inner steps"] += len(steps)
        return super().steps(steps, product)


for _name in (
    "snapshot",
    "primal_map",
    "component_gradient",
    "full_gradient",
    "dual_value",
    "constraint_violation_l1",
):
    setattr(CountingOracle, _name, _counted(_name))


def test_one_snapshot_per_outer_iteration(rng, monkeypatch):
    monkeypatch.setattr(pdasgd.solver, "CHUNK_STEPS", 3)  # two chunks per outer iteration
    n, m, S = 6, 4, 5
    per_outer = Counter({"workspace.snapshot": 1, "steps": 2, "inner steps": m})  # one loop call per chunk
    oracle = CountingOracle(random_instance(rng, n, eta=0.3))
    options = SolverOptions(inner_iterations=m, outer_iterations=S, seed=3)
    state = init_state(oracle, options)
    # the init snapshot of lambda_tilde, taken by the run's workspace
    assert oracle.calls == Counter({"workspace.snapshot": 1})
    for _ in range(S):
        before = oracle.calls.copy()
        outer_iteration(state, oracle, options)
        # no dense oracle pass: the workspace snapshots, which also accumulates
        assert oracle.calls - before == per_outer

    # nor in a run, whose records read the workspace's sums: the calls as each checkpoint sees them
    oracle.calls = Counter()
    seen = []
    run(oracle, options, lambda point: seen.append(oracle.calls.copy()))
    init = Counter({"workspace.snapshot": 1})
    assert [after - before for before, after in zip([init] + seen, seen)] == [per_outer] * S

    oracle.calls = Counter()
    run(oracle, options, certify_every)  # certifying reads the workspace's average only
    assert oracle.calls == Counter({"workspace.snapshot": S + 1, "steps": 2 * S, "inner steps": S * m})


def test_batched_steps_run_one_oracle_loop_per_chunk(rng, monkeypatch):
    monkeypatch.setattr(pdasgd.solver, "CHUNK_STEPS", 3)  # 4 batched steps: chunks of 3 and 1
    m, b, S = 8, 2, 5
    oracle = CountingOracle(random_instance(rng, 6, eta=0.3))
    run(oracle, SolverOptions(inner_iterations=m, outer_iterations=S, seed=3, batch=b), never_stop)
    assert oracle.calls == Counter({"workspace.snapshot": S + 1, "steps": 2 * S, "inner steps": S * m // b})


@pytest.fixture
def snapshot_reads(monkeypatch):
    """A Counter of the ``value`` and ``lse`` that snapshots compute, each on its first read."""
    counts = Counter()
    for name in ("value", "lse"):
        read = getattr(KernelSnapshot, name).fget

        def counted(self, read=read, name=name):
            if getattr(self, "_" + name) is None:  # this read computes it
                counts[name] += 1
            return read(self)

        monkeypatch.setattr(KernelSnapshot, name, property(counted))
    return counts


@pytest.mark.parametrize("profile", ["benchmark", "theory"])
def test_snapshots_compute_value_and_lse_only_when_read(rng, snapshot_reads, profile):
    # the value only to certify, once per certified record; lse only for
    # the value and for the theory profile's log-domain rows, once per
    # snapshot that reaches them
    n, S = 16, 6
    oracle = random_oracle(rng, n, eta=0.05)
    m, multiplier, b = resolve_profile(profile, n)
    options = SolverOptions(inner_iterations=m, outer_iterations=S, seed=1, z_step_multiplier=multiplier, batch=b)
    run(oracle, options, never_stop)
    # the theory profile's rows read lse at the snapshots of outer iterations 0 to S - 1
    assert snapshot_reads == Counter({"lse": S} if profile == "theory" else {})
    snapshot_reads.clear()
    run(oracle, options, certify_every)
    # each of the S certified snapshots computes its value and lse once, and
    # the theory profile's rows read the init snapshot's lse as well
    assert snapshot_reads == Counter({"value": S, "lse": S + (profile == "theory")})


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
    assert result.ot_value == pytest.approx(0.013563159192290838, abs=1e-12)


def test_benchmark_profile_replay():
    # the dense path's trajectory: stop index, op count, final gap and ot_value
    alpha, beta, cost = make_image_pair(0, 8, 0)
    config = ApproxConfig(epsilon=0.05, solver_profile="benchmark", kappa=8, seed=0)
    result = approx_ot(cost, alpha, beta, config)
    assert result.stop_reason == "gap+marginal"
    assert result.outer_iterations == 291
    assert result.op_counts == {"component_gradients": 23280, "inner_steps": 1164}
    assert result.records[-1].duality_gap == pytest.approx(-0.00013336497755036744, abs=1e-12)
    assert result.ot_value == pytest.approx(0.013548646420693838, abs=1e-12)


@pytest.mark.parametrize(
    "profile, outer, op_counts, gap, ot_value",
    [
        ("benchmark", 539, {"component_gradients": 155232, "inner_steps": 2156}, -0.00020991904283577945, 0.026508447737091316),
        ("theory", 736, {"component_gradients": 376832, "inner_steps": 188416}, -0.00021329153704113119, 0.026503800063175306),
    ],
)
def test_profile_replay_at_the_dense_benchmark_size(profile, outer, op_counts, gap, ot_value):
    # n = 256: the benchmark profile's b = 8 steps on its one kernel build
    # and the folds of pending pairs, and the theory profile's m = 256 steps
    # in chunks of CHUNK_STEPS = 64
    alpha, beta, cost = make_image_pair(0, 16, 0)
    config = ApproxConfig(epsilon=0.05, solver_profile=profile, kappa=8, seed=0)
    result = approx_ot(cost, alpha, beta, config)
    assert result.stop_reason == "gap+marginal"
    assert result.outer_iterations == outer
    assert result.op_counts == op_counts
    assert result.records[-1].duality_gap == pytest.approx(gap, abs=1e-12)
    assert result.ot_value == pytest.approx(ot_value, abs=1e-12)
