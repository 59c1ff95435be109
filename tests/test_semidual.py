import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import pdasgd.semidual
from conftest import assert_batch_corrections, captured_states, component_smoothness, marginal_tol, never_stop, random_instance, random_oracle, snapshot_rows, step_gradient
from pdasgd.approx import derive_parameters, smooth_marginals
from pdasgd.baselines import sinkhorn
from pdasgd.bench import make_image_pair
from pdasgd.core import CostMatrix, Distribution, OTInstance, flush_subnormals, logsumexp, marginal_residual, max_subtracted_exp
from pdasgd.semidual import PENDING_PAIRS, REBASE_SPAN, SemiDualOracle
from pdasgd.solver import SolverOptions, run


def symmetric_2x2(eta=1.0):
    half = Distribution(np.array([0.5, 0.5]))
    cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return SemiDualOracle(OTInstance(cost, half, half, eta=eta))


def eliminated_row_dual(oracle, v):
    """Row block of the 2n-variable dual at its optimum for v (test-only):
    u_i = eta (ln alpha_i - logsumexp_j((v_j - C_ij - eta) / eta))."""
    lse = logsumexp((v - oracle.instance.cost.entries - oracle.eta) / oracle.eta)
    return oracle.eta * (np.log(oracle.alpha) - lse)


def full_dual_value(oracle, u, v):
    """The 2n-variable dual objective, summed exhaustively (test-only)."""
    expo = (u[:, None] + v[None, :] - oracle.instance.cost.entries - oracle.eta) / oracle.eta
    return float(
        -oracle.alpha @ u - oracle.beta @ v + oracle.eta * np.exp(expo).sum()
    )


def test_constructor_rejects_zero_row_marginal():
    cost = CostMatrix(np.zeros((2, 2)))
    zero = Distribution(np.array([1.0, 0.0]))
    half = Distribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="strictly positive"):
        SemiDualOracle(OTInstance(cost, zero, half, eta=1.0))
    # a zero in the column marginal is fine
    SemiDualOracle(OTInstance(cost, half, zero, eta=1.0))
    with pytest.raises(ValueError, match="eta"):
        SemiDualOracle(OTInstance(cost, half, half, eta=0.0))


def test_component_value_single_atom():
    o = SemiDualOracle(
        OTInstance(CostMatrix(np.zeros((1, 1))), Distribution(np.ones(1)), Distribution(np.ones(1)), eta=1.0)
    )
    assert o.component_value(0, np.zeros(1)) == pytest.approx(0.0, abs=1e-15)


def test_component_value_2x2_frozen():
    # ln(exp(-1) + exp(-2)) + ln 2 + 1, frozen from a 40-digit evaluation
    o = symmetric_2x2()
    expected = 1.0064088680781681
    assert o.component_value(0, np.zeros(2)) == pytest.approx(expected, abs=1e-12)
    assert o.component_value(1, np.zeros(2)) == pytest.approx(expected, abs=1e-12)
    assert o.dual_value(np.zeros(2)) == pytest.approx(expected, abs=1e-9)


def test_translation_invariance(rng):
    for _ in range(10):
        n = int(rng.integers(2, 8))
        o = random_oracle(rng, n, eta=float(rng.uniform(0.05, 0.5)))
        v = rng.normal(size=n)
        k = float(rng.normal())
        shifted = v + k
        assert o.dual_value(shifted) == pytest.approx(o.dual_value(v), abs=1e-9)
        for i in range(n):
            assert o.component_value(i, shifted) == pytest.approx(o.component_value(i, v), abs=1e-9)
        assert np.allclose(o.full_gradient(shifted), o.full_gradient(v), atol=1e-12)
        assert np.allclose(o.primal_map(shifted), o.primal_map(v), atol=1e-13)


def test_value_is_mean_of_components(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        o = random_oracle(rng, n, eta=0.2)
        v = rng.normal(size=n)
        mean = np.mean([o.component_value(i, v) for i in range(n)])
        assert o.dual_value(v) == pytest.approx(mean, abs=1e-11)


def test_full_dual_consistency(rng):
    # plugging the eliminated block back into the 2n-variable dual recovers G
    for _ in range(20):
        n = int(rng.integers(2, 7))
        o = random_oracle(rng, n, eta=float(rng.uniform(0.2, 1.0)))
        v = rng.normal(size=n)
        u = eliminated_row_dual(o, v)
        assert full_dual_value(o, u, v) == pytest.approx(o.dual_value(v), abs=1e-10)


def test_weak_duality_against_fine_solve(rng):
    for n in (2, 3, 4):
        o = random_oracle(rng, n, eta=0.3)
        plan = sinkhorn(o.instance, max_iter=100000, stop=marginal_tol(1e-12)).plan
        f_star = o.primal_objective(plan)
        for _ in range(25):
            v = rng.normal(size=n) * 2
            assert o.dual_value(v) >= -f_star - 1e-9


def test_component_gradient_closed_form():
    o = symmetric_2x2()
    g = o.component_gradient(0, np.zeros(2))
    sm1 = 1.0 / (1.0 + math.exp(-1.0))
    assert np.allclose(g, [sm1 - 0.5, 0.5 - sm1], atol=1e-12)
    assert abs(g[0] - 0.231059) < 1e-5


def test_gradient_entries_sum_to_zero(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        o = random_oracle(rng, n, eta=0.1)
        v = rng.normal(size=n)
        for i in range(n):
            assert abs(o.component_gradient(i, v).sum()) < 1e-12
        assert abs(o.full_gradient(v).sum()) < 1e-12


def test_full_gradient_is_mean_of_components(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        o = random_oracle(rng, n, eta=0.15)
        v = rng.normal(size=n)
        mean = np.mean([o.component_gradient(i, v) for i in range(n)], axis=0)
        assert np.allclose(o.full_gradient(v), mean, atol=1e-12)


@pytest.mark.parametrize("n", [3, 64, 400])
@pytest.mark.parametrize("eta", [0.5, 0.05, 1e-3])
def test_snapshot_matches_oracle_bitwise(rng, n, eta):
    o = random_oracle(rng, n, eta=eta)
    # dual points on the cost scale and on the eta scale, where rows stay soft
    for v in (rng.normal(size=n), eta * rng.normal(size=n)):
        snap = o.snapshot(v)
        assert np.array_equal(snap.value, o.dual_value(v))
        assert np.array_equal(snap.gradient, o.full_gradient(v))
        anchors, rows = snapshot_rows(snap, np.arange(n), n)
        for i in range(n):
            ref_anchor, ref_row = allocating_anchor_row(o, i, v)
            assert np.array_equal(anchors[i], ref_anchor)
            assert np.array_equal(rows[i], ref_row)
            # and to rounding the log-softmax and softmax rows
            size = 1.0 + np.abs(snap.oracle.shift[i]) + np.abs(v) / eta + np.abs(snap.lse[i])
            assert np.all(np.abs(anchors[i] + v / eta - allocating_log_softmax_row(o, i, v)) <= 1e-15 * size)
            softmax = allocating_softmax_row(o, i, v)
            assert np.all(np.abs(snap.gradient - rows[i] - softmax) <= 1e-15 * (softmax * size + 1.0))


def allocating_lse_softmax(t):
    """The kernel's formula with fresh temporaries, as a bitwise reference."""
    m = t.max(axis=-1, keepdims=True)
    w = np.exp(t - m)
    s = w.sum(axis=-1, keepdims=True)
    return np.squeeze(m + np.log(s), axis=-1), w / s


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 40)),
        elements=st.floats(-1000.0, 1000.0),
    )
)
# exp(-720) is denormal and exp(-800) underflows to 0
@example(np.array([[0.0, -720.0, -800.0, -5.0], [3.0, 3.0, -740.0, -1e3]]))
# comparable entries, so that no row sum is exactly 1
@example(np.array([[0.0, -0.3, -1.1, -2.0, 0.7], [1.3, 1.2, -0.4, 0.9, 0.1]]))
def test_snapshot_lse_is_bitwise_the_allocating_formula(t):
    # t, zero-padded to a square, as the pre-activation v + shift of an
    # instance at eta = 1: v = column max + 2 keeps the cost C = v - 1 - t
    # nonnegative, and v + shift reproduces t to rounding, its denormal and
    # underflowing entries included
    n = max(t.shape)
    padded = np.zeros((n, n))
    padded[: t.shape[0], : t.shape[1]] = t
    v = padded.max(axis=0) + 2.0
    uniform = Distribution(np.full(n, 1.0 / n))
    o = SemiDualOracle(OTInstance(CostMatrix(v - 1.0 - padded), uniform, uniform, eta=1.0))
    ref_lse, ref_sm = allocating_lse_softmax(v / o.eta + (-o.instance.cost.entries / o.eta - 1.0))
    snap = o.snapshot(v)
    assert snap.lse.tobytes() == ref_lse.tobytes()
    assert snap.gradient.tobytes() == (ref_sm.T @ o.alpha - o.beta).tobytes()


def test_workspace_snapshot_value_and_lse_are_the_eager_formulas(rng):
    # computed on first read, not when the snapshot is taken, from the
    # expressions a snapshot once evaluated eagerly: lse = m0 + c + log(K e)
    # and the value from lse and v
    n, eta = 24, 0.05
    o = random_oracle(rng, n, eta)
    ws = o.workspace(rng.normal(size=n))
    for spread in (0.0, 1.0, REBASE_SPAN / 2, 0.999 * REBASE_SPAN):
        v = ws.base + eta * spread * rng.random(n)
        snap = ws.snapshot(v, 1.0)
        assert all(getattr(snap, "_" + name) is None for name in ("value", "lse"))
        d = (v - ws.base) / eta
        c = d.max()
        lse = ws.offsets + c + np.log(ws.kernel @ np.exp(d - c))
        assert snap.lse.tobytes() == lse.tobytes()
        assert snap.value == float(eta * o.alpha @ (lse - np.log(o.alpha) + 1.0) - o.beta @ v)


def test_batch_rows_anchor_follows_every_rebuild(rng):
    # the workspace caches -v0/eta at each rebuild, forced here by moving v
    # past REBASE_SPAN: every a' that rows writes at b > 1 is -base/eta - c
    # computed on the spot, for the base point of the snapshot's own kernel,
    # at the rebuild, inside the span and after later rebuilds; the
    # reference snapshot's base point is its v and its c is 0
    n, eta, b = 12, 0.05, 2
    o = random_oracle(rng, n, eta)
    idx = rng.integers(n, size=2 * b)
    rows, got = np.empty((2 * b, n)), np.full((2, 6, n), np.nan)

    def anchors(snap):
        snap.rows(idx, got[:, 5], rows, got[:, 4])
        return got[:, 5].tobytes()

    def expected(base, c):
        return np.tile(-base / eta - c, (2, 1)).tobytes()

    v, taken = rng.normal(size=n), []
    far = v.copy()
    far[0] += 1.5 * eta * REBASE_SPAN
    ws = o.workspace(far)  # a span away from v, so the first snapshot rebuilds as well
    for _ in range(4):
        kernel = ws.kernel
        snap = ws.snapshot(v)
        assert snap.kernel is not kernel and ws.base.tobytes() == v.tobytes()  # rebuilt at v
        assert anchors(snap) == expected(v, 0.0)
        inside = v + eta * REBASE_SPAN / 2 * rng.random(n)
        within = ws.snapshot(inside)
        assert within.kernel is snap.kernel
        c = ((inside - v) / eta).max()
        assert anchors(within) == expected(v, c)
        taken.append((within, v, c))
        v = v.copy()
        v[rng.integers(n)] += 1.5 * eta * REBASE_SPAN
    for snap, base, c in taken:
        assert anchors(snap) == expected(base, c)
    v = rng.normal(size=n)
    assert anchors(o.snapshot(v)) == expected(v, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    eta=st.sampled_from([1.0, 0.05, 1e-3]),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
)
# at eta = 1e-3 unit costs spread a row over ~1000, so rows hold both
# denormal and zero entries
@example(seed=0, n=24, eta=1e-3, scale=1e-3)
def test_primal_map_is_bitwise_the_allocating_formula(seed, n, eta, scale):
    rng = np.random.default_rng(seed)
    o = SemiDualOracle(random_instance(rng, n, eta))
    v = scale * rng.normal(size=n)
    _, sm = allocating_lse_softmax(v / o.eta + (-o.instance.cost.entries / o.eta - 1.0))
    ref = o.alpha[:, None] * sm
    x = o.primal_map(v)
    assert x.tobytes() == ref.tobytes()
    assert x.flags.writeable  # a fresh array the caller owns


def assert_close(got, ref, scale):
    """|got - ref| <= 1e-12 scale, entrywise; ``scale`` is the size of the terms."""
    assert np.all(np.abs(np.asarray(got) - ref) <= 1e-12 * np.asarray(scale))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    eta=st.sampled_from([1.0, 0.05, 1e-3]),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
)
# at eta = 1e-3 a cost of scale 30 spreads a row over ~3e4, so the kernel
# holds subnormal and zero entries
@example(seed=0, n=24, eta=1e-3, scale=30.0)
def test_workspace_matches_the_reference(seed, n, eta, scale):
    rng = np.random.default_rng(seed)
    base = random_instance(rng, n, eta)
    o = SemiDualOracle(OTInstance(CostMatrix(scale * base.cost.entries), base.row_marginal, base.col_marginal, eta))
    v0 = scale * rng.normal(size=n)
    ws = o.workspace(v0)
    kernel = ws.kernel
    # built at v0 as a rebuild there builds it, and a first snapshot at v0
    # keeps that kernel, with e = 1
    rebuilt = o.workspace(-v0)
    rebuilt.rebuild(v0)
    assert ws.base.tobytes() == v0.tobytes()
    assert ws.kernel.tobytes() == rebuilt.kernel.tobytes() and ws.offsets.tobytes() == rebuilt.offsets.tobytes()
    first = ws.snapshot(v0)
    assert first.kernel is kernel and first.e.tobytes() == np.ones(n).tobytes()
    # drifts from v0 whose spread on the eta scale reaches the span, short
    # of it by more than the rounding of (v - v0) / eta
    for spread in (0.0, 1.0, REBASE_SPAN / 2, 0.999 * REBASE_SPAN):
        drift = rng.random(n)
        drift = (drift - drift.min()) / np.ptp(drift) if np.ptp(drift) > 0 else drift
        v = v0 + eta * spread * drift
        got, ref = ws.snapshot(v), o.snapshot(v)
        assert ws.kernel is kernel  # no rebuild within the span
        assert_close(got.value, ref.value, abs(ref.value) + np.abs(v).max() + scale + eta)
        assert_close(got.gradient, ref.gradient, 1.0)
        (got_logs, got_rows), (ref_logs, ref_rows) = (snapshot_rows(x, np.arange(n), n) for x in (got, ref))
        # the anchor rows to the rounding of their terms, shift_i - lse_i
        assert_close(got_logs, ref_logs, 1.0 + (np.abs(v).max() + scale) / eta)
        # the corrections to that rounding too, which exp turns into 1e-15
        # of a row entry per unit of exponent; the kernel's exponents at its
        # base point enter the workspace's lse
        size = 1.0 + (np.abs(v) + np.abs(ws.base) + scale) / eta + np.abs(ref.lse)[:, None] + np.abs(ws.offsets)[:, None]
        assert_close(got_rows, ref_rows, 1.0 + 1e-3 * (ref.gradient - ref_rows) * size)
    # the factored sum, added by weighted snapshots across folds of full
    # pending blocks and, at every 10th point, a drift wide enough to force
    # a rebuild
    total = np.zeros((n, n))
    weight_sum = 0.0
    for k in range(2 * PENDING_PAIRS + 3):
        v = v0 + eta * (2 if k % 10 == 9 else 0.5) * REBASE_SPAN * rng.random(n)
        weight = (k + 4) / 2.0
        ws.snapshot(v, weight)
        total += weight * o.primal_map(v)
        weight_sum += weight
        assert ws.weight == weight_sum
        rows, cols, violation = ws.marginals()
        assert_close(ws.average(), total / weight_sum, 1.0)
        assert_close(rows, total.sum(axis=1) / weight_sum, 1.0)
        assert_close(cols, total.sum(axis=0) / weight_sum, 1.0)
        # kept in O(n) per snapshot, not read off the plan: the rows are
        # alpha itself, frozen, and the columns the average's own column
        # sums, to rounding of a plan of total mass 1
        assert rows is o.alpha and not rows.flags.writeable
        assert np.abs(cols - ws.average().sum(axis=0)).max() <= 1e-15
        # so the violation sums the column half alone, to the same bits
        assert violation == marginal_residual(rows.copy(), cols, o.alpha, o.beta)
    # reading the average does not change it
    assert ws.average().tobytes() == ws.average().tobytes()


def central_difference_gradient(fn, v, step=1e-6):
    g = np.empty_like(v)
    for j in range(v.size):
        e = np.zeros_like(v)
        e[j] = step
        g[j] = (fn(v + e) - fn(v - e)) / (2 * step)
    return g


def test_gradients_match_finite_differences(rng):
    for _ in range(10):
        n = int(rng.integers(2, 17))
        o = random_oracle(rng, n, eta=float(rng.choice([0.05, 0.1, 0.5])))
        v = rng.normal(size=n)
        fd = central_difference_gradient(o.dual_value, v)
        g = o.full_gradient(v)
        rel = np.abs(fd - g).max() / max(np.abs(fd).max(), 1e-12)
        assert rel < 1e-5
        i = int(rng.integers(n))
        fd_i = central_difference_gradient(lambda w: o.component_value(i, w), v)
        g_i = o.component_gradient(i, v)
        rel_i = np.abs(fd_i - g_i).max() / max(np.abs(fd_i).max(), 1e-12)
        assert rel_i < 1e-5


def test_symmetric_instance_stationary_at_zero():
    o = symmetric_2x2()
    assert np.allclose(o.full_gradient(np.zeros(2)), 0.0, atol=1e-15)


def test_primal_rows_match_alpha(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        o = random_oracle(rng, n, eta=0.1)
        v = rng.normal(size=n) * 3
        x = o.primal_map(v)
        assert np.abs(x.sum(axis=1) - o.alpha).max() < 1e-14
        assert x.min() >= 0


def test_primal_uniform_when_cost_zero(rng):
    n = 4
    a = rng.dirichlet(np.ones(n))
    a = (a + 0.01) / (1 + n * 0.01)
    o = SemiDualOracle(
        OTInstance(CostMatrix(np.zeros((n, n))), Distribution(a), Distribution(np.full(n, 1 / n)), eta=0.7)
    )
    x = o.primal_map(np.zeros(n))
    assert np.allclose(x, a[:, None] / n, atol=1e-15)


def test_gradient_equals_column_residual(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        o = random_oracle(rng, n, eta=0.2)
        v = rng.normal(size=n)
        x = o.primal_map(v)
        assert np.abs(o.full_gradient(v) - (x.sum(axis=0) - o.beta)).max() < 1e-12


def test_columns_converge_at_optimum(rng):
    o = random_oracle(rng, 4, eta=0.2)
    v_star = sinkhorn(o.instance, max_iter=100000, stop=marginal_tol(1e-10)).dual
    x = o.primal_map(v_star)
    assert np.abs(x.sum(axis=0) - o.beta).max() < 1e-4
    assert np.abs(o.full_gradient(v_star)).max() < 1e-4


def test_u_from_v_dual_consistency(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        o = random_oracle(rng, n, eta=0.5)
        v = rng.normal(size=n)
        u = eliminated_row_dual(o, v)
        # x(v) written via the eliminated block matches the primal map
        x_direct = np.exp((u[:, None] + v[None, :] - o.instance.cost.entries - o.eta) / o.eta)
        assert np.allclose(x_direct, o.primal_map(v), atol=1e-13)


def test_smoothness_constants():
    n = 4
    o = SemiDualOracle(
        OTInstance(
            CostMatrix(np.ones((n, n))),
            Distribution(np.full(n, 0.25)),
            Distribution(np.full(n, 0.25)),
            eta=0.5,
        )
    )
    assert np.allclose(component_smoothness(o), 2.0)
    assert o.average_smoothness() == pytest.approx(2.0)


def test_smoothness_average_identity(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        o = random_oracle(rng, n, eta=float(rng.uniform(0.05, 1.0)))
        assert component_smoothness(o).mean() == pytest.approx(o.average_smoothness(), rel=1e-12)


def test_empirical_lipschitz_bound(rng):
    o = random_oracle(rng, 6, eta=0.1)
    per = component_smoothness(o)
    for _ in range(1000):
        i = int(rng.integers(6))
        v = rng.normal(size=6)
        w = rng.normal(size=6)
        dg = np.linalg.norm(o.component_gradient(i, v) - o.component_gradient(i, w))
        assert dg <= per[i] * np.linalg.norm(v - w) + 1e-9


def test_sampling_weights():
    n = 4
    uniform = SemiDualOracle(
        OTInstance(CostMatrix(np.ones((n, n))), Distribution(np.full(n, 0.25)), Distribution(np.full(n, 0.25)), eta=1.0)
    )
    assert np.allclose(uniform.sampling_weights().weights, 0.25)
    # the row marginal itself, validated once, not a second Distribution of alpha
    assert uniform.sampling_weights() is uniform.instance.row_marginal
    skew = SemiDualOracle(
        OTInstance(
            CostMatrix(np.ones((2, 2))),
            Distribution(np.array([0.2, 0.8])),
            Distribution(np.array([0.5, 0.5])),
            eta=1.0,
        )
    )
    w = skew.sampling_weights().weights
    assert np.allclose(w, [0.2, 0.8])
    assert w.sum() == pytest.approx(1.0)
    # p_i = L_i / (h Lbar) algebraically, with L_i = n alpha_i / eta
    per = 2 * np.array([0.2, 0.8]) / skew.eta
    assert np.allclose(w, per / (2 * skew.average_smoothness()), atol=1e-15)


def test_convexity_midpoint(rng):
    for _ in range(50):
        n = int(rng.integers(2, 8))
        o = random_oracle(rng, n, eta=0.3)
        v = rng.normal(size=n)
        w = rng.normal(size=n)
        mid = o.dual_value(0.5 * (v + w))
        assert mid <= 0.5 * o.dual_value(v) + 0.5 * o.dual_value(w) + 1e-12


def test_linf_smoothness_upper_model(rng):
    for _ in range(50):
        n = int(rng.integers(2, 8))
        o = random_oracle(rng, n, eta=0.2)
        linf = 5.0 / o.eta  # l-infinity smoothness of G
        v = rng.normal(size=n)
        w = v + rng.normal(size=n) * 0.5
        lhs = o.dual_value(w)
        rhs = (
            o.dual_value(v)
            + o.full_gradient(v) @ (w - v)
            + 0.5 * linf * np.abs(w - v).max() ** 2
        )
        assert lhs <= rhs + 1e-10


def test_extreme_eta_stability():
    # the log-domain kernel must survive eta around 1e-4
    rng = np.random.default_rng(3)
    n = 8
    a = rng.dirichlet(np.ones(n)); a = (a + 0.01) / (1 + n * 0.01)
    b = rng.dirichlet(np.ones(n)); b = (b + 0.01) / (1 + n * 0.01)
    c = rng.random((n, n)); c /= c.max()
    o = SemiDualOracle(OTInstance(CostMatrix(c), Distribution(a), Distribution(b), eta=1e-4))
    v = rng.normal(size=n)
    assert np.isfinite(o.dual_value(v))
    assert np.isfinite(o.full_gradient(v)).all()
    x = o.primal_map(v)
    assert np.isfinite(x).all()
    assert np.abs(x.sum(axis=1) - a).max() < 1e-14


def allocating_softmax_row(o, i, v):
    """Softmax row i of ``(v - C)/eta - 1``, max-subtracted, with fresh temporaries."""
    t = v / o.eta + (-o.instance.cost.entries[i] / o.eta - 1.0)
    w = np.exp(t - t.max())
    return w / w.sum()


def allocating_log_softmax_row(o, i, v):
    """Log-softmax row i of ``(v - C)/eta - 1``, ``t - lse(t)``, with fresh temporaries."""
    t = v / o.eta + (-o.instance.cost.entries[i] / o.eta - 1.0)
    return t - (t.max() + np.log(np.exp(t - t.max()).sum()))


def allocating_anchor_row(o, i, v):
    """Snapshot row i at v with fresh temporaries: ``a' = shift_i - lse_i`` and ``u - exp(a' + v/eta)``."""
    lse, sm = allocating_lse_softmax(v / o.eta + (-o.instance.cost.entries / o.eta - 1.0))
    anchor = (-o.instance.cost.entries[i] / o.eta - 1.0) - lse[i]
    return anchor, (sm.T @ o.alpha - o.beta) - np.exp(anchor + v / o.eta)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    eta=st.sampled_from([1.0, 0.05, 0.01]),
    spread=st.floats(0.0, 50.0),
    far=st.sampled_from([0.0, 10.0]),
)
# at eta = 0.01 a cost of 10 puts an exponent near -1000 in a row, so the
# anchor rows hold zeros, which no drift within 50 can lift above 1e-270
@example(seed=0, n=24, eta=0.01, spread=50.0, far=10.0)
def test_importance_gradient_is_the_max_subtracted_softmax_row(seed, n, eta, spread, far):
    rng = np.random.default_rng(seed)
    cost = rng.random((n, n))
    cost[rng.random((n, n)) < 0.3] = far
    cost[np.arange(n), rng.permutation(n)] = rng.random(n)  # no row is all far
    base = random_instance(rng, n, eta)
    o = SemiDualOracle(OTInstance(CostMatrix(cost), base.row_marginal, base.col_marginal, eta))
    anchor = 5.0 * eta * rng.normal(size=n)
    v = anchor + eta * spread * rng.uniform(-1.0, 1.0, size=n)
    drift = o.average_smoothness() * (v - anchor)  # as the solver forms it
    assert np.abs(drift).max() <= 50.0 * (1 + 1e-12)
    # anchor rows from the reference snapshot and from a workspace whose
    # kernel was built at another point within its span
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ws = o.workspace(anchor + eta * rng.uniform(0.0, 10.0, size=n))
        sources = (o.snapshot(anchor), ws.snapshot(anchor))
        rows = np.array([allocating_softmax_row(o, i, anchor) for i in range(n)])
        if far / eta > 800 and (cost == far).any():
            assert (rows == 0.0).any()  # softmax entries that underflowed
        # the size of the exponents each form of the row rounds, the
        # workspace's lse also those of its kernel at its base point
        kernel_exponents = (0.0, np.abs(ws.base) / eta + np.abs(ws.offsets)[:, None])
        for snap, base in zip(sources, kernel_exponents):
            anchors, _ = snapshot_rows(snap, np.arange(n), n)
            # formed in the log domain, never as the log of a row that underflowed
            assert np.isfinite(anchors).all()
            # exp turns the exponents' rounding into relative error, so the
            # rows agree to 1e-15 relative per unit of exponent
            size = 1.0 + np.abs(snap.oracle.shift) + np.abs(snap.v / snap.oracle.eta) + np.abs(snap.lse)[:, None] + base
            normal = rows >= np.finfo(np.float64).tiny
            assert np.all(np.abs(np.exp(anchors + snap.v / snap.oracle.eta) - rows)[normal] <= 1e-15 * (rows * size)[normal])
            for i in range(n):
                ref = allocating_softmax_row(o, i, v)
                # the component gradient, unscaled, is that same row
                assert np.abs(o.component_gradient(i, v) / (n * o.alpha[i]) + o.beta - ref).max() <= 1e-13 * ref.max()
                # t = a'_i + Lbar v, the anchor's log row plus the drift
                t = anchors[i] + o.average_smoothness() * anchor + drift
                out = step_gradient(o, t, np.empty((1, n)))
                assert np.abs(out - ref).max() <= 1e-13 * ref.max()


def allocating_component_gradient(o, i, v):
    """The component gradient's formula with fresh temporaries, as a bitwise reference."""
    return (allocating_softmax_row(o, i, v) - o.beta) * (o.n * o.alpha[i])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    eta=st.sampled_from([1.0, 0.05, 1e-3]),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
)
# at eta = 1e-3 the exponentials of these rows hold 30 denormals and 126 zeros
@example(seed=0, n=24, eta=1e-3, scale=1e-3)
def test_component_gradient_is_bitwise_the_allocating_formula(seed, n, eta, scale):
    rng = np.random.default_rng(seed)
    o = SemiDualOracle(random_instance(rng, n, eta))
    v = scale * rng.normal(size=n)
    v_before = v.copy()
    for i in range(n):
        assert o.component_gradient(i, v).tobytes() == allocating_component_gradient(o, i, v).tobytes()
    assert np.array_equal(v, v_before)
    with pytest.raises(IndexError):
        o.component_gradient(n, v)


def test_corrections_are_bitwise_the_per_row_formula(rng):
    n = 9
    o = random_oracle(rng, n, eta=0.05)
    v = rng.normal(size=n)
    snap = o.snapshot(v)
    idx = np.array([7, 2, 2, 0, 8, 7, 7, 3])  # repeated and unsorted
    # written into strided views, as the solver's block buffer hands them out
    blocks = np.full((idx.size + 1, 6, n), np.nan)
    anchors, corrections = blocks[:-1, 5], blocks[1:, 4]
    assert snap.rows(idx, anchors, np.empty((idx.size, n)), corrections) is None
    for k, i in enumerate(idx):
        anchor = snap.oracle.shift[i] - snap.lse[i]
        assert anchors[k].tobytes() == anchor.tobytes()
        assert corrections[k].tobytes() == (snap.gradient - np.exp(anchor + snap.v / snap.oracle.eta)).tobytes()
        assert anchors[k].tobytes() == allocating_anchor_row(o, i, v)[0].tobytes()
    # nothing else in the buffer is written
    assert np.isnan(blocks[-1, 5]).all() and np.isnan(blocks[0, 4]).all()
    assert np.isnan(blocks[:, :4]).all()
    # contiguous buffers, list indices and a second call give the same bits
    for indices in (idx, list(idx)):
        again = snapshot_rows(snap, indices, n)
        assert again[0].tobytes() == np.ascontiguousarray(anchors).tobytes()
        assert again[1].tobytes() == np.ascontiguousarray(corrections).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 24),
    eta=st.sampled_from([1.0, 0.05, 1e-3]),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
)
# at eta = 1e-3 a cost of scale 30 spreads a row over ~3e4, so the kernel
# holds subnormal and zero entries
@example(seed=0, n=24, eta=1e-3, scale=30.0)
def test_rows_equal_the_kernel_and_log_softmax_forms(seed, n, eta, scale):
    # a workspace snapshot's rows against the forms they replace: the
    # anchor row as log-softmax_i(v) - Lbar v and the correction as
    # u - K_i e / r_i, on the workspace's kernel within its span
    rng = np.random.default_rng(seed)
    base = random_instance(rng, n, eta)
    o = SemiDualOracle(OTInstance(CostMatrix(scale * base.cost.entries), base.row_marginal, base.col_marginal, eta))
    ws = o.workspace(scale * rng.normal(size=n))
    v = ws.base + eta * REBASE_SPAN / 2 * rng.random(n)
    snap = ws.snapshot(v)
    idx = rng.integers(n, size=2 * n)
    anchors, corrections = snapshot_rows(snap, idx, n)
    d = (v - ws.base) / eta
    e = np.exp(d - d.max())
    r = ws.kernel @ e
    rows = (ws.kernel * e / r[:, None])[idx]
    logs = (snap.oracle.shift + snap.v / snap.oracle.eta - snap.lse[:, None])[idx] - o.average_smoothness() * v
    # the terms each form rounds, the kernel's also those at its base point
    size = (
        1.0 + np.abs(snap.oracle.shift) + np.abs(snap.v / snap.oracle.eta) + np.abs(snap.lse)[:, None]
        + np.abs(ws.base) / eta + np.abs(ws.offsets)[:, None]
    )[idx]
    assert np.all(np.abs(anchors - logs) <= 1e-15 * size)
    assert np.all(np.abs(corrections - (snap.gradient - rows)) <= 1e-15 * (rows * size + 1.0))


TINY = np.finfo(np.float64).tiny


def dust(kernel):
    """The number of subnormal entries, in (0, TINY), of a kernel."""
    return int(np.count_nonzero((kernel > 0) & (kernel < TINY)))


def unflushed_kernel(ws):
    """The workspace's kernel at its base point as built before the flush."""
    kernel = ws.base / ws.oracle.eta + ws.oracle.shift
    max_subtracted_exp(kernel)
    return kernel


def image_instance(side, epsilon):
    """Pair 0 of the bench images at ``epsilon``'s penalty, with the pipeline's smoothed marginals."""
    alpha, beta, cost = make_image_pair(0, side, 0)
    eta, eps_prime = derive_parameters(epsilon, cost)
    return OTInstance(cost, *smooth_marginals(alpha, beta, eps_prime), eta)


def test_rebuilt_kernels_hold_no_subnormals(monkeypatch):
    # at epsilon = 0.01 the kernels of both methods, as built, hold
    # subnormal entries; each build zeroes them, through the workspace that
    # both methods run on.  Sinkhorn at n = 64 and epsilon = 0.005 builds
    # its kernel twice in 1000 sweeps, a rebuild included
    with captured_states() as states:
        run(SemiDualOracle(image_instance(16, 0.01)), SolverOptions(32, 30), never_stop)
    (state,) = states
    ws = state.workspace
    raw = unflushed_kernel(ws)
    assert dust(raw) > 0 and dust(ws.kernel) == 0
    assert ws.kernel.tobytes() == flush_subnormals(raw).tobytes()
    builds = []

    def spy(kernel):
        before = dust(kernel)
        flush_subnormals(kernel)
        builds.append((before, dust(kernel)))
        return kernel

    monkeypatch.setattr(pdasgd.semidual, "flush_subnormals", spy)
    sinkhorn(image_instance(8, 0.005), 1000, never_stop)
    assert len(builds) > 1 and any(before for before, _ in builds)
    assert all(after == 0 for _, after in builds)


DUSTY = ((0, 32, 0.05, 4.0), (0, 32, 0.01, 1.0))  # (seed, n, epsilon, scale) whose kernels hold dust


def scaled_oracle(seed, n, epsilon, scale):
    """A random instance with its cost scaled, at ``epsilon``'s penalty, and the generator that drew it."""
    rng = np.random.default_rng(seed)
    base = random_instance(rng, n, 1.0)
    cost = CostMatrix(scale * base.cost.entries)
    eta, _ = derive_parameters(epsilon, cost)
    return SemiDualOracle(OTInstance(cost, base.row_marginal, base.col_marginal, eta)), rng


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 32),
    epsilon=st.sampled_from([0.05, 0.01]),
    scale=st.sampled_from([1.0, 4.0]),
)
@example(*DUSTY[0])
@example(*DUSTY[1])
def test_flushed_snapshots_are_bitwise_the_unflushed(seed, n, epsilon, scale):
    # the argument of the semidual docstring: every row of the kernel has an
    # entry of 1 and e >= exp(-REBASE_SPAN), so the dropped dust lies below
    # half an ulp of r, and a column of dust alone is absorbed by beta
    o, rng = scaled_oracle(seed, n, epsilon, scale)
    eta = o.eta
    v0 = 5.0 * eta * rng.normal(size=n)
    flushed, unflushed = o.workspace(v0), o.workspace(v0)
    raw = unflushed.kernel = unflushed_kernel(unflushed)
    assert flushed.kernel.tobytes() == flush_subnormals(raw.copy()).tobytes()
    if (seed, n, epsilon, scale) in DUSTY:
        assert dust(raw) > 0
    for spread in (0.0, 1.0, REBASE_SPAN / 2, 0.999 * REBASE_SPAN):
        v = v0 + eta * spread * rng.random(n)
        got, ref = flushed.snapshot(v), unflushed.snapshot(v)
        assert got.value == ref.value
        assert got.lse.tobytes() == ref.lse.tobytes()
        assert got.gradient.tobytes() == ref.gradient.tobytes()
    assert unflushed.kernel is raw  # no rebuild flushed it


def four_pass_rows(snap, indices, anchors, corrections):
    """The rows as four passes over the caller's views, the bitwise reference of :meth:`KernelSnapshot.rows`."""
    np.subtract(snap.oracle.shift[indices], snap.lse[indices, None], out=anchors)
    np.add(anchors, snap.v / snap.oracle.eta, out=corrections)
    np.exp(corrections, out=corrections)
    np.subtract(snap.gradient, corrections, out=corrections)


def test_rows_are_bitwise_the_four_pass_form(rng):
    # a workspace snapshot's rows, written into strided views of a block
    # buffer as the solver's, against the in-place four-pass form
    n, m = 24, 40
    o = random_oracle(rng, n, eta=1e-3)
    ws = o.workspace(rng.normal(size=n) * 1e-3)
    snap = ws.snapshot(ws.base + 1e-3 * REBASE_SPAN / 2 * rng.random(n))
    idx = rng.integers(n, size=m)
    got, ref = (np.full((m + 1, 6, n), np.nan) for _ in range(2))
    snap.rows(idx, got[:-1, 5], np.empty((m, n)), got[1:, 4])
    four_pass_rows(snap, idx, ref[:-1, 5], ref[1:, 4])
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 16),
    b=st.sampled_from([2, 3, 4]),
    eta=st.sampled_from([1.0, 0.05, 0.01]),
    dusty=st.sampled_from([None, *DUSTY]),
    span=st.floats(0.0, 0.999 * REBASE_SPAN),
    spread=st.floats(0.0, 20.0),
    workspace=st.booleans(),
)
@example(0, 2, 2, 1.0, DUSTY[0], 0.999 * REBASE_SPAN, 20.0, True)
@example(0, 2, 4, 1.0, DUSTY[1], 0.999 * REBASE_SPAN, 20.0, True)
def test_batch_gradient_is_the_mean_of_importance_gradients(seed, n, b, eta, dusty, span, spread, workspace):
    # the kernel form e * (w @ K), from t = Lbar v + a' and the b raw kernel
    # rows, against the mean of the b log-domain importance gradients; the
    # workspace's anchor lies up to ``span`` from its kernel's base point,
    # on a random instance or on one whose kernel held dust before its flush
    if dusty is None:
        rng = np.random.default_rng(seed)
        o = random_oracle(rng, n, eta)
    else:
        o, rng = scaled_oracle(*dusty)
        n, eta = o.n, o.eta
    ws = o.workspace(5.0 * eta * rng.normal(size=n))  # the kernel's base point
    offset = rng.random(n)
    anchor = ws.base + eta * span * (offset - offset.min()) / (np.ptp(offset) or 1.0)
    v = anchor + eta * spread * rng.uniform(-1.0, 1.0, size=n)
    idx = rng.integers(n, size=2 * b)  # two steps' components, repeats allowed
    got = np.full((2, 6, n), np.nan)  # strided views, as the solver's block buffer hands them out
    rows = np.full((2 * b, n), np.nan)
    Lbar = o.average_smoothness()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        snap = ws.snapshot(anchor) if workspace else o.snapshot(anchor)
        assert (snap.kernel is ws.kernel) == workspace  # no rebuild within the span
        if dusty is not None:
            assert dust(unflushed_kernel(ws)) > 0
        assert snap.rows(idx, got[:, 5], rows, got[:, 4]) is None
        # the rows are the kernel's own, and every a' is -base/eta - c: the
        # workspace's base point and the largest drift of the anchor from it,
        # the reference's the anchor itself and 0
        assert rows.tobytes() == snap.kernel[idx].tobytes()
        base, c = (ws.base, ((anchor - ws.base) / eta).max()) if workspace else (anchor, 0.0)
        assert got[:, 5].tobytes() == np.tile(-base / eta - c, (2, 1)).tobytes()
        assert_batch_corrections(snap, idx, got[:, 4])
        anchors, _ = snapshot_rows(snap, idx, n)
        for step in range(2):
            batch = slice(step * b, (step + 1) * b)
            t = Lbar * v + got[step, 5]  # as the solver forms it
            out = step_gradient(o, t, rows[batch])
            mean = np.mean([step_gradient(o, a + Lbar * v, np.empty((1, n))) for a in anchors[batch]], axis=0)
            # a kernel entry K_kj below TINY that the flush dropped adds at
            # most TINY * E_j / r_k to a mean entry, and row k's entry of 1
            # at j* puts r_k over E_j*, with E_j / E_j* <= exp(span + 2 spread)
            # from the anchor's span and v's spread around it; the bound is
            # at least TINY, the scale to which subnormal entries agree
            atol = TINY * math.exp(span + 2.0 * spread)
            np.testing.assert_allclose(out, mean, rtol=1e-12, atol=atol)
