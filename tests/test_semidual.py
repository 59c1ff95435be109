import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import component_smoothness, random_instance, random_oracle
from pdasgd.baselines import sinkhorn
from pdasgd.core import CostMatrix, Distribution, OTInstance
from pdasgd.semidual import SemiDualOracle, lse_softmax


def symmetric_2x2(eta=1.0):
    half = Distribution(np.array([0.5, 0.5]))
    cost = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return SemiDualOracle(OTInstance(cost, half, half, eta=eta))


def full_dual_value(oracle, u, v):
    """The 2n-variable dual objective, summed exhaustively (test-only)."""
    expo = (u[:, None] + v[None, :] - oracle.cost - oracle.eta) / oracle.eta
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
    # eliminated block: u0 = 0 - eta * log(exp(-1)) = 1
    assert o.u_from_v(np.zeros(1))[0] == pytest.approx(1.0, abs=1e-15)


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
        assert np.allclose(o.u_from_v(shifted), o.u_from_v(v) - k, atol=1e-10)


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
        u = o.u_from_v(v)
        assert full_dual_value(o, u, v) == pytest.approx(o.dual_value(v), abs=1e-10)


def test_weak_duality_against_fine_solve(rng):
    for n in (2, 3, 4):
        o = random_oracle(rng, n, eta=0.3)
        plan = sinkhorn(o.cost, o.alpha, o.beta, o.eta, tol_marginal=1e-12, max_iter=100000)
        f_star = o.primal_objective(plan.entries)
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


def test_gradient_buffer_reuse(rng):
    o = random_oracle(rng, 5, eta=0.2)
    v = rng.normal(size=5)
    buf = np.empty(5)
    out = o.component_gradient(2, v, buf)
    assert out is buf
    assert np.allclose(buf, o.component_gradient(2, v), atol=0)


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
    buf = np.empty(n)
    # dual points on the cost scale and on the eta scale, where rows stay soft
    for v in (rng.normal(size=n), eta * rng.normal(size=n)):
        snap = o.snapshot(v)
        assert np.array_equal(snap.value, o.dual_value(v))
        assert np.array_equal(snap.gradient, o.full_gradient(v))
        for i in range(n):
            assert snap.anchor(i, buf) is buf
            assert np.array_equal(buf, o.component_gradient(i, v))


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
def test_in_place_lse_softmax_is_bitwise_the_allocating_formula(t):
    ref_lse, ref_sm = allocating_lse_softmax(t)
    work = t.copy()
    lse, sm = lse_softmax(work)
    assert sm is work  # the argument is overwritten and returned
    assert lse.tobytes() == ref_lse.tobytes()
    assert sm.tobytes() == ref_sm.tobytes()


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
    _, sm = allocating_lse_softmax(v / o.eta + (-o.cost / o.eta - 1.0))
    ref = o.alpha[:, None] * sm
    x = o.primal_map(v)
    assert x.tobytes() == ref.tobytes()
    assert x.flags.writeable  # a fresh array the caller owns


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
    plan, info = sinkhorn(o.cost, o.alpha, o.beta, o.eta, tol_marginal=1e-10, max_iter=100000, log=True)
    v_star = o.eta * info["log_v"]
    x = o.primal_map(v_star)
    assert np.abs(x.sum(axis=0) - o.beta).max() < 1e-4
    assert np.abs(o.full_gradient(v_star)).max() < 1e-4


def test_u_from_v_dual_consistency(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        o = random_oracle(rng, n, eta=0.5)
        v = rng.normal(size=n)
        u = o.u_from_v(v)
        # x(v) written via the eliminated block matches the primal map
        x_direct = np.exp((u[:, None] + v[None, :] - o.cost - o.eta) / o.eta)
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
