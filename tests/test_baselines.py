import warnings

import numpy as np
import pytest

import pdasgd.baselines
from pdasgd.approx import ApproxConfig, approx_ot
from pdasgd.baselines import _line_scores, greenkhorn, sinkhorn
from pdasgd.bench import make_image_pair
from pdasgd.core import STOP_DIVERGED, OTInstance, logsumexp, marginal_distance
from pdasgd.exact import exact_ot_oracle
from pdasgd.rounding import round_to_polytope
from pdasgd.semidual import KernelWorkspace

from conftest import finite_only, marginal_tol, never_stop


def positive_pair(rng, n):
    a = rng.dirichlet(np.ones(n))
    b = rng.dirichlet(np.ones(n))
    a = (a + 0.02) / (1 + n * 0.02)
    b = (b + 0.02) / (1 + n * 0.02)
    return a, b


def costly_instance(n, extra):
    """A random instance whose column 1 costs ``extra`` more and row 2 ``extra / 2`` more, and its marginals."""
    rng = np.random.default_rng(n)
    c = rng.random((n, n))
    c[:, 1] += extra
    c[2] += extra / 2
    a, b = positive_pair(rng, n)
    return c, a, b


def test_sinkhorn_zero_cost_one_sweep(rng):
    n = 4
    a, b = positive_pair(rng, n)
    res = sinkhorn(OTInstance.of(np.zeros((n, n)), a, b, 1.0), max_iter=5, stop=marginal_tol(1e-12))
    assert res.iterations == 1
    assert np.abs(res.plan - np.outer(a, b)).max() < 1e-15


def test_sinkhorn_preserves_symmetry(rng):
    n = 5
    c = rng.random((n, n))
    c = 0.5 * (c + c.T)
    a, _ = positive_pair(rng, n)
    plan = sinkhorn(OTInstance.of(c, a, a, 0.2), max_iter=100000, stop=marginal_tol(1e-10)).plan
    assert np.abs(plan - plan.T).max() < 1e-10


def test_sinkhorn_rounded_value_near_oracle(rng):
    n = 4
    c = rng.random((n, n)); c /= c.max()
    a, b = positive_pair(rng, n)
    _, opt = exact_ot_oracle(c, a, b)
    plan = sinkhorn(OTInstance.of(c, a, b, 0.05), max_iter=10**6, stop=marginal_tol(1e-6)).plan
    rounded, _ = round_to_polytope(plan, a, b)
    assert float((rounded.entries * c).sum()) - opt <= 0.05


def test_sinkhorn_validation_and_flagging(rng):
    n = 3
    a, b = positive_pair(rng, n)
    with pytest.raises(ValueError, match="strictly positive"):
        sinkhorn(OTInstance.of(np.ones((n, n)), np.array([1.0, 0.0, 0.0]), b, 0.5), max_iter=10, stop=never_stop)
    with pytest.raises(ValueError, match="eta"):
        sinkhorn(OTInstance.of(np.ones((n, n)), a, b, 0.0), max_iter=10, stop=never_stop)
    c = rng.random((n, n))
    res = sinkhorn(OTInstance.of(c, a, b, 0.01), max_iter=2, stop=marginal_tol(1e-14))
    assert res.stop_reason is None
    assert res.iterations == 2
    assert res.op_counts == {"sweeps": 2}


@pytest.mark.parametrize("solver", [sinkhorn, greenkhorn])
@pytest.mark.parametrize("max_iter", [0, -1, 2.0, True, None])
def test_scaling_rejects_a_budget_that_is_not_a_count(rng, solver, max_iter):
    # before: sinkhorn(max_iter=0) took its uninitialised kernel for the plan
    a, b = positive_pair(rng, 3)
    with pytest.raises(ValueError, match=f"max_iter must be an integer >= 1, got {max_iter!r}"):
        solver(OTInstance.of(rng.random((3, 3)), a, b, 0.5), max_iter, never_stop)


@pytest.mark.parametrize("solver", [sinkhorn, greenkhorn])
@pytest.mark.parametrize("field", ["cost", "alpha", "beta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scaling_rejects_non_finite_input(rng, solver, field, bad):
    # before: greenkhorn returned an all-NaN plan flagged "marginal-tol"
    # after 0 updates, and sinkhorn ran every sweep to an all-NaN plan;
    # now the instance's containers reject the entry before any solver runs
    n = 4
    a, b = positive_pair(rng, n)
    args = {"cost": rng.random((n, n)), "alpha": a, "beta": b}
    args[field] = args[field].copy()
    args[field][1] = bad
    message = "cost entries" if field == "cost" else "distribution weights"
    with pytest.raises(ValueError, match=f"{message} must be finite, got non-finite"):
        solver(OTInstance.of(args["cost"], args["alpha"], args["beta"], 0.5), max_iter=10, stop=never_stop)


@pytest.mark.parametrize("solver", [sinkhorn, greenkhorn])
@pytest.mark.parametrize(
    "shape, scale, sign, message",
    [
        ((4, 4), 2.0, 1.0, "distribution weights must sum to 1, got 2"),
        ((4, 5), 1.0, 1.0, r"cost matrix must be square, got \(4, 5\)"),
        ((4, 4), 1.0, -1.0, "cost entries must be nonnegative"),
    ],
    ids=["unnormalised-alpha", "non-square-cost", "negative-cost"],
)
def test_scaling_rejects_what_the_instance_rejects(rng, solver, shape, scale, sign, message):
    # before: a direct call with 2 alpha ran its whole budget and returned
    # reason None, and greenkhorn on a 4 x 5 cost failed with numpy's
    # broadcast error; the instance's types now reject both, as everywhere
    a, b = positive_pair(rng, 4)
    with pytest.raises(ValueError, match=message):
        solver(OTInstance.of(sign * rng.random(shape), scale * a, b, 0.5), max_iter=10, stop=never_stop)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_greenkhorn_nan_distance_is_not_converged():
    # a finite cost whose kernel underflows everywhere makes the plan NaN;
    # the NaN marginal distance must not pass the tolerance test, and the
    # run stops before its first update instead of running all 10^4 rounds
    half = np.array([0.5, 0.5])
    res = greenkhorn(OTInstance.of(np.full((2, 2), 1e300), half, half, 1e-10), max_iter=10**4, stop=finite_only)
    assert res.stop_reason == STOP_DIVERGED
    assert (res.iterations, res.op_counts) == (0, {"updates": 0})


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_sinkhorn_nan_distance_is_not_converged():
    # the same NaN plan stops Sinkhorn after its first sweep, not 10^4
    half = np.array([0.5, 0.5])
    res = sinkhorn(OTInstance.of(np.full((2, 2), 1e300), half, half, 1e-10), max_iter=10**4, stop=finite_only)
    assert res.stop_reason == STOP_DIVERGED
    assert (res.iterations, res.op_counts) == (1, {"sweeps": 1})


def test_greenkhorn_zero_cost_fixed_point(rng):
    # the product coupling is the fixed point; greedy interleaving can take a
    # few more than 2n updates because each update perturbs the other axis
    for n in (2, 3, 4):
        a, b = positive_pair(rng, n)
        res = greenkhorn(OTInstance.of(np.zeros((n, n)), a, b, 1.0), max_iter=250, stop=marginal_tol(1e-10))
        assert res.stop_reason == "marginal-tol"
        assert res.op_counts["updates"] == res.iterations * n <= 8 * n
        assert np.abs(res.plan - np.outer(a, b)).max() < 1e-12


def test_greenkhorn_updated_line_sums_exactly(rng):
    n = 5
    c = rng.random((n, n))
    a, b = positive_pair(rng, n)
    # after convergence at a tight tolerance every line is near its target;
    # check single-update exactness on a coarse run by re-running one step
    res = greenkhorn(OTInstance.of(c, a, b, 0.3), max_iter=2 * 10**5, stop=marginal_tol(1e-9))
    assert res.stop_reason == "marginal-tol"
    r = res.plan.sum(axis=1)
    col = res.plan.sum(axis=0)
    assert min(np.abs(r - a).max(), np.abs(col - b).max()) < 1e-9


def test_line_scores_write_into_out(rng, monkeypatch):
    # the scores of a slice go into that slice of the buffer, bit for bit the
    # allocating formula; a line at its target scores +0.0, the value an
    # update writes in place of a recompute, and an empty line +inf, silently
    n = 64
    target = rng.random(n) + 1e-3
    actual = target * rng.uniform(0.5, 1.5, n)
    buffer = np.full(2 * n, np.nan)
    assert _line_scores(actual, target, buffer[n:]) is None
    x = (actual - target) / target
    assert buffer[n:].tobytes() == (target * (x - np.log1p(x))).tobytes()
    assert np.isnan(buffer[:n]).all()
    _line_scores(target, target, buffer[:n])
    assert buffer[:n].tobytes() == np.zeros(n).tobytes()  # +0.0, not -0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _line_scores(np.zeros(2), np.array([0.5, 0.5]), buffer[:2])
    assert np.array_equal(buffer[:2], [np.inf, np.inf])
    # Greenkhorn scores all 2n lines once per round and one axis per update
    calls = []

    def counting(actual, target, out):
        calls.append(len(out))
        _line_scores(actual, target, out)

    monkeypatch.setattr(pdasgd.baselines, "_line_scores", counting)
    a, b = positive_pair(rng, 4)
    greenkhorn(OTInstance.of(rng.random((4, 4)), a, b, 0.3), max_iter=3, stop=never_stop)
    assert calls == ([8] + [4] * 4) * 3


def test_greenkhorn_agrees_with_sinkhorn(rng):
    for n in (4, 8, 16):
        c = rng.random((n, n)); c /= c.max()
        a, b = positive_pair(rng, n)
        ps = sinkhorn(OTInstance.of(c, a, b, 0.1), max_iter=10**6, stop=marginal_tol(1e-8)).plan
        pg = greenkhorn(OTInstance.of(c, a, b, 0.1), max_iter=10**7 // n, stop=marginal_tol(1e-8)).plan
        assert np.abs(ps - pg).sum() < 1e-6
    # costly_instance at n = 8: Greenkhorn re-bases the kernel at eta = 2e-4
    # and 1e-4 (7 and 17 builds), and a rebuild that left u unscaled drives
    # a line score's log1p invalid; the duals agree up to a constant
    for eta in (1e-3, 2e-4, 1e-4):
        for extra in (3.0, 10.0):
            instance = OTInstance.of(*costly_instance(8, extra), eta)
            rs = sinkhorn(instance, max_iter=10**5, stop=marginal_tol(1e-6))
            rg = greenkhorn(instance, max_iter=10**5, stop=marginal_tol(1e-6))
            assert (rs.stop_reason, rg.stop_reason) == ("marginal-tol", "marginal-tol")
            assert np.abs(rs.plan - rg.plan).sum() < 1e-6
            gap = rg.dual - rs.dual
            assert gap.max() - gap.min() < 1e-8


def test_plans_strictly_positive(rng):
    n = 6
    c = rng.random((n, n))
    a, b = positive_pair(rng, n)
    ps = sinkhorn(OTInstance.of(c, a, b, 0.5), max_iter=10**5, stop=marginal_tol(1e-9)).plan
    pg = greenkhorn(OTInstance.of(c, a, b, 0.5), max_iter=10**6 // n, stop=marginal_tol(1e-9)).plan
    assert ps.min() > 0
    assert pg.min() > 0


def test_stop_callback(rng):
    n = 4
    c = rng.random((n, n))
    a, b = positive_pair(rng, n)
    seen = []

    def stop(point):
        seen.append((point.rows.copy(), point.cols.copy()))
        return "poked" if len(seen) >= 3 else None

    res = sinkhorn(OTInstance.of(c, a, b, 0.2), max_iter=100, stop=stop)
    assert res.stop_reason == "poked"
    assert res.iterations == 3
    # the callback is passed the sums of the plan it stopped on, from the
    # kernel's matrix-vector products rather than from summing the plan
    assert np.allclose(seen[-1][0], res.plan.sum(axis=1), rtol=0, atol=1e-15)
    assert np.allclose(seen[-1][1], res.plan.sum(axis=0), rtol=0, atol=1e-15)

    seen.clear()
    res = greenkhorn(OTInstance.of(c, a, b, 0.2), max_iter=25, stop=stop)
    assert res.stop_reason == "poked"
    # polled once per round of n updates
    assert (res.iterations, res.op_counts) == (3, {"updates": 3 * n})
    assert seen[-1][0].tobytes() == res.plan.sum(axis=1).tobytes()
    assert seen[-1][1].tobytes() == res.plan.sum(axis=0).tobytes()


def log_domain_sinkhorn(c, a, b, eta, tol, max_iter):
    """Reference sweep: both halves through logsumexp, the plan rebuilt and summed every sweep."""
    log_k = -c / eta
    log_v = np.zeros(b.size)
    for sweep in range(1, max_iter + 1):
        log_u = np.log(a) - logsumexp(log_k + log_v, axis=1)
        log_v = np.log(b) - logsumexp(log_k + log_u[:, None], axis=0)
        plan = np.exp(log_k + log_u[:, None] + log_v)
        if marginal_distance(plan, a, b) <= tol:
            return plan, sweep, "marginal-tol", log_v
    return plan, max_iter, None, log_v


@pytest.fixture
def builds(monkeypatch):
    """The base points of the kernel builds of the workspaces made in the test, the first build included."""
    points = []
    rebuild = KernelWorkspace.rebuild

    def counting(ws, v):
        points.append(v)
        rebuild(ws, v)

    monkeypatch.setattr(KernelWorkspace, "rebuild", counting)
    return points


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("extra", [3.0, 10.0])
@pytest.mark.parametrize("eta", [1e-3, 2e-4, 1e-4])
@pytest.mark.parametrize("n", [8, 16, 30])
def test_sinkhorn_absorption_matches_log_domain(builds, n, eta, extra):
    # at these penalties, on twice the cost, v leaves exp(+-REBASE_SPAN)
    # every few hundred sweeps, so the kernel is built 2 to 12 times in
    # 3000 sweeps, and n = 8 at 1e-3 stops on its rule at 1470; the
    # costlier column and row put their scalings up to extra/eta away from
    # the rest, and a rebuild that rescaled only the rows lets a column
    # product underflow, whose RuntimeWarning fails the test
    c, a, b = costly_instance(n, extra)
    c *= 2.0
    res = sinkhorn(OTInstance.of(c, a, b, eta), max_iter=3000, stop=marginal_tol(1e-6))
    assert len(builds) >= 2
    ref, sweeps, reason, log_v = log_domain_sinkhorn(c, a, b, eta, 1e-6, 3000)
    assert (res.iterations, res.stop_reason) == (sweeps, reason)
    assert np.allclose(res.plan, ref, rtol=0, atol=1e-10)
    assert np.allclose(res.dual, eta * log_v, rtol=0, atol=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("extra", [3.0, 10.0])
def test_greenkhorn_rebuilds_reach_the_log_domain_fixed_point(builds, extra):
    # Greenkhorn rescales u by the change of the row maxima only at a
    # rebuild; here it builds its kernel 7 times on the way to a 1e-8
    # marginal violation, and its plan and dual (up to a constant) land on
    # the log-domain Sinkhorn fixed point
    c, a, b = costly_instance(8, extra)
    eta = 2e-4
    res = greenkhorn(OTInstance.of(c, a, b, eta), max_iter=10**5, stop=marginal_tol(1e-8))
    assert res.stop_reason == "marginal-tol"
    assert len(builds) >= 2
    ref, _, reason, log_v = log_domain_sinkhorn(c, a, b, eta, 1e-11, 10**5)
    assert reason == "marginal-tol"
    assert np.abs(res.plan - ref).sum() < 1e-7
    gap = res.dual - eta * log_v
    assert gap.max() - gap.min() < 1e-9


@pytest.mark.parametrize(
    ("epsilon", "pins"),
    [
        (0.05, ("sinkhorn", 16, (271, 1), (247, 1))),
        (0.01, ("sinkhorn", 16, (1937, 2), (2427, 2))),
        (0.05, ("greenkhorn", 8, (296, 1), (382, 1))),
        (0.05, ("greenkhorn", 16, (342, 1), (346, 1))),
    ],
)
def test_sinkhorn_rebuild_count(builds, epsilon, pins):
    # (checkpoints, kernel builds) of a method on pairs 0 and 1 of the bench
    # images of a side, the first build included: the kernel is re-based
    # only when v leaves exp(+-REBASE_SPAN), so at epsilon = 0.05 it is
    # built once, and at 0.01 Sinkhorn rebuilds it once.  A test of u as
    # well would rebuild Sinkhorn more often, because u sits at alpha's
    # scale after each rebuild
    method, side = pins[:2]
    for pair, pin in enumerate(pins[2:]):
        builds.clear()
        alpha, beta, cost = make_image_pair(0, side, pair)
        res = approx_ot(cost, alpha, beta, ApproxConfig(epsilon, kappa=8.0), method=method)
        assert res.stop_reason == "gap+marginal"
        assert (res.outer_iterations, len(builds)) == pin
