"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from conftest import certify_every, component_smoothness, estimator, marginal_tol, random_oracle
from pdasgd.approx import ApproxConfig, approx_ot
from pdasgd.bench import BenchPlan, run_benchmark
from pdasgd.baselines import greenkhorn, sinkhorn
from pdasgd.core import OTInstance, marginal_distance
from pdasgd.exact import exact_ot_oracle
from pdasgd.rounding import round_to_polytope
from pdasgd.solver import SolverOptions, run


def _report(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status} ({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    sizes = [4, 8, 16, 32]
    etas = [0.05, 0.1, 0.5]
    for trial in range(50):
        n = sizes[trial % 4]
        eta = etas[trial % 3]
        oracle = random_oracle(rng, n, eta)
        v = rng.normal(size=n)
        grad = oracle.full_gradient(v)
        fd = np.empty(n)
        step = 1e-6
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            fd[j] = (oracle.dual_value(v + e) - oracle.dual_value(v - e)) / (2 * step)
        rel = np.abs(fd - grad).max() / max(np.abs(fd).max(), 1e-12)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report(1, "gradient-vs-finite-differences", worst < 1e-5, f"worst rel err {worst:.2e}", elapsed, 5.0)


def test_criterion_2_primal_map_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_row = 0.0
    worst_grad = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        oracle = random_oracle(rng, n, eta=float(rng.uniform(0.05, 0.5)))
        for _ in range(10):
            v = rng.normal(size=n) * 2
            x = oracle.primal_map(v)
            worst_row = max(worst_row, np.abs(x.sum(axis=1) - oracle.alpha).max())
            resid = x.sum(axis=0) - oracle.beta
            worst_grad = max(worst_grad, np.abs(oracle.full_gradient(v) - resid).max())
    ok = worst_row < 1e-14 and worst_grad < 1e-12
    elapsed = time.perf_counter() - start
    _report(2, "primal-map-identities", ok, f"row err {worst_row:.2e}, grad err {worst_grad:.2e}", elapsed, 2.0)


def test_criterion_3_smoothness_constants():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    worst_ratio_slack = np.inf
    for block in range(10):
        n = int(rng.integers(2, 9))
        oracle = random_oracle(rng, n, eta=float(rng.uniform(0.05, 0.5)))
        per = component_smoothness(oracle)
        linf = 5.0 / oracle.eta  # l-infinity smoothness of G
        for _ in range(1000):
            i = int(rng.integers(n))
            v = rng.normal(size=n)
            w = rng.normal(size=n)
            lhs = np.linalg.norm(oracle.component_gradient(i, v) - oracle.component_gradient(i, w))
            bound = per[i] * np.linalg.norm(v - w) + 1e-9
            worst_ratio_slack = min(worst_ratio_slack, bound - lhs)
            if lhs > bound:
                ok = False
        for _ in range(1000):
            v = rng.normal(size=n)
            w = v + rng.normal(size=n)
            model = (
                oracle.dual_value(v)
                + oracle.full_gradient(v) @ (w - v)
                + 0.5 * linf * np.abs(w - v).max() ** 2
            )
            if oracle.dual_value(w) > model + 1e-10:
                ok = False
    elapsed = time.perf_counter() - start
    _report(3, "smoothness-constants", ok, f"min Lipschitz slack {worst_ratio_slack:.2e}", elapsed, 10.0)


def test_criterion_4_estimator_unbiasedness():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    n = 4
    worst = 0.0
    oracle = random_oracle(rng, n, eta=0.2)
    weights = oracle.sampling_weights().weights
    for _ in range(100):
        lam = rng.normal(size=n)
        anchor = rng.normal(size=n)
        snapshot = oracle.snapshot(anchor)
        acc = np.zeros(n)
        for i in range(n):
            acc += weights[i] * estimator(oracle, snapshot, i, lam)
        worst = max(worst, np.abs(acc - oracle.full_gradient(lam)).max())
    elapsed = time.perf_counter() - start
    _report(4, "variance-reduction-unbiasedness", worst < 1e-12, f"worst dev {worst:.2e}", elapsed, 1.0)


def test_criterion_5_rounding():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    ok = True
    # worked 2x2 example first
    e, _ = round_to_polytope(np.array([[0.4, 0.2], [0.1, 0.3]]), np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    if np.abs(e.entries - np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])).max() > 1e-12:
        ok = False
    worst_feas = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        f = np.outer(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))
        f *= 1 + 0.4 * rng.normal(size=(n, n))
        f = np.maximum(f, 0.0)
        if rng.random() < 0.3:
            f[rng.integers(n), :] = 0.0
        if rng.random() < 0.3:
            f[:, rng.integers(n)] = 0.0
        total = f.sum()
        if total <= 0:
            continue
        f /= total
        e, _ = round_to_polytope(f, a, b)
        feas = marginal_distance(e, a, b)
        worst_feas = max(worst_feas, feas)
        if feas > 1e-10 or np.abs(e.entries - f).sum() > 2 * marginal_distance(f, a, b) + 1e-10:
            ok = False
    elapsed = time.perf_counter() - start
    _report(5, "rounding-guarantees", ok, f"worst residual feasibility {worst_feas:.2e}", elapsed, 2.0)


def test_criterion_6_epsilon_approximation():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    worst_excess = -np.inf
    ok = True
    for n in (2, 3, 4):
        c = rng.random((n, n))
        c /= c.max()
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        _, opt = exact_ot_oracle(c, a, b)
        for epsilon in (0.05, 0.02):
            for seed in range(20):
                res = approx_ot(
                    c, a, b,
                    ApproxConfig(epsilon=epsilon, solver_profile="benchmark", max_outer=500_000, seed=seed),
                )
                excess = res.ot_value - opt
                worst_excess = max(worst_excess, excess - epsilon)
                if excess > epsilon or marginal_distance(res.plan, a, b) > 1e-10:
                    ok = False
    elapsed = time.perf_counter() - start
    _report(6, "epsilon-approximation-vs-oracle", ok, f"worst excess-minus-eps {worst_excess:.2e}", elapsed, 60.0)


def test_criterion_7_convergence_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
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
    med_50 = float(np.median(gaps_50))
    med_200 = float(np.median(gaps_200))
    ok = med_200 <= med_50 / 3
    elapsed = time.perf_counter() - start
    _report(7, "convergence-rate-consistency", ok, f"|gap| 50: {med_50:.2e}, 200: {med_200:.2e}, ratio {med_50 / med_200:.1f}", elapsed, 120.0)


def test_criterion_8_baseline_cross_check():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    ok = True
    worst_l1 = 0.0
    for n in (4, 8, 16):
        c = rng.random((n, n))
        c /= c.max()
        a = rng.dirichlet(np.ones(n)); a = (a + 0.02) / (1 + n * 0.02)
        b = rng.dirichlet(np.ones(n)); b = (b + 0.02) / (1 + n * 0.02)
        ps = sinkhorn(OTInstance.of(c, a, b, 0.1), max_iter=10**6, stop=marginal_tol(1e-8)).plan
        pg = greenkhorn(OTInstance.of(c, a, b, 0.1), max_iter=10**7 // n, stop=marginal_tol(1e-8)).plan
        l1 = float(np.abs(ps - pg).sum())
        worst_l1 = max(worst_l1, l1)
        if l1 > 1e-6:
            ok = False
    # rounded pipeline values meet the criterion-6 epsilon bound
    for n in (2, 3, 4):
        c = rng.random((n, n))
        c /= c.max()
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(n))
        _, opt = exact_ot_oracle(c, a, b)
        for epsilon in (0.05, 0.02):
            for method in ("sinkhorn", "greenkhorn"):
                res = approx_ot(c, a, b, ApproxConfig(epsilon=epsilon), method=method)
                if res.ot_value - opt > epsilon or marginal_distance(res.plan, a, b) > 1e-10:
                    ok = False
    elapsed = time.perf_counter() - start
    _report(8, "baseline-cross-check", ok, f"worst plan L1 disagreement {worst_l1:.2e}", elapsed, 60.0)


def test_criterion_9_scaling():
    start = time.perf_counter()
    units = {}
    for side in (8, 16):
        plan = BenchPlan(
            solvers=("pdasgd",), sides=(side,), accuracies=(0.01,), pairs=5, seed=42,
        )
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            result = run_benchmark(plan, tmp)
        assert all(r["stop_reason"] == "accuracy-reached" for r in result.rows)
        units[side] = float(np.median([r["cost_units"] for r in result.rows]))
    growth = units[16] / units[8]
    ok = growth <= 32.0
    elapsed = time.perf_counter() - start
    _report(9, "cost-unit-scaling", ok, f"median units n=64: {units[8]:.3g}, n=256: {units[16]:.3g}, growth {growth:.1f}", elapsed, 900.0)


def test_criterion_10_benchmark_determinism(tmp_path):
    start = time.perf_counter()
    plan = BenchPlan(
        solvers=("pdasgd", "sinkhorn", "greenkhorn"),
        sides=(8,),
        accuracies=(0.02, 0.015),
        pairs=2,
        seed=7,
    )
    run_benchmark(plan, tmp_path / "one")
    run_benchmark(plan, tmp_path / "two")
    ok = True
    for name in ("runs.csv", "aggregate.csv", "plotdata.csv"):
        if (tmp_path / "one" / name).read_bytes() != (tmp_path / "two" / name).read_bytes():
            ok = False
    elapsed = time.perf_counter() - start
    _report(10, "benchmark-determinism", ok, "canonical CSVs byte-identical", elapsed, 300.0)
