import numpy as np
import pytest

from pdasgd.bench import (
    BenchPlan,
    execute_run,
    greenkhorn_cost_units,
    make_image_pair,
    pdasgd_cost_units,
    run_benchmark,
    sinkhorn_cost_units,
)
from pdasgd.core import marginal_distance, transport_cost
from pdasgd.images import load_csv_matrix
from pdasgd.solver import SolverOptions, run
from conftest import random_oracle

SMALL_PLAN = dict(
    solvers=("pdasgd", "sinkhorn"),
    sides=(8,),
    accuracies=(0.02,),
    pairs=2,
    seed=5,
)


# (solver, pair, seed, cost_units, stop_reason, ot_value, d_final) of the
# SMALL_PLAN rows.  Bench output must not drift: these integers are exact,
# the floats are held to 1e-12 so BLAS builds may differ in the last bits.
PINNED_SMALL_ROWS = [
    ("pdasgd", 0, 2926968311603053364, 6309888, "accuracy-reached", 0.02893309872011111, 0.01996900479648681),
    ("pdasgd", 1, 5967068462785861760, 5484544, "accuracy-reached", 0.027572445916604793, 0.019950945383495174),
    ("sinkhorn", 0, 7576950599943819899, 3481600, "accuracy-reached", 0.028810749392311392, 0.01976727823452769),
    ("sinkhorn", 1, 12629430435529678840, 2424832, "accuracy-reached", 0.027762872530547086, 0.019760641183342365),
]
# One Greenkhorn cell of the acceptance determinism grid (seed 7).
PINNED_GREENKHORN_ROW = ("greenkhorn", 1, 15153871873890508737, 2961408, "accuracy-reached", 0.032736101139944476, 0.019500389919341686)


def _check_pinned(row, pinned):
    solver, pair, seed, units, reason, ot_value, d_final = pinned
    assert (row["solver"], row["pair"], row["seed"], row["cost_units"], row["stop_reason"]) == (
        solver, pair, seed, units, reason
    )
    assert row["ot_value"] == pytest.approx(ot_value, abs=1e-12)
    assert row["d_final"] == pytest.approx(d_final, abs=1e-12)


def test_bench_rows_pinned(tmp_path):
    result = run_benchmark(BenchPlan(**SMALL_PLAN), tmp_path)
    assert len(result.rows) == len(PINNED_SMALL_ROWS)
    for row, pinned in zip(result.rows, PINNED_SMALL_ROWS):
        _check_pinned(row, pinned)
    _check_pinned(execute_run(BenchPlan(seed=7), "greenkhorn", 8, 0.02, 1), PINNED_GREENKHORN_ROW)


def test_cost_model_matches_instrumented_counters(rng):
    # the documented pdasgd accounting reproduces the instrumented counters
    n, m, S = 6, 3, 11
    oracle = random_oracle(rng, n, eta=0.3)
    res = run(oracle, SolverOptions(inner_iterations=m, outer_iterations=S, seed=2))
    assert res.state.n_component_gradients == S * (n + m)
    assert res.state.n_inner_steps == S * m
    units = pdasgd_cost_units(n, res.state.n_component_gradients, res.state.n_inner_steps)
    assert units == S * (n + m) * 4 * n + S * m * 6 * n
    assert sinkhorn_cost_units(4, 10) == 10 * 2 * 16
    assert greenkhorn_cost_units(4, 10) == 10 * 3 * 4


def test_image_pair_shared_across_cells():
    a1, b1, c1 = make_image_pair(5, 8, 0)
    a2, b2, c2 = make_image_pair(5, 8, 0)
    assert np.array_equal(a1.weights, a2.weights)
    assert np.array_equal(b1.weights, b2.weights)
    assert np.array_equal(c1.entries, c2.entries)
    a3, _, _ = make_image_pair(5, 8, 1)
    assert not np.array_equal(a1.weights, a3.weights)


def test_execute_run_reaches_accuracy(tmp_path):
    row = execute_run(BenchPlan(seed=5), "pdasgd", 8, 0.02, 0, dump_dir=tmp_path)
    assert row["stop_reason"] == "accuracy-reached"
    assert row["d_final"] <= 0.02
    assert row["cost_units"] > 0
    # dumped plans reproduce the reported metrics exactly
    alpha, beta, cost = make_image_pair(5, 8, 0)
    raw = load_csv_matrix(tmp_path / f"pdasgd_n64_acc{0.02:.17g}_pair0_raw.csv")
    assert marginal_distance(raw, alpha.weights, beta.weights) == row["d_final"]
    rounded = load_csv_matrix(tmp_path / f"pdasgd_n64_acc{0.02:.17g}_pair0_rounded.csv")
    assert transport_cost(rounded, cost) == row["ot_value"]
    assert marginal_distance(rounded, alpha.weights, beta.weights) <= 1e-10


def test_run_benchmark_outputs(tmp_path):
    result = run_benchmark(BenchPlan(**SMALL_PLAN), tmp_path / "out")
    assert len(result.rows) == 2 * 1 * 1 * 2
    runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    assert runs[0] == "solver,n,accuracy,pair,seed,cost_units,wall_ms,ot_value,d_final,stop_reason"
    assert len(runs) == 1 + 4
    agg = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 1 + 2  # one cell per (solver, n, accuracy)
    plot = (tmp_path / "out" / "plotdata.csv").read_text().splitlines()
    assert plot[0] == "series,x_kind,x,y_mean,y_std"
    timing = (tmp_path / "out" / "timings.csv").read_text().splitlines()
    assert len(timing) == 1 + 4


def test_benchmark_byte_identical(tmp_path):
    r1 = run_benchmark(BenchPlan(**SMALL_PLAN), tmp_path / "one")
    r2 = run_benchmark(BenchPlan(**SMALL_PLAN), tmp_path / "two")
    for name in ("runs.csv", "aggregate.csv", "plotdata.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_benchmark_workers_match_serial(tmp_path):
    serial = run_benchmark(BenchPlan(**SMALL_PLAN), tmp_path / "serial")
    parallel = run_benchmark(BenchPlan(**{**SMALL_PLAN, "workers": 2}), tmp_path / "parallel")
    assert (tmp_path / "serial" / "runs.csv").read_bytes() == (tmp_path / "parallel" / "runs.csv").read_bytes()


def test_aggregate_of_identical_runs():
    # mean of identical values equals the value; sample stddev is zero
    from pdasgd.bench import _aggregate

    row = {
        "solver": "pdasgd", "n": 64, "accuracy": 0.01, "pair": 0, "seed": 1,
        "cost_units": 1000, "ot_value": 0.5, "d_final": 0.009,
        "stop_reason": "accuracy-reached", "wall_ms_measured": 1.0,
    }
    rows = [dict(row, pair=k) for k in range(5)]
    cells = _aggregate(rows)
    assert len(cells) == 1
    assert cells[0]["mean_cost_units"] == 1000
    assert cells[0]["std_cost_units"] == 0.0
    assert cells[0]["runs"] == 5


def test_plan_validation():
    with pytest.raises(ValueError):
        BenchPlan(solvers=())
    with pytest.raises(ValueError):
        BenchPlan(solvers=("magic",))
    with pytest.raises(ValueError):
        BenchPlan(pairs=0)
