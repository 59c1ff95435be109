import math

import numpy as np
import pytest

import pdasgd.approx
import pdasgd.bench
import pdasgd.images

from pdasgd.bench import (
    BenchPlan,
    cost_units,
    execute_run,
    make_image_pair,
    pdasgd_cost_units,
    run_benchmark,
    sinkhorn_cost_units,
)
from pdasgd.core import marginal_distance, transport_cost
from pdasgd.images import gen_synthetic_image, image_to_instance, load_csv_matrix
from pdasgd.rng import derive_seed
from pdasgd.solver import SolverOptions, run
from conftest import never_stop, random_oracle

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
    ("pdasgd", 0, 2926968311603053364, 5327872, "accuracy-reached", 0.028831304908757772, 0.01995906591309117),
    ("pdasgd", 1, 5967068462785861760, 4491264, "accuracy-reached", 0.027569996520218285, 0.019905932865375887),
    ("sinkhorn", 0, 7576950599943819899, 3481600, "accuracy-reached", 0.028810749392311392, 0.01976727823452769),
    ("sinkhorn", 1, 12629430435529678840, 2424832, "accuracy-reached", 0.027762872530547086, 0.019760641183342365),
]
# One Greenkhorn cell of the acceptance determinism grid (seed 7).
PINNED_GREENKHORN_ROW = ("greenkhorn", 1, 15153871873890508737, 2973696, "accuracy-reached", 0.0327635298370244, 0.01949863237864262)


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
    res = run(oracle, SolverOptions(inner_iterations=m, outer_iterations=S, seed=2), never_stop)
    assert res.op_counts["component_gradients"] == S * (n + m)
    assert res.op_counts["inner_steps"] == S * m
    units = pdasgd_cost_units(n, res.op_counts["component_gradients"], res.op_counts["inner_steps"])
    assert units == S * (n + m) * 4 * n + S * m * 6 * n
    assert sinkhorn_cost_units(4, 10) == 10 * 2 * 16
    assert cost_units("greenkhorn", 4, {"updates": 10}) == 10 * 3 * 4


def test_image_pair_shared_across_cells():
    a1, b1, c1 = make_image_pair(5, 8, 0)
    a2, b2, c2 = make_image_pair(5, 8, 0)
    assert np.array_equal(a1.weights, a2.weights)
    assert np.array_equal(b1.weights, b2.weights)
    assert np.array_equal(c1.entries, c2.entries)
    a3, _, _ = make_image_pair(5, 8, 1)
    assert not np.array_equal(a1.weights, a3.weights)


def test_image_pair_builds_one_grid_cost(monkeypatch):
    # before: the second image's n^2 cost was built and thrown away
    calls = []
    grid_cost_matrix = pdasgd.images.grid_cost_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return grid_cost_matrix(*args, **kwargs)

    monkeypatch.setattr(pdasgd.images, "grid_cost_matrix", counted)
    alpha, beta, cost = make_image_pair(5, 8, 0)
    assert calls == [(8, 8)]
    seed_a, seed_b = (derive_seed(5, f"img/8/0/{k}") for k in "ab")
    want_alpha, want_cost = image_to_instance(gen_synthetic_image(8, seed_a))
    want_beta, _ = image_to_instance(gen_synthetic_image(8, seed_b))
    assert alpha.weights.tobytes() == want_alpha.weights.tobytes()
    assert beta.weights.tobytes() == want_beta.weights.tobytes()
    assert cost.entries.tobytes() == want_cost.entries.tobytes()


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


@pytest.mark.parametrize(
    "field, value",
    [("workers", -3), ("workers", 0), ("workers", 1.5), ("workers", True), ("pairs", 0), ("pairs", 1.5),
     ("pairs", True), ("seed", 1.5), ("seed", None), ("seed", True)],
)
def test_plan_rejects_bad_counts_and_seeds(field, value):
    # each fails at the entry, naming its field, not late in the run
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        BenchPlan(**{field: value})


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("solvers", ("sinkhorn", "sinkhorn"), "^solvers must not repeat a value"),
        ("sides", (8, 8), "^sides must not repeat a value"),  # before: every row of the cells counted twice
        ("accuracies", (0.02, 0.02), "^accuracies must not repeat a value"),
        ("sides", (8, 2.5), "^sides must be integers"),  # before: a TypeError in the seed derivation
        ("sides", (8, True), "^sides must be integers"),
        ("sides", (8, 2), "^sides must be integers .* foreground square"),
        ("accuracies", (0.02, -1.0), "^epsilon must be positive"),  # before: raised only at its cell
        ("accuracies", (0.02, math.nan), "^epsilon must be positive"),
        ("profile", "fast", "^solver_profile must be one of"),
        ("kappa", 0.0, "^kappa must be positive"),
    ],
)
def test_plan_rejects_bad_grids_before_any_cell(field, value, match):
    with pytest.raises(ValueError, match=match):
        BenchPlan(**{field: value})


def test_execute_run_lets_numpy_warnings_through(monkeypatch):
    # before: execute_run muted every RuntimeWarning of the cell to hide the
    # baselines' cap warning, an overflow in a solver included
    approx_ot = pdasgd.bench.approx_ot

    def overflowing(*args, **kwargs):
        np.exp(np.array(1000.0))
        return approx_ot(*args, **kwargs)

    monkeypatch.setattr(pdasgd.bench, "approx_ot", overflowing)
    with pytest.warns(RuntimeWarning, match="overflow"):
        row = execute_run(BenchPlan(), "sinkhorn", 4, 0.05, 0)
    assert row["stop_reason"] == "accuracy-reached"


def test_diverged_cell_keeps_the_grid(tmp_path, monkeypatch):
    # before: divergence escaped approx_ot as an exception and ended the whole grid
    resolve = pdasgd.approx.resolve_profile
    # a z step far past the cliff on the 16-point cells only
    monkeypatch.setattr(
        pdasgd.approx, "resolve_profile", lambda profile, n: (8, 1e5, 1) if n == 16 else resolve(profile, n)
    )
    plan = BenchPlan(solvers=("pdasgd",), sides=(4, 5), accuracies=(0.05,), pairs=1)
    res = run_benchmark(plan, tmp_path)
    assert [(r["n"], r["stop_reason"]) for r in res.rows] == [(16, "diverged"), (25, "accuracy-reached")]
    assert res.flagged
    assert len((tmp_path / "runs.csv").read_text().splitlines()) == 3
