"""Benchmark harness: synthetic image pairs, operation accounting, CSV output.

For every (solver, image side, accuracy, pair) cell the harness builds the
pair's transport instance and runs it through the same ``approx_ot``
pipeline as the library and the command line, with the target accuracy as
epsilon and the accuracy stop rule: the run stops at the first checkpoint
where the *unrounded* iterate's L1 marginal distance to the original
marginals drops to the accuracy target, and the final plan is then rounded.
Iteration budgets are the pipeline's own, one rule per solver.  The
result's op counts become deterministic cost units, so efficiency is
measured in work, not wall time, and curves are hardware-independent and
reproducible.  This is the one statement of the cost-unit model:

    pdasgd      4n units per component gradient (softmax + combination),
                6n units per inner step (vector updates);
                a run totals S(n+m) gradients and S*m inner steps:
                one per inner step and n per snapshot.
    sinkhorn    2n^2 units per sweep.
    greenkhorn  3n units per coordinate update.

The formulas are kept so that units stay comparable across versions, but
since pdasgd's solver keeps a kernel workspace they depart from its work.
A snapshot is charged 4n^2 units but costs two matrix-vector products and
n exps.  Not charged are the kernel rebuilds (an n^2 exp pass each, only
when the dual drifts), the primal accumulation (two matrix-vector products
per outer iteration, and a matrix product per 32 of them and per rebuild
to fold them in), and the certificate's n^2 ``x ln x`` gap, paid only where
the marginal half passes (never under the accuracy rule).  A Sinkhorn
sweep is charged 2n^2 but computes three n^2 exp passes and the plan's
row and column sums.

Outputs in ``out_dir``:

    runs.csv       one row per run, schema
                   solver,n,accuracy,pair,seed,cost_units,wall_ms,ot_value,d_final,stop_reason
    aggregate.csv  mean and sample standard deviation per (solver, n, accuracy)
    plotdata.csv   per-solver series over accuracy (fixed n) and over n
                   (fixed accuracy)
    timings.csv    measured wall milliseconds per run (reference only)
    plans/         raw + rounded plans as CSV matrices, with --dump-plans

Floats are serialized with 17 significant digits, rows are sorted, and all
run seeds derive from the plan seed, so two invocations with identical
flags and seeds produce byte-identical canonical CSVs.  Measured wall time
is inherently nondeterministic, which is why it lives in the timings
sidecar; the canonical wall_ms column is fixed at 0.
"""

from __future__ import annotations

import itertools
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .approx import METHODS as SOLVERS, STOP_CAP, ApproxConfig, approx_ot
from .core import marginal_distance
from .images import gen_synthetic_image, image_to_instance, save_csv_matrix
from .rng import derive_seed

# Columns of the CSV outputs.  The canonical runs.csv writes wall_ms as 0;
# timings.csv holds the measured value.
RUN_COLUMNS = ("solver", "n", "accuracy", "pair", "seed", "cost_units", "wall_ms", "ot_value", "d_final", "stop_reason")
TIMING_COLUMNS = ("solver", "n", "accuracy", "pair", "seed", "wall_ms")
STATS = ("cost_units", "ot_value", "d_final")  # mean and sample std per cell
AGGREGATE_COLUMNS = ("solver", "n", "accuracy", "runs") + tuple(f"{p}_{k}" for k in STATS for p in ("mean", "std"))
PLOT_COLUMNS = ("series", "x_kind", "x", "y_mean", "y_std")


def pdasgd_cost_units(n: int, component_gradients: int, inner_steps: int) -> int:
    return component_gradients * 4 * n + inner_steps * 6 * n


def sinkhorn_cost_units(n: int, sweeps: int) -> int:
    return sweeps * 2 * n * n


def greenkhorn_cost_units(n: int, updates: int) -> int:
    return updates * 3 * n


@dataclass(frozen=True)
class BenchPlan:
    solvers: tuple = SOLVERS
    sides: tuple = (8, 12, 16, 20)
    accuracies: tuple = (0.005, 0.01, 0.015, 0.02)
    pairs: int = 5
    seed: int = 0
    profile: str = ApproxConfig.solver_profile
    kappa: float = ApproxConfig.kappa
    workers: int = 1
    dump_plans: bool = False

    def __post_init__(self):
        if not self.solvers or not self.sides or not self.accuracies or self.pairs < 1:
            raise ValueError("benchmark plan must have nonempty grids")
        unknown = set(self.solvers) - set(SOLVERS)
        if unknown:
            raise ValueError(f"unknown solvers {sorted(unknown)}; choose from {SOLVERS}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def make_image_pair(plan_seed: int, side: int, pair: int):
    """The same image pair is shared by every solver and accuracy cell."""
    seed_a = derive_seed(plan_seed, f"img/{side}/{pair}/a")
    seed_b = derive_seed(plan_seed, f"img/{side}/{pair}/b")
    img_a = gen_synthetic_image(side, seed_a)
    img_b = gen_synthetic_image(side, seed_b)
    alpha, cost = image_to_instance(img_a)
    beta, _ = image_to_instance(img_b)
    return alpha, beta, cost


def cost_units(solver: str, n: int, op_counts: dict) -> int:
    """Cost units of one run from the op counts of its ``ApproxResult``."""
    if solver == "pdasgd":
        return pdasgd_cost_units(n, op_counts["component_gradients"], op_counts["inner_steps"])
    if solver == "sinkhorn":
        return sinkhorn_cost_units(n, op_counts["sweeps"])
    return greenkhorn_cost_units(n, op_counts["updates"])


def execute_run(plan: BenchPlan, solver: str, side: int, accuracy: float, pair: int, dump_dir=None) -> dict:
    """One benchmark cell of ``plan``; a pure function of its arguments, safe in a worker."""
    alpha, beta, cost = make_image_pair(plan.seed, side, pair)
    n = alpha.n
    seed = derive_seed(plan.seed, f"run/{solver}/{side}/{accuracy!r}/{pair}")
    config = ApproxConfig(epsilon=accuracy, solver_profile=plan.profile, seed=seed, kappa=plan.kappa)
    wall0 = time.perf_counter()
    # Capped runs are flagged through stop_reason; the solvers' own max_iter
    # warnings would just be noise here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = approx_ot(cost, alpha, beta, config, method=solver, stop="accuracy")
    wall_ms = (time.perf_counter() - wall0) * 1e3
    raw, rounded = result.unrounded, result.plan
    row = {
        "solver": solver,
        "n": n,
        "accuracy": accuracy,
        "pair": pair,
        "seed": seed,
        "cost_units": cost_units(solver, n, result.op_counts),
        "ot_value": result.ot_value,
        "d_final": marginal_distance(raw, alpha.weights, beta.weights),
        "stop_reason": result.stop_reason,
        "wall_ms_measured": wall_ms,
    }
    if dump_dir is not None:
        stem = f"{solver}_n{n}_acc{_fmt(accuracy)}_pair{pair}"
        save_csv_matrix(Path(dump_dir) / f"{stem}_raw.csv", raw)
        save_csv_matrix(Path(dump_dir) / f"{stem}_rounded.csv", rounded.entries)
    return row


@dataclass
class BenchResult:
    rows: list
    flagged: bool
    out_dir: Path


def _write_csv(path: Path, columns: tuple, rows) -> None:
    """A header, then each row's values in column order; floats via :func:`_fmt`."""
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) if isinstance(r[c], float) else str(r[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def _aggregate(rows: list) -> list:
    cells = {}
    for r in rows:
        cells.setdefault((r["solver"], r["n"], r["accuracy"]), []).append(r)
    out = []
    for (solver, n, accuracy), group in sorted(cells.items()):
        stats = {}
        for key in STATS:
            vals = np.array([g[key] for g in group], dtype=np.float64)
            stats[f"mean_{key}"] = float(vals.mean())
            stats[f"std_{key}"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out.append({"solver": solver, "n": n, "accuracy": accuracy, "runs": len(group), **stats})
    return out


def _plot_points(cells: list) -> list:
    """Each solver's mean cost units over accuracy at fixed n, then over n at fixed accuracy."""

    def point(c, series, x_kind, x):
        return {
            "series": series,
            "x_kind": x_kind,
            "x": x,
            "y_mean": c["mean_cost_units"],
            "y_std": c["std_cost_units"],
        }

    by_accuracy = sorted(cells, key=lambda c: (c["solver"], c["n"], c["accuracy"]))
    by_size = sorted(cells, key=lambda c: (c["solver"], c["accuracy"], c["n"]))
    return [point(c, f'{c["solver"]}:n={c["n"]}', "accuracy", c["accuracy"]) for c in by_accuracy] + [
        point(c, f'{c["solver"]}:accuracy={_fmt(c["accuracy"])}', "size", c["n"]) for c in by_size
    ]


def run_benchmark(plan: BenchPlan, out_dir) -> BenchResult:
    """Run the full grid; rows are sorted before writing, so the output is
    independent of worker scheduling."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_dir = None
    if plan.dump_plans:
        dump_dir = out / "plans"
        dump_dir.mkdir(exist_ok=True)
    # one column per argument of execute_run: solvers, sides, accuracies, pairs
    grid = zip(*itertools.product(plan.solvers, plan.sides, plan.accuracies, range(plan.pairs)))
    run_cell = partial(execute_run, plan, dump_dir=dump_dir)
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            rows = list(pool.map(run_cell, *grid))
    else:
        rows = list(map(run_cell, *grid))
    rows.sort(key=lambda r: (r["solver"], r["n"], r["accuracy"], r["pair"]))
    _write_csv(out / "runs.csv", RUN_COLUMNS, [{**r, "wall_ms": 0.0} for r in rows])
    cells = _aggregate(rows)
    _write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, cells)
    _write_csv(out / "plotdata.csv", PLOT_COLUMNS, _plot_points(cells))
    _write_csv(out / "timings.csv", TIMING_COLUMNS, [{**r, "wall_ms": r["wall_ms_measured"]} for r in rows])
    flagged = any(r["stop_reason"] == STOP_CAP for r in rows)
    return BenchResult(rows=rows, flagged=flagged, out_dir=out)
