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
reproducible:

    pdasgd      4n units per component gradient (softmax + combination),
                6n units per inner step (vector updates);
                a run totals S(n+m) gradients and S*m inner steps.
    sinkhorn    2n^2 units per sweep.
    greenkhorn  3n units per coordinate update.

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

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .approx import DEFAULT_KAPPA, METHODS as SOLVERS, STOP_CAP, ApproxConfig, approx_ot
from .core import marginal_distance
from .images import gen_synthetic_image, image_to_instance, save_csv_matrix
from .rng import derive_seed

CSV_HEADER = "solver,n,accuracy,pair,seed,cost_units,wall_ms,ot_value,d_final,stop_reason"


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
    profile: str = "benchmark"
    kappa: float = DEFAULT_KAPPA
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


@dataclass(frozen=True)
class RunSpec:
    solver: str
    side: int
    accuracy: float
    pair: int
    plan_seed: int
    profile: str
    kappa: float
    dump_dir: Optional[str]


def execute_run(spec: RunSpec) -> dict:
    """One benchmark cell; a pure function of its RunSpec, safe in a worker."""
    alpha, beta, cost = make_image_pair(spec.plan_seed, spec.side, spec.pair)
    n = alpha.n
    seed = derive_seed(spec.plan_seed, f"run/{spec.solver}/{spec.side}/{spec.accuracy!r}/{spec.pair}")
    config = ApproxConfig(epsilon=spec.accuracy, solver_profile=spec.profile, seed=seed, kappa=spec.kappa)
    wall0 = time.perf_counter()
    # Capped runs are flagged through stop_reason; the solvers' own max_iter
    # warnings would just be noise here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = approx_ot(cost, alpha, beta, config, method=spec.solver, stop="accuracy")
    wall_ms = (time.perf_counter() - wall0) * 1e3
    raw, rounded = result.unrounded, result.plan
    row = {
        "solver": spec.solver,
        "n": n,
        "accuracy": spec.accuracy,
        "pair": spec.pair,
        "seed": seed,
        "cost_units": cost_units(spec.solver, n, result.op_counts),
        "ot_value": result.ot_value,
        "d_final": marginal_distance(raw, alpha.weights, beta.weights),
        "stop_reason": result.stop_reason,
        "wall_ms_measured": wall_ms,
    }
    if spec.dump_dir is not None:
        stem = f"{spec.solver}_n{n}_acc{_fmt(spec.accuracy)}_pair{spec.pair}"
        save_csv_matrix(Path(spec.dump_dir) / f"{stem}_raw.csv", raw)
        save_csv_matrix(Path(spec.dump_dir) / f"{stem}_rounded.csv", rounded.entries)
    return row


@dataclass
class BenchResult:
    rows: list
    flagged: bool
    out_dir: Path


def _write_rows(path: Path, rows: list) -> None:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r["solver"],
                    str(r["n"]),
                    _fmt(r["accuracy"]),
                    str(r["pair"]),
                    str(r["seed"]),
                    str(r["cost_units"]),
                    _fmt(0.0),
                    _fmt(r["ot_value"]),
                    _fmt(r["d_final"]),
                    r["stop_reason"],
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _write_timings(path: Path, rows: list) -> None:
    lines = ["solver,n,accuracy,pair,seed,wall_ms"]
    for r in rows:
        lines.append(
            f'{r["solver"]},{r["n"]},{_fmt(r["accuracy"])},{r["pair"]},{r["seed"]},{_fmt(r["wall_ms_measured"])}'
        )
    path.write_text("\n".join(lines) + "\n")


def _aggregate(rows: list) -> list:
    cells = {}
    for r in rows:
        cells.setdefault((r["solver"], r["n"], r["accuracy"]), []).append(r)
    out = []
    for (solver, n, accuracy), group in sorted(cells.items()):
        stats = {}
        for key in ("cost_units", "ot_value", "d_final"):
            vals = np.array([g[key] for g in group], dtype=np.float64)
            stats[f"mean_{key}"] = float(vals.mean())
            stats[f"std_{key}"] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out.append({"solver": solver, "n": n, "accuracy": accuracy, "runs": len(group), **stats})
    return out


def _write_aggregate(path: Path, cells: list) -> None:
    lines = [
        "solver,n,accuracy,runs,mean_cost_units,std_cost_units,"
        "mean_ot_value,std_ot_value,mean_d_final,std_d_final"
    ]
    for c in cells:
        lines.append(
            ",".join(
                [
                    c["solver"],
                    str(c["n"]),
                    _fmt(c["accuracy"]),
                    str(c["runs"]),
                    _fmt(c["mean_cost_units"]),
                    _fmt(c["std_cost_units"]),
                    _fmt(c["mean_ot_value"]),
                    _fmt(c["std_ot_value"]),
                    _fmt(c["mean_d_final"]),
                    _fmt(c["std_d_final"]),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _write_plotdata(path: Path, cells: list) -> None:
    lines = ["series,x_kind,x,y_mean,y_std"]
    for c in sorted(cells, key=lambda c: (c["solver"], c["n"], c["accuracy"])):
        lines.append(
            f'{c["solver"]}:n={c["n"]},accuracy,{_fmt(c["accuracy"])},'
            f'{_fmt(c["mean_cost_units"])},{_fmt(c["std_cost_units"])}'
        )
    for c in sorted(cells, key=lambda c: (c["solver"], c["accuracy"], c["n"])):
        lines.append(
            f'{c["solver"]}:accuracy={_fmt(c["accuracy"])},size,{c["n"]},'
            f'{_fmt(c["mean_cost_units"])},{_fmt(c["std_cost_units"])}'
        )
    path.write_text("\n".join(lines) + "\n")


def run_benchmark(plan: BenchPlan, out_dir) -> BenchResult:
    """Run the full grid; rows are sorted before writing, so the output is
    independent of worker scheduling."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_dir = None
    if plan.dump_plans:
        dump_dir = out / "plans"
        dump_dir.mkdir(exist_ok=True)
    specs = [
        RunSpec(
            solver=solver,
            side=side,
            accuracy=accuracy,
            pair=pair,
            plan_seed=plan.seed,
            profile=plan.profile,
            kappa=plan.kappa,
            dump_dir=str(dump_dir) if dump_dir else None,
        )
        for solver in plan.solvers
        for side in plan.sides
        for accuracy in plan.accuracies
        for pair in range(plan.pairs)
    ]
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            rows = list(pool.map(execute_run, specs))
    else:
        rows = [execute_run(spec) for spec in specs]
    rows.sort(key=lambda r: (r["solver"], r["n"], r["accuracy"], r["pair"]))
    _write_rows(out / "runs.csv", rows)
    cells = _aggregate(rows)
    _write_aggregate(out / "aggregate.csv", cells)
    _write_plotdata(out / "plotdata.csv", cells)
    _write_timings(out / "timings.csv", rows)
    flagged = any(r["stop_reason"] == STOP_CAP for r in rows)
    return BenchResult(rows=rows, flagged=flagged, out_dir=out)
