#!/usr/bin/env python3
"""pdasgd benchmark: wall time to a certified epsilon-plan, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pdasgd-dense-n256 --seed 0 --seconds 30 --trace 0

The run builds its workload's instance pool from ``--seed``, solves the pool
in whole rounds for ``--seconds``, checks every solve against an exact LP
optimum, and prints one JSON object as the last line of standard output.
``--trace 0`` reports the end-to-end metrics with tracing off, measured in
``PARTS`` fresh processes one after another; ``--trace 1`` alternates
untraced and traced solves of the same instances in this process and
reports the per-layer metrics.  The exit code is 0 only when every check
passed.  See README.md for the workloads and the metrics.
"""

import os

# BLAS and OpenMP read their thread counts once, when numpy is first
# imported; the load is one process on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
REFERENCE_SHARE = 0.1
# Each process places its arrays differently, which moves the speed of the
# dense workloads by about 6% from process to process; the untraced run
# pools the solves of several processes.
PARTS = 3
clock = time.perf_counter


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_workloads():
    """Import the benchmark's workloads module and, through it, ``pdasgd``
    from this checkout's ``src``; exit without a result if that fails."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import workloads
    except ImportError as exc:
        fail(f"cannot import pdasgd from {SRC}: {exc}")
    origin = Path(workloads.pdasgd.__file__).resolve().parent.parent
    if origin != SRC.resolve():
        fail(f"pdasgd was imported from {origin}, not from {SRC}")
    return workloads


def run_self(*args: str) -> str:
    """Run this script in a fresh process; return its last line of output."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"{' '.join(args)} failed with exit code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


@dataclass
class Solve:
    pair: int
    seconds: float
    traced: bool
    reference: float = 0.0  # mean reference pass just before; 0 when traced
    outcome: object = None  # workloads.Outcome, or None when the solve raised
    error: Optional[str] = None


def timed_solve(wl, workload, inst, tracer=None) -> Solve:
    root = "approx.approx_ot" if workload.method == "pdasgd" else "approx.approx_ot_scaling"
    t0 = clock()
    try:
        if tracer is None:
            result = wl.solve(workload, inst)
        else:
            with tracer.hooks():
                result = tracer.call(root, wl.solve, workload, inst)
    except Exception as exc:  # a failed solve is counted, and the run goes on
        traceback.print_exc()
        return Solve(inst.pair, clock() - t0, tracer is not None, error=f"{type(exc).__name__}: {exc}")
    seconds = clock() - t0
    return Solve(inst.pair, seconds, tracer is not None, outcome=wl.Outcome.of(inst, result))


def timed_rounds(wl, workload, pool, seconds: float, tracer=None) -> tuple:
    """Whole rounds over the pool for about ``seconds``.

    Another round starts only if it should end less than half a round past
    ``seconds``, so runs measure ``seconds`` on average whatever the round
    length.  Before each untraced solve the reference kernel runs for at least one
    pass and about ``REFERENCE_SHARE`` of the previous solve's time.  With a
    tracer, each instance is solved untraced and then traced.  Returns
    (solves, timed wall seconds, rounds).
    """
    reference = wl.ReferenceKernel(*workload.reference)
    solves, rounds = [], []
    start = clock()
    while True:
        r0 = clock()
        for inst in pool:
            budget = REFERENCE_SHARE * (solves[-1].seconds if solves else 0.0)
            passes = [reference()]
            while sum(passes) < budget:
                passes.append(reference())
            solves.append(timed_solve(wl, workload, inst))
            solves[-1].reference = statistics.fmean(passes)
            if tracer is not None:
                tracer.solve_id = len(solves)
                solves.append(timed_solve(wl, workload, inst, tracer))
        rounds.append(clock() - r0)
        if clock() - start + statistics.median(rounds) / 2 > seconds:
            return solves, clock() - start, len(rounds)


def measure(wl, workload, pool, seed: int, seconds: float, tracer=None) -> tuple:
    """Replay probe, then the timed rounds: (probe problems, solves, wall, rounds)."""
    problems = wl.probe_replay(workload, seed, pool)
    return (problems, *timed_rounds(wl, workload, pool, seconds, tracer))


def measure_in_parts(wl, args) -> tuple:
    """``measure`` in ``PARTS`` fresh processes of ``--seconds / PARTS`` each.

    Returns (probe problems, failed probes, solves, wall, rounds, peak RSS
    in MB of the largest part).
    """
    problems, failed_probes, solves, wall, rounds, rss_mb = [], 0, [], 0.0, 0, 0.0
    for _ in range(PARTS):
        line = run_self("--part", "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds / PARTS))
        part = json.loads(line)
        problems += part["problems"]
        failed_probes += 1 if part["problems"] else 0
        for s in part["solves"]:
            outcome = wl.Outcome(**s.pop("outcome")) if s["outcome"] else None
            solves.append(Solve(**s, outcome=outcome))
        wall += part["wall"]
        rounds += part["rounds"]
        rss_mb = max(rss_mb, part["rss_mb"])
    return problems, failed_probes, solves, wall, rounds, rss_mb


def check_all(wl, workload, pool, solves) -> tuple:
    """LP references (untimed), per-solve checks and replay across rounds.

    Returns (excess per solve, failed solve count, problem lines).
    """
    optimum = {inst.pair: wl.lp_optimum(inst) for inst in pool}
    first_fields = {}
    excesses, failed, problems = [], 0, []
    for k, s in enumerate(solves):
        if s.outcome is None:
            failed += 1
            problems.append(f"solve {k} (pair {s.pair}): {s.error}")
            continue
        excess, issues = wl.check_solve(workload, s.outcome, optimum[s.pair])
        fields = s.outcome.fields()
        expected = first_fields.setdefault(s.pair, fields)
        if fields != expected:
            issues.append(f"does not replay: {fields} vs first solve {expected}")
        excesses.append(excess)
        if issues:
            failed += 1
            problems.extend(f"solve {k} (pair {s.pair}): {msg}" for msg in issues)
    return excesses, failed, problems


def solve_ref_p50(solves) -> float:
    """Mean over the pool of each instance's median untraced solve time,
    each solve in units of the reference pass run just before it."""
    ratios = {}
    for s in solves:
        if not s.traced:
            ratios.setdefault(s.pair, []).append(s.seconds / s.reference)
    return statistics.fmean(statistics.median(r) for r in ratios.values())


def latency_summary(solves, wall: float) -> str:
    """Raw wall times: median and throughput with the solve count, and the
    highest percentile that has at least ten solves beyond it when the run
    has that many."""
    untraced = [s for s in solves if not s.traced]
    times = [s.seconds for s in untraced]
    n = len(times)
    text = f"{n} solves, {n / wall:.4f} solves/s, p50 {statistics.median(times):.4f} s"
    p = math.floor(100 * (1 - 10 / n)) if n >= 20 else 0
    if p > 50:
        text += f", p{p} {statistics.quantiles(times, n=100)[p - 1]:.4f} s"
    return text + f", reference pass p50 {statistics.median(s.reference for s in untraced):.5f} s"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(solves, setup, excesses, rss_mb) -> dict:
    return {
        "solve_ref_p50": metric(solve_ref_p50(solves), "ref"),
        "setup_s": metric(setup, "s"),
        "excess_over_eps_max": metric(max(excesses) if excesses else None, "eps"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


class MissingHook(Exception):
    pass


def layer_metrics(wl, workload, tracer, solves) -> dict:
    """Per-layer metrics, each a mean per traced solve unless named otherwise."""
    from pdasgd.bench import pdasgd_cost_units, sinkhorn_cost_units

    n = workload.n
    traced = [s for s in solves if s.traced and s.outcome is not None]
    untraced = [s for s in solves if not s.traced]
    k = max(len(traced), 1)
    spans = tracer.per_name({i for i, s in enumerate(solves) if s.traced})
    setup = tracer.per_name({-1})
    traced_wall = sum(s.seconds for s in traced) or math.nan
    is_pdasgd = workload.method == "pdasgd"

    def span(name):
        if name in tracer.missing:
            raise MissingHook(tracer.missing[name])
        return spans.get(name, (0, 0.0, 0.0))

    def calls(name):
        return span(name)[0]

    def incl(name):
        return span(name)[1]

    def own(name):
        return span(name)[2]

    dense = ("semidual.full_gradient", "semidual.dual_value", "semidual.primal_map", "semidual.primal_objective")
    softmax = dense[:3]
    outcomes = [s.outcome for s in traced]
    outer = sum(o.outer_iterations for o in outcomes) if is_pdasgd else 0
    steps = sum(o.op_counts.get("inner_steps", 0) for o in outcomes)
    sweeps = sum(o.op_counts.get("sweeps", 0) for o in outcomes)
    root = "approx.approx_ot" if is_pdasgd else "approx.approx_ot_scaling"

    def semidual_exps():
        return n * n * sum(calls(c) for c in softmax) + n * calls("semidual.component_gradient")

    def sinkhorn_exps():
        # One n^2 exp for the starting plan, then per sweep two row
        # logsumexps and the plan, each n^2.
        return n * n * (calls("baselines.sinkhorn") + 3 * sweeps)

    def cost_units():
        if is_pdasgd:
            return sum(pdasgd_cost_units(n, o.op_counts["component_gradients"], o.op_counts["inner_steps"]) for o in outcomes)
        return sum(sinkhorn_cost_units(n, o.op_counts["sweeps"]) for o in outcomes)

    def ratio(num, den):
        return num / den if den else 0.0

    table = [
        ("semidual.full_gradient_s", "s", lambda: own("semidual.full_gradient") / k),
        ("semidual.full_gradient_calls", "count", lambda: calls("semidual.full_gradient") / k),
        ("semidual.dual_value_s", "s", lambda: own("semidual.dual_value") / k),
        ("semidual.dual_value_calls", "count", lambda: calls("semidual.dual_value") / k),
        ("semidual.primal_map_s", "s", lambda: own("semidual.primal_map") / k),
        ("semidual.primal_map_calls", "count", lambda: calls("semidual.primal_map") / k),
        ("semidual.primal_objective_s", "s", lambda: own("semidual.primal_objective") / k),
        ("semidual.constraint_violation_s", "s", lambda: own("semidual.constraint_violation_l1") / k),
        ("semidual.component_gradient_s", "s", lambda: own("semidual.component_gradient") / k),
        ("semidual.component_gradient_calls", "count", lambda: calls("semidual.component_gradient") / k),
        ("semidual.dense_passes_per_outer", "count", lambda: ratio(sum(calls(c) for c in dense), outer)),
        ("semidual.exp_computed", "count", lambda: semidual_exps() / k),
        ("semidual.bytes_computed", "B", lambda: 8 * (
            n * n * sum(calls(c) for c in dense + ("semidual.constraint_violation_l1",))
            + n * calls("semidual.component_gradient")) / k),
        ("semidual.dense_share", "frac", lambda: sum(incl(c) for c in dense) / traced_wall),
        ("solver.inner_step_s", "s", lambda: own("solver.inner_step") / k),
        ("solver.inner_steps", "count", lambda: steps / k),
        ("solver.us_per_inner_step", "us", lambda: 1e6 * ratio(incl("solver.inner_step"), calls("solver.inner_step"))),
        ("solver.inner_step_share", "frac", lambda: incl("solver.inner_step") / traced_wall),
        ("rng.draw_s", "s", lambda: own("rng.draw") / k),
        ("rng.draws", "count", lambda: calls("rng.draw") / k),
        ("solver.outer_iterations", "count", lambda: outer / k),
        ("solver.checkpoints", "count", lambda: sum(o.checkpoints for o in outcomes) / k),
        ("solver.run_s", "s", lambda: incl("solver.run") / k),
        ("solver.self_s", "s", lambda: own("solver.run") / k),
        ("baselines.sinkhorn_s", "s", lambda: own("baselines.sinkhorn") / k),
        ("baselines.sweeps", "count", lambda: sweeps / k),
        ("baselines.us_per_sweep", "us", lambda: 1e6 * ratio(incl("baselines.sinkhorn"), sweeps)),
        ("baselines.exp_computed", "count", lambda: sinkhorn_exps() / k),
        ("baselines.sinkhorn_share", "frac", lambda: incl("baselines.sinkhorn") / traced_wall),
        ("rounding.round_s", "s", lambda: own("rounding.round_to_polytope") / k),
        ("rounding.l1_change_max", "1", lambda: max(o.l1_change for o in outcomes)),
        ("approx.self_s", "s", lambda: own(root) / k),
        ("approx.smooth_s", "s", lambda: own("approx.smooth_marginals") / k),
        ("images.instance_s", "s", lambda: ratio(setup["images.make_image_pair"][1], setup["images.make_image_pair"][0])),
        ("bench.cost_units_model", "units", lambda: cost_units() / k),
        ("bench.cost_units_per_exp", "units/exp", lambda: ratio(cost_units(), semidual_exps() + sinkhorn_exps())),
        ("trace_overhead_frac", "frac", lambda: (
            sum(s.seconds for s in traced) - sum(s.seconds for s in untraced)) / sum(s.seconds for s in untraced)),
    ]
    out = {}
    for name, unit, compute in table:
        try:
            out[name] = metric(compute(), unit)
        except MissingHook as exc:
            out[name] = {"value": None, "unit": unit, "reason": str(exc)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--part", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = clock()
    wl = import_workloads()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    if args.setup_probe:
        wl.build_pool(workload, args.seed)
        print(repr(clock() - t0))
        return 0
    if args.part:
        problems, solves, wall, rounds = measure(wl, workload, wl.build_pool(workload, args.seed), args.seed, args.seconds)
        part = {"problems": problems, "solves": [asdict(s) for s in solves], "wall": wall, "rounds": rounds}
        print(json.dumps({**part, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
        return 0

    print(f"env: {wl.environment()}")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        pool = wl.build_pool(workload, args.seed, tracer.wrap("images.make_image_pair", wl.make_image_pair))
        problems, solves, wall, rounds = measure(wl, workload, pool, args.seed, args.seconds, tracer)
        failed_probes, probes = (1 if problems else 0), 1
    else:
        pool = wl.build_pool(workload, args.seed)
        problems, failed_probes, solves, wall, rounds, rss_mb = measure_in_parts(wl, args)
        probes = PARTS
        setup = statistics.median(float(run_self("--setup-probe", "--workload", args.workload, "--seed", str(args.seed)))
                                  for _ in range(SETUP_PROBES))

    excesses, failed, solve_problems = check_all(wl, workload, pool, solves)
    failed += failed_probes
    problems += solve_problems
    attempted = len(solves) + probes  # each replay probe counts as one operation
    first_round = [s.outcome.fields() for s in solves[: len(pool) * (1 + args.trace)] if s.outcome]
    print(f"{args.workload} seed={args.seed}: {rounds} rounds, {latency_summary(solves, wall)}")
    print(f"inputs: {' '.join(inst.fingerprint() for inst in pool)}  outputs: {wl.fields_digest(first_round)}")
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end_metrics(solves, setup, excesses, rss_mb)
    else:
        metrics = layer_metrics(wl, workload, tracer, solves)
        for name, reason in sorted(tracer.missing.items()):
            print(f"trace: {name} unavailable: {reason}")
        tracer.write(ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.npz")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
