"""Command-line interface.

Subcommands:

    gen     write synthetic square-on-black images as CSV matrices
    solve   approximate one transport instance, print key=value diagnostics
    bench   run the benchmark grid and write CSV outputs
    oracle  exact value of a tiny instance by vertex enumeration

Exit codes: 0 on success, 2 when any run hit its iteration cap before its
target or diverged (flagged), 3 when ``solve``'s run stopped with reason
``diverged``, whatever the solver, 1 on errors, usage errors included.
Each of 2 and 3 is decided by the result's stop reason alone.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


from . import bench as bench_mod
from .approx import DEFAULT_KAPPA, PROFILES, ApproxConfig, approx_ot
from .core import STOP_DIVERGED, marginal_distance
from .exact import exact_ot_oracle
from .images import (
    ImageInstance,
    gen_synthetic_image,
    image_distribution,
    image_to_instance,
    load_image_file,
    save_csv_matrix,
)
from .rng import SplitMix64, derive_seed


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on every other error: 2 means a flagged run."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _comma_list(kind):
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma list of {kind.__name__}s, got {text!r}") from None

    return parse


def _instance_from_args(args, synthetic, labels):
    """Image pair from files if given, else ``synthetic(side, seed)`` at the seeds of ``labels``."""
    if args.image_a or args.image_b:
        if not (args.image_a and args.image_b):
            raise ValueError("--image-a and --image-b must be given together")
        img_a = load_image_file(args.image_a)
        img_b = load_image_file(args.image_b)
        if img_a.pixels.shape != img_b.pixels.shape:
            raise ValueError("the two images must have identical shapes")
    else:
        img_a, img_b = (synthetic(args.size, derive_seed(args.seed, label)) for label in labels)
    alpha, cost = image_to_instance(img_a)
    return alpha, image_distribution(img_b), cost


def _random_grid(side: int, seed: int) -> ImageInstance:
    """Plain random grid: the enumeration budget (n <= 5) rules out the 20%-square synthetic images."""
    return ImageInstance(0.05 + SplitMix64(seed).doubles(side * side).reshape(side, side))


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    out = Path(args.out)
    if args.count > 1:
        out.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        img = gen_synthetic_image(args.size, derive_seed(args.seed, f"gen/{k}"))
        path = out / f"image_{k}.csv" if args.count > 1 else out
        save_csv_matrix(path, img.pixels)
        print(f"wrote {path}")
    return 0


def _cmd_solve(args) -> int:
    alpha, beta, cost = _instance_from_args(args, gen_synthetic_image, ("cli/a", "cli/b"))
    config = ApproxConfig(
        epsilon=args.epsilon,
        solver_profile=args.profile,
        max_outer=args.max_outer,
        seed=derive_seed(args.seed, "cli/solve"),
        kappa=args.kappa,
    )
    result = approx_ot(cost, alpha, beta, config, method=args.solver)
    if result.stop_reason == STOP_DIVERGED:
        print(f"error: {args.solver} diverged after {result.outer_iterations} outer iterations", file=sys.stderr)
        return 3
    n = alpha.n
    print(f"solver={args.solver}")
    print(f"n={n}")
    print(f"epsilon={args.epsilon:.17g}")
    print(f"eta={result.eta:.17g}")
    print(f"eps_prime={result.eps_prime:.17g}")
    print(f"ot_value={result.ot_value:.17g}")
    print(f"d_final={marginal_distance(result.unrounded, alpha.weights, beta.weights):.17g}")
    print(f"feasibility_gap={marginal_distance(result.plan, alpha.weights, beta.weights):.17g}")
    print(f"stop_reason={result.stop_reason}")
    print(f"outer_iterations={result.outer_iterations}")
    for key, value in sorted(result.op_counts.items()):
        print(f"{key}={value}")
    if args.out:
        save_csv_matrix(args.out, result.plan.entries)
        print(f"plan={args.out}")
    return 2 if result.flagged else 0


def _cmd_oracle(args) -> int:
    alpha, beta, cost = _instance_from_args(args, _random_grid, ("cli/oracle/a", "cli/oracle/b"))
    plan, value = exact_ot_oracle(cost, alpha, beta)
    print(f"n={alpha.n}")
    print(f"ot_value={value:.17g}")
    if args.out:
        save_csv_matrix(args.out, plan.entries)
        print(f"plan={args.out}")
    return 0


def _cmd_bench(args) -> int:
    plan = bench_mod.BenchPlan(
        solvers=tuple(args.solver) if args.solver else bench_mod.SOLVERS,
        sides=args.size,
        accuracies=args.accuracy_grid,
        pairs=args.pairs,
        seed=args.seed,
        profile=args.profile,
        kappa=args.kappa,
        workers=args.workers,
        dump_plans=args.dump_plans,
    )
    result = bench_mod.run_benchmark(plan, args.out)
    print(f"runs={len(result.rows)}")
    print(f"out_dir={result.out_dir}")
    print(f"flagged={result.flagged}")
    return 2 if result.flagged else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdasgd",
        description="Approximate optimal transport solvers and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic images as CSV")
    gen.add_argument("--size", type=int, default=8, help="image side in pixels")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", required=True, help="output file (or directory for --count > 1)")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="solve one instance, print diagnostics")
    solve.add_argument("--size", type=int, default=8)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--epsilon", type=float, default=0.01)
    solve.add_argument("--solver", choices=bench_mod.SOLVERS, default="pdasgd")
    solve.add_argument("--profile", choices=PROFILES, default=ApproxConfig.solver_profile)
    solve.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    solve.add_argument("--max-outer", type=int, default=None)
    solve.add_argument("--image-a", default=None, help="load the source image from a file")
    solve.add_argument("--image-b", default=None, help="load the target image from a file")
    solve.add_argument("--out", default=None, help="write the rounded plan as CSV")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="exact small-instance value")
    oracle.add_argument("--size", type=int, default=2, help="image side; n = side^2 must be <= 5 (an exact solve takes ~0.3 s at n = 4, 30-52 s at n = 5)")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--image-a", default=None)
    oracle.add_argument("--image-b", default=None)
    oracle.add_argument("--out", default=None, help="write the optimal plan as CSV")
    oracle.set_defaults(func=_cmd_oracle)

    bench = sub.add_parser("bench", help="run the benchmark grid")
    defaults = bench_mod.BenchPlan  # the grid and run defaults live on the plan
    bench.add_argument("--size", type=_comma_list(int), default=defaults.sides, help="comma list of image sides")
    bench.add_argument("--accuracy-grid", type=_comma_list(float), default=defaults.accuracies)
    bench.add_argument("--pairs", type=int, default=defaults.pairs)
    bench.add_argument("--seed", type=int, default=defaults.seed)
    bench.add_argument("--solver", action="append", choices=bench_mod.SOLVERS, default=None, help="repeat to select solvers (default: all)")
    bench.add_argument("--profile", choices=PROFILES, default=defaults.profile)
    bench.add_argument("--kappa", type=float, default=defaults.kappa)
    bench.add_argument("--workers", type=int, default=defaults.workers)
    bench.add_argument("--dump-plans", action="store_true")
    bench.add_argument("--out", required=True, help="output directory")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
