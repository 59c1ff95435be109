"""Race the stochastic solver against Sinkhorn and Greenkhorn on an image pair.

All three run behind the same marginal smoothing and polytope rounding and
stop at the same L1 marginal distance target, so the only difference is
the solver.  Efficiency is counted in deterministic cost units; the
``pdasgd.bench`` module docstring holds the cost-unit table and what it
leaves out.
"""

from pdasgd.bench import BenchPlan, execute_run, make_image_pair

side = 8
accuracy = 0.01
plan = BenchPlan(seed=21)

# The pair that execute_run solves: pair 0 of the plan's seed.
alpha, _, cost = make_image_pair(plan.seed, side, 0)
print(f"image side {side} -> n = {alpha.n} atoms, |C|_inf = {cost.max_abs}")
print(f"target marginal distance: {accuracy}\n")

print(f"{'solver':>12} {'cost units':>14} {'ot value':>10} {'d final':>10} {'stop':>18}")
for solver in ("pdasgd", "sinkhorn", "greenkhorn"):
    row = execute_run(plan, solver, side, accuracy, pair=0)
    print(
        f"{solver:>12} {row['cost_units']:14,d} {row['ot_value']:10.5f} "
        f"{row['d_final']:10.5f} {row['stop_reason']:>18}"
    )

print(
    "\nFor the full grid (five pairs, four sizes, four accuracies, aggregate\n"
    "CSVs and plot data) use the command line:  pdasgd bench --out results/"
)
