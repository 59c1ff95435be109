"""Workloads of the pdasgd benchmark: instance pools, the pipeline call, checks.

Every workload solves a small fixed pool of synthetic image pairs, built by
the public ``pdasgd.bench.make_image_pair`` with pool root seed 0, through
one public pipeline call at a fixed (n, epsilon, kappa).

The run seed does not choose the images.  Certified solve times of
different image pairs span almost 3x at n = 256 (6 to 17 s at
epsilon = 0.02), so a seed-chosen pool would make every timing depend on
which pairs the seed drew, and no run length that fits the time budget
averages that out.  The seed instead relabels the pixels of each pair by a
random permutation, applied to both marginals and to the rows and columns
of the cost, and seeds the solver's sampling stream.  A relabelled instance
is the same transport problem, with the same optimum and the same
difficulty, so the seed changes the inputs the program receives but not
the work a solve needs.

This module imports ``pdasgd`` at import time; ``run.py`` puts the
checkout's ``src`` directory on the path first.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy

import pdasgd
import pdasgd.approx
from pdasgd.approx import STOP_CONVERGED, ApproxConfig
from pdasgd.bench import make_image_pair
from pdasgd.rng import SplitMix64, derive_seed

POOL_ROOT_SEED = 0
FEASIBILITY_ATOL = 1e-10
# Outer iterations (pdasgd) or sweeps (sinkhorn) of the short warm-up solves
# that also check replay.
PROBE_ITERATIONS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "pdasgd" or "sinkhorn"
    profile: str  # pdasgd solver profile; unused by sinkhorn
    side: int  # image side; n = side ** 2
    epsilon: float
    kappa: float
    pairs: tuple  # pool pair indices under POOL_ROOT_SEED
    reference: tuple  # (loop parts, dense parts) of one ReferenceKernel pass

    @property
    def n(self) -> int:
        return self.side * self.side


# Each workload puts one layer that is likely to be optimised under most of
# the load; see README.md for the measured shares and the predictions.  The
# reference kernel's mix follows each workload's split between Python-level
# loops and dense numpy passes.
WORKLOADS = {
    w.name: w
    for w in (
        # Dense n^2 semi-dual passes dominate (benchmark profile, m = 32).
        Workload("pdasgd-dense-n256", "pdasgd", "benchmark", 16, 0.05, 8.0, (0, 1), (1, 1)),
        # The O(n) inner loop dominates (theory profile, m = n = 64).
        Workload("pdasgd-inner-n64", "pdasgd", "theory", 8, 0.05, 32.0, (0, 1), (2, 0)),
        # Same instances and epsilon as the dense workload; never enters
        # the semi-dual oracle or the stochastic solver.
        Workload("sinkhorn-n256", "sinkhorn", "benchmark", 16, 0.05, 8.0, (0, 1), (0, 2)),
    )
}


@dataclass(frozen=True)
class Instance:
    pair: int
    alpha: np.ndarray
    beta: np.ndarray
    cost: np.ndarray
    solver_seed: int

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for arr in (self.alpha, self.beta, self.cost):
            h.update(arr.tobytes())
        h.update(str(self.solver_seed).encode())
        return h.hexdigest()[:16]


def build_instance(workload: Workload, seed: int, pair: int, make_pair=make_image_pair) -> Instance:
    """Pool pair ``pair`` relabelled by a permutation drawn from ``seed``."""
    alpha, beta, cost = make_pair(POOL_ROOT_SEED, workload.side, pair)
    rng = SplitMix64(derive_seed(seed, f"{workload.name}/relabel/{pair}"))
    perm = np.argsort(rng.doubles(workload.n), kind="stable")
    return Instance(
        pair=pair,
        alpha=alpha.weights[perm],
        beta=beta.weights[perm],
        cost=np.ascontiguousarray(cost.entries[np.ix_(perm, perm)]),
        solver_seed=derive_seed(seed, f"{workload.name}/solver/{pair}"),
    )


def build_pool(workload: Workload, seed: int, make_pair=make_image_pair) -> list:
    return [build_instance(workload, seed, p, make_pair) for p in workload.pairs]


def solve(workload: Workload, inst: Instance, max_outer: Optional[int] = None):
    """One public pipeline call; returns the ``ApproxResult``.

    The call goes through the ``pdasgd.approx`` module attributes so that
    the traced run's hooks, bound into that namespace, see it.
    """
    config = ApproxConfig(
        epsilon=workload.epsilon,
        solver_profile=workload.profile,
        kappa=workload.kappa,
        seed=inst.solver_seed,
        max_outer=max_outer,
    )
    if workload.method == "pdasgd":
        return pdasgd.approx.approx_ot(inst.cost, inst.alpha, inst.beta, config)
    return pdasgd.approx.approx_ot_scaling(inst.cost, inst.alpha, inst.beta, config, method="sinkhorn")


class ReferenceKernel:
    """A fixed kernel of the benchmark's own, timed just before each solve.

    Other tenants of the host slow this process by up to 2x for minutes at a
    time, which moves raw solve times between runs far more than any bound
    a regression check could use.  The kernel's work never changes and does
    not touch ``pdasgd``, so a solve time divided by the time of the kernel
    run just before it cancels most of that slowdown while still moving
    with the program.  A pass is made of parts of about 10 ms each on a
    quiet host: a loop part is a Python loop of small vector operations,
    like the solver's inner steps; a dense part is 256 x 256 softmax
    passes, like the semi-dual and Sinkhorn passes.
    """

    def __init__(self, loop_parts: int, dense_parts: int):
        rng = np.random.default_rng(0)
        self.row = rng.random(64)
        self.cost = rng.random((256, 256))
        self.loop_parts = loop_parts
        self.dense_parts = dense_parts

    def __call__(self) -> float:
        """Seconds for one pass of the kernel."""
        t0 = time.perf_counter()
        v, out = np.zeros(64), np.empty(64)
        for _ in range(2000 * self.loop_parts):
            t = v / 0.01 + self.row
            np.exp(t - t.max(), out=out)
            out /= out.sum()
            v -= 1e-4 * out
        w = np.zeros(256)
        for _ in range(20 * self.dense_parts):
            t = (w - self.cost) / 0.01
            e = np.exp(t - t.max(axis=1, keepdims=True))
            w -= 1e-6 * (e / e.sum(axis=1, keepdims=True)).sum(axis=0)
        return time.perf_counter() - t0


@dataclass(frozen=True)
class Outcome:
    """What the checks and metrics need from one ``ApproxResult``.

    Taken right after the solve, so that the run does not keep every plan
    alive and inflate its own peak memory.
    """

    stop_reason: str
    ot_value: float
    plan_min: float
    marginal_deviation: float  # max |row or column sum - original marginal|
    outer_iterations: int
    op_counts: dict
    checkpoints: int
    l1_change: float

    @classmethod
    def of(cls, inst: Instance, result) -> "Outcome":
        plan = result.plan.entries
        return cls(
            stop_reason=result.stop_reason,
            ot_value=result.ot_value,
            plan_min=float(plan.min()),
            marginal_deviation=max(
                float(np.abs(plan.sum(axis=1) - inst.alpha).max()),
                float(np.abs(plan.sum(axis=0) - inst.beta).max()),
            ),
            outer_iterations=result.outer_iterations,
            op_counts=dict(result.op_counts),
            checkpoints=len(result.records),
            l1_change=result.rounding_report.l1_change,
        )

    def fields(self) -> tuple:
        """Fields that must replay exactly from the seed."""
        return (
            self.outer_iterations,
            tuple(sorted(self.op_counts.items())),
            self.checkpoints,
            self.ot_value.hex(),
        )


def fields_digest(fields: list) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def probe_replay(workload: Workload, seed: int, pool: list) -> list:
    """Short untimed solves that warm the pipeline and check replay.

    Returns the failed checks: a short solve of the first pool instance
    must replay exactly, and the next seed must give different inputs.
    """
    problems = []
    with warnings.catch_warnings():
        # The short solves stop at their cap on purpose.
        warnings.simplefilter("ignore", RuntimeWarning)
        first = Outcome.of(pool[0], solve(workload, pool[0], PROBE_ITERATIONS)).fields()
        again = Outcome.of(pool[0], solve(workload, pool[0], PROBE_ITERATIONS)).fields()
    if first != again:
        problems.append(f"replay: two short solves of pair {pool[0].pair} differ: {first} vs {again}")
    other = build_instance(workload, seed + 1, pool[0].pair)
    if other.fingerprint() == pool[0].fingerprint():
        problems.append(f"seed {seed} and seed {seed + 1} give the same inputs")
    return problems


def lp_optimum(inst: Instance) -> float:
    """Exact optimal transport cost by the HiGHS linear-programming solver."""
    from scipy import sparse
    from scipy.optimize import linprog

    n = inst.alpha.size
    ones = np.ones((1, n))
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), ones), sparse.kron(ones, sparse.eye(n))]).tocsr()
    b_eq = np.concatenate([inst.alpha, inst.beta])
    res = linprog(inst.cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed on pair {inst.pair}: {res.message}")
    return float(res.fun)


def check_solve(workload: Workload, outcome: Outcome, optimum: float) -> tuple:
    """(excess over the optimum in units of epsilon, list of failed checks)."""
    problems = []
    if outcome.stop_reason != STOP_CONVERGED:
        problems.append(f"stopped on {outcome.stop_reason!r}, not the certificate")
    if outcome.plan_min < 0:
        problems.append(f"negative plan entry {outcome.plan_min:.3e}")
    if outcome.marginal_deviation > FEASIBILITY_ATOL:
        problems.append(f"marginal deviation {outcome.marginal_deviation:.3e} > {FEASIBILITY_ATOL:g}")
    excess = (outcome.ot_value - optimum) / workload.epsilon
    if excess > 1.0:
        problems.append(f"ot_value exceeds the LP optimum by {excess:.4f} epsilon")
    return excess, problems


def environment() -> str:
    """One line naming the software the numbers were measured with."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas.get('name', '?')}-{blas.get('version', '?')} "
        f"scipy={scipy.__version__} pdasgd={pdasgd.__version__} {threads}"
    )
