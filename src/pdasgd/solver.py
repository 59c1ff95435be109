"""Primal-dual accelerated stochastic gradient descent with variance reduction.

Minimizes a finite-sum dual objective ``phi(lam) = (1/h) sum_i phi_i(lam)``
while averaging the associated primal iterates.  Each run owns a workspace
from ``oracle.workspace()``, which keeps the run's dense state: it
evaluates the anchor ``lam_tilde`` once each time it is set, at init and
after each reset, as a snapshot (``phi(lam_tilde)`` for the record's gap,
the full gradient ``u = grad phi(lam_tilde)`` and the anchor component
gradients ``grad phi_i(lam_tilde)``), and it keeps the weighted average
of primal maps, its total weight and its row and column sums.  Each outer
iteration s:

  * computes the constants its inner steps share (``tau1_s``, the y weight
    ``1 - tau1_s - tau2``, the z and y step coefficients and
    ``tau2 lam_tilde``), draws its m components and reads their anchor
    gradients from the snapshot as one (m, d) batch,
  * runs m inner steps of Katyusha-style momentum on the current snapshot

        lam   <- tau1_s z + tau2 lam_tilde + (1 - tau1_s - tau2) y
        g     <- u + (grad phi_i(lam) - grad phi_i(lam_tilde)) / (h p_i)
        z     <- z - multiplier * gamma_s * g / 2
        y     <- lam - g / (9 Lbar)

    with ``tau2 = 1/2``, ``tau1_s = 2/(s+4)``, ``gamma_s = 1/(9 tau1_s Lbar)``
    and component i drawn with probability ``p_i = L_i / (h Lbar)``,
  * resets ``lam_tilde`` to the mean of the m produced y iterates,
  * adds the primal map of one of the m inner ``lam`` values, picked
    uniformly at random, with weight ``1 / tau1_s`` to the workspace's
    average x_s, and
  * takes the snapshot of the new ``lam_tilde``.

A checkpoint reads only x_s's row and column sums; x_s itself is built
where the certificate needs it and for the result.  The semi-dual
oracle's workspace keeps a re-based kernel, so its snapshots and
accumulations are matrix-vector products (see :mod:`pdasgd.semidual`).

An inner step thus computes one component gradient, at ``lam``; the anchor
term comes from the snapshot.  The divisors ``h p_i`` are fixed for the
whole run and made once, at init.

The ``multiplier`` scales only the z step; 1 is the plain method and the
benchmark profile uses 15.

Randomness: each run owns a SplitMix64 stream seeded from the options.  Per
outer iteration the draw order is (1) the uniform inner index whose ``lam``
feeds the primal average, then (2) one categorical component draw per inner
step.  The m component draws are made in one batch at the start of the
outer iteration, in that same stream order, so batching changes no index.
Two runs with equal seeds and options produce bitwise-identical iterates
and records.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Protocol

import numpy as np

from .core import as_weights
from .rng import CategoricalSampler, SplitMix64


class Snapshot(Protocol):
    """An oracle's evaluation at one anchor point lam_tilde.

    ``value`` is phi(lam_tilde), ``gradient`` is grad phi(lam_tilde), and
    ``anchors(indices)`` returns a fresh (len(indices), d) array whose row k
    is grad phi_{indices[k]}(lam_tilde).  The solver asks once per outer
    iteration, for the m components it drew up front.
    """

    value: float
    gradient: np.ndarray

    def anchors(self, indices: np.ndarray) -> np.ndarray: ...


class Workspace(Protocol):
    """One run's dense state over an oracle, owned by the solver.

    ``snapshot(lam)`` returns the :class:`Snapshot` of lam, whose batched
    anchor rows the inner steps subtract; ``accumulate(lam, weight)`` adds
    weight times the primal point attached to lam to a running weighted
    average and weight to its total ``weight``; ``marginals()`` returns the
    average's row and column sums as fresh arrays;
    ``constraint_violation_l1(rows, cols)`` is the L1 distance of given row
    and column sums to the oracle's marginals; ``average()`` returns the
    average as a fresh array, leaves it unchanged and raises while nothing
    has been accumulated.
    """

    weight: float

    def snapshot(self, lam: np.ndarray) -> Snapshot: ...

    def accumulate(self, lam: np.ndarray, weight: float) -> None: ...

    def marginals(self) -> tuple[np.ndarray, np.ndarray]: ...

    def constraint_violation_l1(self, rows: np.ndarray, cols: np.ndarray) -> float: ...

    def average(self) -> np.ndarray: ...


class FiniteSumOracle(Protocol):
    """What the solver needs from a dual objective.

    ``component_count`` components over duals of size ``dual_dimension``;
    ``component_gradient(i, lam, out)`` writes grad phi_i(lam) into ``out``,
    once per inner step; ``workspace()`` returns a fresh :class:`Workspace`
    for one run, which takes the snapshots and keeps the primal sum;
    ``sampling_weights()`` returns a probability vector (or a Distribution)
    positive wherever L_i > 0; ``average_smoothness()`` returns Lbar;
    ``primal_objective(x)`` fills the records of certified checkpoints.
    """

    component_count: int
    dual_dimension: int

    def component_gradient(self, i: int, lam: np.ndarray, out: np.ndarray) -> np.ndarray: ...

    def workspace(self) -> Workspace: ...

    def sampling_weights(self): ...

    def average_smoothness(self) -> float: ...

    def primal_objective(self, x: np.ndarray) -> float: ...


class DivergenceError(RuntimeError):
    """An iterate became non-finite."""


TAU2 = 0.5


def tau1(s: int) -> float:
    """Momentum weight 2/(s+4) of the s-th outer iteration."""
    if s < 0:
        raise ValueError("outer index must be nonnegative")
    return 2.0 / (s + 4)


def gamma(s: int, avg_smoothness: float) -> float:
    """z step size 1/(9 tau1_s Lbar) = (s+4) / (18 Lbar)."""
    if avg_smoothness <= 0:
        raise ValueError("average smoothness must be positive")
    return (s + 4) / (18.0 * avg_smoothness)


def is_count(x) -> bool:
    """True for an integer >= 1 that is not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 1


@dataclass
class SolverOptions:
    inner_iterations: int
    outer_iterations: int
    seed: int = 0
    z_step_multiplier: float = 1.0
    initial_dual: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("inner_iterations", "outer_iterations"):
            value = getattr(self, name)
            if not is_count(value):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        # written so that NaN fails it
        if not 0 < self.z_step_multiplier < math.inf:
            raise ValueError(f"z_step_multiplier must be positive and finite, got {self.z_step_multiplier!r}")


@dataclass
class RunRecord:
    """Telemetry of one checkpoint, the averaged primal x_s of one outer iteration.

    ``primal_objective`` is f(x_s) and ``duality_gap`` is f(x_s) +
    phi(lambda_tilde); both are None unless the checkpoint's certificate was
    evaluated (see :func:`run`).
    """

    outer_index: int
    cumulative_component_gradients: int
    primal_objective: Optional[float]
    constraint_violation_l1: float
    duality_gap: Optional[float]


@dataclass
class SolverState:
    y: np.ndarray
    z: np.ndarray
    lambda_tilde: np.ndarray
    lambda_cur: np.ndarray
    workspace: Workspace  # holds the weighted primal average x_s
    snapshot: Snapshot  # of lambda_tilde
    s: int
    rng: SplitMix64
    sampler: CategoricalSampler
    divisors: tuple  # h p_i of each component, as 0-d arrays (see StepConstants)
    avg_smoothness: float
    n_component_gradients: int = 0
    n_inner_steps: int = 0
    # scratch buffers for the allocation-free inner loop
    _vr_grad: np.ndarray = None
    _y_sum: np.ndarray = None
    _picked_lambda: np.ndarray = None
    _pick_index: int = -1


@dataclass(frozen=True)
class StepConstants:
    """What every inner step of one outer iteration shares.

    Scalars are 0-d float64 arrays: a ufunc takes a 0-d array operand
    faster than a Python float or an ``np.float64``, with the same value.
    """

    tau1: np.ndarray  # 2 / (s + 4)
    y_weight: np.ndarray  # 1 - tau1 - tau2
    mix_y: bool  # y_weight != 0; at s = 0 the y term is skipped, not added as 0
    tau2_anchor: np.ndarray  # tau2 lambda_tilde
    z_coef: np.ndarray  # multiplier gamma_s / 2
    y_coef: np.ndarray  # -1 / (9 Lbar)
    gradient: np.ndarray  # u = grad phi(lambda_tilde), from the snapshot


def step_constants(state: SolverState, options: SolverOptions) -> StepConstants:
    """The :class:`StepConstants` of outer iteration ``state.s``."""
    t1 = tau1(state.s)
    w_y = 1.0 - t1 - TAU2
    z_coef = options.z_step_multiplier * gamma(state.s, state.avg_smoothness) / 2.0
    scalar = lambda x: np.array(x, dtype=np.float64)
    return StepConstants(
        tau1=scalar(t1),
        y_weight=scalar(w_y),
        mix_y=w_y != 0.0,
        tau2_anchor=TAU2 * state.lambda_tilde,
        z_coef=scalar(z_coef),
        y_coef=scalar(-1.0 / (9.0 * state.avg_smoothness)),
        gradient=state.snapshot.gradient,
    )


def init_state(oracle: FiniteSumOracle, options: SolverOptions) -> SolverState:
    """All-zero dual sequences unless an initial dual is supplied."""
    weights = as_weights(oracle.sampling_weights())
    h = oracle.component_count
    if weights.size != h:
        raise ValueError("sampling weights must have one entry per component")
    d = oracle.dual_dimension
    if options.initial_dual is None:
        lam0 = np.zeros(d)
    else:
        lam0 = np.array(options.initial_dual, dtype=np.float64)
        if lam0.shape != (d,):
            raise ValueError(f"initial dual must have shape ({d},)")
    zeros = lambda: np.zeros(d)
    divisors = h * weights
    workspace = oracle.workspace()
    return SolverState(
        y=lam0.copy(),
        z=lam0.copy(),
        lambda_tilde=lam0.copy(),
        lambda_cur=lam0.copy(),
        workspace=workspace,
        snapshot=workspace.snapshot(lam0),
        s=0,
        rng=SplitMix64(options.seed),
        sampler=CategoricalSampler(weights),
        divisors=tuple(divisors[i, ...] for i in range(h)),
        avg_smoothness=float(oracle.average_smoothness()),
        _vr_grad=zeros(),
        _y_sum=zeros(),
        _picked_lambda=lam0.copy(),
    )


def variance_reduced_gradient(
    oracle: FiniteSumOracle,
    i: int,
    lam: np.ndarray,
    anchor: np.ndarray,
    divisor,
    gradient: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """u + (grad phi_i(lam) - grad phi_i(lam_tilde)) / (h p_i), into ``out``.

    ``anchor`` is grad phi_i(lam_tilde) and ``gradient`` is u, both read from
    the snapshot of the anchor lam_tilde; ``divisor`` is h p_i.  The
    p_i-weighted average of this estimator over all components equals
    grad phi(lam) exactly.
    """
    oracle.component_gradient(i, lam, out)
    out -= anchor
    out /= divisor
    out += gradient
    return out


def inner_step(state: SolverState, oracle: FiniteSumOracle, step: StepConstants, i: int, anchor: np.ndarray) -> None:
    """One momentum + variance-reduced update of (lambda, z, y) on component i.

    ``step`` holds the outer iteration's constants and ``anchor`` is
    grad phi_i(lambda_tilde), a row of the snapshot's batched anchors.
    Computes one component gradient, at lambda, and runs only ufunc calls
    into the state's buffers; :func:`outer_iteration` charges the work.
    """
    lam = state.lambda_cur
    g = state._vr_grad
    # lambda <- tau1 z + tau2 lambda_tilde + (1 - tau1 - tau2) y; g is free
    # scratch until the gradient is written into it
    np.multiply(state.z, step.tau1, out=lam)
    lam += step.tau2_anchor
    if step.mix_y:
        np.multiply(state.y, step.y_weight, out=g)
        lam += g
    variance_reduced_gradient(oracle, i, lam, anchor, state.divisors[i], step.gradient, g)
    # y before z, so that g can then be scaled in place for the z step
    np.multiply(g, step.y_coef, out=state.y)
    state.y += lam
    g *= step.z_coef
    state.z -= g


def outer_iteration(state: SolverState, oracle: FiniteSumOracle, options: SolverOptions) -> None:
    """m inner steps, anchor reset, primal accumulation and snapshot.

    Charges the m inner steps and their component gradients, and the full
    gradient of the snapshot they use, which was taken when lambda_tilde was
    last set.  Raises :class:`DivergenceError` on a non-finite iterate
    before the workspace sees it.
    """
    s = state.s
    m = options.inner_iterations
    h = oracle.component_count
    step = step_constants(state, options)
    # The primal average uses one uniformly chosen inner lambda; drawing the
    # index up front lets us keep a single snapshot instead of all m iterates.
    state._pick_index = state.rng.next_index(m)
    components = state.sampler.draws(state.rng, m)
    anchors = state.snapshot.anchors(components)
    state._y_sum[:] = 0.0
    for j, (i, anchor) in enumerate(zip(components.tolist(), anchors)):
        inner_step(state, oracle, step, i, anchor)
        state._y_sum += state.y
        if j == state._pick_index:
            state._picked_lambda[:] = state.lambda_cur
    state.n_component_gradients += h + m
    state.n_inner_steps += m
    np.multiply(state._y_sum, 1.0 / m, out=state.lambda_tilde)
    state.s = s + 1
    for name, vec in (("lambda_tilde", state.lambda_tilde), ("z", state.z), ("y", state.y)):
        if not np.isfinite(vec).all():
            raise DivergenceError(
                f"non-finite {name} after outer iteration {state.s} "
                f"(max |z| = {np.abs(state.z).max():.3e})"
            )
    state.workspace.accumulate(state._picked_lambda, 1.0 / tau1(s))
    state.snapshot = state.workspace.snapshot(state.lambda_tilde)


@dataclass
class SolveResult:
    primal: np.ndarray
    dual: np.ndarray
    records: list
    stop_reason: Optional[str]
    state: SolverState


Marginals = tuple[np.ndarray, np.ndarray]
StoppingRule = Callable[[RunRecord, Marginals, Callable[[], float]], Optional[str]]


def make_record(state: SolverState) -> tuple[RunRecord, Marginals]:
    """The record of the current averaged primal x_s; returns (record, (rows, cols)).

    Reads x_s's row and column sums from the workspace, without building
    x_s, and fills the marginal violation only; :func:`certify` adds the
    primal objective and the duality gap.
    """
    rows, cols = state.workspace.marginals()
    record = RunRecord(
        outer_index=state.s,
        cumulative_component_gradients=state.n_component_gradients,
        primal_objective=None,
        constraint_violation_l1=float(state.workspace.constraint_violation_l1(rows, cols)),
        duality_gap=None,
    )
    return record, (rows, cols)


def certify(record: RunRecord, state: SolverState, oracle: FiniteSumOracle) -> float:
    """The duality gap f(x_s) + phi(lambda_tilde) of the state's current record, evaluated once.

    The first call builds x_s and writes f(x_s) and the gap, with
    phi(lambda_tilde) read from the current snapshot, into the record;
    later calls return the recorded gap.  A first call after the state has
    moved past the record's outer iteration raises, since x_s and
    lambda_tilde are then another iteration's.
    """
    if record.duality_gap is None:
        if record.outer_index != state.s:
            raise RuntimeError(
                f"cannot certify the record of outer iteration {record.outer_index} "
                f"at outer iteration {state.s}"
            )
        record.primal_objective = float(oracle.primal_objective(state.workspace.average()))
        record.duality_gap = record.primal_objective + float(state.snapshot.value)
    return record.duality_gap


def run(
    oracle: FiniteSumOracle,
    options: SolverOptions,
    stop: Optional[StoppingRule] = None,
) -> SolveResult:
    """Run outer iterations until the budget or the stopping rule fires.

    Every outer iteration is a checkpoint: its record is appended and the
    stopping rule is called as ``stop(record, (rows, cols), gap)`` with the
    row and column sums of the averaged primal x_s and a zero-argument
    ``gap`` that builds x_s and evaluates the duality gap (:func:`certify`,
    n^2 passes) on its first call, which must come before the next outer
    iteration; returning a string stops the run with that reason.  A record
    carries ``primal_objective`` and ``duality_gap`` only if the rule called
    ``gap``.  Without a rule, every checkpoint is certified, so the records
    are complete.  The result's ``primal`` is x_s of the last outer
    iteration, read from the workspace, which owns the average and its
    total weight.  Deterministic given (seed, oracle, options).
    """
    state = init_state(oracle, options)
    records: list[RunRecord] = []
    stop_reason = None
    for _ in range(options.outer_iterations):
        outer_iteration(state, oracle, options)
        record, marginals = make_record(state)
        records.append(record)
        gap = partial(certify, record, state, oracle)
        if stop is None:
            gap()
            continue
        stop_reason = stop(record, marginals, gap)
        if stop_reason is not None:
            break
    return SolveResult(
        primal=state.workspace.average(),
        dual=state.lambda_tilde.copy(),
        records=records,
        stop_reason=stop_reason,
        state=state,
    )
