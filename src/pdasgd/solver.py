"""Primal-dual accelerated stochastic gradient descent with variance reduction.

Minimizes a finite-sum dual objective ``phi(lam) = (1/h) sum_i phi_i(lam)``
while averaging the associated primal iterates.  The oracle evaluates the
anchor ``lam_tilde`` once each time it is set, at init and after each reset,
as a snapshot: ``phi(lam_tilde)`` for the record's gap, the full gradient
``u = grad phi(lam_tilde)`` and the anchor component gradients
``grad phi_i(lam_tilde)``.  Each outer iteration s:

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
  * resets ``lam_tilde`` to the mean of the m produced y iterates and takes
    its snapshot, and
  * picks one of the m inner ``lam`` values uniformly at random, maps it to
    the primal, and folds it into the running weighted average
    ``x_s = D / Ccoef`` with weight ``1 / tau1_s``.

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

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Protocol

import numpy as np

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


class FiniteSumOracle(Protocol):
    """What the solver needs from a dual objective.

    ``component_count`` components over duals of size ``dual_dimension``;
    ``component_gradient(i, lam, out)`` writes grad phi_i(lam) into ``out``,
    once per inner step; ``snapshot(lam)`` returns the :class:`Snapshot` of
    lam, whose batched anchor rows the inner steps subtract;
    ``sampling_weights()`` returns a probability vector (or a Distribution)
    positive wherever L_i > 0; ``average_smoothness()`` returns Lbar;
    ``primal_map(lam)`` returns the primal point attached to lam, as a fresh
    array the solver may overwrite.  The
    telemetry hooks fill the run records: ``constraint_violation_l1(x)`` at
    every checkpoint, ``primal_objective(x)`` at certified ones.
    """

    component_count: int
    dual_dimension: int

    def component_gradient(self, i: int, lam: np.ndarray, out: np.ndarray) -> np.ndarray: ...

    def snapshot(self, lam: np.ndarray) -> Snapshot: ...

    def sampling_weights(self): ...

    def average_smoothness(self) -> float: ...

    def primal_map(self, lam: np.ndarray) -> np.ndarray: ...

    def primal_objective(self, x: np.ndarray) -> float: ...

    def constraint_violation_l1(self, x: np.ndarray) -> float: ...


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


@dataclass
class SolverOptions:
    inner_iterations: int
    outer_iterations: int
    seed: int = 0
    z_step_multiplier: float = 1.0
    initial_dual: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.inner_iterations < 1:
            raise ValueError("inner_iterations must be >= 1")
        if self.outer_iterations < 1:
            raise ValueError("outer_iterations must be >= 1")
        if self.z_step_multiplier <= 0:
            raise ValueError("z_step_multiplier must be positive")


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
    snapshot: Snapshot  # of lambda_tilde
    D: np.ndarray  # weighted primal accumulator, shape of primal_map output
    Ccoef: float
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

    def primal_average(self) -> np.ndarray:
        if self.Ccoef <= 0:
            raise RuntimeError("no primal iterate accumulated yet")
        return self.D / self.Ccoef


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


def _weights_array(w) -> np.ndarray:
    return np.ascontiguousarray(getattr(w, "weights", w), dtype=np.float64)


def init_state(oracle: FiniteSumOracle, options: SolverOptions) -> SolverState:
    """All-zero dual sequences unless an initial dual is supplied."""
    weights = _weights_array(oracle.sampling_weights())
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
    primal_shape = np.asarray(oracle.primal_map(lam0)).shape
    divisors = h * weights
    return SolverState(
        y=lam0.copy(),
        z=lam0.copy(),
        lambda_tilde=lam0.copy(),
        lambda_cur=lam0.copy(),
        snapshot=oracle.snapshot(lam0),
        D=np.zeros(primal_shape),
        Ccoef=0.0,
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
    """m inner steps, anchor reset and snapshot, and primal accumulation.

    Charges the m inner steps and their component gradients, and the full
    gradient of the snapshot they use, which was taken when lambda_tilde was
    last set.
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
    t1 = tau1(s)
    picked = oracle.primal_map(state._picked_lambda)
    picked /= t1
    state.D += picked
    state.Ccoef += 1.0 / t1
    state.s = s + 1
    for name, vec in (("lambda_tilde", state.lambda_tilde), ("z", state.z), ("y", state.y)):
        if not np.isfinite(vec).all():
            raise DivergenceError(
                f"non-finite {name} after outer iteration {state.s} "
                f"(max |z| = {np.abs(state.z).max():.3e})"
            )
    state.snapshot = oracle.snapshot(state.lambda_tilde)


@dataclass
class SolveResult:
    primal: np.ndarray
    dual: np.ndarray
    records: list
    stop_reason: Optional[str]
    state: SolverState


StoppingRule = Callable[[RunRecord, np.ndarray, Callable[[], float]], Optional[str]]


def make_record(state: SolverState, oracle: FiniteSumOracle) -> tuple[RunRecord, np.ndarray]:
    """The current averaged primal x_s and its record; returns (record, x_s).

    Fills the marginal violation only; :func:`certify` adds the primal
    objective and the duality gap.
    """
    x_s = state.primal_average()
    record = RunRecord(
        outer_index=state.s,
        cumulative_component_gradients=state.n_component_gradients,
        primal_objective=None,
        constraint_violation_l1=float(oracle.constraint_violation_l1(x_s)),
        duality_gap=None,
    )
    return record, x_s


def certify(record: RunRecord, x_s: np.ndarray, dual_value: float, oracle: FiniteSumOracle) -> float:
    """The duality gap f(x_s) + phi(lambda_tilde) of a record, evaluated once.

    ``dual_value`` is phi(lambda_tilde), read from the snapshot of the
    record's outer iteration.  The first call writes f(x_s) and the gap into
    the record; later calls return the recorded gap.
    """
    if record.duality_gap is None:
        record.primal_objective = float(oracle.primal_objective(x_s))
        record.duality_gap = record.primal_objective + float(dual_value)
    return record.duality_gap


def run(
    oracle: FiniteSumOracle,
    options: SolverOptions,
    stop: Optional[StoppingRule] = None,
) -> SolveResult:
    """Run outer iterations until the budget or the stopping rule fires.

    Every outer iteration is a checkpoint: its record is appended and the
    stopping rule is called as ``stop(record, x_s, gap)`` with the averaged
    primal x_s and a zero-argument ``gap`` that evaluates the duality gap
    (:func:`certify`, an n^2 pass) on its first call; returning a string
    stops the run with that reason.  A record carries ``primal_objective``
    and ``duality_gap`` only if the rule called ``gap``.  Without a rule,
    every checkpoint is certified, so the records are complete.
    Deterministic given (seed, oracle, options).
    """
    state = init_state(oracle, options)
    records: list[RunRecord] = []
    stop_reason = None
    for _ in range(options.outer_iterations):
        outer_iteration(state, oracle, options)
        record, x_s = make_record(state, oracle)
        records.append(record)
        gap = partial(certify, record, x_s, state.snapshot.value, oracle)
        if stop is None:
            gap()
            continue
        stop_reason = stop(record, x_s, gap)
        if stop_reason is not None:
            break
    return SolveResult(
        primal=state.primal_average(),
        dual=state.lambda_tilde.copy(),
        records=records,
        stop_reason=stop_reason,
        state=state,
    )
