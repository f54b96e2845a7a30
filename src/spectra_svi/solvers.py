"""Dual-averaging solvers in the quantum-entropy geometry.

Three methods share one iteration: a dual step Y <- Y - eta * Phi(X, xi)
followed by the blockwise Gibbs map back to the feasible set. Duals,
iterates and averages are padded profile arrays (see `problem`).

* AM-SMD keeps the stepsize-weighted running average of the iterates and
  reports that average.
* M-SMD is the same iteration reporting the last iterate.
* MEL runs the identical loop on the regularized mapping
  F'(X) = F(X) + lam * X and reports the last iterate; lam = 0 recovers
  M-SMD bitwise.

`run_batch` runs several cells (problems of one constraint set, any mix
of methods, stepsizes, noise levels and seeds) as one loop over a
leading cell axis, shape (C, N, D, D); `run` is its one-cell case.
Every cell's result is bit for bit what it would be alone. Each
iteration evaluates the game at most once: a gap iteration evaluates it
on the batch's new iterates stacked with the averaging cells' averages,
and that one result serves the next oracle call and the strong gaps at
the reported points. An optional `measure` takes over that evaluation
at every iteration and also returns a quantity (such as per-player
throughput) at the reported points.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalFailure, SpectraSviError
from .mirror import gibbs_map, gibbs_map_bounded
from .problem import (
    SpectraSet,
    SviProblem,
    TraceMode,
    assert_feasible,
    oracle_sample,
    select_cells,
    stack_problems,
    strong_gap,
)

GAP_FLOOR = -1e-8


def horizon_stepsize(C: float, n: int, T: int) -> float:
    """Horizon-tuned constant stepsize (1/C) * sqrt(log n / T).

    n is the TOTAL ambient dimension (sum of block dims): log n enters
    through the entropy radius of the product set. n = 1 is rejected
    because log 1 = 0 would freeze the iteration.
    """
    if C <= 0:
        raise ValueError(f"oracle bound must be positive, got {C}")
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    if n < 2:
        raise DomainError(
            f"total dimension must be >= 2 (got {n}): log 1 = 0 gives a "
            "zero stepsize")
    return math.sqrt(math.log(n) / T) / C


class ScheduleKind(enum.Enum):
    HORIZON = "horizon"
    CONSTANT = "constant"
    HARMONIC_SQRT = "harmonic-sqrt"
    HARMONIC = "harmonic"


@dataclass(frozen=True)
class StepSchedule:
    """Stepsize rule eta_t; positive and non-increasing in t.

    Harmonic rules use the one-based iteration count (eta_t = 1/sqrt(t+1)
    and 1/(t+1) for zero-based t) so the first step is finite. The
    horizon rule resolves to the horizon-tuned constant once C, n, T
    are known.
    """

    kind: ScheduleKind
    eta: float = 0.0

    @classmethod
    def horizon(cls) -> "StepSchedule":
        return cls(ScheduleKind.HORIZON)

    @classmethod
    def constant(cls, eta: float) -> "StepSchedule":
        if not 0 < eta < math.inf:
            raise ValueError(f"stepsize must be finite and positive, got {eta}")
        return cls(ScheduleKind.CONSTANT, eta)

    @classmethod
    def harmonic_sqrt(cls) -> "StepSchedule":
        return cls(ScheduleKind.HARMONIC_SQRT)

    @classmethod
    def harmonic(cls) -> "StepSchedule":
        return cls(ScheduleKind.HARMONIC)

    def resolve(self, C: float, n: int, T: int) -> Callable[[int], float]:
        """Bind problem constants; returns eta as a function of zero-based t."""
        if self.kind is ScheduleKind.HORIZON:
            eta = horizon_stepsize(C, n, T)
            return lambda t: eta
        if self.kind is ScheduleKind.CONSTANT:
            eta = self.eta
            return lambda t: eta
        if self.kind is ScheduleKind.HARMONIC_SQRT:
            return lambda t: 1.0 / math.sqrt(t + 1.0)
        return lambda t: 1.0 / (t + 1.0)


class Method(enum.Enum):
    AM_SMD = "am-smd"
    M_SMD = "m-smd"
    MEL = "mel"


@dataclass(frozen=True)
class SolverConfig:
    method: Method
    iterations: int
    schedule: StepSchedule
    lam: float = 0.0
    gap_every: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"need at least one iteration, got {self.iterations}")
        if self.gap_every < 1:
            raise ValueError(f"gap_every must be >= 1, got {self.gap_every}")
        if self.lam < 0:
            raise ValueError(f"regularization must be >= 0, got {self.lam}")
        if self.lam > 0 and self.method is not Method.MEL:
            raise ValueError("regularization only applies to MEL")


@dataclass(frozen=True)
class AveragingState:
    """Running weighted average: gamma = sum of stepsizes so far,
    xbar = stepsize-weighted mean of the iterates (a convex combination,
    hence feasible whenever the iterates are). In a batch, gamma holds
    one value per cell, shape (C, 1, 1, 1)."""

    gamma: float | np.ndarray
    xbar: np.ndarray


def update_average(state: AveragingState, X_next: np.ndarray,
                   eta_next: float | np.ndarray) -> AveragingState:
    """One averaging step: gamma' = gamma + eta, xbar' the reweighted mean.

    By induction the recursion reproduces the direct weighted sum
    sum_k eta_k X_k / sum_k eta_k.
    """
    gamma = state.gamma + eta_next
    xbar = (1.0 / gamma) * (state.gamma * state.xbar + eta_next * X_next)
    return AveragingState(gamma, xbar)


def dual_to_primal(Y: np.ndarray, cset: SpectraSet) -> np.ndarray:
    """Mirror projection of dual variables onto the feasible set: one
    batched Gibbs map per block size (`SpectraSet.map_blocks`)."""
    def project(Yk: np.ndarray) -> np.ndarray:
        if cset.mode is TraceMode.EQUAL:
            return cset.bound * gibbs_map(Yk)
        return gibbs_map_bounded(Yk, cset.bound)

    return cset.map_blocks(project, Y)


def mirror_step(Y: np.ndarray, phi: np.ndarray, eta: float | np.ndarray,
                cset: SpectraSet) -> tuple[np.ndarray, np.ndarray]:
    """Dual gradient step then mirror projection: the core update pair."""
    Y_next = Y - eta * phi
    return Y_next, dual_to_primal(Y_next, cset)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one solver run.

    final_point is the method's reported point (the average for AM-SMD,
    the last iterate otherwise) at the last gap iteration whose
    feasibility check it passed, or X_0 before any has, as a padded
    profile array of shape (N, D, D). gap_trace pairs (iteration, strong
    gap) are measured at that same reported sequence.
    When an iteration fails (a numerical failure, an infeasible iterate,
    any package error) the partial trace survives and `error` carries the
    message and the diagnostics. With a measure, `measures` has one row
    per completed iteration 1..T, the measure at that iteration's
    reported point; None without one. iterate_seconds is the time of the
    oracle calls, mirror steps and averaging; gap_seconds that of the gap
    iterations' feasibility checks, game evaluations and gaps (a
    measure-only iteration's evaluation counts in neither). In a batch,
    both are those of the whole batch.
    """

    final_point: np.ndarray
    gap_trace: tuple[tuple[int, float], ...]
    iterate_seconds: float
    gap_seconds: float
    seed: int
    config: SolverConfig
    error: str | None = None
    measures: np.ndarray | None = None


def _describe_error(exc: SpectraSviError) -> str:
    """One-line account of a failure: the message, then the diagnostics
    (such as the failing block) that the linear algebra attached."""
    diagnostics = getattr(exc, "diagnostics", None)
    if not diagnostics:
        return str(exc)
    details = ", ".join(f"{k}={v}" for k, v in diagnostics.items())
    return f"{exc} [{details}]"


def run(problem: SviProblem, config: SolverConfig) -> RunResult:
    """Execute one solver on one problem instance: a batch of one cell.

    Initialization uses Y_0 = 0 per block, so X_0 is the uniform state;
    the Gibbs map is invariant to constant shifts of the dual, which
    makes this equivalent to starting from any multiple of the identity.
    Gaps for MEL are always measured against the ORIGINAL mapping, not
    the regularized one: the regularization is a solver device, not part
    of the problem.
    """
    return run_batch([problem], [config])[0]


# measure(problem, points, rows) -> (F(points), values at points[rows])
Measure = Callable[[SviProblem, np.ndarray, np.ndarray],
                   tuple[np.ndarray, np.ndarray]]


def _mapping_only(problem: SviProblem, points: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, None]:
    return problem.mapping(points), None


def run_batch(problems: Sequence[SviProblem],
              configs: Sequence[SolverConfig],
              measure: Measure | None = None) -> list[RunResult]:
    """Run cell c = (problems[c], configs[c]) for every c in one loop.

    The cells must share the constraint set, the iteration count and the
    gap cadence; each keeps its own method, stepsize, lam, seed and
    generator, and its result is bit for bit its lone run's. A batch in
    which some cell fails is split in halves and each half is run again
    from its seeds, down to the failing cells, which then end exactly as
    their lone runs do.

    measure, when given, evaluates the game at every iteration in place
    of the mapping. It is called with a stacked problem
    (`problem.stack_problems`), a profile `points` of its cells and an
    index array `rows`, and returns the mapping at `points` together
    with the measured values at the batch's reported points,
    `points[rows]`, one row per cell; row t - 1 of each cell's
    `measures` is its value at iteration t. A measure that raises a
    package error fails its cell like any other, before that
    iteration's gap is recorded.
    """
    try:
        return _run_cells(problems, configs, measure)
    except SpectraSviError:
        if len(problems) == 1:
            raise
        half = len(problems) // 2
        return (run_batch(problems[:half], configs[:half], measure)
                + run_batch(problems[half:], configs[half:], measure))


def _run_cells(problems: Sequence[SviProblem],
               configs: Sequence[SolverConfig],
               measure: Measure | None) -> list[RunResult]:
    """The solver loop over a cell axis.

    Every iteration evaluates the game at most once. A gap or measure
    iteration evaluates it on one stacked profile: X_{t+1} of all C cells
    followed by the averages of the averaging cells. That one result is
    the next oracle call's mapping (rows :C), and at the reported rows it
    gives the gaps and the measure. A failure stops a lone cell with its
    partial trace; in a larger batch it propagates to `run_batch`.
    """
    T, gap_every = configs[0].iterations, configs[0].gap_every
    if any((c.iterations, c.gap_every) != (T, gap_every) for c in configs):
        raise ValueError("the cells of a batch must share iterations "
                         "and gap_every")
    C = len(configs)
    problem = stack_problems(problems)
    cset = problem.constraints

    # Per-cell values broadcast against profile arrays, shape (C, N, D, D).
    lam = np.array([c.lam if c.method is Method.MEL else 0.0
                    for c in configs])[:, None, None, None]
    regularized = lam[:, 0, 0, 0] > 0
    any_regularized = bool(regularized.any())
    etas = np.array([
        [eta_at(t) for t in range(T + 1)]
        for eta_at in (c.schedule.resolve(p.oracle_bound, cset.total_dim, T)
                       for p, c in zip(problems, configs))
    ])[:, :, None, None, None]
    rngs = [np.random.default_rng(c.seed) for c in configs]

    # The game is evaluated on the C cells' iterates followed by the
    # averages of the averaging cells; row rows[c] is cell c's reported
    # point.
    averaging = np.flatnonzero([c.method is Method.AM_SMD for c in configs])
    evaluated = (stack_problems([*problems,
                                 *(problems[c] for c in averaging)])
                 if averaging.size else problem)
    rows = np.arange(C)
    rows[averaging] = C + np.arange(averaging.size)
    measuring = measure is not None
    evaluate = measure if measuring else _mapping_only

    Y = cset.zeros(C)
    X = dual_to_primal(Y, cset)
    avg = AveragingState(etas[:, 0], X)
    final = X
    traces: list[list[tuple[int, float]]] = [[] for _ in range(C)]
    measures: list[np.ndarray] = []
    F_next: np.ndarray | None = None  # F(X), when evaluated already
    error: str | None = None
    iterate_seconds = 0.0
    gap_seconds = 0.0

    try:
        for t in range(T):
            tic = time.perf_counter()
            F = problem.mapping(X) if F_next is None else F_next
            if any_regularized:
                F = select_cells(regularized, F + lam * X, F)
            phi, _ = oracle_sample(problem, X, rngs, F)
            Y, X = mirror_step(Y, phi, etas[:, t], cset)
            avg = update_average(avg, X, etas[:, t + 1])
            iterate_seconds += time.perf_counter() - tic
            it = t + 1
            gap_due = it % gap_every == 0 or it == T
            F_next = None
            if not (gap_due or measuring):
                continue
            tic = time.perf_counter()
            points = (np.concatenate([X, avg.xbar[averaging]])
                      if averaging.size else X)
            if gap_due:
                reported = points[rows]
                assert_feasible(reported, cset)
                final = reported
            F_points, values = evaluate(evaluated, points, rows)
            F_next = F_points[:C]
            if gap_due:
                gaps = strong_gap(problem, reported, F_points[rows])
                gap_seconds += time.perf_counter() - tic
                if gaps.min() < GAP_FLOOR:
                    raise NumericalFailure(
                        f"strong gap {gaps.min():.3e} below feasible floor "
                        f"at iteration {it}")
                for trace, gap in zip(traces, gaps):
                    trace.append((it, float(gap)))
            if measuring:
                measures.append(values)
    except SpectraSviError as exc:
        if C > 1:
            raise
        error = _describe_error(exc)

    measured = np.stack(measures, axis=1) if measures else np.empty((C, 0))
    return [
        RunResult(
            final_point=final[c],
            gap_trace=tuple(traces[c]),
            iterate_seconds=iterate_seconds,
            gap_seconds=gap_seconds,
            seed=config.seed,
            config=config,
            error=error,
            measures=measured[c] if measuring else None,
        )
        for c, config in enumerate(configs)
    ]
