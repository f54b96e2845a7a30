"""Dual-averaging solvers in the quantum-entropy geometry.

Three methods share one iteration: a dual step Y <- Y - eta * Phi(X, xi)
followed by the blockwise Gibbs map back to the feasible set.

* AM-SMD keeps the stepsize-weighted running average of the iterates and
  reports that average.
* M-SMD is the same iteration reporting the last iterate.
* MEL runs the identical loop on the regularized mapping
  F'(X) = F(X) + lam * X and reports the last iterate; lam = 0 recovers
  M-SMD bitwise.

`run_batch` runs several cells (problems of one constraint set, any mix
of methods, stepsizes, noise levels and seeds) as one loop over a
leading cell axis; `run` is its one-cell case. Every cell's result is
bit for bit what it would be alone. Each iteration evaluates the game
at most once: a gap iteration evaluates it on the batch's new iterates
stacked with the averaging cells' averages, and that one result serves
the next oracle call and the strong gaps at the reported points. The
rest of a gap iteration, its feasibility check and strong gap, is
queued: up to GAP_CHUNK_ENTRIES Hermitian coordinates of reported
points are checked at once, in one `assert_feasible` and one
`strong_gap` call on the stacked chunk. The queue is checked when full,
at iteration T and before a lone cell's failure is reported; a stack
that fails or has a gap under GAP_FLOOR is checked again one iteration
at a time, so a failing cell may run on to its next check with its
results unchanged. An optional `measure` returns a quantity (such as
per-player throughput) at the reported points of every iteration, from
their Hermitian coordinates; the game is evaluated exactly as without
one, and each gap iteration is checked right away, before its
measure.

Duals, iterates, averages, mapping values and noise are the Hermitian
coordinates of padded profiles (see `problem` and `linalg`), real
arrays of shape (C, N, D^2), and so are the arguments and results of
`dual_to_primal` and `mirror_step`. Complex blocks are built from them
only inside a function, where LAPACK or a complex sum needs a matrix
(the Gibbs maps of blocks of any size but 2; see also
`problem.assert_feasible` and `problem.strong_gap`). Each cell's final
point is a complex profile.

The rest of an iteration is paid once for the batch. The noise comes
from `problem.noise_draws`, several iterations per draw, and a batch
with no noisy cell draws none. Only the AM-SMD cells keep an average.
What stays fixed for a batch is computed before its loop: the mask of
the noisy cells with its all/any flags, the rows of the regularized and
of the averaging cells (slices when contiguous) and the averaging
weights; the MEL term is added in place on its rows. Coordinates give
exactly Hermitian profiles, so the Gibbs maps take them as they are,
without taking their Hermitian part again (see `linalg`).
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NumericalFailure, SpectraSviError
from .linalg import from_coordinates, to_coordinates
from .mirror import gibbs_2x2_coordinates, gibbs_map, gibbs_map_bounded
from .problem import (
    SpectraSet,
    SviProblem,
    TraceMode,
    assert_feasible,
    check_shape,
    noise_draws,
    oracle_sample,
    stack_problems,
    strong_gap,
)

GAP_FLOOR = -1e-8
# Hermitian coordinates of reported points in one stacked check of a
# batch's queued gap iterations
GAP_CHUNK_ENTRIES = 4096


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
    one value per cell, shape (C, 1, 1)."""

    gamma: float | np.ndarray
    xbar: np.ndarray


def update_average(state: AveragingState, X_next: np.ndarray,
                   eta_next: float | np.ndarray,
                   gamma: np.ndarray | None = None,
                   inverse: np.ndarray | None = None) -> AveragingState:
    """One averaging step: gamma' = gamma + eta, xbar' the reweighted mean.

    By induction the recursion reproduces the direct weighted sum
    sum_k eta_k X_k / sum_k eta_k. A caller that has computed gamma'
    and 1 / gamma' for every step already passes them as `gamma` and
    `inverse`.
    """
    if gamma is None:
        gamma = state.gamma + eta_next
        inverse = 1.0 / gamma
    xbar = inverse * (state.gamma * state.xbar + eta_next * X_next)
    return AveragingState(gamma, xbar)


def dual_to_primal(y: np.ndarray, cset: SpectraSet) -> np.ndarray:
    """Mirror projection of dual variables onto the feasible set, on
    their Hermitian coordinates, shape (..., N, D^2): one batched Gibbs
    map per block size (`SpectraSet.map_blocks`). 2x2 blocks take the
    Gibbs maps' coordinate front end; blocks of any other size are
    mapped as complex blocks."""
    check_shape(y, cset.dims)
    equal = cset.mode is TraceMode.EQUAL
    if set(cset.dims) == {2}:
        def project(yk: np.ndarray) -> np.ndarray:
            x = gibbs_2x2_coordinates(yk, slack=not equal)
            return x if cset.bound == 1 and not equal else cset.bound * x

        return cset.map_blocks(project, y)

    def project_blocks(Yk: np.ndarray) -> np.ndarray:
        if equal:
            return cset.bound * gibbs_map(Yk)
        return gibbs_map_bounded(Yk, cset.bound)

    D = max(cset.dims)
    return to_coordinates(
        cset.map_blocks(project_blocks, from_coordinates(y, D)))


def mirror_step(y: np.ndarray, phi: np.ndarray, eta: float | np.ndarray,
                cset: SpectraSet) -> tuple[np.ndarray, np.ndarray]:
    """Dual gradient step then mirror projection, on Hermitian
    coordinates: the core update pair."""
    y_next = y - eta * phi
    return y_next, dual_to_primal(y_next, cset)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one cell's solver run; the cell's seed and settings
    stay with the caller's `SolverConfig`.

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
    iterations' game evaluations and of the (queued) feasibility checks,
    measures and gaps, with their floor tests and trace entries (the
    measure of any other iteration counts in neither). In a batch, both
    are those of the whole batch; a failed cell's include the iterations
    it ran on to its next check.
    """

    final_point: np.ndarray
    gap_trace: tuple[tuple[int, float], ...]
    iterate_seconds: float
    gap_seconds: float
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


# measure(problem, reported) -> values at the reported points, one row
# per cell; `reported` holds their Hermitian coordinates, (C, N, D^2).
Measure = Callable[[SviProblem, np.ndarray], np.ndarray]


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

    measure, when given, is called at every iteration with the C cells'
    stacked problem (`problem.stack_problems`) and the Hermitian
    coordinates of their reported points, a real (C, N, D^2) array (see
    `linalg.to_coordinates`), and returns the measured values, one row
    per cell; row t - 1 of each cell's `measures` is its value at
    iteration t. The game is evaluated as it is without a measure. A
    measure that raises a package error fails its cell like any other,
    before that iteration's gap is recorded.

    Without a measure, the gap iterations' checks are queued and made
    GAP_CHUNK_ENTRIES reported coordinates at a time (see `_run_cells`);
    a failing cell may run on to its next check, and its result is that
    of checking each gap iteration at its own iteration.
    """
    try:
        return _run_cells(problems, configs, measure)
    except SpectraSviError:
        if len(problems) == 1:
            raise
        half = len(problems) // 2
        return (run_batch(problems[:half], configs[:half], measure)
                + run_batch(problems[half:], configs[half:], measure))


def _rows(index: np.ndarray) -> np.ndarray | slice:
    """Ascending cell indices as a slice when they are contiguous."""
    if index.size and index[-1] - index[0] == index.size - 1:
        return slice(index[0], index[-1] + 1)
    return index


def _run_cells(problems: Sequence[SviProblem],
               configs: Sequence[SolverConfig],
               measure: Measure | None) -> list[RunResult]:
    """The solver loop over a cell axis, on Hermitian coordinates.

    Duals, iterates, averages, mapping values and noise are real arrays
    of shape (C, N, D^2) (see `linalg.to_coordinates`). The feasibility
    check and the strong gap take the reported points and their mapping
    values as they are; complex profiles are built only for the final
    points.

    Every iteration evaluates the game at most once. A gap iteration
    evaluates it on one stacked array: X_{t+1} of all C cells followed
    by the averages of the averaging cells. That one result is the next
    oracle call's mapping (rows :C), and at the reported rows it gives
    the gaps. Any other iteration evaluates it on X_{t+1} alone, in the
    next oracle call. The measure gets the reported rows.

    A gap iteration's reported points and their mapping rows are
    queued, K iterations at most: K * C * N * D^2 <= GAP_CHUNK_ENTRIES
    (K >= 1), and K = 1 with a measure, which must follow its own
    iteration's check. The queue is checked when full and at iteration
    T: one `assert_feasible` and one `strong_gap` on the stacked
    (K, C, N, D^2) arrays, then the floor test, the final point and the
    trace entries in iteration order. If the stack fails or a gap is
    under the floor, the queued iterations are checked one at a time,
    exactly as each would be at its own iteration. A failure stops a
    lone cell with its partial trace: first the queue is checked, and
    the feasibility check of a gap iteration whose mapping failed, so
    the earliest failure is the one reported. In a larger batch a
    failure propagates to `run_batch` at once.
    """
    T, gap_every = configs[0].iterations, configs[0].gap_every
    if any((c.iterations, c.gap_every) != (T, gap_every) for c in configs):
        raise ValueError("the cells of a batch must share iterations "
                         "and gap_every")
    C = len(configs)
    problem = stack_problems(problems)
    cset = problem.constraints
    D = max(cset.dims)

    # Per-cell values broadcast against coordinate arrays, (C, N, D^2).
    lam = np.array([c.lam if c.method is Method.MEL else 0.0
                    for c in configs])
    regularized = _rows(np.flatnonzero(lam > 0))
    lam = lam[regularized, None, None]
    etas = np.array([
        [eta_at(t) for t in range(T + 1)]
        for eta_at in (c.schedule.resolve(p.oracle_bound, cset.total_dim, T)
                       for p, c in zip(problems, configs))
    ])[:, :, None, None]
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

    Y = np.zeros((C, len(cset.dims), D * D))
    X = dual_to_primal(Y, cset)
    # Only the averaging cells keep an average: rows `averaging` of X.
    # Their weights gamma_t and 1 / gamma_t come from one
    # `np.add.accumulate`, whose sequential adds are those of
    # `update_average`.
    average_rows = _rows(averaging)
    average_etas = etas[averaging]
    gammas = np.add.accumulate(average_etas, axis=1)
    inverses = 1.0 / gammas
    avg = AveragingState(gammas[:, 0], X[average_rows])
    draws = noise_draws(problem, rngs, T)
    final = X
    traces: list[list[tuple[int, float]]] = [[] for _ in range(C)]
    measures: list[np.ndarray] = []
    F_next: np.ndarray | None = None  # F(X), when evaluated already
    error: str | None = None
    iterate_seconds = 0.0
    gap_seconds = 0.0
    # Gap iterations whose checks are due: (iteration, reported points,
    # their mapping values), checked `chunk` at a time; a measure must
    # follow its own iteration's check.
    queue: list[tuple[int, np.ndarray, np.ndarray]] = []
    chunk = 1 if measuring else max(
        1, GAP_CHUNK_ENTRIES // (C * len(cset.dims) * D * D))
    unmapped: np.ndarray | None = None  # reported points being mapped

    def check(it: int, reported: np.ndarray, F_reported: np.ndarray) -> None:
        """One gap iteration's checks, in order: feasibility (which makes
        the reported points final), the measure, the strong gap and its
        floor; then the trace entries."""
        nonlocal final
        assert_feasible(reported, cset)
        final = reported
        values = measure(problem, reported) if measuring else None
        gaps = strong_gap(problem, reported, F_reported)
        if gaps.min() < GAP_FLOOR:
            raise NumericalFailure(
                f"strong gap {gaps.min():.3e} below feasible floor "
                f"at iteration {it}")
        for trace, gap in zip(traces, gaps.tolist()):
            trace.append((it, gap))
        if measuring:
            measures.append(values)

    def check_queue() -> None:
        """The queued gap iterations' checks: one feasibility check and
        one strong gap on their stacked points, or, when the stack fails
        or a gap is under the floor, `check` on each in turn, which
        fails where the first of them would have failed alone."""
        nonlocal final
        units = queue.copy()
        queue.clear()
        if len(units) > 1:
            its, reported, F_reported = zip(*units)
            reported = np.stack(reported)
            try:
                assert_feasible(reported, cset)
                gaps = strong_gap(problem, reported, np.stack(F_reported))
            except SpectraSviError:
                gaps = None
            if gaps is not None and not (gaps < GAP_FLOOR).any():
                final = units[-1][1]
                for trace, column in zip(traces, gaps.T.tolist()):
                    trace.extend(zip(its, column))
                return
        for unit in units:
            check(*unit)

    try:
        for t in range(T):
            tic = time.perf_counter()
            F = problem.mapping(X) if F_next is None else F_next
            if lam.size:
                F[regularized] += lam * X[regularized]
            # Only phi is kept: a view of the noise would hold its block.
            phi = oracle_sample(problem, X, rngs, F, Z=next(draws))[0]
            Y, X = mirror_step(Y, phi, etas[:, t], cset)
            if averaging.size:
                avg = update_average(avg, X[average_rows],
                                     average_etas[:, t + 1],
                                     gammas[:, t + 1], inverses[:, t + 1])
            iterate_seconds += time.perf_counter() - tic
            it = t + 1
            gap_due = it % gap_every == 0 or it == T
            F_next = None
            if not (gap_due or measuring):
                continue
            points = np.concatenate([X, avg.xbar]) if averaging.size else X
            reported = points[rows]
            if not gap_due:
                measures.append(measure(problem, reported))
                continue
            tic = time.perf_counter()
            unmapped = reported
            F_points = evaluated.mapping(points)
            unmapped = None
            F_next = F_points[:C]
            queue.append((it, reported, F_points[rows]))
            if len(queue) == chunk or it == T:
                check_queue()
            gap_seconds += time.perf_counter() - tic
    except SpectraSviError as exc:
        if C > 1:
            raise
        # The checks due before the failure come first, and so does the
        # feasibility check of a gap iteration whose mapping failed.
        try:
            check_queue()
            if unmapped is not None:
                assert_feasible(unmapped, cset)
                final = unmapped
        except SpectraSviError as earlier:
            exc = earlier
        error = _describe_error(exc)

    final = from_coordinates(final, D)
    measured = np.stack(measures, axis=1) if measures else np.empty((C, 0))
    return [
        RunResult(
            final_point=final[c],
            gap_trace=tuple(traces[c]),
            iterate_seconds=iterate_seconds,
            gap_seconds=gap_seconds,
            error=error,
            measures=measured[c] if measuring else None,
        )
        for c in range(C)
    ]
