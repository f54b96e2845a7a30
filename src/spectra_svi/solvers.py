"""Dual-averaging solvers in the quantum-entropy geometry.

Three methods share one iteration: a dual step Y <- Y - eta * Phi(X, xi)
followed by the blockwise Gibbs map back to the feasible set.

* AM-SMD keeps the stepsize-weighted running average of the iterates and
  reports that average.
* M-SMD is the same iteration reporting the last iterate.
* MEL runs the identical loop on the regularized mapping
  F'(X) = F(X) + lam * X and reports the last iterate; lam = 0 recovers
  M-SMD bitwise.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalFailure, SpectraSviError
from .mirror import gibbs_map, gibbs_map_bounded
from .problem import (
    BlockGroup,
    BlockProfile,
    SpectraSet,
    SviProblem,
    TraceMode,
    assert_feasible,
    oracle_sample,
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
        if eta <= 0:
            raise ValueError(f"stepsize must be positive, got {eta}")
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
    record_iterates: bool = False

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
    hence feasible whenever the iterates are)."""

    gamma: float
    xbar: BlockProfile


def update_average(state: AveragingState, X_next: BlockProfile,
                   eta_next: float) -> AveragingState:
    """One averaging step: gamma' = gamma + eta, xbar' the reweighted mean.

    By induction the recursion reproduces the direct weighted sum
    sum_k eta_k X_k / sum_k eta_k.
    """
    gamma = state.gamma + eta_next
    xbar = (state.gamma * state.xbar + eta_next * X_next) * (1.0 / gamma)
    return AveragingState(gamma, xbar)


def dual_to_primal(Y: BlockProfile, cset: SpectraSet) -> BlockProfile:
    """Mirror projection of dual variables onto the feasible set: one
    batched Gibbs map per group of equal-size, equal-mode blocks."""
    def project(g: BlockGroup, Yg: np.ndarray) -> np.ndarray:
        if g.mode is TraceMode.EQUAL:
            return g.bound * gibbs_map(Yg)
        return gibbs_map_bounded(Yg, g.bound)

    return cset.assemble(cset.map_groups(project, Y))


def mirror_step(Y: BlockProfile, phi: BlockProfile, eta: float,
                cset: SpectraSet) -> tuple[BlockProfile, BlockProfile]:
    """Dual gradient step then mirror projection: the core update pair."""
    Y_next = Y - eta * phi
    return Y_next, dual_to_primal(Y_next, cset)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one solver run.

    final_point is the method's reported point (the average for AM-SMD,
    the last iterate otherwise). gap_trace pairs (iteration, strong gap)
    are measured at that same reported sequence. When an iteration fails
    (a numerical failure, an infeasible iterate, any package error) the
    partial trace survives and `error` carries the message and the
    diagnostics; `iterates` then holds what was recorded before the
    failure.
    """

    final_point: BlockProfile
    gap_trace: tuple[tuple[int, float], ...]
    iterate_seconds: float
    gap_seconds: float
    seed: int
    config: SolverConfig
    error: str | None = None
    iterates: tuple[BlockProfile, ...] | None = None


def _describe_error(exc: SpectraSviError) -> str:
    """One-line account of a failure: the message, then the diagnostics
    (such as the failing block) that the linear algebra attached."""
    diagnostics = getattr(exc, "diagnostics", None)
    if not diagnostics:
        return str(exc)
    details = ", ".join(f"{k}={v}" for k, v in diagnostics.items())
    return f"{exc} [{details}]"


def reported_sequence(result: RunResult,
                      problem: SviProblem) -> tuple[BlockProfile, ...]:
    """Reported point at every iteration, rebuilt from recorded iterates.

    For the non-averaging methods this is the iterate sequence itself;
    for AM-SMD the averaging recursion is replayed over the recorded
    iterates, reproducing the in-run averages bitwise (same operations
    in the same order).
    """
    if result.iterates is None:
        raise ValueError("run was not configured with record_iterates")
    if result.config.method is not Method.AM_SMD:
        return result.iterates
    eta_at = result.config.schedule.resolve(
        problem.oracle_bound, problem.constraints.total_dim,
        result.config.iterations)
    avg = AveragingState(eta_at(0), result.iterates[0])
    out = [result.iterates[0]]
    for t in range(len(result.iterates) - 1):
        avg = update_average(avg, result.iterates[t + 1], eta_at(t + 1))
        out.append(avg.xbar)
    return tuple(out)


def run(problem: SviProblem, config: SolverConfig) -> RunResult:
    """Execute one solver on one problem instance.

    Initialization uses Y_0 = 0 per block, so X_0 is the uniform state;
    the Gibbs map is invariant to constant shifts of the dual, which
    makes this equivalent to starting from any multiple of the identity.
    Gaps for MEL are always measured against the ORIGINAL mapping, not
    the regularized one: the regularization is a solver device, not part
    of the problem.
    """
    cset = problem.constraints
    if config.method is Method.MEL and config.lam > 0:
        lam = config.lam
        base_mapping = problem.mapping
        iteration_problem = replace(
            problem, mapping=lambda X: base_mapping(X) + lam * X)
    else:
        iteration_problem = problem

    rng = np.random.default_rng(config.seed)
    eta_at = config.schedule.resolve(
        problem.oracle_bound, cset.total_dim, config.iterations)
    averaging = config.method is Method.AM_SMD

    Y = cset.zeros()
    X = dual_to_primal(Y, cset)
    avg = AveragingState(eta_at(0), X)
    trace: list[tuple[int, float]] = []
    iterates: list[BlockProfile] | None = [X] if config.record_iterates else None
    T = config.iterations
    error: str | None = None
    iterate_seconds = 0.0
    gap_seconds = 0.0

    reported = avg.xbar if averaging else X
    try:
        for t in range(T):
            tic = time.perf_counter()
            phi, _ = oracle_sample(iteration_problem, X, rng)
            Y, X = mirror_step(Y, phi, eta_at(t), cset)
            avg = update_average(avg, X, eta_at(t + 1))
            iterate_seconds += time.perf_counter() - tic
            if iterates is not None:
                iterates.append(X)
            it = t + 1
            if it % config.gap_every == 0 or it == T:
                tic = time.perf_counter()
                reported = avg.xbar if averaging else X
                assert_feasible(reported, cset)
                gap = strong_gap(problem, reported)
                gap_seconds += time.perf_counter() - tic
                if gap < GAP_FLOOR:
                    raise NumericalFailure(
                        f"strong gap {gap:.3e} below feasible floor at "
                        f"iteration {it}")
                trace.append((it, gap))
    except SpectraSviError as exc:
        error = _describe_error(exc)

    return RunResult(
        final_point=reported,
        gap_trace=tuple(trace),
        iterate_seconds=iterate_seconds,
        gap_seconds=gap_seconds,
        seed=config.seed,
        config=config,
        error=error,
        iterates=tuple(iterates) if iterates is not None else None,
    )
