"""Built-in invariant suite behind the `check` CLI subcommand.

Fast spot checks of the mathematical identities the solvers lean on:
mirror-map feasibility, the divergence inequalities, gap closed forms
against sampling, gradient formulas against finite differences, and
monotonicity of the game mapping (including a deliberately broken
fixture that must fail). The checks of acceptance criteria 01-06 take
a sample count and draw exactly the criterion's samples; the
acceptance tests run them at full count, this suite at small counts,
so it finishes in about a second. The checks state their invariants
on complex profiles and hand the solver's seams their Hermitian
coordinates (`linalg.to_coordinates`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg, mirror, oracles, solvers
from .linalg import from_coordinates, to_coordinates
from .mimo import (
    canonical_topology,
    game_to_svi,
    sample_channels,
    throughput,
    throughput_gradient,
)
from .problem import (
    SpectraSet,
    SviProblem,
    TraceMode,
    monotonicity_witness,
    oracle_sample,
    pad_blocks,
    profile_inner,
    quadratic_test_problem,
    random_feasible_profile,
    strong_gap,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'}  {self.name}: {self.detail}"


def check_gibbs_feasibility(rng: np.random.Generator,
                            count: int) -> CheckResult:
    worst_tr, worst_lam = 0.0, 0.0
    for k in range(count):
        n = (2, 4, 8)[k % 3]
        X = mirror.gibbs_map(
            linalg.random_spectrum_hermitian(rng, n, -1e6, 1e6))
        worst_tr = max(worst_tr, abs(float(np.trace(X).real) - 1.0))
        worst_lam = min(worst_lam, float(np.linalg.eigvalsh(X)[0]))
    return CheckResult(
        "gibbs-feasibility", worst_lam >= -1e-10 and worst_tr <= 1e-10,
        f"max |tr-1| {worst_tr:.2e}, min eigenvalue {worst_lam:.2e} "
        f"over {count} duals with spectra in [-1e6, 1e6]")


def check_pinsker(rng: np.random.Generator, count: int) -> CheckResult:
    worst = np.inf
    for _ in range(count):
        n = int(rng.integers(2, 6))
        s = float(rng.uniform(0.5, 3.0))
        X = mirror.gibbs_map(linalg.random_hermitian(rng, n, scale=s))
        Y = mirror.gibbs_map(linalg.random_hermitian(rng, n, scale=s))
        slack = (mirror.von_neumann_divergence(X, Y)
                 - 0.5 * linalg.trace_norm(X - Y) ** 2)
        worst = min(worst, slack)
    return CheckResult(
        "pinsker-lower-bound", worst >= -1e-8,
        f"min divergence slack {worst:.2e} over {count} pairs")


def check_smoothness(rng: np.random.Generator, count: int) -> CheckResult:
    worst = np.inf
    for _ in range(count):
        n = int(rng.integers(2, 6))
        X = mirror.gibbs_map(linalg.random_hermitian(rng, n))
        Y = linalg.random_hermitian(rng, n, scale=2.0)
        Z = linalg.random_hermitian(rng, n)
        Z = Z * (float(rng.uniform()) / max(linalg.spectral_norm(Z), 1e-12))
        lhs = mirror.fenchel_coupling(X, Y + Z)
        rhs = (mirror.fenchel_coupling(X, Y)
               + linalg.trace_inner(Z, mirror.gibbs_map(Y) - X)
               + linalg.spectral_norm(Z) ** 2)
        worst = min(worst, rhs - lhs)
    return CheckResult(
        "coupling-smoothness", worst >= -1e-8,
        f"min inequality slack {worst:.2e} over {count} triples")


def check_fenchel_identity(rng: np.random.Generator,
                           count: int) -> CheckResult:
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 6))
        Q = mirror.gibbs_map(linalg.random_hermitian(rng, n))
        Y = linalg.random_hermitian(rng, n, scale=2.0)
        diff = abs(mirror.fenchel_coupling(Q, Y)
                   - mirror.von_neumann_divergence(Q, mirror.gibbs_map(Y)))
        worst = max(worst, diff)
    return CheckResult(
        "fenchel-bregman-identity", worst <= 1e-8,
        f"max |coupling - divergence| {worst:.2e} over {count} pairs")


def check_gibbs_gradient(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(3):
        Y = linalg.random_hermitian(rng, 3)
        G = oracles.finite_diff_gradient(mirror.conjugate_entropy, Y)
        worst = max(worst, float(np.max(np.abs(G - mirror.gibbs_map(Y)))))
    return CheckResult(
        "gibbs-is-conjugate-gradient", worst <= 1e-5,
        f"max finite-difference deviation {worst:.2e}")


def check_strong_gap_closed_form(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        mode = TraceMode.EQUAL if rng.uniform() < 0.5 else TraceMode.AT_MOST
        cset = SpectraSet((3, 3), float(rng.uniform(0.5, 2.0)), mode)
        B = pad_blocks([linalg.random_hermitian(rng, 3) for _ in range(2)])
        problem = quadratic_test_problem(B, cset)
        X = random_feasible_profile(cset, rng)
        x = to_coordinates(X)
        F = from_coordinates(problem.mapping(x), 3)
        sampled = profile_inner(F, X) + oracles.sampled_sup_linear(
            F, cset, probes=200, rng=rng)
        worst = max(worst, abs(strong_gap(problem, x) - sampled))
    return CheckResult(
        "strong-gap-closed-form", worst <= 1e-8,
        f"max |closed - sampled sup| {worst:.2e} over 10 instances")


def check_mirror_step_descends(rng: np.random.Generator) -> CheckResult:
    cset = SpectraSet((4,))
    B = pad_blocks([linalg.random_hermitian(rng, 4)])
    problem = quadratic_test_problem(B, cset)
    Y0 = to_coordinates(cset.zeros())
    X0 = solvers.dual_to_primal(Y0, cset)
    _, X1 = solvers.mirror_step(Y0, problem.mapping(X0), 0.5, cset)
    g0, g1 = strong_gap(problem, X0), strong_gap(problem, X1)
    return CheckResult(
        "mirror-step-descends", g1 < g0,
        f"gap {g0:.4f} -> {g1:.4f} after one step")


def check_averaging_identity(rng: np.random.Generator) -> CheckResult:
    cset = SpectraSet((3,))
    schedule = solvers.StepSchedule.harmonic_sqrt().resolve(1.0, 3, 50)
    points = [random_feasible_profile(cset, rng) for _ in range(51)]
    state = solvers.AveragingState(schedule(0), points[0])
    for t in range(50):
        state = solvers.update_average(state, points[t + 1], schedule(t + 1))
    etas = [schedule(t) for t in range(51)]
    direct = sum((e * P for e, P in zip(etas[1:], points[1:])),
                 etas[0] * points[0]) * (1.0 / sum(etas))
    err = linalg.frobenius_norm(state.xbar - direct)
    return CheckResult(
        "averaging-recursion", err <= 1e-12 and
        abs(state.gamma - sum(etas)) <= 1e-12 * sum(etas),
        f"recursion vs direct weighted sum differs by {err:.2e}")


def check_throughput_gradient(rng: np.random.Generator,
                              count: int) -> CheckResult:
    """Every player's rate gradient at `count` random states of the 7-cell
    network at m = n = 2 and at m = 4, n = 2, with fresh channels every 5
    states, against finite differences of the rates."""
    worst = 0.0
    for m in (2, 4):
        topo = canonical_topology(m, 2)
        cset = topo.constraint_set()
        for k in range(count):
            if k % 5 == 0:
                channels = sample_channels(topo, rng)
            X = random_feasible_profile(cset, rng)
            for i in range(topo.users):
                def rate(Z: np.ndarray, i: int = i) -> float:
                    Xm = X.copy()
                    Xm[i] = Z
                    return throughput(channels, to_coordinates(Xm), i)

                G = throughput_gradient(channels, X, i)
                G_fd = oracles.finite_diff_gradient(rate, X[i])
                rel = (linalg.frobenius_norm(G - G_fd)
                       / max(1e-9, linalg.frobenius_norm(G)))
                worst = max(worst, rel)
    return CheckResult(
        "throughput-gradient", worst <= 1e-4,
        "max relative deviation from finite differences "
        f"{worst:.2e} over {count} states each at 2x2 and 4x2")


def check_monotonicity(rng: np.random.Generator, count: int) -> CheckResult:
    """The game mapping's witness on `count` random pairs, with fresh
    channels every 100 pairs; the anti-fixture F(X) = -X must fail the
    identical check on the same pairs."""
    topo = canonical_topology(2, 2)
    cset = topo.constraint_set()
    anti = SviProblem(cset, lambda x: -1.0 * x, oracle_bound=1.0)
    worst, anti_worst = np.inf, np.inf
    for k in range(count):
        if k % 100 == 0:
            problem = game_to_svi(topo, sample_channels(topo, rng))
        x = to_coordinates(random_feasible_profile(cset, rng))
        y = to_coordinates(random_feasible_profile(cset, rng))
        worst = min(worst, monotonicity_witness(problem, x, y))
        anti_worst = min(anti_worst, monotonicity_witness(anti, x, y))
    return CheckResult(
        "game-monotonicity", worst >= -1e-8 and anti_worst < -1e-8,
        f"min witness {worst:.2e}; anti-fixture min {anti_worst:.2e} "
        "(must be negative)")


def check_oracle_statistics(rng: np.random.Generator) -> CheckResult:
    topo = canonical_topology(2, 2)
    channels = sample_channels(topo, rng)
    problem = game_to_svi(topo, channels, sigma=1.0)
    dims = problem.constraints.dims
    total = to_coordinates(problem.constraints.zeros())
    draws = 2000
    for _ in range(draws):
        total = total + problem.noise.sample(dims, rng)
    mean_norm = linalg.frobenius_norm(
        from_coordinates(total * (1.0 / draws), 2))
    mean_ok = mean_norm <= 5.0 * problem.noise.sigma * sum(dims) / np.sqrt(draws)

    bound_ok = True
    worst_ratio = 0.0
    for _ in range(50):
        x = to_coordinates(random_feasible_profile(problem.constraints, rng))
        phi, _ = oracle_sample(problem, x, rng)
        ratio = (linalg.spectral_norm(from_coordinates(phi, 2))
                 / problem.oracle_bound)
        worst_ratio = max(worst_ratio, ratio)
        bound_ok = bound_ok and ratio <= 1.0
    return CheckResult(
        "oracle-statistics", mean_ok and bound_ok,
        f"noise mean norm {mean_norm:.2e} over {draws} draws; "
        f"max ||Phi||/C = {worst_ratio:.3f}")


def run_checks(seed: int = 7) -> list[CheckResult]:
    suite = (
        partial(check_gibbs_feasibility, count=300),
        partial(check_pinsker, count=200),
        partial(check_smoothness, count=200),
        partial(check_fenchel_identity, count=50),
        check_gibbs_gradient,
        check_strong_gap_closed_form,
        check_mirror_step_descends,
        check_averaging_identity,
        partial(check_throughput_gradient, count=2),
        partial(check_monotonicity, count=200),
        check_oracle_statistics,
    )
    return [fn(np.random.default_rng([seed, k]))
            for k, fn in enumerate(suite)]
