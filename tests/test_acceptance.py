"""Acceptance suite: one test per target behavior, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; each test is one pass/fail
line. Tests print their measured margins (visible with `-s`). Thresholds
are never loosened to make a test green: criterion 9 is measured to fail
at its pinned problem size and is kept red deliberately — see its
docstring and the companion test that follows it.
"""

import math
import os
import time
from collections import defaultdict

import numpy as np

from spectra_svi import checks, linalg
from spectra_svi import problem as pb
from spectra_svi.harness import (
    ExperimentConfig,
    MethodSpec,
    preset_config,
    run_grid,
    write_csv,
)
from spectra_svi.oracles import project_spectrahedron
from spectra_svi.solvers import (
    Method,
    SolverConfig,
    StepSchedule,
    run,
    run_batch,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_criterion_01_gibbs_feasibility_at_extreme_spectra():
    # 10^4 random duals, n in {2,4,8}, spectra spanning [-1e6, 1e6]:
    # outputs must be unit-trace PSD to 1e-10, in under 30 s.
    t0 = time.perf_counter()
    result = checks.check_gibbs_feasibility(
        np.random.default_rng(20260823), 10_000)
    elapsed = time.perf_counter() - t0
    assert result.ok, result.line()
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 1 {result.line()}, {elapsed:.1f}s")


def test_criterion_02_divergence_pinsker_lower_bound():
    # D(X, Y) >= 0.5 ||X - Y||_tr^2 - 1e-8 on 10^3 random PD pairs.
    result = checks.check_pinsker(np.random.default_rng(202), 1000)
    assert result.ok, result.line()
    print(f"criterion 2 {result.line()}")


def test_criterion_03_coupling_smoothness_inequality():
    # H(X, Y+Z) <= H(X, Y) + tr(Z (gibbs(Y) - X)) + ||Z||_2^2 on 10^3
    # triples with ||Z||_2 <= 1; slack >= -1e-8 throughout.
    result = checks.check_smoothness(np.random.default_rng(303), 1000)
    assert result.ok, result.line()
    print(f"criterion 3 {result.line()}")


def test_criterion_04_coupling_equals_divergence_of_gibbs():
    # |H(Q, Y) - D(Q, gibbs(Y))| <= 1e-8 on 100 random pairs.
    result = checks.check_fenchel_identity(np.random.default_rng(404), 100)
    assert result.ok, result.line()
    print(f"criterion 4 {result.line()}")


def test_criterion_05_throughput_gradient_matches_finite_differences():
    # 20 random feasible states of the 7-cell network at m = n = 2; every
    # player's gradient within 1e-4 relative of central differences.
    result = checks.check_throughput_gradient(np.random.default_rng(505), 20)
    assert result.ok, result.line()
    print(f"criterion 5 {result.line()}")


def test_criterion_06_game_monotonicity_and_anti_fixture():
    # Witness >= -1e-8 on 10^3 random pairs for the game mapping; the
    # anti-fixture F(X) = -X must fail the identical check.
    result = checks.check_monotonicity(np.random.default_rng(606), 1000)
    assert result.ok, result.line()
    print(f"criterion 6 {result.line()}")


def test_criterion_07_known_solution_convergence():
    # Noiseless quadratic VI, one 4x4 trace-one block: the averaged point
    # after T = 5000 must sit within 5e-2 trace-norm of the projection
    # oracle's answer, in under 10 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    B = pb.pad_blocks([linalg.random_hermitian(rng, 4)])
    cset = pb.SpectraSet((4,))
    problem = pb.quadratic_test_problem(B, cset)
    result = run(problem, SolverConfig(
        Method.AM_SMD, iterations=5000,
        schedule=StepSchedule.harmonic_sqrt(), gap_every=5000))
    assert result.error is None
    target = project_spectrahedron(B[0], mode=pb.TraceMode.EQUAL)
    dist = linalg.trace_norm(result.final_point[0] - target)
    elapsed = time.perf_counter() - t0
    assert dist <= 5e-2, f"trace-norm distance {dist:.4f}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"criterion 7 PASS: distance {dist:.4f}, {elapsed:.2f}s")


def test_criterion_08_rate_slope_and_envelope():
    # Noisy quadratic (sigma = 1, one 2x2 block), horizon-tuned constant
    # stepsize: mean gap over 10 seeds at T in {1e2, 1e3, 1e4} must have
    # log-log slope in [-0.7, -0.3] and sit inside the order-of-magnitude
    # envelope 3 C sqrt(log n / T) * 10. Each horizon's seeds run as one
    # batch, whose cells are bit for bit their lone runs.
    B = pb.pad_blocks([np.diag([0.6, 0.2])])
    cset = pb.SpectraSet((2,))
    problem = pb.quadratic_test_problem(B, cset, sigma=1.0)
    C = problem.oracle_bound
    horizons = (100, 1000, 10000)
    means = []
    for T in horizons:
        configs = [SolverConfig(Method.AM_SMD, iterations=T,
                                schedule=StepSchedule.horizon(), gap_every=T,
                                seed=seed)
                   for seed in range(10)]
        results = run_batch([problem] * len(configs), configs)
        means.append(float(np.mean([r.gap_trace[-1][1] for r in results])))
    for T, mean_gap in zip(horizons, means):
        envelope = 3.0 * C * math.sqrt(math.log(2) / T) * 10.0
        assert mean_gap <= envelope, \
            f"T={T}: mean gap {mean_gap:.4f} above envelope {envelope:.4f}"
    slope = float(np.polyfit(np.log10(horizons), np.log10(means), 1)[0])
    assert -0.7 <= slope <= -0.3, f"slope {slope:.3f}, means {means}"
    print(f"criterion 8 PASS: slope {slope:.3f}, "
          f"means {[f'{v:.4f}' for v in means]}")


def _mean_final_gaps(config, horizon):
    grid = run_grid(config, threads=1)
    assert not grid.failures, grid.failures
    finals = defaultdict(list)
    for r in grid.records:
        if r.iteration == horizon:
            finals[(r.m, r.n, r.sigma, r.method)].append(r.gap)
    return {key: float(np.mean(v)) for key, v in finals.items()}


def test_criterion_09_averaging_beats_last_iterate_at_2x2():
    """EXPECTED RED. Kept at its stated threshold rather than weakened.

    At the pinned size m = n = 2 the comparison comes out reversed, with
    a large margin that survives reseeding: the last iterate of the
    non-averaged method converges cleanly under 1/sqrt(t) steps, while
    the stepsize-weighted average provably trails any convergent iterate
    by a log factor (its gap is the weighted mean of the whole
    trajectory, transient included). The reversal is not a property of
    the small 2x2 game alone. A `full-grid` run (default seed, 10 paths,
    T = 4000) has M-SMD ending below AM-SMD at 4x2 at every sigma: the
    path-mean final gap is 0.058 against 0.093 at sigma 0.5, 0.120
    against 0.160 at sigma 1 and 0.88 against 0.97 at sigma 5. At 2x4
    and 4x4 AM-SMD ends lower at every sigma, which is what the companion
    test below checks; it does not cover 4x2. Which method ends lower
    depends on the channel shape, not on the array size alone.
    """
    t0 = time.perf_counter()
    config = ExperimentConfig(
        antenna_pairs=((2, 2),),
        sigmas=(0.5, 5.0),
        methods=(
            MethodSpec(Method.AM_SMD, StepSchedule.harmonic_sqrt()),
            MethodSpec(Method.M_SMD, StepSchedule.harmonic_sqrt()),
            MethodSpec(Method.MEL, StepSchedule.harmonic(), (0.1, 0.5, 1.0)),
        ),
        iterations=2000,
        sample_paths=5,
        gap_every=500,
    )
    means = _mean_final_gaps(config, 2000)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    for sigma in (0.5, 5.0):
        am = means[(2, 2, sigma, "am-smd")]
        msmd = means[(2, 2, sigma, "m-smd")]
        assert am <= msmd, (
            f"sigma={sigma}: mean final gap am-smd {am:.4f} > "
            f"m-smd {msmd:.4f} (reversed at this problem size; "
            "see docstring)")
    print("criterion 9 PASS")


def test_criterion_09_companion_ordering_at_larger_arrays():
    # Context for the red test above: at the larger antenna
    # configurations the last iterate oscillates and averaging wins in
    # every cell, at both noise levels.
    config = ExperimentConfig(
        antenna_pairs=((4, 4), (2, 4)),
        sigmas=(0.5, 5.0),
        methods=(
            MethodSpec(Method.AM_SMD, StepSchedule.harmonic_sqrt()),
            MethodSpec(Method.M_SMD, StepSchedule.harmonic_sqrt()),
        ),
        iterations=2000,
        sample_paths=3,
        gap_every=1000,
    )
    means = _mean_final_gaps(config, 2000)
    margins = []
    for m, n in ((4, 4), (2, 4)):
        for sigma in (0.5, 5.0):
            am = means[(m, n, sigma, "am-smd")]
            msmd = means[(m, n, sigma, "m-smd")]
            assert am <= msmd, (
                f"(m,n)=({m},{n}) sigma={sigma}: am-smd {am:.4f} > "
                f"m-smd {msmd:.4f}")
            margins.append(f"({m},{n},{sigma:g}): {am:.3f}<={msmd:.3f}")
    print("criterion 9 companion PASS: " + "; ".join(margins))


def test_criterion_10_stability_of_per_player_rates():
    # Stability preset (m = n = 4, sigma = 10, 10 paths): the path-mean
    # rate trajectory of every player must fluctuate strictly less over
    # the last 500 iterations under averaging than without it.
    preset = preset_config("stability")
    grid = run_grid(preset, threads=1)
    assert not grid.failures, grid.failures
    paths = defaultdict(list)
    for method, _, rates in grid.rates:
        paths[method].append(rates)
    T = preset.iterations
    window = slice(T - 500, T)  # iterations T - 499 .. T
    lines = []
    for player in range(7):
        stds = {}
        for method in ("am-smd", "m-smd"):
            series = np.stack(paths[method])[:, window, player]
            mean_traj = [float(np.mean(col)) for col in series.T]
            stds[method] = float(np.std(mean_traj))
        assert stds["am-smd"] < stds["m-smd"], (
            f"player {player}: am-smd std {stds['am-smd']:.5f} !< "
            f"m-smd std {stds['m-smd']:.5f}")
        lines.append(f"p{player}: {stds['am-smd']:.4f}<{stds['m-smd']:.4f}")
    print("criterion 10 PASS: " + "; ".join(lines))


def test_criterion_11_determinism_and_pinned_schema(tmp_path):
    # Identical configs must produce byte-identical CSVs, and the output
    # must match the checked-in golden fixture.
    config = ExperimentConfig(
        antenna_pairs=((2, 2),),
        sigmas=(1.0,),
        methods=(
            MethodSpec(Method.AM_SMD, StepSchedule.horizon()),
            MethodSpec(Method.M_SMD, StepSchedule.horizon()),
        ),
        iterations=60,
        sample_paths=2,
        gap_every=30,
        base_seed=123,
    )
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(run_grid(config, threads=1).records, p1)
    write_csv(run_grid(config, threads=1).records, p2)
    assert p1.read_bytes() == p2.read_bytes(), "repeat run differed"
    with open(os.path.join(DATA, "small_grid.csv"), "rb") as f:
        golden = f.read()
    assert p1.read_bytes() == golden, "output differs from golden fixture"
    header = golden.splitlines()[0].decode("ascii")
    assert header == "method,m,n,sigma,lambda,path,iter,gap,elapsed_ms"
    print("criterion 11 PASS: bitwise repeatable, golden fixture matched")
