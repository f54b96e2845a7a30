"""Solver loop: schedules, averaging, convergence, method relationships."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spectra_svi import harness, mimo, problem as pb
from spectra_svi.errors import DomainError
from spectra_svi.linalg import random_hermitian
from spectra_svi.problem import SpectraSet, SviProblem, TraceMode, pad_blocks
from spectra_svi.solvers import (
    AveragingState,
    Method,
    RunResult,
    ScheduleKind,
    SolverConfig,
    StepSchedule,
    dual_to_primal,
    mirror_step,
    run,
    run_batch,
    horizon_stepsize,
    update_average,
)


def _quadratic(seed=0, players=2, dim=2, sigma=0.0, mode=TraceMode.EQUAL):
    rng = np.random.default_rng(seed)
    cset = SpectraSet((dim,) * players, mode=mode)
    B = pb.random_feasible_profile(
        SpectraSet((dim,) * players), rng)
    return pb.quadratic_test_problem(B, cset, sigma=sigma)


def test_horizon_stepsize_value():
    assert horizon_stepsize(2.0, 4, 100) == pytest.approx(
        math.sqrt(math.log(4) / 100) / 2.0)


def test_horizon_stepsize_validation():
    with pytest.raises(ValueError):
        horizon_stepsize(0.0, 4, 100)
    with pytest.raises(ValueError):
        horizon_stepsize(1.0, 4, 0)
    with pytest.raises(DomainError):
        horizon_stepsize(1.0, 1, 100)


def test_schedule_constant_and_horizon_resolve():
    eta = StepSchedule.constant(0.25).resolve(5.0, 4, 100)
    assert eta(0) == eta(99) == 0.25
    th = StepSchedule.horizon().resolve(2.0, 4, 400)
    assert th(0) == pytest.approx(horizon_stepsize(2.0, 4, 400))


def test_schedule_harmonic_family():
    hs = StepSchedule.harmonic_sqrt().resolve(1.0, 2, 10)
    h = StepSchedule.harmonic().resolve(1.0, 2, 10)
    assert hs(0) == 1.0 and hs(3) == pytest.approx(0.5)
    assert h(0) == 1.0 and h(9) == pytest.approx(0.1)
    etas = [hs(t) for t in range(20)]
    assert all(a >= b for a, b in zip(etas, etas[1:]))


def test_schedule_constant_rejects_nonpositive():
    for eta in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            StepSchedule.constant(eta)


def test_solver_config_validation():
    sched = StepSchedule.constant(0.1)
    with pytest.raises(ValueError):
        SolverConfig(Method.M_SMD, iterations=0, schedule=sched)
    with pytest.raises(ValueError):
        SolverConfig(Method.M_SMD, iterations=10, schedule=sched, gap_every=0)
    with pytest.raises(ValueError):
        SolverConfig(Method.M_SMD, iterations=10, schedule=sched, lam=0.5)
    SolverConfig(Method.MEL, iterations=10, schedule=sched, lam=0.5)


def test_update_average_matches_direct_weighted_sum():
    rng = np.random.default_rng(0)
    etas = [1.0 / math.sqrt(t + 1) for t in range(30)]
    xs = [pad_blocks([random_hermitian(rng, 3)]) for _ in range(30)]
    state = AveragingState(etas[0], xs[0])
    for eta, x in zip(etas[1:], xs[1:]):
        state = update_average(state, x, eta)
    direct = xs[0] * etas[0]
    for eta, x in zip(etas[1:], xs[1:]):
        direct = direct + x * eta
    direct = direct * (1.0 / sum(etas))
    assert np.max(np.abs(state.xbar[0] - direct[0])) <= 1e-12
    assert state.gamma == pytest.approx(sum(etas))


def test_dual_to_primal_feasible_both_modes():
    rng = np.random.default_rng(1)
    for mode in TraceMode:
        cset = SpectraSet((3, 2, 3, 2, 3), 2.0, mode)
        for _ in range(20):
            Y = pad_blocks([random_hermitian(rng, d, scale=5.0)
                            for d in cset.dims])
            X = dual_to_primal(Y, cset)
            pb.assert_feasible(X, cset)
            traces = [float(np.trace(b).real) for b in cset.blocks(X)]
            if mode is TraceMode.EQUAL:
                # Equality blocks hit the bound exactly.
                assert traces == pytest.approx([2.0] * 5, abs=1e-10)
            else:
                assert max(traces) < 2.0


def test_mirror_step_moves_against_gradient():
    cset = SpectraSet((2,))
    Y = cset.zeros()
    phi = pad_blocks([np.diag([1.0, -1.0])])
    Y2, X2 = mirror_step(Y, phi, 0.5, cset)
    assert np.allclose(Y2[0], np.diag([-0.5, 0.5]))
    # Mass shifts toward the coordinate with the smaller mapping value.
    assert X2[0][1, 1].real > X2[0][0, 0].real


def test_run_starts_from_uniform_state():
    # The first oracle call evaluates the mapping at X_0.
    base = _quadratic(seed=2)
    seen = []

    def recording(X):
        seen.append(X)
        return base.mapping(X)

    cfg = SolverConfig(Method.M_SMD, iterations=1,
                       schedule=StepSchedule.constant(1e-9), gap_every=1)
    run(SviProblem(base.constraints, recording, base.noise,
                   base.oracle_bound), cfg)
    X0 = seen[0]
    for b in X0:
        assert np.allclose(b, np.eye(b.shape[0]) / b.shape[0], atol=1e-12)


def test_run_noiseless_quadratic_converges_all_methods():
    prob = _quadratic(seed=3)
    for method in Method:
        cfg = SolverConfig(method, iterations=400,
                           schedule=StepSchedule.harmonic_sqrt(),
                           lam=0.05 if method is Method.MEL else 0.0,
                           gap_every=100, seed=0)
        res = run(prob, cfg)
        assert res.error is None
        assert res.gap_trace[-1][0] == 400
        assert res.gap_trace[-1][1] <= 0.05, method
        pb.assert_feasible(res.final_point, prob.constraints)


def test_run_gap_trace_iterations_and_nonnegativity():
    prob = _quadratic(seed=4, sigma=0.5)
    cfg = SolverConfig(Method.AM_SMD, iterations=250,
                       schedule=StepSchedule.horizon(), gap_every=100, seed=1)
    res = run(prob, cfg)
    assert [it for it, _ in res.gap_trace] == [100, 200, 250]
    assert all(g >= -1e-8 for _, g in res.gap_trace)


def test_run_same_seed_reproduces_bitwise():
    prob = _quadratic(seed=5, sigma=1.0)
    cfg = SolverConfig(Method.AM_SMD, iterations=120,
                       schedule=StepSchedule.horizon(), gap_every=40, seed=7)
    a, b = run(prob, cfg), run(prob, cfg)
    assert a.gap_trace == b.gap_trace
    assert np.array_equal(a.final_point, b.final_point)


def test_run_different_seeds_differ_under_noise():
    prob = _quadratic(seed=6, sigma=1.0)
    mk = lambda s: SolverConfig(Method.M_SMD, iterations=50,
                                schedule=StepSchedule.horizon(),
                                gap_every=50, seed=s)
    a, b = run(prob, mk(0)), run(prob, mk(1))
    assert a.gap_trace != b.gap_trace


def test_mel_zero_lambda_is_bitwise_msmd():
    prob = _quadratic(seed=7, sigma=1.0)
    base = dict(iterations=80, schedule=StepSchedule.horizon(),
                gap_every=20, seed=3)
    mel = run(prob, SolverConfig(Method.MEL, lam=0.0, **base))
    msmd = run(prob, SolverConfig(Method.M_SMD, **base))
    assert mel.gap_trace == msmd.gap_trace
    assert np.array_equal(mel.final_point, msmd.final_point)


def test_mel_gap_measured_against_original_mapping():
    # With lam > 0 MEL converges to the solution of the regularized VI,
    # so the reported gap (against the original mapping) stays bounded
    # away from the regularized problem's own gap.
    prob = _quadratic(seed=8)
    cfg = SolverConfig(Method.MEL, iterations=600,
                       schedule=StepSchedule.harmonic_sqrt(), lam=1.0,
                       gap_every=200, seed=0)
    res = run(prob, cfg)
    assert res.error is None
    final_gap = res.gap_trace[-1][1]
    from dataclasses import replace
    reg = replace(prob, mapping=lambda X: prob.mapping(X) + 1.0 * X)
    reg_gap = pb.strong_gap(reg, res.final_point)
    # The iterate solves the regularized problem better than the original.
    assert reg_gap < final_gap


def test_averaging_reported_point_is_average_not_iterate():
    # AM-SMD and M-SMD share the iteration, so with one seed the M-SMD
    # run's final point is the AM-SMD run's last iterate.
    prob = _quadratic(seed=9, sigma=2.0)
    base = dict(iterations=60, schedule=StepSchedule.horizon(),
                gap_every=60, seed=11)
    am = run(prob, SolverConfig(Method.AM_SMD, **base))
    last = run(prob, SolverConfig(Method.M_SMD, **base))
    assert not np.array_equal(am.final_point, last.final_point)


def _game_cells():
    """Three cells of the 2x2 game with their own channels and sigmas."""
    topo = mimo.canonical_topology(2, 2)
    return [mimo.game_to_svi(topo, mimo.sample_channels(
                topo, np.random.default_rng(seed)), sigma)
            for seed, sigma in ((1, 1.0), (2, 0.0), (3, 2.0))]


def test_measures_are_the_throughput_at_each_reported_point():
    # Under a harmonic schedule eta_t does not depend on T, so the run
    # stopped at iteration t reports the point the full run reports at
    # t: its throughput is row t - 1 of the measures, bit for bit.
    problems = _game_cells()
    configs = [
        SolverConfig(Method.AM_SMD, 6, StepSchedule.harmonic_sqrt(),
                     gap_every=4, seed=5),
        SolverConfig(Method.M_SMD, 6, StepSchedule.harmonic(),
                     gap_every=4, seed=6),
        SolverConfig(Method.MEL, 6, StepSchedule.harmonic(), lam=0.5,
                     gap_every=4, seed=7),
    ]
    results = run_batch(problems, configs, harness.game_and_throughput)
    for problem, cfg, result in zip(problems, configs, results):
        assert result.error is None
        assert result.measures.shape == (6, 7)
        for t in range(1, 7):
            lone = run(problem, replace(cfg, iterations=t, gap_every=t))
            rates = mimo.throughput(problem.mapping.channels,
                                    lone.final_point)
            assert np.array_equal(result.measures[t - 1], rates), (cfg, t)


def test_run_without_measure_has_no_measures():
    result = run(_quadratic(seed=12), SolverConfig(
        Method.M_SMD, 10, StepSchedule.harmonic_sqrt(), gap_every=10))
    assert result.measures is None


def test_run_trace_cap_problem_stays_feasible():
    prob = _quadratic(seed=13, mode=TraceMode.AT_MOST)
    cfg = SolverConfig(Method.AM_SMD, iterations=300,
                       schedule=StepSchedule.harmonic_sqrt(), gap_every=100)
    res = run(prob, cfg)
    assert res.error is None
    assert res.gap_trace[-1][1] <= 0.1


def test_run_survives_numerical_failure_with_partial_trace():
    # A mapping that starts emitting NaN mid-run must not crash the
    # solver: the run returns the trace collected so far plus an error
    # string instead of raising.
    cset = SpectraSet((2,))
    calls = {"n": 0}

    def flaky(X):
        calls["n"] += 1
        if calls["n"] > 8:
            return pad_blocks([np.full((2, 2), np.nan)])
        return X

    prob = SviProblem(cset, flaky, oracle_bound=1.0)
    cfg = SolverConfig(Method.M_SMD, iterations=50,
                       schedule=StepSchedule.constant(0.1), gap_every=2)
    res = run(prob, cfg)
    assert isinstance(res, RunResult)
    assert res.error is not None and "non-finite" in res.error
    assert len(res.gap_trace) >= 1
    assert res.gap_trace[-1][0] < 50


def test_gap_iterations_reuse_the_mapping_of_the_last_iterate():
    # M-SMD reports X_t, so the mapping at a gap iteration also serves the
    # next oracle call: T + 1 evaluations instead of 2T at gap_every = 1,
    # and the gap trace of the loop that evaluates F(X_t) twice.
    base = _quadratic(seed=15, sigma=0.5)
    calls = []

    def counted(X):
        calls.append(None)
        return base.mapping(X)

    cfg = SolverConfig(Method.M_SMD, iterations=20,
                       schedule=StepSchedule.harmonic_sqrt(), gap_every=1,
                       seed=4)
    res = run(SviProblem(base.constraints, counted, base.noise,
                         base.oracle_bound), cfg)
    assert len(calls) == 21

    cset = base.constraints
    rng = np.random.default_rng(cfg.seed)
    eta_at = cfg.schedule.resolve(base.oracle_bound, cset.total_dim, 20)
    Y = cset.zeros()
    X = dual_to_primal(Y, cset)
    trace = []
    for t in range(20):
        phi, _ = pb.oracle_sample(base, X, rng)
        Y, X = mirror_step(Y, phi, eta_at(t), cset)
        trace.append((t + 1, pb.strong_gap(base, X)))
    assert res.gap_trace == tuple(trace)


@pytest.mark.parametrize("measure", (None, harness.game_and_throughput),
                         ids=("gaps", "throughput"))
def test_a_mixed_batch_evaluates_the_game_once_per_iteration(measure,
                                                            monkeypatch):
    # AM-SMD reports its average and M-SMD its iterate. At gap_every = 1
    # one evaluation of [X_t of both cells; the average] per iteration
    # serves the gaps, the rates and the next oracle call: T + 1 calls,
    # where mapping the reported points and then X_t again took 2T.
    calls, rates = [], []
    real_mapping, real_throughput = mimo.game_mapping, harness.throughput

    def rows(X):
        return len(X.full if isinstance(X, mimo.Covariances) else X)

    def mapping(channels, X):
        calls.append(rows(X))
        return real_mapping(channels, X)

    def throughput(channels, X, i=None):
        rates.append(rows(X))
        return real_throughput(channels, X, i)

    monkeypatch.setattr(mimo, "game_mapping", mapping)
    monkeypatch.setattr(harness, "throughput", throughput)
    problems = _game_cells()[:2]
    configs = [SolverConfig(method, 20, StepSchedule.harmonic_sqrt(),
                            gap_every=1, seed=seed)
               for method, seed in ((Method.AM_SMD, 1), (Method.M_SMD, 2))]
    results = run_batch(problems, configs, measure)
    assert [r.error for r in results] == [None, None]
    assert [len(r.gap_trace) for r in results] == [20, 20]
    assert calls == [2] + [3] * 20  # rows: X_0, then X_t and the average
    assert rates == ([] if measure is None else [2] * 20)


def test_averaged_trajectory_moves_less_than_iterates():
    # Late in a noisy run the average moves O(1/t) per step while the raw
    # iterate keeps jumping O(eta * sigma). AM-SMD and M-SMD with one
    # seed share the iterates, so a batch of the two measures both
    # sequences.
    prob = _quadratic(seed=14, sigma=3.0)
    base = dict(iterations=300, schedule=StepSchedule.horizon(),
                gap_every=300, seed=0)

    def entries(problem, points, rows):
        return problem.mapping(points), points[rows].reshape(
            len(rows), -1)

    averaged, raw = (r.measures for r in run_batch(
        [prob, prob], [SolverConfig(Method.AM_SMD, **base),
                       SolverConfig(Method.M_SMD, **base)], entries))

    def max_step(seq):
        return max(np.linalg.norm(seq[t + 1] - seq[t])
                   for t in range(len(seq) - 51, len(seq) - 1))

    assert max_step(averaged) < 0.2 * max_step(raw)


def test_schedule_kind_values_are_cli_names():
    assert ScheduleKind.HORIZON.value == "horizon"
    assert ScheduleKind.HARMONIC_SQRT.value == "harmonic-sqrt"
    assert Method.AM_SMD.value == "am-smd"
