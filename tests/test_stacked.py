"""Stacked-block layers against per-block references built from 2-D calls.

Every hot layer evaluates a whole (N, d, d) stack of blocks in one numpy
call. The references below are the per-block loops those layers
replaced, written with 2-D matrices only; the stacked layers must match
them bit for bit (same operations in the same order), and a full solver
run on a mixed-dimension, mixed-mode set must match a per-block
reference loop to 1e-12.
"""

import math

import numpy as np
import pytest

from spectra_svi import harness, linalg, mimo, mirror, solvers
from spectra_svi import problem as pb
from spectra_svi.errors import NumericalFailure
from spectra_svi.problem import BlockProfile, BlockSpec, SpectraSet, TraceMode

# --- per-block references --------------------------------------------------


def _ref_eig(A):
    w, V = np.linalg.eigh(linalg.hermitianize(A))
    return w[::-1].copy(), V[:, ::-1].copy()


def _ref_gibbs(Y):
    w, V = _ref_eig(Y)
    e = np.exp(w - w[0])
    e /= np.sum(e)
    X = linalg.hermitianize((V * e) @ V.conj().T)
    return X / float(np.trace(X).real)


def _ref_gibbs_bounded(Y, p):
    w, V = _ref_eig(Y)
    m = max(float(w[0]), 0.0)
    e = np.exp(w - m)
    denom = float(np.sum(e) + np.exp(-m))
    return p * linalg.hermitianize((V * (e / denom)) @ V.conj().T)


def _ref_dual_to_primal(blocks, cset):
    return [spec.bound * _ref_gibbs(Y) if spec.mode is TraceMode.EQUAL
            else _ref_gibbs_bounded(Y, spec.bound)
            for Y, spec in zip(blocks, cset.blocks, strict=True)]


def _ref_noise(sigma, dims, rng):
    s = sigma / math.sqrt(2.0)
    return [linalg.hermitianize(
        s * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
        for d in dims]


def _ref_strong_gap(F, X, cset):
    total = 0.0
    for Fi, Xi, spec in zip(F, X, cset.blocks, strict=True):
        lam_min = float(_ref_eig(Fi)[0][-1])
        if spec.mode is TraceMode.AT_MOST:
            lam_min = min(0.0, lam_min)
        total += linalg.trace_inner(Fi, Xi) - spec.bound * lam_min
    return total


def _ref_received(channels, X, i, skip_own):
    W = np.eye(channels.H[i][i].shape[0], dtype=complex)
    for j in range(channels.users):
        if skip_own and j == i:
            continue
        Hji = channels.H[j][i]
        W = W + Hji @ X[j] @ Hji.conj().T
    return linalg.hermitianize(W)


def _ref_game_mapping(channels, X):
    out = []
    for i in range(channels.users):
        W = _ref_received(channels, X, i, skip_own=False)
        Hii = channels.H[i][i]
        out.append(-linalg.hermitianize(Hii.conj().T @ np.linalg.solve(W, Hii)))
    return out


def _ref_throughput(channels, X, i):
    def logdet(W):
        return float(np.sum(np.log(np.linalg.eigvalsh(W))))
    return (logdet(_ref_received(channels, X, i, skip_own=False))
            - logdet(_ref_received(channels, X, i, skip_own=True)))


def _ref_run(problem, config):
    """The per-block solver loop: gap trace and final reported blocks."""
    cset = problem.constraints
    lam = config.lam if config.method is solvers.Method.MEL else 0.0
    rng = np.random.default_rng(config.seed)
    eta_at = config.schedule.resolve(
        problem.oracle_bound, cset.total_dim, config.iterations)

    def mapping(blocks):
        return list(problem.mapping(BlockProfile(blocks)).blocks)

    Y = [np.zeros((d, d), dtype=complex) for d in cset.dims]
    X = _ref_dual_to_primal(Y, cset)
    gamma, xbar = eta_at(0), X
    trace = []
    for t in range(config.iterations):
        F = mapping(X)
        phi = [f + lam * x for f, x in zip(F, X)] if lam > 0 else F
        if problem.noise.sigma > 0:
            Z = _ref_noise(problem.noise.sigma, cset.dims, rng)
            phi = [p + z for p, z in zip(phi, Z)]
        Y = [y - eta_at(t) * p for y, p in zip(Y, phi)]
        X = _ref_dual_to_primal(Y, cset)
        eta = eta_at(t + 1)
        xbar = [(gamma * a + eta * b) * (1.0 / (gamma + eta))
                for a, b in zip(xbar, X)]
        gamma = gamma + eta
        it = t + 1
        if it % config.gap_every == 0 or it == config.iterations:
            reported = xbar if config.method is solvers.Method.AM_SMD else X
            trace.append((it, _ref_strong_gap(mapping(reported), reported,
                                              cset)))
    return trace, reported


# --- fixtures ---------------------------------------------------------------

# Dims and modes interleave, so stacking groups blocks out of order and
# one dimension holds both trace modes.
MIXED = SpectraSet((
    BlockSpec(3, bound=2.0, mode=TraceMode.EQUAL),
    BlockSpec(2, bound=0.5, mode=TraceMode.AT_MOST),
    BlockSpec(3, bound=1.0, mode=TraceMode.AT_MOST),
    BlockSpec(2, bound=0.5, mode=TraceMode.AT_MOST),
    BlockSpec(3, bound=1.5, mode=TraceMode.EQUAL),
))

# The two-block set of the solvers' feasibility test.
TWO_BLOCK = SpectraSet((
    BlockSpec(3, bound=2.0, mode=TraceMode.EQUAL),
    BlockSpec(2, bound=0.5, mode=TraceMode.AT_MOST),
))


def _random_profile(rng, dims, scale=3.0):
    return BlockProfile(tuple(
        linalg.random_hermitian(rng, d, scale=scale) for d in dims))


def _same(profile, blocks):
    assert len(profile) == len(blocks)
    for a, b in zip(profile.blocks, blocks, strict=True):
        assert np.array_equal(a, b)


# --- bitwise equivalence ------------------------------------------------------


def test_profile_round_trips_blocks_in_order():
    rng = np.random.default_rng(0)
    blocks = [linalg.random_hermitian(rng, d) for d in MIXED.dims]
    P = BlockProfile(blocks)
    assert P.dims == MIXED.dims
    assert len(P.parts) == 2  # one stack per distinct dimension
    _same(P, blocks)
    for i, b in enumerate(blocks):
        assert np.array_equal(P[i], b)
    _same(P + P, [b + b for b in blocks])
    _same(P - 2.0 * P, [b - 2.0 * b for b in blocks])
    stack = np.stack(blocks[1::2])
    _same(BlockProfile(stack), list(stack))


def test_profile_arithmetic_rejects_other_dims():
    A = BlockProfile((np.eye(2), np.eye(3)))
    B = BlockProfile((np.eye(3), np.eye(2)))
    with pytest.raises(ValueError, match="differ"):
        A + B


@pytest.mark.parametrize("mode", [TraceMode.EQUAL, TraceMode.AT_MOST])
@pytest.mark.parametrize("dim", [2, 4])
def test_gibbs_maps_match_per_block(mode, dim):
    rng = np.random.default_rng(dim)
    cset = SpectraSet.uniform(7, dim, bound=1.5, mode=mode)
    for scale in (0.1, 10.0, 1e4):
        Y = _random_profile(rng, cset.dims, scale)
        _same(solvers.dual_to_primal(Y, cset),
              _ref_dual_to_primal(Y.blocks, cset))
    stack = Y.parts[0]
    ref = (_ref_gibbs if mode is TraceMode.EQUAL
           else lambda b: _ref_gibbs_bounded(b, 1.0))
    got = (mirror.gibbs_map(stack) if mode is TraceMode.EQUAL
           else mirror.gibbs_map_bounded(stack, 1.0))
    _same(BlockProfile(got), [ref(b) for b in stack])


def test_dual_to_primal_matches_per_block_on_mixed_sets():
    rng = np.random.default_rng(1)
    for cset in (MIXED, TWO_BLOCK):
        Y = _random_profile(rng, cset.dims)
        _same(solvers.dual_to_primal(Y, cset),
              _ref_dual_to_primal(Y.blocks, cset))


@pytest.mark.parametrize("dims", [(2,) * 7, (4,) * 7, MIXED.dims])
def test_noise_sample_matches_per_block_draws(dims):
    noise = pb.NoiseModel(2.5)
    got = noise.sample(dims, np.random.default_rng(3))
    _same(got, _ref_noise(2.5, dims, np.random.default_rng(3)))
    # The draw leaves the stream where per-block draws leave it.
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    noise.sample(dims, rng_a)
    _ref_noise(2.5, dims, rng_b)
    assert rng_a.standard_normal() == rng_b.standard_normal()


@pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (2, 4), (4, 2)])
def test_game_mapping_and_throughput_match_per_block(m, n):
    topo = mimo.canonical_topology(m, n)
    ch = mimo.sample_channels(topo, np.random.default_rng(m * 10 + n))
    cset = topo.constraint_set()
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = pb.random_feasible_profile(cset, rng)
        _same(mimo.game_mapping(ch, X), _ref_game_mapping(ch, X.blocks))
        rates = mimo.throughput(ch, X)
        for i in range(topo.users):
            ref = _ref_throughput(ch, X.blocks, i)
            assert rates[i] == ref
            assert mimo.throughput(ch, X, i) == ref
            assert np.array_equal(mimo.mui_covariance(ch, X, i),
                                  _ref_received(ch, X.blocks, i, True))


@pytest.mark.parametrize("topo", [
    mimo.canonical_topology(4, 4),
    mimo.NetworkTopology((2, 3, 2), (3, 2, 2), np.ones((3, 3)) + np.eye(3)),
])
def test_throughput_of_stacked_profiles_matches_one_at_a_time(topo):
    # The harness evaluates a run's reported points in chunks, as one
    # profile with a leading axis on the cell's own channels.
    ch = mimo.sample_channels(topo, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    points = [pb.random_feasible_profile(topo.constraint_set(), rng)
              for _ in range(5)]
    rates = mimo.throughput(ch, BlockProfile.stack(points))
    assert rates.shape == (5, topo.users)
    for got, X in zip(rates, points):
        assert np.array_equal(got, mimo.throughput(ch, X))


def test_game_mapping_with_unequal_antenna_counts():
    # Stacking zero-pads the channels; the result must match the
    # unpadded per-block computation to rounding.
    topo = mimo.NetworkTopology((2, 3, 2), (3, 2, 2), np.ones((3, 3)) + np.eye(3))
    ch = mimo.sample_channels(topo, np.random.default_rng(6))
    X = pb.random_feasible_profile(topo.constraint_set(), np.random.default_rng(7))
    F = mimo.game_mapping(ch, X)
    assert F.dims == (2, 3, 2)
    for got, ref in zip(F.blocks, _ref_game_mapping(ch, X.blocks)):
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-14)
    for i in range(3):
        assert mimo.throughput(ch, X, i) == pytest.approx(
            _ref_throughput(ch, X.blocks, i), rel=1e-12, abs=1e-14)
        assert mimo.throughput_gradient(ch, X, i).shape == (X.dims[i],) * 2


def test_strong_gap_matches_per_block():
    rng = np.random.default_rng(8)
    topo = mimo.canonical_topology(4, 2)
    ch = mimo.sample_channels(topo, rng)
    prob = mimo.game_to_svi(topo, ch)
    for _ in range(5):
        X = pb.random_feasible_profile(prob.constraints, rng)
        F = mimo.game_mapping(ch, X)
        assert pb.strong_gap(prob, X) == _ref_strong_gap(
            F.blocks, X.blocks, prob.constraints)
    B = pb.random_feasible_profile(MIXED, rng)
    prob = pb.quadratic_test_problem(B, MIXED)
    for _ in range(5):
        X = pb.random_feasible_profile(MIXED, rng)
        assert pb.strong_gap(prob, X) == _ref_strong_gap(
            prob.mapping(X).blocks, X.blocks, MIXED)


def test_assert_feasible_names_first_bad_block():
    rng = np.random.default_rng(9)
    X = pb.random_feasible_profile(MIXED, rng)
    pb.assert_feasible(X, MIXED)
    blocks = list(X.blocks)
    blocks[2] = 3.0 * blocks[2] + np.eye(3)  # cap 1 exceeded
    blocks[4] = blocks[4] + np.eye(3)        # equality broken, later block
    with pytest.raises(pb.DomainError, match="block 2 trace .* exceeds"):
        pb.assert_feasible(BlockProfile(blocks), MIXED)
    blocks[1] = np.diag([0.5, -0.2])
    with pytest.raises(pb.DomainError, match="block 1 not PSD"):
        pb.assert_feasible(BlockProfile(blocks), MIXED)


# --- the solver loop on mixed sets -----------------------------------------


@pytest.mark.parametrize("cset", [MIXED, TWO_BLOCK], ids=["mixed5", "two-block"])
@pytest.mark.parametrize("method,lam", [
    (solvers.Method.AM_SMD, 0.0),
    (solvers.Method.M_SMD, 0.0),
    (solvers.Method.MEL, 0.5),
])
def test_run_matches_per_block_reference_loop(cset, method, lam):
    rng = np.random.default_rng(10)
    B = BlockProfile(tuple(
        linalg.random_hermitian(rng, d) for d in cset.dims))
    prob = pb.quadratic_test_problem(B, cset, sigma=0.3)
    config = solvers.SolverConfig(
        method, iterations=60, schedule=solvers.StepSchedule.harmonic_sqrt(),
        lam=lam, gap_every=7, seed=11)
    result = solvers.run(prob, config)
    assert result.error is None
    trace, reported = _ref_run(prob, config)
    assert [it for it, _ in result.gap_trace] == [it for it, _ in trace]
    for (_, got), (_, ref) in zip(result.gap_trace, trace):
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)
    for got, ref in zip(result.final_point.blocks, reported):
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)


# --- failures stay inside the cell -----------------------------------------


def test_eig_failure_names_the_block():
    stack = np.stack([np.eye(2), np.eye(2), np.full((2, 2), np.nan)])
    with pytest.raises(NumericalFailure) as info:
        linalg.eig(stack)
    assert info.value.diagnostics["block"] == 2
    # Grouped layers report the block number within the profile.
    rng = np.random.default_rng(12)
    blocks = [linalg.random_hermitian(rng, d) for d in MIXED.dims]
    blocks[2] = np.full((3, 3), np.nan)
    with pytest.raises(NumericalFailure) as info:
        solvers.dual_to_primal(BlockProfile(blocks), MIXED)
    assert info.value.diagnostics["block"] == 2


def test_run_keeps_trace_and_diagnostics_on_numerical_failure():
    rng = np.random.default_rng(13)
    B = pb.random_feasible_profile(MIXED, rng)
    base = pb.quadratic_test_problem(B, MIXED)
    calls = []

    def poisoned(X):
        calls.append(None)
        F = base.mapping(X)
        if len(calls) <= 12:
            return F
        blocks = list(F.blocks)
        blocks[3] = np.full((2, 2), np.nan)
        return BlockProfile(blocks)

    prob = pb.SviProblem(MIXED, poisoned, oracle_bound=base.oracle_bound)
    config = solvers.SolverConfig(
        solvers.Method.M_SMD, iterations=30,
        schedule=solvers.StepSchedule.harmonic_sqrt(), gap_every=5)
    result = solvers.run(prob, config)
    # Calls 1-12 are iterations 1-12 and the gaps at 5 and 10, whose
    # mapping values iterations 6 and 11 reuse; the poisoned call 13 is
    # iteration 13.
    assert [it for it, _ in result.gap_trace] == [5, 10]
    assert "non-finite" in result.error and "block=3" in result.error


def _doubling_after(k, monkeypatch):
    """Make the Gibbs map return twice its output from call k + 1 on."""
    real = solvers.gibbs_map_bounded
    calls = []

    def doubled(Y, p):
        calls.append(None)
        X = real(Y, p)
        return 2.0 * X if len(calls) > k else X

    monkeypatch.setattr(solvers, "gibbs_map_bounded", doubled)


def test_infeasible_iterate_is_contained_and_written(tmp_path, monkeypatch):
    config = harness.ExperimentConfig(
        antenna_pairs=((2, 2),),
        sigmas=(1.0,),
        methods=(harness.MethodSpec(
            solvers.Method.M_SMD, solvers.StepSchedule.harmonic_sqrt()),),
        iterations=40, sample_paths=1, gap_every=5, base_seed=3)
    # Call 1 maps Y_0 and call t + 1 gives X_t: X_12 on are doubled.
    _doubling_after(12, monkeypatch)
    grid = harness.run_grid(config, threads=1)
    assert [r.iteration for r in grid.records] == [5, 10]
    assert len(grid.failures) == 1
    assert "block 0 trace" in grid.failures[0]
    assert "exceeds bound 1" in grid.failures[0]

    paths = harness.write_outputs(grid, config, str(tmp_path), "results")
    rows = harness.read_csv(paths["csv"])
    assert [r.iteration for r in rows] == [5, 10]
    echo = (tmp_path / "config.echo.txt").read_text()
    failures = echo.split("[failures]\n", 1)[1].splitlines()
    assert failures == grid.failures
    assert failures[0].startswith("method=m-smd m=2 n=2")

    # Alone, the cell returns the last reported point that passed the
    # feasibility check (iteration 10), not the infeasible one.
    monkeypatch.undo()
    _doubling_after(12, monkeypatch)
    _, problem, solver_config = harness.cell_problem(
        harness.build_tasks(config)[0])
    result = solvers.run(problem, solver_config)
    assert "exceeds bound 1" in result.error
    assert pb.is_feasible(result.final_point, problem.constraints)
