"""Stacked-block layers against per-block references built from 2-D calls.

Every hot layer evaluates a whole (N, d, d) stack of blocks in one numpy
call. The references below are the per-block loops those layers
replaced, written with 2-D matrices only; the stacked layers must match
them bit for bit (same operations in the same order), and a full solver
run on a mixed-dimension set, in either trace mode, must match a
per-block reference loop to 1e-12.

The 2x2 Gibbs maps and eigenvalues are the first exception: they take
a closed form (`linalg.hermitian_2x2`) with no LAPACK call, and must
match the LAPACK references to KERNEL_TOL times the trace bound times
max(1, ||Y||_2), the error that any eigensolver's eigenvalues carry.
Every other dimension stays bit for bit.

The game is the other exception: its received covariances come from one
product of each draw's real operator with the profile's Hermitian
coordinates, which adds the terms in another order than the per-block
sum. With 2 receive antennas the mapping also inverts each covariance
in closed form (adj(W) / det(W)) and maps the inverse through a second
real operator per draw, where the reference solves. The mapping and the
covariances must match the references to 1e-13 relative to their
largest entry, and the rates to 1e-12 relative. Cells on several draws
must still equal their lone evaluations bit for bit. The rates'
interference-only operators must equal those of the channels without
their direct links bit for bit, and the rates the full - own formula
they replaced to RATE_TOL.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectra_svi import harness, linalg, mimo, mirror, solvers
from spectra_svi import problem as pb
from spectra_svi.errors import NumericalFailure
from spectra_svi.linalg import from_coordinates, to_coordinates
from spectra_svi.problem import SpectraSet, TraceMode

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
    assert len(blocks) == len(cset.dims)
    return [cset.bound * _ref_gibbs(Y) if cset.mode is TraceMode.EQUAL
            else _ref_gibbs_bounded(Y, cset.bound) for Y in blocks]


def _ref_noise(sigma, dims, rng):
    s = sigma / math.sqrt(2.0)
    return [linalg.hermitianize(
        s * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))))
        for d in dims]


def _ref_strong_gap(F, X, cset):
    total = 0.0
    for Fi, Xi in zip(F, X, strict=True):
        lam_min = float(np.linalg.eigvalsh(linalg.hermitianize(Fi))[0])
        if cset.mode is TraceMode.AT_MOST:
            lam_min = min(0.0, lam_min)
        total += linalg.trace_inner(Fi, Xi) - cset.bound * lam_min
    return total


def _ref_received(channels, X, i, skip_own):
    W = np.eye(channels.rx_antennas[i], dtype=complex)
    for j in range(channels.users):
        if skip_own and j == i:
            continue
        Hji = channels.link(j, i)
        W = W + Hji @ X[j] @ Hji.conj().T
    return linalg.hermitianize(W)


def _ref_game_mapping(channels, X):
    out = []
    for i in range(channels.users):
        W = _ref_received(channels, X, i, skip_own=False)
        Hii = channels.link(i, i)
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

    D = max(cset.dims)

    def mapping(blocks):
        x = to_coordinates(pb.pad_blocks(blocks))
        return list(cset.blocks(from_coordinates(problem.mapping(x), D)))

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

# Dims interleave, so stacking groups blocks out of order.
MIXED_DIMS = (3, 2, 3, 2, 3)
TWO_BLOCK_DIMS = (3, 2)


def _sets(dims):
    """The set of these block dims in either trace mode, at a non-unit
    bound."""
    return [SpectraSet(dims, 1.5, mode) for mode in TraceMode]


def _random_profile(rng, dims, scale=3.0):
    return pb.pad_blocks(
        [linalg.random_hermitian(rng, d, scale=scale) for d in dims])


def _outside(dims):
    """Mask of the entries of one profile's padded array, for blocks of
    these dims, outside the blocks' top-left corners."""
    outside = np.ones(SpectraSet(dims).zeros().shape, dtype=bool)
    for i, d in enumerate(dims):
        outside[i, :d, :d] = False
    return outside


def _padding_is_zero(profile, dims):
    return not np.any(profile[..., _outside(dims)])


def _same(profile, dims, blocks):
    assert profile.shape == SpectraSet(dims).zeros().shape
    for a, b in zip(SpectraSet(dims).blocks(profile), blocks, strict=True):
        assert np.array_equal(a, b)


# Largest difference measured between the 2x2 closed form and the
# LAPACK references over 18,000 inputs (random, diagonal, near-degenerate
# and with a top eigenvalue near 0, at scales 1e-8 to 1e6), in units of
# eps * bound * max(1, ||Y||_2): 1.7 for gibbs_map, 3.0 for
# gibbs_map_bounded, 4.8 for eigvals.
KERNEL_TOL = 8 * np.finfo(float).eps


def _kernel_tol(Y, bound=1.0):
    return KERNEL_TOL * bound * max(1.0, np.linalg.norm(Y, 2))


def _gibbs_match(got, ref, duals, bounds):
    """Gibbs blocks against the per-block references: 2x2 blocks to the
    closed form's tolerance, every other block bit for bit."""
    for a, b, Y, p in zip(got, ref, duals, bounds, strict=True):
        if a.shape == (2, 2):
            assert np.max(np.abs(a - b)) <= _kernel_tol(Y, p)
        else:
            assert np.array_equal(a, b)


def _dual_to_primal_matches(Y, cset):
    X = solvers.dual_to_primal(to_coordinates(Y), cset)
    _gibbs_match(cset.blocks(from_coordinates(X, max(cset.dims))),
                 _ref_dual_to_primal(cset.blocks(Y), cset), cset.blocks(Y),
                 [cset.bound] * len(cset.dims))


def _gap_tol(F, X, cset):
    """How far the strong gap may be from `_ref_strong_gap`: 0 without 2x2
    blocks. With them, each 2x2 block's eigenvalue term carries the
    closed form's tolerance, and a changed term can change the rounding
    of the block sum after it."""
    small = [Fi for Fi in F if Fi.shape == (2, 2)]
    if not small:
        return 0.0
    size = sum(abs(linalg.trace_inner(Fi, Xi))
               + cset.bound * np.linalg.norm(Fi, 2)
               for Fi, Xi in zip(F, X, strict=True))
    return (sum(_kernel_tol(Fi, cset.bound) for Fi in small)
            + 2 * len(F) * np.finfo(float).eps * size)


def _covariances(channels, X):
    """The received covariances I + sum_j H_ji X_j H_ji^dag of complex
    profiles X, from the draws' operators, as the rates build them."""
    w = mimo._received(channels, to_coordinates(X))
    return from_coordinates(w, channels.stacked.shape[-2], plus=1.0)


def _near(got, ref, rel=1e-13):
    """Entrywise within rel times the largest entry of the reference."""
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


# --- bitwise equivalence ------------------------------------------------------


def test_profile_round_trips_blocks_in_order():
    rng = np.random.default_rng(0)
    cset = SpectraSet((2, 3, 2))
    blocks = [linalg.random_hermitian(rng, d) for d in cset.dims]
    P = pb.pad_blocks(blocks)
    assert P.shape == (3, 3, 3) and P.dtype == complex  # padded to 3 x 3
    assert _padding_is_zero(P, cset.dims)
    _same(P, cset.dims, blocks)
    # P[i] is block i padded to 3 x 3, not its 2 x 2 corner
    assert P[0].shape == (3, 3)
    assert np.array_equal(P[0, :2, :2], blocks[0])
    _same(P + P, cset.dims, [b + b for b in blocks])
    _same(P - 2.0 * P, cset.dims, [b - 2.0 * b for b in blocks])
    # the corners are views of the array
    cset.blocks(P)[2][1, 0] = 5.0
    assert P[2, 1, 0] == 5.0
    # a plain stack is the profile of blocks of one size
    stack = np.stack(blocks[::2])
    _same(stack, (2, 2), list(stack))


@pytest.mark.parametrize("mode", [TraceMode.EQUAL, TraceMode.AT_MOST])
@pytest.mark.parametrize("dim", [2, 4])
def test_gibbs_maps_match_per_block(mode, dim):
    rng = np.random.default_rng(dim)
    cset = SpectraSet((dim,) * 7, bound=1.5, mode=mode)
    for scale in (0.1, 10.0, 1e4):
        Y = _random_profile(rng, cset.dims, scale)
        _dual_to_primal_matches(Y, cset)
    stack = Y
    ref = (_ref_gibbs if mode is TraceMode.EQUAL
           else lambda b: _ref_gibbs_bounded(b, 1.0))
    got = (mirror.gibbs_map(stack) if mode is TraceMode.EQUAL
           else mirror.gibbs_map_bounded(stack, 1.0))
    _gibbs_match(got, [ref(b) for b in stack], stack, [1.0] * len(stack))


def test_dual_to_primal_matches_per_block_on_mixed_sets():
    rng = np.random.default_rng(1)
    for cset in _sets(MIXED_DIMS) + _sets(TWO_BLOCK_DIMS):
        Y = _random_profile(rng, cset.dims)
        _dual_to_primal_matches(Y, cset)


@st.composite
def _duals_2x2(draw):
    """One 2x2 dual: scaled random entries, zero, c I, diagonal with
    a > d or a < d, |b| << |a - d|, or lifted so that lambda_max > 745
    and the slack weight e^-lambda_max underflows."""
    scale = 10.0 ** draw(st.integers(-8, 6))
    a, d, re, im = (scale * draw(st.floats(-1, 1)) for _ in range(4))
    kind = draw(st.sampled_from(
        ("random", "zero", "identity", "a>d", "a<d", "tiny-b", "underflow")))
    if kind == "zero":
        return np.zeros((2, 2), dtype=complex)
    if kind == "identity":
        return a * np.eye(2, dtype=complex)
    if kind in ("a>d", "a<d"):
        hi, lo = max(a, d) + scale, min(a, d)
        return np.diag([hi, lo] if kind == "a>d" else [lo, hi]).astype(complex)
    b = complex(re, im)
    if kind == "tiny-b":
        b, d = 1e-9 * b, a - scale
    Y = np.array([[a, b], [b.conjugate(), d]])
    if kind == "underflow":
        Y = Y + draw(st.floats(746, 1e4)) * np.eye(2) + scale * np.eye(2)
    return Y


@given(st.lists(_duals_2x2(), min_size=1, max_size=7),
       st.sampled_from((0.5, 1.0, 1.5)))
def test_closed_form_2x2_matches_lapack_references(duals, bound):
    Y = np.stack(duals)
    tol = [_kernel_tol(y, bound) for y in Y]
    for mode in TraceMode:
        cset = SpectraSet((2,) * len(Y), bound, mode)
        x = solvers.dual_to_primal(to_coordinates(Y), cset)
        pb.assert_feasible(x, cset)
        X = from_coordinates(x, 2)
        assert np.min(np.linalg.eigvalsh(X)) >= -KERNEL_TOL * bound
        ref = _ref_dual_to_primal(list(Y), cset)
        for x, r, t in zip(X, ref, tol):
            assert np.max(np.abs(x - r)) <= t
    w = linalg.eigvals(Y)
    for got, y, t in zip(w, Y, tol):
        assert got[0] >= got[1]
        assert np.max(np.abs(got - np.linalg.eigvalsh(y)[::-1])) <= t / bound


@pytest.mark.parametrize("dims", [(2,) * 7, (4,) * 7, MIXED_DIMS])
def test_noise_sample_matches_per_block_draws(dims):
    noise = pb.NoiseModel(2.5)
    got = from_coordinates(noise.sample(dims, np.random.default_rng(3)),
                           max(dims))
    _same(got, dims, _ref_noise(2.5, dims, np.random.default_rng(3)))
    # The draw leaves the stream where per-block draws leave it.
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    noise.sample(dims, rng_a)
    _ref_noise(2.5, dims, rng_b)
    assert rng_a.standard_normal() == rng_b.standard_normal()


def _ref_draws(sigmas, dims, rngs, count):
    """`count` iterations' draws of every cell, shape (count, C, N, D, D):
    per-block reference draws for a noisy cell, zeros for sigma = 0."""
    zero = SpectraSet(dims).zeros()
    return np.stack([
        np.stack([pb.pad_blocks(_ref_noise(sigma, dims, rng)) if sigma > 0
                  else zero for sigma, rng in zip(sigmas, rngs)])
        for _ in range(count)])


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4), (2, 4, 2)])
def test_block_draws_equal_per_iteration_draws(dims):
    K = 5
    single = pb.NoiseModel(1.5).sample(dims, np.random.default_rng(7), K)
    ref = to_coordinates(
        _ref_draws([1.5], dims, [np.random.default_rng(7)], K)[:, 0])
    assert single.shape == ref.shape and single.tobytes() == ref.tobytes()
    sigmas = [0.5, 0.0, 2.0]
    rngs, ref_rngs = ([np.random.default_rng(s) for s in (1, 2, 3)]
                      for _ in range(2))
    cells = pb.NoiseModel(np.array(sigmas)).sample(dims, rngs, K)
    ref = to_coordinates(_ref_draws(sigmas, dims, ref_rngs, K))
    assert cells.shape == ref.shape and cells.tobytes() == ref.tobytes()
    # Each stream ends where K single draws leave it; sigma = 0 draws none.
    for rng, ref_rng in zip(rngs, ref_rngs):
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert (rngs[1].bit_generator.state
            == np.random.default_rng(2).bit_generator.state)


@pytest.mark.parametrize("count", [None, 1, 5])
@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4), (2, 4, 2), MIXED_DIMS])
def test_noise_coordinates_are_those_of_the_sampled_profiles(dims, count):
    # Straight from the normals, bit for bit the coordinates of the
    # per-block reference draws, with the streams left where those leave
    # them.
    for sigma, seeds in ((np.array([0.5, 0.0, 2.0]), (1, 2, 3)),
                         (np.array([0.0, 0.0]), (4, 5)), (1.5, (7,))):
        rngs, ref_rngs = ([np.random.default_rng(s) for s in seeds]
                          for _ in range(2))
        noise, cells = pb.NoiseModel(sigma), np.ndim(sigma) > 0
        got = noise.sample(dims, rngs if cells else rngs[0], count)
        want = to_coordinates(_ref_draws(np.reshape(sigma, -1), dims,
                                         ref_rngs, count or 1))
        want = want if cells else want[:, 0]
        want = want if count else want[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for rng, ref_rng in zip(rngs, ref_rngs):
            assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 4, 2)])
def test_noise_draws_are_the_coordinates_of_one_draw(dims):
    # Blocks of K calls equal one draw of every call's noise.
    sigmas = np.array([1.0, 0.0, 0.5])
    problems = [pb.quadratic_test_problem(pb.random_feasible_profile(
                    SpectraSet(dims), np.random.default_rng(c)),
                    SpectraSet(dims), sigma)
                for c, sigma in enumerate(sigmas)]
    calls = 250
    got = np.stack(list(pb.noise_draws(
        pb.stack_problems(problems),
        [np.random.default_rng(s) for s in (1, 2, 3)], calls)))
    want = pb.NoiseModel(sigmas).sample(
        dims, [np.random.default_rng(s) for s in (1, 2, 3)], calls)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# (dims, T, blocks): a block holds K = NOISE_BLOCK_ENTRIES // (C N D^2)
# iterations of the 3-cell batch, 113 for (2, 2, 2) and 28 for (2, 4, 2),
# and the last block stops at T.
@pytest.mark.parametrize("dims, T, blocks", [((2, 2, 2), 250, 3),
                                             ((2, 4, 2), 60, 3)])
def test_a_batch_draws_each_noisy_stream_once_per_iteration(
        dims, T, blocks, monkeypatch):
    cset = SpectraSet(dims)
    sigmas = (1.0, 0.0, 0.5)
    problems = [pb.quadratic_test_problem(pb.random_feasible_profile(
                    cset, np.random.default_rng(c)), cset, sigma)
                for c, sigma in enumerate(sigmas)]
    configs = [solvers.SolverConfig(method, T,
                                    solvers.StepSchedule.harmonic_sqrt(),
                                    gap_every=T, seed=10 + c)
               for c, method in enumerate(solvers.Method)]
    made, calls = {}, []
    real_rng, real_sample = np.random.default_rng, pb.NoiseModel.sample

    def default_rng(seed=None):
        made[seed] = real_rng(seed)
        return made[seed]

    def sample(self, *args, **kwargs):
        calls.append(None)
        return real_sample(self, *args, **kwargs)

    monkeypatch.setattr(pb.NoiseModel, "sample", sample)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", default_rng)
        results = solvers.run_batch(problems, configs)
    assert all(r.error is None for r in results)
    assert len(calls) == blocks
    size = sum(2 * d * d for d in dims)
    for config, sigma in zip(configs, sigmas):
        ref = np.random.default_rng(config.seed)
        for _ in range(T if sigma > 0 else 0):
            ref.standard_normal(size)
        assert made[config.seed].bit_generator.state == ref.bit_generator.state
    calls.clear()
    quiet = [replace(p, noise=pb.NoiseModel(0.0)) for p in problems]
    solvers.run_batch(quiet, configs)
    assert calls == []  # no noisy cell: nothing is drawn


@pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (2, 4), (4, 2)])
def test_game_mapping_and_throughput_match_per_block(m, n):
    topo = mimo.canonical_topology(m, n)
    ch = mimo.sample_channels(topo, np.random.default_rng(m * 10 + n))
    cset = topo.constraint_set()
    rng = np.random.default_rng(5)
    for _ in range(5):
        X = pb.random_feasible_profile(cset, rng)
        x, blocks = to_coordinates(X), cset.blocks(X)
        F = from_coordinates(mimo.game_mapping(ch, x), m)
        for got, ref in zip(cset.blocks(F), _ref_game_mapping(ch, blocks),
                            strict=True):
            _near(got, ref)
        full = _covariances(ch, X)
        rates = mimo.throughput(ch, x)
        for i in range(topo.users):
            _near(full[i], _ref_received(ch, blocks, i, skip_own=False))
            assert rates[i] == pytest.approx(
                _ref_throughput(ch, blocks, i), rel=1e-12)
            assert mimo.throughput(ch, x, i) == rates[i]


def test_cells_on_several_draws_equal_their_lone_evaluations():
    # Each cell of a stacked set is mapped by its own draw's operators,
    # in the closed form (n = 2: 4x2, 2x2) and on the solve path (2x4).
    for m, n in ((4, 2), (2, 2), (2, 4)):
        topo = mimo.canonical_topology(m, n)
        draws = [mimo.sample_channels(topo, np.random.default_rng(s))
                 for s in (20, 21)]
        order = [0, 1, 1, 0, 1]
        stacked = mimo.ChannelSet.stack([draws[d] for d in order])
        assert stacked.draw.tolist() == order
        assert stacked.draws == tuple(draws)
        rng = np.random.default_rng(22)
        points = to_coordinates(np.stack([
            pb.random_feasible_profile(topo.constraint_set(), rng)
            for _ in order]))
        F = mimo.game_mapping(stacked, points)
        rates = mimo.throughput(stacked, points)
        for c, (d, point) in enumerate(zip(order, points)):
            lone = mimo.game_mapping(draws[d], point[None])
            assert np.array_equal(F[c], lone[0])
            assert np.array_equal(rates[c], mimo.throughput(draws[d], point))


@pytest.mark.parametrize("order", [
    [0, 1, 2, 0, 1, 2, 0, 1, 2],  # periodic, as the harness lays cells out
    [2, 0, 1, 1, 0, 2, 0],  # shuffled
    [0, 0, 0, 1, 2, 2],  # uneven, as a failed batch's halves can be
    [0, 0, 0, 0],  # a single draw
], ids=["periodic", "shuffled", "uneven", "single"])
@pytest.mark.parametrize("m, n", ((2, 2), (4, 2), (2, 4)))
def test_stacked_received_rows_equal_their_lone_products(order, m, n):
    topo = mimo.canonical_topology(m, n)
    draws = [mimo.sample_channels(topo, np.random.default_rng(40 + s))
             for s in range(max(order) + 1)]
    stacked = mimo.ChannelSet.stack([draws[d] for d in order])
    x = np.random.default_rng(41).standard_normal((len(order), 7 * m * m))
    got = stacked.received(x)
    assert got.shape == (len(order), 7 * n * n)
    for row, d, lone in zip(got, order, x):
        operator = mimo._received_operator(draws[d].stacked)
        assert row.tobytes() == (lone @ operator).tobytes()


@pytest.mark.parametrize("order", ([0, 1, 0, 1, 0, 1], [1, 1, 1]))
def test_stacks_of_the_same_draws_share_one_copy_of_their_operators(order):
    # A batch's cells and the averages of its averaging cells are two
    # stacks of the same draws: they share one stacked copy of the
    # draws' operators, each the draw's own bit for bit.
    topo = mimo.canonical_topology(4, 4)
    draws = [mimo.sample_channels(topo, np.random.default_rng(s))
             for s in (50, 51)]
    cells = mimo.ChannelSet.stack([draws[d] for d in order])
    averages = mimo.ChannelSet.stack([draws[d] for d in order + order[:2]])
    operators = cells._layout[-1]
    assert averages._layout[-1] is operators
    used = list(dict.fromkeys(order))
    assert operators.shape == (len(used), 7 * 16, 7 * 16)
    for got, d in zip(operators, used):
        assert got.tobytes() == mimo._received_operator(
            draws[d].stacked).tobytes()


RATE_TOPOLOGIES = [mimo.canonical_topology(m, n)
                   for m, n in ((2, 2), (4, 4), (2, 4), (4, 2))] + [
    mimo.NetworkTopology((2, 3, 2), (3, 2, 2), mimo.DISTANCE_KM[:3, :3], 1.5)]
RATE_IDS = ["2x2", "4x4", "2x4", "4x2", "mixed"]

# The rates from the interference operators against the full - own
# formula they replace: 64 eps relative to max(1, |R|). Measured before
# this bound was set, on the five topologies below at 200 channel seeds
# with 4 feasible profiles each, at power 1 and 10: at most 20 eps
# (1.1e-14 absolute, on the mixed topology); on the `stability`
# workload, seeds 1-8: at most 5.8e-15 absolute.
RATE_TOL = 64 * np.finfo(float).eps


def _without_direct_links(channels):
    H = channels.stacked.copy()
    users = np.arange(channels.users)
    H[users, users] = 0
    return H


def _full_minus_own_rates(channels, X):
    """The rates as they were computed before the interference
    operators: the interference-only covariance is the full one less
    each H_ii X_i H_ii^dag, hermitianized."""
    full = _covariances(channels, X)
    H = channels.direct_stacked
    own = H @ X @ H.conj().swapaxes(-1, -2)
    W = np.stack((full, linalg.hermitianize(full - own)))
    L = np.linalg.cholesky(W)
    logdet = 2 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1).real),
                        axis=-1)
    return logdet[0] - logdet[1]


@pytest.mark.parametrize("topo", RATE_TOPOLOGIES, ids=RATE_IDS)
def test_interference_operators_are_those_without_direct_links(topo):
    # Stacked on two draws, and of a lone draw: each draw's operator
    # with its j == i blocks zeroed is, bit for bit, the received
    # operator of its channels with every direct link zeroed. The
    # stacks of the same draws share one copy, as the full ones do.
    draws = [mimo.sample_channels(topo, np.random.default_rng(s))
             for s in (60, 61)]
    cells = mimo.ChannelSet.stack([draws[d] for d in (0, 1, 1, 0)])
    operators = cells._interference
    assert operators.shape == cells._layout[-1].shape
    assert mimo.ChannelSet.stack(draws)._interference is operators
    for got, draw in zip(operators, draws):
        want = mimo._received_operator(_without_direct_links(draw))
        assert got.tobytes() == want.tobytes()
        assert draw._interference[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("topo", RATE_TOPOLOGIES, ids=RATE_IDS)
def test_rates_match_the_full_minus_own_formula(topo):
    draws = [mimo.sample_channels(topo, np.random.default_rng(s))
             for s in (62, 63)]
    cells = mimo.ChannelSet.stack([draws[d] for d in (0, 1, 1, 0)])
    rng = np.random.default_rng(64)
    for power in (1.0, 10.0):
        X = power * np.stack([
            pb.random_feasible_profile(topo.constraint_set(), rng)
            for _ in range(4)])
        rates = mimo.throughput(cells, to_coordinates(X))
        ref = _full_minus_own_rates(cells, X)
        assert rates.shape == (4, topo.users)
        assert np.all(np.abs(rates - ref)
                      <= RATE_TOL * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("topo", [
    mimo.canonical_topology(4, 4),
    mimo.NetworkTopology((2, 3, 2), (3, 2, 2), np.ones((3, 3)) + np.eye(3)),
])
def test_throughput_of_stacked_profiles_matches_one_at_a_time(topo):
    # The harness evaluates a run's reported points in chunks, as one
    # profile with a leading axis on the cell's own channels.
    ch = mimo.sample_channels(topo, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    points = to_coordinates(np.stack([
        pb.random_feasible_profile(topo.constraint_set(), rng)
        for _ in range(5)]))
    rates = mimo.throughput(ch, points)
    assert rates.shape == (5, topo.users)
    for got, X in zip(rates, points):
        assert np.array_equal(got, mimo.throughput(ch, X))


@pytest.mark.parametrize("m, n", ((2, 2), (4, 4), (2, 4), (4, 2)))
def test_stacked_rates_equal_their_unit_calls(m, n):
    # The solver measures K queued iterations of C cells at once, on a
    # (K, C, N, m^2) array. With the cells' draws out of layout order,
    # `ChannelSet.received` gathers and scatters them by index arrays
    # along the cell axis, and each iteration's rates are those of its
    # own call bit for bit, through `mimo.throughput` and the harness
    # measure alike.
    topo = mimo.canonical_topology(m, n)
    draws = [mimo.sample_channels(topo, np.random.default_rng(60 + s))
             for s in range(3)]
    order = [2, 0, 1, 1, 0]
    stacked = mimo.ChannelSet.stack([draws[d] for d in order])
    take, put, _ = stacked._layout
    assert isinstance(take, np.ndarray) and isinstance(put, np.ndarray)
    rng = np.random.default_rng(61)
    K = 4
    x = to_coordinates(np.stack([
        [pb.random_feasible_profile(topo.constraint_set(), rng)
         for _ in order] for _ in range(K)]))
    rates = mimo.throughput(stacked, x)
    assert rates.shape == (K, len(order), topo.users)
    for k in range(K):
        assert rates[k].tobytes() == mimo.throughput(stacked,
                                                     x[k]).tobytes()
    problem = pb.stack_problems([mimo.game_to_svi(topo, draws[d], 1.0)
                                 for d in order])
    assert harness.reported_rates(problem, x).tobytes() == rates.tobytes()


def test_game_mapping_with_unequal_antenna_counts():
    # Stacking zero-pads the channels; the result must match the
    # unpadded per-block computation to rounding.
    topo = mimo.NetworkTopology((2, 3, 2), (3, 2, 2), np.ones((3, 3)) + np.eye(3))
    ch = mimo.sample_channels(topo, np.random.default_rng(6))
    cset = topo.constraint_set()
    X = pb.random_feasible_profile(cset, np.random.default_rng(7))
    x, blocks = to_coordinates(X), cset.blocks(X)
    F = mimo.game_mapping(ch, x)
    assert F.shape == (3, 9)
    F = from_coordinates(F, 3)
    for got, ref in zip(cset.blocks(F), _ref_game_mapping(ch, blocks),
                        strict=True):
        _near(got, ref)
    full = _covariances(ch, X)
    assert full.shape == (3, 3, 3)
    for i, n_i in enumerate(topo.rx_antennas):
        _near(full[i, :n_i, :n_i],
              _ref_received(ch, blocks, i, skip_own=False))
        # the padded receive dimensions carry the identity alone
        assert np.array_equal(full[i, n_i:, :], np.eye(3)[n_i:])
        assert mimo.throughput(ch, x, i) == pytest.approx(
            _ref_throughput(ch, blocks, i), rel=1e-12)
        assert mimo.throughput_gradient(ch, X, i).shape == (cset.dims[i],) * 2


def test_closed_form_gradients_with_a_padded_receiver():
    # Receive counts (2, 1, 2) pad user 1 to n = 2: its covariance is
    # diag(W_11, 1), and the rows of its gradient operator that read the
    # padded receive dimension must be exactly zero.
    topo = mimo.NetworkTopology((2, 3, 2), (2, 1, 2),
                                mimo.DISTANCE_KM[:3, :3], 2.0)
    ch = mimo.sample_channels(topo, np.random.default_rng(31))
    assert not np.any(ch.gradient_operator[1, 1:])
    cset = topo.constraint_set()
    rng = np.random.default_rng(32)
    for _ in range(5):
        X = pb.random_feasible_profile(cset, rng)
        F = from_coordinates(mimo.game_mapping(ch, to_coordinates(X)), 3)
        assert _padding_is_zero(F, cset.dims)
        refs = _ref_game_mapping(ch, cset.blocks(X))
        for got, ref in zip(cset.blocks(F), refs, strict=True):
            _near(got, ref)


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("power", [1e3, 1e6, 1e9])
def test_closed_form_gradients_on_near_rank_one_profiles(m, power):
    # Each user puts nearly all of its power on one direction, so every
    # covariance is a sum of nearly rank-one terms the size of the cap.
    topo = replace(mimo.canonical_topology(m, 2), max_power=power)
    ch = mimo.sample_channels(topo, np.random.default_rng(33))
    cset = topo.constraint_set()
    rng = np.random.default_rng(34)
    for _ in range(5):
        X = np.stack([power * ((1 - 1e-6) * np.outer(v, v.conj())
                               + 1e-6 / m * np.eye(m))
                      for v in (linalg.random_unitary(rng, m)[:, 0]
                                for _ in cset.dims)])
        F = from_coordinates(mimo.game_mapping(ch, to_coordinates(X)), m)
        refs = _ref_game_mapping(ch, cset.blocks(X))
        for got, ref in zip(cset.blocks(F), refs, strict=True):
            _near(got, ref)


def test_padding_stays_zero_on_unequal_antenna_counts():
    # The topology of the mixed golden grid (tests/data/mixed_grid.csv).
    topo = mimo.NetworkTopology((2, 3, 2), (3, 2, 2),
                                mimo.DISTANCE_KM[:3, :3], 1.5)
    cset = topo.constraint_set()
    rng = np.random.default_rng(30)
    ch = mimo.sample_channels(topo, rng)
    Z = pb.NoiseModel(1.0).sample(cset.dims, rng)
    cells = pb.NoiseModel(np.array([1.0, 0.0, 2.0])).sample(
        cset.dims, [np.random.default_rng(s) for s in range(3)])
    X = solvers.dual_to_primal(3.0 * Z, cset)
    # The Gibbs map fills the corners alone, whatever the dual's padding.
    junk = to_coordinates(from_coordinates(3.0 * Z, 3)
                          + 7.0 * _outside(cset.dims))
    assert np.array_equal(solvers.dual_to_primal(junk, cset), X)
    for x in (Z, cells, X, mimo.game_mapping(ch, X),
              mimo.game_mapping(ch, np.stack([X, X]))):
        assert _padding_is_zero(from_coordinates(x, 3), cset.dims)
    prob = mimo.game_to_svi(topo, ch, sigma=1.0)
    configs = [solvers.SolverConfig(method, 40,
                                    solvers.StepSchedule.harmonic_sqrt(),
                                    gap_every=10, seed=5)
               for method in (solvers.Method.AM_SMD, solvers.Method.M_SMD)]
    for result in solvers.run_batch([prob, prob], configs):
        assert result.error is None
        assert _padding_is_zero(result.final_point, cset.dims)


def test_strong_gap_matches_per_block():
    rng = np.random.default_rng(8)
    topo = mimo.canonical_topology(4, 2)
    ch = mimo.sample_channels(topo, rng)
    prob = mimo.game_to_svi(topo, ch)
    for _ in range(5):
        X = pb.random_feasible_profile(prob.constraints, rng)
        x = to_coordinates(X)
        F = from_coordinates(mimo.game_mapping(ch, x), 4)
        cset = prob.constraints
        assert pb.strong_gap(prob, x) == _ref_strong_gap(
            cset.blocks(F), cset.blocks(X), cset)
    for cset in _sets(MIXED_DIMS) + _sets((3, 4, 3, 4, 3)):
        B = pb.random_feasible_profile(cset, rng)
        prob = pb.quadratic_test_problem(B, cset)
        for _ in range(5):
            X = pb.random_feasible_profile(cset, rng)
            x = to_coordinates(X)
            F = from_coordinates(prob.mapping(x), max(cset.dims))
            blocks = cset.blocks(F), cset.blocks(X)
            ref = _ref_strong_gap(*blocks, cset)
            assert abs(pb.strong_gap(prob, x) - ref) <= _gap_tol(*blocks, cset)


def test_assert_feasible_names_first_bad_block():
    rng = np.random.default_rng(9)
    for cset in _sets(MIXED_DIMS):
        X = pb.random_feasible_profile(cset, rng)
        pb.assert_feasible(to_coordinates(X), cset)
        blocks = list(cset.blocks(X))
        blocks[2] = 3.0 * blocks[2] + np.eye(3)  # bound 1.5 exceeded
        blocks[4] = blocks[4] + np.eye(3)        # also broken, later block
        broken = ("exceeds bound 1.5" if cset.mode is TraceMode.AT_MOST
                  else "!= bound 1.5")
        with pytest.raises(pb.DomainError, match=f"block 2 trace .* {broken}"):
            pb.assert_feasible(to_coordinates(pb.pad_blocks(blocks)), cset)
        blocks[1] = np.diag([0.5, -0.2])
        with pytest.raises(pb.DomainError, match="block 1 not PSD"):
            pb.assert_feasible(to_coordinates(pb.pad_blocks(blocks)), cset)


@pytest.mark.parametrize("dims", ((2, 2, 2), (4, 4), MIXED_DIMS),
                         ids=("2x2", "4x4", "mixed"))
def test_stacked_gap_checks_equal_their_unit_calls(dims):
    # The solver checks K queued gap iterations of C cells at once, on
    # (K, C, N, D^2) arrays. The strong gaps are those of the K unit
    # calls bit for bit. The feasibility check passes exactly when every
    # unit passes, and otherwise names the block that the first failing
    # unit's own call names.
    rng = np.random.default_rng(15)
    K, C = 5, 3
    for cset in _sets(dims):
        prob = pb.quadratic_test_problem(
            pb.random_feasible_profile(cset, rng), cset)
        X = np.stack([[pb.random_feasible_profile(cset, rng)
                       for _ in range(C)] for _ in range(K)])
        F = np.stack([[_random_profile(rng, dims) for _ in range(C)]
                      for _ in range(K)])
        x = to_coordinates(X)
        gaps = pb.strong_gap(prob, x, to_coordinates(F))
        assert gaps.shape == (K, C)
        for k in range(K):
            unit = pb.strong_gap(prob, x[k], to_coordinates(F[k]))
            assert gaps[k].tobytes() == unit.tobytes()
        for trial in range(6):
            broken = X.copy()
            for _ in range(trial % 3):
                k, c, i = (rng.integers(K), rng.integers(C),
                           rng.integers(len(dims)))
                d = dims[i]
                if rng.integers(2):
                    broken[k, c, i, :d, :d] += 2.0 * np.eye(d)
                else:
                    broken[k, c, i, :d, :d] += np.diag(
                        [-2.0, 2.0] + [0.0] * (d - 2))
            x = to_coordinates(broken)
            errors = [_feasibility_error(x[k], cset) for k in range(K)]
            failing = [e for e in errors if e is not None]
            assert _feasibility_error(x, cset) == (
                failing[0] if failing else None)


def _feasibility_error(x, cset):
    try:
        pb.assert_feasible(x, cset)
    except pb.DomainError as exc:
        return str(exc)
    return None


# --- the solver loop on mixed sets -----------------------------------------


@pytest.mark.parametrize("dims", [MIXED_DIMS, TWO_BLOCK_DIMS],
                         ids=["mixed5", "two-block"])
@pytest.mark.parametrize("method,lam", [
    (solvers.Method.AM_SMD, 0.0),
    (solvers.Method.M_SMD, 0.0),
    (solvers.Method.MEL, 0.5),
])
def test_run_matches_per_block_reference_loop(dims, method, lam):
    rng = np.random.default_rng(10)
    B = pb.pad_blocks([linalg.random_hermitian(rng, d) for d in dims])
    config = solvers.SolverConfig(
        method, iterations=60, schedule=solvers.StepSchedule.harmonic_sqrt(),
        lam=lam, gap_every=7, seed=11)
    for cset in _sets(dims):
        prob = pb.quadratic_test_problem(B, cset, sigma=0.3)
        result = solvers.run(prob, config)
        assert result.error is None
        trace, reported = _ref_run(prob, config)
        assert [it for it, _ in result.gap_trace] == [it for it, _ in trace]
        for (_, got), (_, ref) in zip(result.gap_trace, trace):
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)
        for got, ref in zip(cset.blocks(result.final_point), reported):
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)


# --- failures stay inside the cell -----------------------------------------


def test_eig_failure_names_the_block():
    stack = np.stack([np.eye(2), np.eye(2), np.full((2, 2), np.nan)])
    with pytest.raises(NumericalFailure) as info:
        linalg.eig(stack)
    assert info.value.diagnostics["block"] == 2
    # Grouped layers report the block number within the profile.
    rng = np.random.default_rng(12)
    blocks = [linalg.random_hermitian(rng, d) for d in MIXED_DIMS]
    blocks[2] = np.full((3, 3), np.nan)
    for cset in _sets(MIXED_DIMS):
        with pytest.raises(NumericalFailure) as info:
            solvers.dual_to_primal(to_coordinates(pb.pad_blocks(blocks)),
                                   cset)
        assert info.value.diagnostics["block"] == 2


def test_run_keeps_trace_and_diagnostics_on_numerical_failure():
    rng = np.random.default_rng(13)
    config = solvers.SolverConfig(
        solvers.Method.M_SMD, iterations=30,
        schedule=solvers.StepSchedule.harmonic_sqrt(), gap_every=5)
    for cset in _sets(MIXED_DIMS):
        B = pb.random_feasible_profile(cset, rng)
        base = pb.quadratic_test_problem(B, cset)
        calls = []

        def poisoned(x):
            calls.append(None)
            F = base.mapping(x)
            if len(calls) > 12:
                F[..., 3, :] = np.nan  # block 3, with its padding
            return F

        prob = pb.SviProblem(cset, poisoned, oracle_bound=base.oracle_bound)
        result = solvers.run(prob, config)
        # Calls 1-12 are iterations 1-12 and the gaps at 5 and 10, whose
        # mapping values iterations 6 and 11 reuse; the poisoned call 13
        # is iteration 13.
        assert [it for it, _ in result.gap_trace] == [5, 10]
        assert "non-finite" in result.error and "block=3" in result.error


def _doubling_after(k, monkeypatch):
    """Make the 2x2 Gibbs map, which the solver loop applies to Hermitian
    coordinates, return twice its output from call k + 1 on."""
    real = solvers.gibbs_2x2_coordinates
    calls = []

    def doubled(y, slack):
        calls.append(None)
        x = real(y, slack)
        return 2.0 * x if len(calls) > k else x

    monkeypatch.setattr(solvers, "gibbs_2x2_coordinates", doubled)


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
    pb.assert_feasible(to_coordinates(result.final_point),
                       problem.constraints)
