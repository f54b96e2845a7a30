"""Constraint sets, padded block profiles, gap functions, test problems."""

import re

import numpy as np
import pytest

from projection_oracle import project_spectrahedron
from spectra_svi import linalg, mimo, problem as pb, solvers
from spectra_svi.errors import DomainError, NumericalFailure
from spectra_svi.linalg import from_coordinates, to_coordinates
from spectra_svi.oracles import sampled_sup_linear
from spectra_svi.problem import (
    NoiseModel,
    SpectraSet,
    SviProblem,
    TraceMode,
    pad_blocks,
)
from test_stacked import _gap_tol, _ref_strong_gap

MIXED = SpectraSet((2, 3, 2))


def _mixed_profile(rng):
    return pad_blocks([linalg.random_hermitian(rng, d) for d in MIXED.dims])


def _identity_problem(cset, sigma=0.0):
    """F(X) = X; monotone with solution structure easy to reason about."""
    return SviProblem(cset, lambda x: x, NoiseModel(sigma), oracle_bound=2.0)


def _mapped(problem, X):
    """F at the complex profile X, as a complex profile."""
    return from_coordinates(problem.mapping(to_coordinates(X)),
                            max(problem.constraints.dims))


def test_spectra_set_validation():
    with pytest.raises(ValueError, match="at least one block"):
        SpectraSet(())
    with pytest.raises(ValueError, match="dimensions"):
        SpectraSet((2, 0))
    # A bad bound fails here, not later as a NumericalFailure in eig.
    for bound in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            SpectraSet((2,), bound)


def test_spectra_set_dims_and_total():
    cset = SpectraSet([2, 4, 3], 2.5, TraceMode.AT_MOST)
    assert cset.dims == (2, 4, 3)
    assert cset.total_dim == 9
    assert cset == SpectraSet((2, 4, 3), 2.5, TraceMode.AT_MOST)


def test_block_profile_arithmetic():
    # Profiles are plain arrays: numpy arithmetic acts block by block.
    cset = SpectraSet((2, 3))
    A = pad_blocks((np.eye(2), 2 * np.eye(3)))
    B = pad_blocks((3 * np.eye(2), np.eye(3)))
    S, D, M = (cset.blocks(P) for P in (A + B, A - B, 2.0 * A))
    assert np.allclose(S[0], 4 * np.eye(2))
    assert np.allclose(D[1], np.eye(3))
    assert np.allclose(M[1], 4 * np.eye(3))
    assert A.shape == (2, 3, 3) and A.dtype == complex


def test_block_profile_rejects_non_square():
    with pytest.raises(ValueError, match=r"block 1 is not square: shape \(3, 2\)"):
        pad_blocks((np.eye(2), np.zeros((3, 2)), np.eye(2)))


def test_block_profile_norms_block_diagonal_semantics():
    A = pad_blocks((np.diag([3.0, 0.0]), np.diag([-4.0])))
    assert linalg.spectral_norm(A) == pytest.approx(4.0)
    assert linalg.frobenius_norm(A) == pytest.approx(5.0)
    # On mixed sizes the padding adds nothing: each norm is its
    # per-block definition.
    X = _mixed_profile(np.random.default_rng(13))
    blocks = MIXED.blocks(X)
    assert linalg.frobenius_norm(X) == pytest.approx(
        np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks)), rel=1e-14)
    assert linalg.spectral_norm(X) == pytest.approx(
        max(np.linalg.norm(b, 2) for b in blocks), rel=1e-14)


def test_profile_inner_sums_blocks():
    A = pad_blocks((np.eye(2), np.diag([1.0, 2.0])))
    B = pad_blocks((np.diag([1.0, 3.0]), np.eye(2)))
    assert pb.profile_inner(A, B) == pytest.approx(4.0 + 3.0)
    rng = np.random.default_rng(14)
    X, Y = _mixed_profile(rng), _mixed_profile(rng)
    assert pb.profile_inner(X, Y) == pytest.approx(
        sum(np.trace(a @ b).real
            for a, b in zip(MIXED.blocks(X), MIXED.blocks(Y))), rel=1e-14)


def test_assert_feasible_accepts_density_blocks():
    cset = SpectraSet((2, 2))
    X = pad_blocks((np.eye(2) / 2, np.diag([0.9, 0.1])))
    pb.assert_feasible(to_coordinates(X), cset)


def test_assert_feasible_rejects_wrong_trace():
    cset = SpectraSet((2,))
    X = pad_blocks((np.diag([0.9, 0.2]),))
    with pytest.raises(DomainError, match="trace"):
        pb.assert_feasible(to_coordinates(X), cset)


def test_assert_feasible_rejects_indefinite():
    cset = SpectraSet((2,))
    X = pad_blocks((np.diag([1.5, -0.5]),))
    with pytest.raises(DomainError, match="PSD"):
        pb.assert_feasible(to_coordinates(X), cset)


def test_assert_feasible_trace_cap_allows_slack():
    cset = SpectraSet((2,), mode=TraceMode.AT_MOST)
    pb.assert_feasible(to_coordinates(pad_blocks((np.diag([0.2, 0.1]),))),
                       cset)
    with pytest.raises(DomainError):
        pb.assert_feasible(
            to_coordinates(pad_blocks((np.diag([0.8, 0.7]),))), cset)


def test_assert_feasible_dims_mismatch():
    cset = SpectraSet((3,))
    with pytest.raises(DomainError, match="dims"):
        pb.assert_feasible(to_coordinates(pad_blocks((np.eye(2) / 2,))), cset)


def _with_lambda_min(cset, rng, lam, i):
    """A feasible block of size dims[i] with trace bound and smallest
    eigenvalue lam."""
    d, p = cset.dims[i], cset.bound
    w = np.concatenate(([p - lam - 0.1 * (d - 2)],
                        np.full(d - 2, 0.1), [lam]))
    V = linalg.random_unitary(rng, d)
    return linalg.hermitianize((V * w) @ V.conj().T)


@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("mode", list(TraceMode))
def test_assert_feasible_psd_tolerance_on_mixed_blocks(mode, i):
    tol = pb.FEASIBILITY_PSD_TOL
    cset = SpectraSet((2, 3, 2), 1.5, mode)
    rng = np.random.default_rng(17)
    X = np.stack([pb.random_feasible_profile(cset, rng) for _ in range(3)])
    X[1, i, :cset.dims[i], :cset.dims[i]] = _with_lambda_min(
        cset, rng, -0.5 * tol, i)
    pb.assert_feasible(to_coordinates(X), cset)
    # a later cell fails worse, at an earlier block
    X[2, 0, :2, :2] = _with_lambda_min(cset, rng, -3 * tol, 0)
    X[1, i, :cset.dims[i], :cset.dims[i]] = _with_lambda_min(
        cset, rng, -2 * tol, i)
    message = f"block {i} not PSD: lambda_min = -2.000e-09"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        pb.assert_feasible(to_coordinates(X), cset)


def test_feasible_profiles_pass_without_an_eigenvalue_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("eigenvalue solve on the feasible path")

    monkeypatch.setattr(pb, "eigvals", refuse)
    rng = np.random.default_rng(18)
    for dims in ((2, 3, 2), (4,) * 7, (2,) * 7):
        for mode in TraceMode:
            cset = SpectraSet(dims, 1.5, mode)
            X = np.stack([pb.random_feasible_profile(cset, rng)
                          for _ in range(4)])
            pb.assert_feasible(to_coordinates(X), cset)
            pb.assert_feasible(to_coordinates(X[0]), cset)
    with pytest.raises(AssertionError, match="eigenvalue solve"):
        # traces 2 over the bound
        pb.assert_feasible(to_coordinates(X + np.eye(2)), cset)


def _coordinates_and_profiles(cset, rng, cells):
    """Hermitian coordinates of feasible profiles and of mapping values,
    with a cell axis of length `cells` (none when None), and the complex
    profiles they describe."""
    n = cells or 1
    X = np.stack([pb.random_feasible_profile(cset, rng) for _ in range(n)])
    F = np.stack([pad_blocks([linalg.random_hermitian(rng, d, 2.0)
                              for d in cset.dims]) for _ in range(n)])
    if cells is None:
        X, F = X[0], F[0]
    D = max(cset.dims)
    x, f = linalg.to_coordinates(X), linalg.to_coordinates(F)
    return x, f, linalg.from_coordinates(x, D), linalg.from_coordinates(f, D)


def _bits(value):
    return np.asarray(value).tobytes()


@pytest.mark.parametrize("cells", [None, 3])
@pytest.mark.parametrize("mode", list(TraceMode))
@pytest.mark.parametrize("dims", [(2,) * 3, (3,) * 3, (4,) * 3, (2, 3, 2)])
def test_coordinate_gap_and_feasibility_equal_the_complex_ones(
        dims, mode, cells, monkeypatch):
    # The gap of coordinates is the per-block reference's, bit for bit
    # without 2x2 blocks (whose closed form has its own tolerance), and
    # feasible coordinates pass with no eigenvalue solve.
    cset = SpectraSet(dims, 1.5, mode)
    rng = np.random.default_rng(sum(dims))
    prob = _identity_problem(cset)

    def refuse(*args):
        raise AssertionError("eigenvalue solve on the feasible path")

    for _ in range(4):
        x, f, X, F = _coordinates_and_profiles(cset, rng, cells)
        with monkeypatch.context() as mp:
            mp.setattr(pb, "eigvals", refuse)
            pb.assert_feasible(x, cset)
        gap = pb.strong_gap(prob, x, f)
        assert type(gap) is (float if cells is None else np.ndarray)
        lone = (-1,) + X.shape[-3:]
        for got, Fc, Xc in zip(np.reshape(gap, -1), F.reshape(lone),
                               X.reshape(lone), strict=True):
            blocks = cset.blocks(Fc), cset.blocks(Xc)
            assert abs(got - _ref_strong_gap(*blocks, cset)) <= _gap_tol(
                *blocks, cset)
        # Without F, the mapping is evaluated on the coordinates.
        assert _bits(pb.strong_gap(prob, x)) == _bits(
            pb.strong_gap(prob, x, x))


def _raised(error, fn, *args):
    with pytest.raises(error) as info:
        fn(*args)
    return str(info.value), getattr(info.value, "diagnostics", None)


@pytest.mark.parametrize("mode", list(TraceMode))
@pytest.mark.parametrize("dims", [(2,) * 3, (3,) * 3, (4,) * 3, (2, 3, 2)])
def test_coordinates_that_fail_the_check_fail_as_their_profiles(dims, mode):
    cset = SpectraSet(dims, 1.5, mode)
    rng = np.random.default_rng(len(dims) + sum(dims))
    # Blocks with trace exactly the bound, so that a scaled block is
    # over it or under it.
    _, _, X, _ = _coordinates_and_profiles(SpectraSet(dims, 1.5), rng, 3)
    tol = pb.FEASIBILITY_PSD_TOL
    # Cell 1's block 2 not PSD; cell 2's block 1 with trace 1.7, and
    # cell 0's block 1 with trace 1.3 (off the bound only under trace
    # equality).
    not_psd, over, under = X.copy(), X.copy(), X.copy()
    not_psd[1, 2, :dims[2], :dims[2]] = _with_lambda_min(
        cset, rng, -2 * tol, 2)
    over[2, 1] *= 1.7 / 1.5
    under[0, 1] *= 1.3 / 1.5
    capped = mode is TraceMode.AT_MOST
    messages = (
        (not_psd, "block 2 not PSD: lambda_min = -2.000e-09"),
        (over, "block 1 trace 1.7 "
               + ("exceeds bound 1.5" if capped else "!= bound 1.5")),
        (under, None if capped else "block 1 trace 1.3 != bound 1.5"))
    for bad, message in messages:
        x = to_coordinates(bad)
        if message is None:
            pb.assert_feasible(x, cset)
        else:
            assert _raised(DomainError, pb.assert_feasible, x, cset) == (
                message, None)


def _ulps(value, steps):
    """value moved by `steps` units in the last place, either way."""
    toward = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        value = np.nextafter(value, toward)
    return value


@pytest.mark.parametrize("mode", list(TraceMode))
def test_2x2_blocks_at_the_boundary_get_the_eigenvalue_verdict(mode):
    # 2x2 blocks with lambda_min within a few ulps of -psd_tol, or a
    # trace within a few ulps of bound +- trace_tol, next to two clean
    # blocks. PSD is the verdict of the eigenvalues of the complex
    # block; a trace fails when its diagonal sum is out of bound and the
    # sum of its eigenvalues is too. A failure has the eigenvalue path's
    # message.
    psd_tol, trace_tol = pb.FEASIBILITY_PSD_TOL, pb.FEASIBILITY_TRACE_TOL
    bound, capped = 1.5, mode is TraceMode.AT_MOST
    cset = SpectraSet((2,) * 3, bound, mode)
    rng = np.random.default_rng(28)

    def out(tr):
        return tr > bound + trace_tol if capped else abs(tr - bound) > trace_tol

    def verdict(x, i):
        w = linalg.eigvals(from_coordinates(x, 2))
        lam, tr = w[i, -1], np.sum(w[i])
        if lam < -psd_tol:
            return f"block {i} not PSD: lambda_min = {lam:.3e}"
        if out(x[i, 0] + x[i, 1]) and out(tr):
            return (f"block {i} trace {tr:.12g} "
                    + (f"exceeds bound {bound:.12g}" if capped
                       else f"!= bound {bound:.12g}"))
        return None

    verdicts = []
    for trial in range(40):
        i = trial % 3
        x = to_coordinates(pb.random_feasible_profile(SpectraSet(
            (2,) * 3, bound), rng))
        if trial % 2:
            # block i with trace the bound and lambda_min -psd_tol, moved
            # onto it by its diagonal
            x[i] = to_coordinates(_with_lambda_min(cset, rng, -psd_tol, i))
            x[i, :2] -= psd_tol + linalg.eigvals(from_coordinates(x[i], 2))[-1]
        else:
            # the trace of block i onto an edge of its tolerance band
            edge = bound + (trace_tol if capped or trial % 4 else -trace_tol)
            x[i, 0] = edge - x[i, 1]
        for steps in range(-4, 5):
            bad = x.copy()
            bad[i, 0] = _ulps(x[i, 0], steps)
            want = verdict(bad, i)
            verdicts.append(want is None)
            if want is None:
                pb.assert_feasible(bad, cset)
            else:
                assert _raised(DomainError, pb.assert_feasible,
                               bad, cset) == (want, None)
    # the cases straddle the boundary
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("dims", [(2,) * 3, (3,) * 3, (4,) * 3, (2, 3, 2)])
def test_non_finite_coordinates_fail_as_their_profiles(dims):
    # A NaN in one block of one cell fails the check and the gap with
    # the message of `linalg`, which names that block and its dimension.
    cset = SpectraSet(dims, 1.5, TraceMode.AT_MOST)
    prob = _identity_problem(cset)
    x, f, _, _ = _coordinates_and_profiles(
        cset, np.random.default_rng(9), 3)
    message = "eigendecomposition input has non-finite entries"
    for cell, block, c in ((1, 2, 0), (2, 1, dims[1] * dims[1] - 1),
                           (0, 0, 1)):
        bad_x, bad_f = x.copy(), f.copy()
        bad_x[cell, block, c] = bad_f[cell, block, c] = np.nan
        want = (message, {"dim": dims[block], "block": block})
        assert _raised(NumericalFailure, pb.assert_feasible,
                       bad_x, cset) == want
        assert _raised(NumericalFailure, pb.strong_gap, prob, x,
                       bad_f) == want


SEAMS = {
    "game_mapping": lambda prob, X: mimo.game_mapping(prob.mapping.channels,
                                                      X),
    "throughput": lambda prob, X: mimo.throughput(prob.mapping.channels, X),
    "strong_gap": pb.strong_gap,
    "assert_feasible": lambda prob, X: pb.assert_feasible(
        X, prob.constraints),
    "dual_to_primal": lambda prob, X: solvers.dual_to_primal(
        X, prob.constraints),
    "oracle_sample": lambda prob, X: pb.oracle_sample(
        prob, X, np.random.default_rng(0)),
}


@pytest.mark.parametrize("cells", [None, 3])
@pytest.mark.parametrize("m, n", [(2, 2), (4, 2), (2, 4)])
@pytest.mark.parametrize("seam", list(SEAMS))
def test_complex_profiles_are_refused_at_the_seams(seam, m, n, cells):
    # The seams take Hermitian coordinates, shape (..., N, m^2); a
    # complex (..., N, m, m) profile, or coordinates one short, raise the
    # DomainError that names the shape and the set's dims.
    topo = mimo.canonical_topology(m, n)
    rng = np.random.default_rng(m + n)
    prob = mimo.game_to_svi(topo, mimo.sample_channels(topo, rng), 1.0)
    X = np.stack([pb.random_feasible_profile(prob.constraints, rng)
                  for _ in range(cells or 1)])
    X = X if cells else X[0]
    for bad in (X, to_coordinates(X)[..., 1:]):
        message = (f"profile shape {bad.shape} does not match set dims "
                   f"{prob.constraints.dims}")
        assert _raised(DomainError, SEAMS[seam], prob, bad) == (message, None)


def test_noise_model_rejects_negative_or_non_finite_sigma():
    for sigma in (-1.0, np.nan, np.inf, np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(sigma)


def test_noise_model_zero_sigma_is_exact_zero():
    Z = NoiseModel(0.0).sample((2, 3), np.random.default_rng(0))
    assert Z.shape == (2, 9) and not Z.any()


def test_noise_model_blocks_hermitian_and_scaled():
    rng = np.random.default_rng(1)
    sigma = 2.5
    model = NoiseModel(sigma)
    acc = []
    for _ in range(400):
        Z = from_coordinates(model.sample((4,), rng), 4)[0]
        acc.append(Z)
    # Off-diagonal entries of the Hermitian part have variance sigma^2 / 2.
    offdiag = np.array([Z[0, 1] for Z in acc])
    var = np.var(offdiag.real) + np.var(offdiag.imag)
    assert var == pytest.approx(sigma**2 / 2, rel=0.25)
    mean = np.mean([Z for Z in acc], axis=0)
    assert np.max(np.abs(mean)) <= 5 * sigma / np.sqrt(len(acc))


def test_oracle_sample_noiseless_returns_mapping_value():
    cset = SpectraSet((2, 2))
    prob = _identity_problem(cset)
    X = to_coordinates(
        pb.random_feasible_profile(cset, np.random.default_rng(2)))
    phi, noise = pb.oracle_sample(prob, X, np.random.default_rng(3))
    assert all(np.array_equal(p, x) for p, x in zip(phi, X))
    assert all(np.all(z == 0) for z in noise)


def test_oracle_sample_noise_is_reported_component():
    cset = SpectraSet((3,))
    prob = _identity_problem(cset, sigma=1.0)
    X = to_coordinates(
        pb.random_feasible_profile(cset, np.random.default_rng(4)))
    phi, noise = pb.oracle_sample(prob, X, np.random.default_rng(5))
    assert np.allclose(phi[0] - noise[0], X[0], atol=1e-14)


def test_best_response_equality_is_bottom_eigenprojector():
    F = pad_blocks((np.diag([2.0, -1.0, 0.5]),))
    Z = pb.best_response(F, SpectraSet((3,)))
    assert np.allclose(Z[0], np.diag([0.0, 1.0, 0.0]), atol=1e-12)


def test_best_response_trace_cap_returns_zero_for_psd_values():
    F = pad_blocks((np.diag([2.0, 0.5]),))
    Z = pb.best_response(F, SpectraSet((2,), mode=TraceMode.AT_MOST))
    assert np.all(Z[0] == 0)


def test_best_response_scales_with_bound():
    F = pad_blocks((np.diag([1.0, -1.0]),))
    Z = pb.best_response(F, SpectraSet((2,), bound=0.3))
    assert np.allclose(Z[0], np.diag([0.0, 0.3]), atol=1e-12)


def test_strong_gap_zero_at_solution_of_quadratic():
    # F(X) = X - B with B feasible: solution is B itself.
    rng = np.random.default_rng(6)
    cset = SpectraSet((3, 3))
    B = pb.random_feasible_profile(cset, rng)
    prob = pb.quadratic_test_problem(B, cset)
    assert pb.strong_gap(prob, to_coordinates(B)) == pytest.approx(
        0.0, abs=1e-10)


def test_strong_gap_positive_off_solution():
    rng = np.random.default_rng(7)
    cset = SpectraSet((3, 3))
    B = pb.random_feasible_profile(cset, rng)
    prob = pb.quadratic_test_problem(B, cset)
    X = pb.random_feasible_profile(cset, rng)
    assert pb.strong_gap(prob, to_coordinates(X)) > 1e-6


def test_strong_gap_matches_sampled_supremum():
    # The sampled oracle includes the closed-form maximizer, so the two
    # strong-gap computations must agree to rounding.
    rng = np.random.default_rng(8)
    for mode in TraceMode:
        cset = SpectraSet((2, 3, 2), 0.5, mode)
        B = pb.random_feasible_profile(cset, rng)
        prob = pb.quadratic_test_problem(B, cset)
        for _ in range(10):
            X = pb.random_feasible_profile(cset, rng)
            F = _mapped(prob, X)
            sup_lin = sampled_sup_linear(F, cset, probes=20, rng=rng)
            assert pb.strong_gap(prob, to_coordinates(X)) == pytest.approx(
                pb.profile_inner(F, X) + sup_lin, abs=1e-9)


def test_random_feasible_profile_is_feasible():
    rng = np.random.default_rng(9)
    for mode in TraceMode:
        cset = SpectraSet((2, 4, 2), 2.0, mode)
        for _ in range(50):
            X = pb.random_feasible_profile(cset, rng)
            pb.assert_feasible(to_coordinates(X), cset)


def _weak_gap_estimate(problem, X, probes, rng):
    """Sampled lower bound on the weak gap sup_Z tr(F(Z)(X - Z)).

    A lower bound only: the sup is nonconvex in Z for general F, so the
    candidate set is Z = X itself (making the estimate >= 0), the
    closed-form strong-gap maximizer, and `probes` random feasible
    profiles.
    """
    candidates = [X, pb.best_response(_mapped(problem, X),
                                      problem.constraints)]
    candidates.extend(pb.random_feasible_profile(problem.constraints, rng)
                      for _ in range(probes))
    return max(pb.profile_inner(_mapped(problem, Z), X - Z)
               for Z in candidates)


def test_weak_gap_estimate_nonnegative_and_below_strong_for_monotone():
    rng = np.random.default_rng(10)
    cset = SpectraSet((2, 2))
    B = pb.random_feasible_profile(cset, rng)
    prob = pb.quadratic_test_problem(B, cset)
    for _ in range(10):
        X = pb.random_feasible_profile(cset, rng)
        weak = _weak_gap_estimate(prob, X, probes=30, rng=rng)
        assert weak >= -1e-12
        assert weak <= pb.strong_gap(prob, to_coordinates(X)) + 1e-9


def test_monotonicity_witness_sign():
    rng = np.random.default_rng(11)
    cset = SpectraSet((3, 3))
    B = pb.random_feasible_profile(cset, rng)
    mono = pb.quadratic_test_problem(B, cset)
    anti = SviProblem(cset, lambda x: -1.0 * x, oracle_bound=1.0)
    for _ in range(20):
        X = pb.random_feasible_profile(cset, rng)
        Y = pb.random_feasible_profile(cset, rng)
        x, y = to_coordinates(X), to_coordinates(Y)
        assert pb.monotonicity_witness(mono, x, y) >= -1e-12
        d = linalg.frobenius_norm(X - Y)
        if d > 1e-6:
            assert pb.monotonicity_witness(anti, x, y) < 0


def test_quadratic_problem_solution_is_projection():
    # Solve the VI analytically: X* minimizes ||X - B||_F over the set.
    rng = np.random.default_rng(12)
    cset = SpectraSet((4,))
    B = pad_blocks((linalg.random_hermitian(rng, 4),))
    prob = pb.quadratic_test_problem(B, cset)
    P = pad_blocks((project_spectrahedron(B[0], mode=TraceMode.EQUAL),))
    assert pb.strong_gap(prob, to_coordinates(P)) == pytest.approx(
        0.0, abs=1e-9)


def test_quadratic_problem_oracle_bound_covers_noise():
    cset = SpectraSet((3, 3))
    B = cset.zeros()
    assert pb.quadratic_test_problem(B, cset).oracle_bound == pytest.approx(1.0)
    noisy = pb.quadratic_test_problem(B, cset, sigma=2.0)
    assert noisy.oracle_bound == pytest.approx(1.0 + 6.0 * np.sqrt(3))


def test_quadratic_problem_rejects_dim_mismatch():
    with pytest.raises(DomainError):
        pb.quadratic_test_problem(
            pad_blocks((np.eye(2),)), SpectraSet((3,)))


def test_quadratic_problem_rejects_a_target_hermitian_up_to_rounding():
    # The mapping works on the target's Hermitian coordinates, which
    # keep its upper triangle alone: a target whose lower triangle
    # differs in one ulp is refused, not silently replaced.
    cset = SpectraSet((2, 3))
    B = pb.random_feasible_profile(cset, np.random.default_rng(19))
    pb.quadratic_test_problem(B, cset)
    B[1, 1, 0] = np.nextafter(B[1, 1, 0].real, 1.0) + 1j * B[1, 1, 0].imag
    with pytest.raises(DomainError, match="not exactly Hermitian"):
        pb.quadratic_test_problem(B, cset)
