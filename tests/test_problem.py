"""Constraint sets, padded block profiles, gap functions, test problems."""

import numpy as np
import pytest

from spectra_svi import linalg, problem as pb
from spectra_svi.errors import DomainError
from spectra_svi.oracles import project_spectrahedron, sampled_sup_linear
from spectra_svi.problem import (
    NoiseModel,
    SpectraSet,
    SviProblem,
    TraceMode,
    pad_blocks,
)

MIXED = SpectraSet((2, 3, 2))


def _mixed_profile(rng):
    return pad_blocks([linalg.random_hermitian(rng, d) for d in MIXED.dims])


def _identity_problem(cset, sigma=0.0):
    """F(X) = X; monotone with solution structure easy to reason about."""
    return SviProblem(cset, lambda X: X, NoiseModel(sigma), oracle_bound=2.0)


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
    pb.assert_feasible(X, cset)


def test_assert_feasible_rejects_wrong_trace():
    cset = SpectraSet((2,))
    X = pad_blocks((np.diag([0.9, 0.2]),))
    with pytest.raises(DomainError, match="trace"):
        pb.assert_feasible(X, cset)


def test_assert_feasible_rejects_indefinite():
    cset = SpectraSet((2,))
    X = pad_blocks((np.diag([1.5, -0.5]),))
    with pytest.raises(DomainError, match="PSD"):
        pb.assert_feasible(X, cset)


def test_assert_feasible_trace_cap_allows_slack():
    cset = SpectraSet((2,), mode=TraceMode.AT_MOST)
    pb.assert_feasible(pad_blocks((np.diag([0.2, 0.1]),)), cset)
    with pytest.raises(DomainError):
        pb.assert_feasible(pad_blocks((np.diag([0.8, 0.7]),)), cset)


def test_assert_feasible_dims_mismatch():
    cset = SpectraSet((3,))
    with pytest.raises(DomainError, match="dims"):
        pb.assert_feasible(pad_blocks((np.eye(2) / 2,)), cset)


def test_noise_model_rejects_negative_or_non_finite_sigma():
    for sigma in (-1.0, np.nan, np.inf, np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(sigma)


def test_noise_model_zero_sigma_is_exact_zero():
    Z = NoiseModel(0.0).sample((2, 3), np.random.default_rng(0))
    assert Z.shape == (2, 3, 3) and not Z.any()


def test_noise_model_blocks_hermitian_and_scaled():
    rng = np.random.default_rng(1)
    sigma = 2.5
    model = NoiseModel(sigma)
    acc = []
    for _ in range(400):
        Z = model.sample((4,), rng)[0]
        assert np.array_equal(Z, Z.conj().T)
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
    X = pb.random_feasible_profile(cset, np.random.default_rng(2))
    phi, noise = pb.oracle_sample(prob, X, np.random.default_rng(3))
    assert all(np.array_equal(p, x) for p, x in zip(phi, X))
    assert all(np.all(z == 0) for z in noise)


def test_oracle_sample_noise_is_reported_component():
    cset = SpectraSet((3,))
    prob = _identity_problem(cset, sigma=1.0)
    X = pb.random_feasible_profile(cset, np.random.default_rng(4))
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
    assert pb.strong_gap(prob, B) == pytest.approx(0.0, abs=1e-10)


def test_strong_gap_positive_off_solution():
    rng = np.random.default_rng(7)
    cset = SpectraSet((3, 3))
    B = pb.random_feasible_profile(cset, rng)
    prob = pb.quadratic_test_problem(B, cset)
    X = pb.random_feasible_profile(cset, rng)
    assert pb.strong_gap(prob, X) > 1e-6


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
            F = prob.mapping(X)
            sup_lin = sampled_sup_linear(F, cset, probes=20, rng=rng)
            assert pb.strong_gap(prob, X) == pytest.approx(
                pb.profile_inner(F, X) + sup_lin, abs=1e-9)


def test_random_feasible_profile_is_feasible():
    rng = np.random.default_rng(9)
    for mode in TraceMode:
        cset = SpectraSet((2, 4, 2), 2.0, mode)
        for _ in range(50):
            X = pb.random_feasible_profile(cset, rng)
            pb.assert_feasible(X, cset)


def _weak_gap_estimate(problem, X, probes, rng):
    """Sampled lower bound on the weak gap sup_Z tr(F(Z)(X - Z)).

    A lower bound only: the sup is nonconvex in Z for general F, so the
    candidate set is Z = X itself (making the estimate >= 0), the
    closed-form strong-gap maximizer, and `probes` random feasible
    profiles.
    """
    candidates = [X, pb.best_response(problem.mapping(X),
                                      problem.constraints)]
    candidates.extend(pb.random_feasible_profile(problem.constraints, rng)
                      for _ in range(probes))
    return max(pb.profile_inner(problem.mapping(Z), X - Z)
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
        assert weak <= pb.strong_gap(prob, X) + 1e-9


def test_monotonicity_witness_sign():
    rng = np.random.default_rng(11)
    cset = SpectraSet((3, 3))
    B = pb.random_feasible_profile(cset, rng)
    mono = pb.quadratic_test_problem(B, cset)
    anti = SviProblem(cset, lambda X: -1.0 * X, oracle_bound=1.0)
    for _ in range(20):
        X = pb.random_feasible_profile(cset, rng)
        Y = pb.random_feasible_profile(cset, rng)
        assert pb.monotonicity_witness(mono, X, Y) >= -1e-12
        d = linalg.frobenius_norm(X - Y)
        if d > 1e-6:
            assert pb.monotonicity_witness(anti, X, Y) < 0


def test_quadratic_problem_solution_is_projection():
    # Solve the VI analytically: X* minimizes ||X - B||_F over the set.
    rng = np.random.default_rng(12)
    cset = SpectraSet((4,))
    B = pad_blocks((linalg.random_hermitian(rng, 4),))
    prob = pb.quadratic_test_problem(B, cset)
    P = pad_blocks((project_spectrahedron(B[0], mode=TraceMode.EQUAL),))
    assert pb.strong_gap(prob, P) == pytest.approx(0.0, abs=1e-9)


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
