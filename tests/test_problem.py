"""Constraint sets, block profiles, gap functions, test problems."""

import numpy as np
import pytest

from spectra_svi import linalg, problem as pb
from spectra_svi.errors import DomainError
from spectra_svi.oracles import project_spectrahedron, sampled_sup_linear
from spectra_svi.problem import (
    BlockProfile,
    BlockSpec,
    NoiseModel,
    SpectraSet,
    SviProblem,
    TraceMode,
)


def _identity_problem(cset, sigma=0.0):
    """F(X) = X; monotone with solution structure easy to reason about."""
    return SviProblem(cset, lambda X: X, NoiseModel(sigma), oracle_bound=2.0)


def test_block_spec_validation():
    with pytest.raises(ValueError):
        BlockSpec(dim=0)
    with pytest.raises(ValueError):
        BlockSpec(dim=2, bound=0.0)


def test_spectra_set_dims_and_total():
    cset = SpectraSet((BlockSpec(2), BlockSpec(4), BlockSpec(3)))
    assert cset.dims == (2, 4, 3)
    assert cset.total_dim == 9


def test_spectra_set_uniform_and_single():
    assert SpectraSet.uniform(7, dim=2).dims == (2,) * 7
    assert SpectraSet.single(5).dims == (5,)


def test_block_profile_arithmetic():
    A = BlockProfile((np.eye(2), 2 * np.eye(3)))
    B = BlockProfile((3 * np.eye(2), np.eye(3)))
    S = A + B
    D = A - B
    M = 2.0 * A
    assert np.allclose(S[0], 4 * np.eye(2))
    assert np.allclose(D[1], np.eye(3))
    assert np.allclose(M[1], 4 * np.eye(3))
    assert len(A) == 2 and A.dims == (2, 3)


def test_block_profile_rejects_non_square():
    with pytest.raises(ValueError):
        BlockProfile((np.zeros((2, 3)),))


def test_block_profile_norms_block_diagonal_semantics():
    A = BlockProfile((np.diag([3.0, 0.0]), np.diag([-4.0])))
    assert A.trace_norm() == pytest.approx(7.0)
    assert A.spectral_norm() == pytest.approx(4.0)
    assert A.frobenius_norm() == pytest.approx(5.0)


def test_profile_inner_sums_blocks():
    A = BlockProfile((np.eye(2), np.diag([1.0, 2.0])))
    B = BlockProfile((np.diag([1.0, 3.0]), np.eye(2)))
    assert pb.profile_inner(A, B) == pytest.approx(4.0 + 3.0)


def test_assert_feasible_accepts_density_blocks():
    cset = SpectraSet.uniform(2, dim=2)
    X = BlockProfile((np.eye(2) / 2, np.diag([0.9, 0.1])))
    pb.assert_feasible(X, cset)
    assert pb.is_feasible(X, cset)


def test_assert_feasible_rejects_wrong_trace():
    cset = SpectraSet.single(2)
    X = BlockProfile((np.diag([0.9, 0.2]),))
    with pytest.raises(DomainError, match="trace"):
        pb.assert_feasible(X, cset)


def test_assert_feasible_rejects_indefinite():
    cset = SpectraSet.single(2)
    X = BlockProfile((np.diag([1.5, -0.5]),))
    with pytest.raises(DomainError, match="PSD"):
        pb.assert_feasible(X, cset)


def test_assert_feasible_trace_cap_allows_slack():
    cset = SpectraSet.single(2, mode=TraceMode.AT_MOST)
    pb.assert_feasible(BlockProfile((np.diag([0.2, 0.1]),)), cset)
    with pytest.raises(DomainError):
        pb.assert_feasible(BlockProfile((np.diag([0.8, 0.7]),)), cset)


def test_assert_feasible_dims_mismatch():
    cset = SpectraSet.single(3)
    with pytest.raises(DomainError, match="dims"):
        pb.assert_feasible(BlockProfile((np.eye(2) / 2,)), cset)


def test_noise_model_rejects_negative_or_non_finite_sigma():
    for sigma in (-1.0, np.nan, np.inf, np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(sigma)


def test_noise_model_zero_sigma_is_exact_zero():
    Z = NoiseModel(0.0).sample((2, 3), np.random.default_rng(0))
    assert all(np.all(b == 0) for b in Z)


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
    cset = SpectraSet.uniform(2, dim=2)
    prob = _identity_problem(cset)
    X = pb.random_feasible_profile(cset, np.random.default_rng(2))
    phi, noise = pb.oracle_sample(prob, X, np.random.default_rng(3))
    assert all(np.array_equal(p, x) for p, x in zip(phi, X))
    assert all(np.all(z == 0) for z in noise)


def test_oracle_sample_noise_is_reported_component():
    cset = SpectraSet.single(3)
    prob = _identity_problem(cset, sigma=1.0)
    X = pb.random_feasible_profile(cset, np.random.default_rng(4))
    phi, noise = pb.oracle_sample(prob, X, np.random.default_rng(5))
    assert np.allclose(phi[0] - noise[0], X[0], atol=1e-14)


def test_best_response_equality_is_bottom_eigenprojector():
    F = BlockProfile((np.diag([2.0, -1.0, 0.5]),))
    Z = pb.best_response(F, SpectraSet.single(3))
    assert np.allclose(Z[0], np.diag([0.0, 1.0, 0.0]), atol=1e-12)


def test_best_response_trace_cap_returns_zero_for_psd_values():
    F = BlockProfile((np.diag([2.0, 0.5]),))
    Z = pb.best_response(F, SpectraSet.single(2, mode=TraceMode.AT_MOST))
    assert np.all(Z[0] == 0)


def test_best_response_scales_with_bound():
    F = BlockProfile((np.diag([1.0, -1.0]),))
    Z = pb.best_response(F, SpectraSet.single(2, bound=0.3))
    assert np.allclose(Z[0], np.diag([0.0, 0.3]), atol=1e-12)


def test_strong_gap_zero_at_solution_of_quadratic():
    # F(X) = X - B with B feasible: solution is B itself.
    rng = np.random.default_rng(6)
    cset = SpectraSet.uniform(2, dim=3)
    B = pb.random_feasible_profile(cset, rng)
    prob = pb.quadratic_test_problem(B, cset)
    assert pb.strong_gap(prob, B) == pytest.approx(0.0, abs=1e-10)


def test_strong_gap_positive_off_solution():
    rng = np.random.default_rng(7)
    cset = SpectraSet.uniform(2, dim=3)
    B = pb.random_feasible_profile(cset, rng)
    prob = pb.quadratic_test_problem(B, cset)
    X = pb.random_feasible_profile(cset, rng)
    assert pb.strong_gap(prob, X) > 1e-6


def test_strong_gap_matches_sampled_supremum():
    # The sampled oracle includes the closed-form maximizer, so the two
    # strong-gap computations must agree to rounding.
    rng = np.random.default_rng(8)
    cset = SpectraSet((BlockSpec(2), BlockSpec(3, bound=0.5, mode=TraceMode.AT_MOST)))
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
    cset = SpectraSet((BlockSpec(2), BlockSpec(4, bound=2.0, mode=TraceMode.AT_MOST)))
    for _ in range(50):
        X = pb.random_feasible_profile(cset, rng)
        pb.assert_feasible(X, cset)


def test_weak_gap_estimate_nonnegative_and_below_strong_for_monotone():
    rng = np.random.default_rng(10)
    cset = SpectraSet.uniform(2, dim=2)
    B = pb.random_feasible_profile(cset, rng)
    prob = pb.quadratic_test_problem(B, cset)
    for _ in range(10):
        X = pb.random_feasible_profile(cset, rng)
        weak = pb.weak_gap_estimate(prob, X, probes=30, rng=rng)
        assert weak >= -1e-12
        assert weak <= pb.strong_gap(prob, X) + 1e-9


def test_monotonicity_witness_sign():
    rng = np.random.default_rng(11)
    cset = SpectraSet.uniform(2, dim=3)
    B = pb.random_feasible_profile(cset, rng)
    mono = pb.quadratic_test_problem(B, cset)
    anti = SviProblem(cset, lambda X: -1.0 * X, oracle_bound=1.0)
    for _ in range(20):
        X = pb.random_feasible_profile(cset, rng)
        Y = pb.random_feasible_profile(cset, rng)
        assert pb.monotonicity_witness(mono, X, Y) >= -1e-12
        d = (X - Y).frobenius_norm()
        if d > 1e-6:
            assert pb.monotonicity_witness(anti, X, Y) < 0


def test_quadratic_problem_solution_is_projection():
    # Solve the VI analytically: X* minimizes ||X - B||_F over the set.
    rng = np.random.default_rng(12)
    cset = SpectraSet.single(4)
    B = BlockProfile((linalg.random_hermitian(rng, 4),))
    prob = pb.quadratic_test_problem(B, cset)
    P = BlockProfile((project_spectrahedron(B[0], mode=TraceMode.EQUAL),))
    assert pb.strong_gap(prob, P) == pytest.approx(0.0, abs=1e-9)


def test_quadratic_problem_oracle_bound_covers_noise():
    cset = SpectraSet.uniform(2, dim=3)
    B = cset.zeros()
    assert pb.quadratic_test_problem(B, cset).oracle_bound == pytest.approx(1.0)
    noisy = pb.quadratic_test_problem(B, cset, sigma=2.0)
    assert noisy.oracle_bound == pytest.approx(1.0 + 6.0 * np.sqrt(3))


def test_quadratic_problem_rejects_dim_mismatch():
    with pytest.raises(DomainError):
        pb.quadratic_test_problem(
            BlockProfile((np.eye(2),)), SpectraSet.single(3))
