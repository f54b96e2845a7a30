"""Entropy mirror map: potential, conjugate, Gibbs maps, divergences."""

import numpy as np
import pytest

from spectra_svi import linalg, mirror
from spectra_svi.errors import DomainError, NotPositiveSemidefinite
from spectra_svi.oracles import finite_diff_gradient


def _random_density(rng, dim, trace=1.0):
    """Random PSD matrix with the given trace (Gibbs of a random Hermitian)."""
    return trace * mirror.gibbs_map(linalg.random_hermitian(rng, dim))


def test_quantum_entropy_diagonal_value():
    X = np.diag([0.5, 0.25])
    expected = 0.5 * np.log(0.5) + 0.25 * np.log(0.25) - 0.75
    assert mirror.quantum_entropy(X) == pytest.approx(expected, abs=1e-12)


def test_quantum_entropy_zero_eigenvalue_contributes_zero():
    assert mirror.quantum_entropy(np.diag([1.0, 0.0])) == pytest.approx(-1.0)


def test_quantum_entropy_maximally_mixed():
    n = 4
    X = np.eye(n) / n
    assert mirror.quantum_entropy(X) == pytest.approx(-np.log(n) - 1.0)


def test_quantum_entropy_unitarily_invariant():
    rng = np.random.default_rng(0)
    X = _random_density(rng, 4)
    U = linalg.random_unitary(rng, 4)
    assert mirror.quantum_entropy(U @ X @ U.conj().T) == pytest.approx(
        mirror.quantum_entropy(X), abs=1e-10
    )


def test_quantum_entropy_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefinite):
        mirror.quantum_entropy(np.diag([1.0, -0.5]))


def test_quantum_entropy_rejects_trace_above_one():
    with pytest.raises(DomainError):
        mirror.quantum_entropy(np.diag([0.8, 0.8]))


def test_conjugate_entropy_zero_dual():
    # log tr exp(0 + I) = log(n e) = 1 + log n
    for n in (2, 3, 5):
        Y = np.zeros((n, n))
        assert mirror.conjugate_entropy(Y) == pytest.approx(1.0 + np.log(n))


def test_conjugate_entropy_shift_rule():
    rng = np.random.default_rng(1)
    Y = linalg.random_hermitian(rng, 3)
    c = 4.2
    assert mirror.conjugate_entropy(Y + c * np.eye(3)) == pytest.approx(
        mirror.conjugate_entropy(Y) + c, abs=1e-10
    )


def test_conjugate_entropy_no_overflow_at_large_duals():
    val = mirror.conjugate_entropy(np.diag([1e6, -1e6]))
    assert np.isfinite(val)
    assert val == pytest.approx(1e6 + 1.0, rel=1e-12)


def test_gibbs_map_zero_dual_is_uniform():
    for n in (2, 4, 7):
        X = mirror.gibbs_map(np.zeros((n, n)))
        assert np.allclose(X, np.eye(n) / n, atol=1e-14)


def test_gibbs_map_diagonal_softmax():
    Y = np.diag([1.0, 0.0])
    X = mirror.gibbs_map(Y)
    e = np.exp([1.0, 0.0])
    assert np.allclose(np.diag(X), e / e.sum(), atol=1e-14)


def test_gibbs_map_shift_invariant():
    rng = np.random.default_rng(2)
    Y = linalg.random_hermitian(rng, 4)
    X1 = mirror.gibbs_map(Y)
    X2 = mirror.gibbs_map(Y + 123.0 * np.eye(4))
    assert np.max(np.abs(X1 - X2)) <= 1e-13


def test_gibbs_map_trace_one_at_extreme_spectra():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        Y = linalg.random_spectrum_hermitian(rng, 4, -1e6, 1e6)
        X = mirror.gibbs_map(Y)
        worst = max(worst, abs(np.trace(X).real - 1.0))
        assert np.min(np.linalg.eigvalsh(X)) >= -1e-14
    assert worst <= 1e-12


def test_gibbs_map_bounded_zero_dual():
    # With unit bound the slack formula gives I/(n+1) at Y = 0.
    n = 3
    X = mirror.gibbs_map_bounded(np.zeros((n, n)), 1.0)
    assert np.allclose(X, np.eye(n) / (n + 1), atol=1e-14)
    assert np.trace(X).real == pytest.approx(n / (n + 1))


def test_gibbs_map_bounded_respects_bound():
    rng = np.random.default_rng(4)
    for _ in range(100):
        Y = linalg.random_spectrum_hermitian(rng, 3, -50.0, 50.0)
        X = mirror.gibbs_map_bounded(Y, 0.7)
        assert np.trace(X).real <= 0.7 + 1e-12
        assert np.min(np.linalg.eigvalsh(X)) >= -1e-14


def test_gibbs_map_bounded_saturates_for_large_duals():
    X = mirror.gibbs_map_bounded(np.diag([40.0, 35.0]), 1.0)
    assert np.trace(X).real == pytest.approx(1.0, abs=1e-12)


def test_gibbs_map_bounded_vanishes_for_very_negative_duals():
    X = mirror.gibbs_map_bounded(np.diag([-40.0, -45.0]), 1.0)
    assert np.trace(X).real <= 1e-15


def test_gibbs_is_gradient_of_conjugate():
    rng = np.random.default_rng(5)
    Y = linalg.random_hermitian(rng, 3)
    G = finite_diff_gradient(mirror.conjugate_entropy, Y)
    assert np.max(np.abs(G - mirror.gibbs_map(Y))) <= 1e-6


def test_von_neumann_divergence_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(6)
    X = _random_density(rng, 4)
    Y = _random_density(rng, 4)
    assert mirror.von_neumann_divergence(X, Y) > 0
    assert mirror.von_neumann_divergence(X, X) == pytest.approx(0.0, abs=1e-10)


def test_von_neumann_divergence_diagonal_is_kl():
    p = np.array([0.6, 0.3, 0.1])
    q = np.array([0.2, 0.5, 0.3])
    kl = float(np.sum(p * np.log(p / q)))
    assert mirror.von_neumann_divergence(np.diag(p), np.diag(q)) == pytest.approx(kl)


def test_von_neumann_divergence_rejects_singular_reference():
    with pytest.raises(DomainError):
        mirror.von_neumann_divergence(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))


def test_fenchel_coupling_equals_divergence_at_unit_trace():
    rng = np.random.default_rng(7)
    Q = _random_density(rng, 3)
    Y = linalg.random_hermitian(rng, 3)
    expected = mirror.von_neumann_divergence(Q, mirror.gibbs_map(Y))
    assert mirror.fenchel_coupling(Q, Y) == pytest.approx(expected, abs=1e-9)


def test_fenchel_coupling_rejects_subunit_trace():
    with pytest.raises(DomainError):
        mirror.fenchel_coupling(np.diag([0.4, 0.4]), np.zeros((2, 2)))


def test_fenchel_coupling_nonnegative():
    rng = np.random.default_rng(8)
    for _ in range(50):
        Q = _random_density(rng, 3)
        Y = linalg.random_hermitian(rng, 3, scale=3.0)
        assert mirror.fenchel_coupling(Q, Y) >= -1e-12


def test_pinsker_bound_spot_checks():
    rng = np.random.default_rng(9)
    for _ in range(100):
        X = _random_density(rng, 3)
        Y = _random_density(rng, 3)
        lhs = mirror.von_neumann_divergence(X, Y)
        rhs = 0.5 * linalg.trace_norm(X - Y) ** 2
        assert lhs >= rhs - 1e-10
