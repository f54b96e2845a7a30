"""Core Hermitian linear algebra."""

import numpy as np
import pytest

from spectra_svi import linalg


def test_hermitianize_returns_exact_hermitian_part():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = linalg.hermitianize(A)
    assert np.array_equal(H, H.conj().T)
    assert np.all(H.diagonal().imag == 0)
    assert np.allclose(H, (A + A.conj().T) / 2)


def test_hermitianize_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.hermitianize(np.zeros((2, 3)))


def test_as_hermitian_accepts_small_asymmetry():
    A = np.array([[1.0, 2.0 + 1e-14j], [2.0 - 1e-14j, 3.0]])
    H = linalg.as_hermitian(A)
    assert np.array_equal(H, H.conj().T)


def test_as_hermitian_rejects_large_asymmetry():
    A = np.array([[1.0, 2.0], [2.5, 3.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.as_hermitian(A)


def test_as_hermitian_rejects_non_finite():
    A = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        linalg.as_hermitian(A)


def test_eig_diagonal():
    d = linalg.eig(np.diag([3.0, 1.0]))
    assert np.allclose(d.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(d.eigenvectors), np.eye(2))


def test_eig_identity():
    d = linalg.eig(np.eye(5))
    assert np.allclose(d.eigenvalues, np.ones(5))


def test_eig_descending_and_reconstruction():
    rng = np.random.default_rng(1)
    A = linalg.random_hermitian(rng, 4)
    w, V = linalg.eig(A)
    assert np.all(np.diff(w) <= 0)
    residual = np.linalg.norm((V * w) @ V.conj().T - A)
    assert residual <= 1e-9 * max(1.0, np.linalg.norm(A))
    assert np.linalg.norm(V.conj().T @ V - np.eye(4)) <= 1e-10


def test_norms_hand_values():
    A = np.diag([3.0, -4.0])
    assert linalg.trace_norm(A) == pytest.approx(7.0)
    assert linalg.spectral_norm(A) == pytest.approx(4.0)
    assert linalg.frobenius_norm(A) == pytest.approx(5.0)


def test_trace_norm_bounds_frobenius():
    rng = np.random.default_rng(4)
    A = linalg.random_hermitian(rng, 5)
    assert linalg.trace_norm(A) >= linalg.frobenius_norm(A) - 1e-12


def test_trace_inner_matches_trace_of_product():
    rng = np.random.default_rng(5)
    A = linalg.random_hermitian(rng, 4)
    B = linalg.random_hermitian(rng, 4)
    assert linalg.trace_inner(A, B) == pytest.approx(np.trace(A @ B).real)
    assert abs(np.trace(A @ B).imag) <= 1e-12


def test_random_hermitian_is_hermitian():
    rng = np.random.default_rng(6)
    A = linalg.random_hermitian(rng, 6)
    assert np.array_equal(A, A.conj().T)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(7)
    U = linalg.random_unitary(rng, 5)
    assert np.linalg.norm(U.conj().T @ U - np.eye(5)) <= 1e-12


def test_random_spectrum_hermitian_spans_range():
    rng = np.random.default_rng(8)
    A = linalg.random_spectrum_hermitian(rng, 6, -1e6, 1e6)
    w = linalg.eig(A).eigenvalues
    assert w[0] <= 1e6 + 1e-6 and w[-1] >= -1e6 - 1e-6
    assert np.array_equal(A, A.conj().T)
