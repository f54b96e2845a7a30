"""Core Hermitian linear algebra."""

import numpy as np
import pytest

from projection_oracle import as_hermitian
from spectra_svi import linalg
from spectra_svi.errors import NumericalFailure
from spectra_svi.problem import pad_blocks, profile_inner


def test_hermitianize_returns_exact_hermitian_part():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = linalg.hermitianize(A)
    assert np.array_equal(H, H.conj().T)
    assert np.all(H.diagonal().imag == 0)
    assert np.allclose(H, (A + A.conj().T) / 2)


def _exactly_hermitian_stacks():
    """Hermitian parts of random complex stacks at d = 1..4, and a
    profile of blocks of sizes 3, 1, 4 and 2 zero-padded to 4 x 4."""
    rng = np.random.default_rng(11)
    stacks = [linalg.hermitianize(rng.standard_normal((3, 5, d, d))
                                  + 1j * rng.standard_normal((3, 5, d, d)))
              for d in (1, 2, 3, 4)]
    stacks.append(pad_blocks([linalg.random_hermitian(rng, d, 2.0)
                              for d in (3, 1, 4, 2)]))
    return stacks


@pytest.mark.parametrize("A", _exactly_hermitian_stacks(),
                         ids=["d=1", "d=2", "d=3", "d=4", "padded"])
def test_hermitian_coordinates_round_trip_bit_for_bit(A):
    d = A.shape[-1]
    x = linalg.to_coordinates(A)
    assert x.shape == A.shape[:-2] + (d * d,) and x.dtype == float
    B = linalg.from_coordinates(x, d)
    assert B.shape == A.shape and B.dtype == complex
    # Entry for entry; the real parts bit for bit. An imaginary part
    # that is zero (the diagonal's, the padding's) may change its sign.
    assert np.array_equal(B, A)
    assert B.real.tobytes() == A.real.tobytes()
    assert np.array_equal(B, B.conj().swapaxes(-1, -2))
    assert linalg.to_coordinates(B).tobytes() == x.tobytes()
    # The layout: the diagonal, then the upper triangle's real parts,
    # then its imaginary parts, row by row.
    k, l = np.triu_indices(d, 1)
    diag = np.arange(d)
    assert np.array_equal(x, np.concatenate(
        (A[..., diag, diag].real, A[..., k, l].real, A[..., k, l].imag),
        axis=-1))
    assert np.array_equal(linalg.from_coordinates(x, d, plus=1.0),
                          A + np.eye(d))


def test_hermitianize_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.hermitianize(np.zeros((2, 3)))


def test_as_hermitian_accepts_small_asymmetry():
    A = np.array([[1.0, 2.0 + 1e-14j], [2.0 - 1e-14j, 3.0]])
    H = as_hermitian(A)
    assert np.array_equal(H, H.conj().T)


def test_as_hermitian_rejects_large_asymmetry():
    A = np.array([[1.0, 2.0], [2.5, 3.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        as_hermitian(A)


def test_as_hermitian_rejects_non_finite():
    A = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        as_hermitian(A)


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


def test_eigvals_keep_the_checks_of_eig(monkeypatch):
    rng = np.random.default_rng(2)
    stack = np.stack([linalg.random_hermitian(rng, 4) for _ in range(3)])
    w = linalg.eigvals(stack)
    assert w.shape == (3, 4) and np.all(np.diff(w, axis=-1) <= 0)
    assert np.allclose(w, linalg.eig(stack).eigenvalues, rtol=0, atol=1e-13)
    stack[1, 0, 0] = np.nan
    small = stack[:, :2, :2].copy()  # 2x2 blocks take the closed form
    for decompose in (linalg.eig, linalg.eigvals):
        for A in (stack, small):
            with pytest.raises(NumericalFailure, match="non-finite") as info:
                decompose(A)
            assert info.value.diagnostics == {"dim": A.shape[-1], "block": 1}

    def diverge(H):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
    with pytest.raises(NumericalFailure, match="did not converge") as info:
        linalg.eigvals(np.eye(3))
    assert sorted(info.value.diagnostics) == [
        "dim", "frobenius_norm", "max_abs_entry"]
    # the 2x2 closed form calls no LAPACK routine, so it cannot fail
    assert np.array_equal(linalg.eigvals(np.eye(2)), [1.0, 1.0])


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


def test_trace_inner_pairs_the_last_two_axes():
    # Two users of 2x2 blocks: reversing every axis of B (B.T) would pair
    # block 0 of A with the entries of both blocks of B.
    rng = np.random.default_rng(9)
    A, B = (np.stack([linalg.random_hermitian(rng, 2) for _ in range(2)])
            for _ in range(2))
    expected = profile_inner(A, B)
    assert expected == pytest.approx(
        sum(np.trace(a @ b).real for a, b in zip(A, B)), abs=1e-15)
    assert linalg.trace_inner(A, B) == pytest.approx(expected, abs=1e-15)
    # On 2-D inputs the pairing keeps its bits.
    for d in (1, 2, 3, 4):
        a, b = linalg.random_hermitian(rng, d), linalg.random_hermitian(rng, d)
        for x, y in ((a, b), (a, b.real), (a + b.T, b)):
            assert linalg.trace_inner(x, y) == float(np.sum(x * y.T).real)


def test_cholesky_factors_pd_stacks_and_flags_the_rest():
    rng = np.random.default_rng(10)
    stack = np.stack([linalg.random_spectrum_hermitian(rng, 3, 0.1, 2.0)
                      for _ in range(4)])
    L = linalg.cholesky(stack)
    assert np.allclose(L @ L.conj().swapaxes(-1, -2), stack, atol=1e-14)
    assert np.array_equal(L, np.tril(L))
    stack[2] = linalg.random_spectrum_hermitian(rng, 3, -1.0, -0.1)
    assert linalg.cholesky(stack) is None
    stack[1, 0, 2] = np.inf
    with pytest.raises(NumericalFailure, match="non-finite") as info:
        linalg.cholesky(stack)
    assert info.value.diagnostics == {"dim": 3, "block": 1}


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
