"""Dense complex/Hermitian linear algebra used everywhere else.

Hermitian parts and validation, one eigendecomposition routine and its
values-only sibling (batched over stacks of blocks, eigenvalues
descending, with diagnostics on failure), trace/spectral/Frobenius
norms, the trace pairing, and random Hermitian and unitary draws.
Matrix functions of a Hermitian argument (the Gibbs maps, entropies)
are built in `mirror` on top of `eig`.

2x2 matrices have a closed form, `hermitian_2x2`: `eigvals` and the
Gibbs maps use it, with no LAPACK call, and its eigenvalues agree with
LAPACK's to 8 eps * max(1, ||A||_2) (largest seen: 4.8 eps). Every
other size, and `eig` at every size, takes LAPACK.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure

# Eigenvalues below this are treated as exact zeros in entropy-like sums.
ZERO_EIG_TOL = 1e-15

HERMITIAN_CONSTRUCTION_TOL = 1e-12
PSD_TOL = 1e-10


class EigenDecomposition(NamedTuple):
    """Spectral factorization A = V diag(w) V^dag with w sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitianize(A: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A^dag) / 2 of a square matrix, or of
    every matrix in a stack of shape (..., d, d)."""
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"hermitianize needs square matrices, got shape {A.shape}")
    return (A + A.conj().swapaxes(-1, -2)) / 2


def as_hermitian(A: np.ndarray, tol: float = HERMITIAN_CONSTRUCTION_TOL) -> np.ndarray:
    """Validate that A is Hermitian to within `tol`, then symmetrize exactly.

    The returned matrix satisfies H == H^dag entrywise and has exactly real
    diagonal. Non-finite entries or asymmetry beyond `tol` raise ValueError.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix has non-finite entries")
    asym = np.max(np.abs(A - A.conj().T)) if A.size else 0.0
    scale = max(1.0, float(np.max(np.abs(A)))) if A.size else 1.0
    if asym > tol * scale:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {asym:.3e}")
    return hermitianize(A)


def _checked_hermitian(A: np.ndarray) -> np.ndarray:
    """The Hermitian part of A, or of a stack of matrices, rejecting
    non-finite entries. When a stack holds them, the diagnostics name the
    first offending matrix as `block`, counted along the flattened
    leading axes."""
    # inf entries make NaNs in the complex halving; rejected just below
    with np.errstate(over="ignore", invalid="ignore"):
        H = hermitianize(A)
    if not np.all(np.isfinite(H)):
        # Some LAPACK builds return NaN eigenvalues instead of raising;
        # NaN also defeats every downstream comparison, so fail loudly.
        diagnostics = {"dim": H.shape[-1]}
        if H.ndim > 2:
            finite = np.isfinite(H).all(axis=(-2, -1)).reshape(-1)
            diagnostics["block"] = int(np.argmin(finite))
        raise NumericalFailure(
            "eigendecomposition input has non-finite entries", diagnostics)
    return H


def _lapack(solver, H: np.ndarray):
    try:
        return solver(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"eigendecomposition did not converge: {exc}",
            diagnostics={
                "dim": H.shape[-1],
                "frobenius_norm": float(np.linalg.norm(H)),
                "max_abs_entry": float(np.max(np.abs(H))),
            },
        ) from exc


def hermitian_2x2(A: np.ndarray):
    """The checked Hermitian part H = [[a, b], [conj(b), d]] of a 2x2
    matrix or stack, with mu = (a + d) / 2, delta = (a - d) / 2 and
    r = hypot(delta, |b|), each with the stack's leading axes. H has the
    eigenvalues mu +- r, and every spectral function f of H is
    alpha I + beta (H - mu I) with alpha = (f(mu + r) + f(mu - r)) / 2
    and beta = (f(mu + r) - f(mu - r)) / (2 r): a closed form with no
    LAPACK call."""
    H = _checked_hermitian(A)
    a, d = H[..., 0, 0].real, H[..., 1, 1].real
    delta = a / 2 - d / 2
    return H, a / 2 + d / 2, delta, np.hypot(delta, np.abs(H[..., 0, 1]))


def eig(A: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    A may also be a stack of shape (..., d, d); one batched LAPACK call
    then decomposes every matrix, and the results carry the same leading
    axes. Ordering is deterministic: LAPACK's ascending output is
    reversed, which keeps the column order stable between identical
    calls. The reversed arrays are copied to contiguous memory, so later
    reductions over them add the same elements in the same order.
    When a stack holds non-finite entries, the diagnostics name the first
    offending matrix as `block`, counted along the flattened leading axes.
    """
    w, V = _lapack(np.linalg.eigh, _checked_hermitian(A))
    return EigenDecomposition(w[..., ::-1].copy(), V[..., ::-1].copy())


def eigvals(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or stack, descending, without
    the eigenvectors: `eig`'s input checks and diagnostics around one
    batched values-only LAPACK call, whose values may differ from `eig`'s
    in the last bits. 2x2 matrices take the closed form mu +- r of
    `hermitian_2x2` instead, which cannot fail to converge."""
    if np.shape(A)[-2:] == (2, 2):
        _, mu, _, r = hermitian_2x2(A)
        return np.stack((mu + r, mu - r), axis=-1)
    w = _lapack(np.linalg.eigvalsh, _checked_hermitian(A))
    return w[..., ::-1].copy()


def trace_norm(A: np.ndarray) -> float:
    """Sum of singular values. For Hermitian A this is sum |lambda_i|."""
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.sum(np.linalg.svd(A, compute_uv=False)))


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value; of a stack of blocks, the largest over
    the blocks, which is that of their block-diagonal matrix."""
    A = np.asarray(A)
    if A.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(A, 2, axis=(-2, -1))))


def frobenius_norm(A: np.ndarray) -> float:
    """Entrywise 2-norm sqrt(tr(A^dag A)); of a stack of blocks, that of
    their block-diagonal matrix."""
    return float(np.linalg.norm(np.asarray(A)))


def trace_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Re tr(A B): the real trace pairing of two Hermitian matrices."""
    # tr(AB) = sum_ij A_ij B_ji; for Hermitian pairs the result is real.
    return float(np.sum(A * B.T).real)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Hermitian matrix with i.i.d. CN(0, scale^2) entries before symmetrizing."""
    G = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return hermitianize(G)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R diagonal phases absorbed into Q."""
    G = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_spectrum_hermitian(rng: np.random.Generator, dim: int,
                              low: float, high: float) -> np.ndarray:
    """Hermitian matrix with eigenvalues i.i.d. uniform on [low, high] in a
    Haar-random eigenbasis; spans prescribed spectral ranges exactly."""
    w = rng.uniform(low, high, size=dim)
    V = random_unitary(rng, dim)
    return hermitianize((V * w) @ V.conj().T)
