"""Dense complex/Hermitian linear algebra used everywhere else.

The package's one real layout of Hermitian matrices: the d^2
coordinates of a d x d block are its diagonal, then the real and then
the imaginary parts of its upper triangle (`to_coordinates`,
`from_coordinates`). The solver loop keeps its state in it, and the
game's received-covariance operators act on it.

Hermitian parts, one eigendecomposition routine and its values-only
sibling (batched over stacks of blocks, eigenvalues descending, with
diagnostics on failure), a Cholesky factorization that answers "is it
positive definite?", trace/spectral/Frobenius norms, the trace pairing,
and random Hermitian and unitary draws. Matrix functions
of a Hermitian argument (the Gibbs maps, entropies) are built in
`mirror` on top of `eig`.

Eigenvalues are computed only where an eigenvalue is the answer: the
Gibbs maps and the strong gap's lambda_min. The rates' log-determinants
and the feasibility check take `cholesky`, and compute eigenvalues only
to explain a failure, except that the feasibility check of 2x2 blocks
takes lambda_min from the closed form (`spectrum_2x2`), the numbers
that explain its failures.

`eig`, `eigvals`, `cholesky` and `hermitian_2x2` take a Hermitian
input (A == A^dag entry for entry) and use it as given: they check it
for non-finite entries only. LAPACK reads one triangle and the 2x2
closed form reads the diagonal and the upper entry, so a matrix that
is Hermitian only up to rounding gives a result that depends on the
triangle read; pass its `hermitianize` instead.
The solver loop's duals, iterates, averages and mapping values are
exactly Hermitian by construction (see `problem`).

2x2 matrices have a closed form, `hermitian_2x2` (`spectrum_2x2` on
coordinates): `eigvals` and the Gibbs maps use it, with no LAPACK call,
and its eigenvalues agree with LAPACK's to 8 eps * max(1, ||A||_2)
(largest seen: 4.8 eps). Every other size, and `eig` at every size,
takes LAPACK.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure

# Eigenvalues below this are treated as exact zeros in entropy-like sums.
ZERO_EIG_TOL = 1e-15

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


@functools.lru_cache(maxsize=None)
def _hermitian_coordinates(d: int) -> tuple[np.ndarray, ...]:
    """The d^2 real coordinates of a d x d Hermitian matrix: its
    diagonal, then the real parts and then the imaginary parts of its
    upper triangle (row by row).

    Returns `take`, the coordinates' positions in the float view of the
    row-major matrix (real and imaginary parts interleaved), and
    `source`, `sign`, `eye`: position p of that float view of the matrix
    is sign[p] * coordinate[source[p]], and eye[p] is the identity's."""
    diag = np.arange(d) * (d + 1)
    k, l = np.triu_indices(d, 1)
    upper, lower = k * d + l, l * d + k
    take = np.concatenate((2 * diag, 2 * upper, 2 * upper + 1))
    u = len(upper)
    source = np.zeros(2 * d * d, dtype=np.intp)
    sign = np.zeros(2 * d * d)
    source[take] = np.arange(d * d)
    sign[take] = 1.0
    source[2 * lower] = d + np.arange(u)
    sign[2 * lower] = 1.0
    source[2 * lower + 1] = d + u + np.arange(u)
    sign[2 * lower + 1] = -1.0
    eye = np.zeros(2 * d * d)
    eye[2 * diag] = 1.0
    return take, source, sign, eye


def to_coordinates(A: np.ndarray) -> np.ndarray:
    """(..., d, d) Hermitian stacks as their (..., d^2) real coordinates:
    the diagonal's real parts and the upper triangle, as they are."""
    d = A.shape[-1]
    floats = np.ascontiguousarray(A).view(float).reshape(
        A.shape[:-2] + (2 * d * d,))
    return floats.take(_hermitian_coordinates(d)[0], axis=-1)


def from_coordinates(x: np.ndarray, d: int, plus: float = 0.0
                     ) -> np.ndarray:
    """(..., d^2) real coordinates as (..., d, d) Hermitian stacks, plus
    `plus` times the identity; exactly Hermitian, since the lower
    triangle is filled from the upper one."""
    _, source, sign, eye = _hermitian_coordinates(d)
    floats = x.take(source, axis=-1)
    floats *= sign
    if plus:
        floats += plus * eye
    return floats.view(complex).reshape(x.shape[:-1] + (d, d))


def _checked_finite(A: np.ndarray) -> np.ndarray:
    """A Hermitian matrix, or a stack of them, as an array, rejecting
    non-finite entries (see `_non_finite`)."""
    H = np.asarray(A)
    if not np.isfinite(H).all():
        raise _non_finite(H, H.shape[-1], (-2, -1))
    return H


def _non_finite(H: np.ndarray, dim: int, axes: tuple[int, ...]
                ) -> NumericalFailure:
    """The failure of dim x dim matrices, each spanning `axes` of H, some
    with non-finite entries. When H is a stack, the diagnostics name the
    first offending matrix as `block`, counted along the flattened
    leading axes."""
    # Some LAPACK builds return NaN eigenvalues instead of raising;
    # NaN also defeats every downstream comparison, so fail loudly.
    diagnostics = {"dim": dim}
    if H.ndim > len(axes):
        finite = np.isfinite(H).all(axis=axes).reshape(-1)
        diagnostics["block"] = int(np.argmin(finite))
    return NumericalFailure(
        "eigendecomposition input has non-finite entries", diagnostics)


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
    """The checked Hermitian H = [[a, b], [conj(b), d]] of a 2x2 matrix
    or stack, with mu = (a + d) / 2, delta = (a - d) / 2 and
    r = hypot(delta, |b|), each with the stack's leading axes. H has the
    eigenvalues mu +- r, and every spectral function f of H is
    alpha I + beta (H - mu I) with alpha = (f(mu + r) + f(mu - r)) / 2
    and beta = (f(mu + r) - f(mu - r)) / (2 r): a closed form with no
    LAPACK call."""
    H = _checked_finite(A)
    return (H, *_spectrum_2x2(H[..., 0, 0].real / 2, H[..., 1, 1].real / 2,
                              H[..., 0, 1]))


def spectrum_2x2(y: np.ndarray):
    """`hermitian_2x2`'s mu, delta and r, bit for bit, of 2x2 Hermitian
    matrices given by their coordinates y = (a, d, Re b, Im b), shape
    (..., 4), as `to_coordinates` makes them."""
    if not np.isfinite(y).all():
        raise _non_finite(y, 2, (-1,))
    # |b| of the (Re b, Im b) pair as the complex number b: np.hypot of
    # the two parts differs from it in the last bit.
    half = y[..., :2] / 2
    b = y[..., 2:].view(complex)[..., 0]
    return _spectrum_2x2(half[..., 0], half[..., 1], b)


def _spectrum_2x2(half_a: np.ndarray, half_d: np.ndarray, b: np.ndarray):
    """mu, delta and r from a / 2, d / 2 and b."""
    delta = half_a - half_d
    return half_a + half_d, delta, np.hypot(delta, np.abs(b))


def eig(A: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.
    A is used as given (see the module notes).

    A may also be a stack of shape (..., d, d); one batched LAPACK call
    then decomposes every matrix, and the results carry the same leading
    axes. Ordering is deterministic: LAPACK's ascending output is
    reversed, which keeps the column order stable between identical
    calls. The reversed arrays are copied to contiguous memory, so later
    reductions over them add the same elements in the same order.
    When a stack holds non-finite entries, the diagnostics name the first
    offending matrix as `block`, counted along the flattened leading axes.
    """
    w, V = _lapack(np.linalg.eigh, _checked_finite(A))
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
    w = _lapack(np.linalg.eigvalsh, _checked_finite(A))
    return w[..., ::-1].copy()


def cholesky(A: np.ndarray) -> np.ndarray | None:
    """The lower-triangular L with L L^dag = A for a Hermitian A, or the
    factors of every matrix in a stack (one batched LAPACK call), or None
    when any of them is not positive definite. Non-finite entries raise
    `eig`'s NumericalFailure, with the same `block` diagnostic."""
    try:
        return np.linalg.cholesky(_checked_finite(A))
    except np.linalg.LinAlgError:
        return None


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
    """Re tr(A B): the real trace pairing of two Hermitian matrices; of
    two stacks of blocks, that of their block-diagonal matrices."""
    # tr(AB) = sum_ij A_ij B_ji; for Hermitian pairs the result is real.
    return float(np.sum(A * B.swapaxes(-1, -2)).real)


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
