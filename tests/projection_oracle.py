"""The Euclidean projection onto a spectrahedron, the test suites'
independent oracle for the solution of the quadratic test problem, and
the input validation it uses.

It never calls the Gibbs map: eigendecompose with numpy, project the
spectrum onto the simplex by its sorted threshold, reassemble.
"""

import numpy as np

from spectra_svi.linalg import hermitianize
from spectra_svi.problem import TraceMode


def as_hermitian(A: np.ndarray, tol: float = 1e-12) -> np.ndarray:
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


def _project_simplex(v: np.ndarray, s: float) -> np.ndarray:
    """Euclidean projection of v onto {w >= 0, sum w = s}, sorted-threshold."""
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - s
    counts = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u - excess / counts > 0)[0][-1])
    theta = excess[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def project_spectrahedron(B: np.ndarray, bound: float = 1.0,
                          mode: TraceMode = TraceMode.EQUAL) -> np.ndarray:
    """Frobenius projection onto {Z PSD, tr Z (= or <=) bound}.

    Eigendecompose, project the spectrum onto the corresponding simplex,
    reassemble with the same eigenvectors.
    """
    if bound <= 0:
        raise ValueError(f"trace bound must be positive, got {bound}")
    B = as_hermitian(B)
    w, V = np.linalg.eigh(B)
    if mode is TraceMode.AT_MOST:
        clipped = np.maximum(w, 0.0)
        w_proj = clipped if clipped.sum() <= bound else _project_simplex(w, bound)
    else:
        w_proj = _project_simplex(w, bound)
    return hermitianize((V * w_proj) @ V.conj().T)
