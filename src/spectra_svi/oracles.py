"""Independent brute-force oracles for the test and acceptance suites.

Deliberately naive and deliberately separate: the projection oracle
never calls the Gibbs map, the truncated-series exponential never calls
the eigendecomposition-based one, and the sampled supremum never reuses
the closed-form gap. They exist to catch each other's bugs, at the small
dimensions tests run at.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .linalg import as_hermitian, hermitianize
from .problem import (
    BlockProfile,
    SpectraSet,
    TraceMode,
    best_response,
    profile_inner,
    random_feasible_profile,
)


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


def finite_diff_gradient(f: Callable[[np.ndarray], float], X: np.ndarray,
                         h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a real function of a Hermitian matrix.

    Returns the Hermitian G with df = tr(G dX) for Hermitian directions
    dX. Diagonal entries come straight from E_ii perturbations; an
    off-diagonal entry G_ij is assembled from the two Hermitian
    directions E_ij + E_ji (twice the real part) and i(E_ij - E_ji)
    (twice the imaginary part).
    """
    X = np.asarray(X, dtype=complex)
    n = X.shape[0]
    G = np.zeros((n, n), dtype=complex)

    def diff(D: np.ndarray) -> float:
        return (f(X + h * D) - f(X - h * D)) / (2.0 * h)

    for i in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[i, i] = 1.0
        G[i, i] = diff(E)
        for j in range(i + 1, n):
            S = np.zeros((n, n), dtype=complex)
            S[i, j] = S[j, i] = 1.0
            K = np.zeros((n, n), dtype=complex)
            K[i, j] = 1j
            K[j, i] = -1j
            G[i, j] = (diff(S) + 1j * diff(K)) / 2.0
            G[j, i] = np.conj(G[i, j])
    return G


def taylor_exp(A: np.ndarray, terms: int = 20) -> np.ndarray:
    """Truncated series sum_{k<terms} A^k / k!; trustworthy for ||A||_2 <= 1."""
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    total = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, terms):
        term = term @ A / k
        total = total + term
    return total


def sampled_sup_linear(F: BlockProfile, cset: SpectraSet, probes: int,
                       rng: np.random.Generator,
                       include_maximizer: bool = True) -> float:
    """Sampled sup of -tr(F Z) over the constraint set.

    With the analytic maximizer included this equals the negated
    closed-form infimum exactly; pure sampling approaches it from below.
    """
    if probes < 0:
        raise ValueError(f"probe count must be >= 0, got {probes}")
    if probes == 0 and not include_maximizer:
        raise ValueError("no candidates: probes == 0 and maximizer excluded")
    best = -np.inf
    if include_maximizer:
        best = -profile_inner(F, best_response(F, cset))
    for _ in range(probes):
        Z = random_feasible_profile(cset, rng)
        best = max(best, -profile_inner(F, Z))
    return float(best)
