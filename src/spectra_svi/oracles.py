"""Independent brute-force oracles for the test and acceptance suites.

Deliberately naive and deliberately separate: the finite-difference
gradient never calls an analytic one, and the sampled supremum never
reuses the closed-form gap. They exist to catch each other's bugs, at
the small dimensions tests run at. The projection oracle, which only
the tests use, lives with them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .problem import (
    SpectraSet,
    TraceMode,
    best_response,
    profile_inner,
    random_feasible_profile,
)


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


def sampled_sup_linear(F: np.ndarray, cset: SpectraSet, probes: int,
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
