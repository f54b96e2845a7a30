"""Quantum-entropy mirror machinery.

The distance-generating function is the quantum entropy
omega(X) = tr(X log X - X) on the unit-trace spectrahedron. Its conjugate
is log tr exp(Y + I) and the conjugate gradient is the Gibbs state
exp(Y + I) / tr exp(Y + I). Every exponential here is max-shifted: dual
variables drift linearly with the iteration count, so raw exp() would
overflow within a few hundred solver steps.

The Gibbs maps of 2x2 blocks take a closed form with no LAPACK call
(`_gibbs_2x2`, on `linalg.hermitian_2x2`, and its front end on
Hermitian coordinates, `gibbs_2x2_coordinates`, which the solver loop
uses); every other size takes one batched `eig`. The two paths agree
to 8 eps * p * max(1, ||Y||_2), the error of the eigensolver's
eigenvalues (largest seen: 1.7 eps for `gibbs_map`, 3.0 eps for
`gibbs_map_bounded`).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NotPositiveSemidefinite
from .linalg import (
    PSD_TOL,
    ZERO_EIG_TOL,
    eig,
    hermitian_2x2,
    hermitianize,
    spectrum_2x2,
    trace_inner,
)

_TRACE_TOL = 1e-8


def _psd_eigenvalues(X: np.ndarray, what: str) -> np.ndarray:
    w = eig(X).eigenvalues
    if w.size and w[-1] < -PSD_TOL:
        raise NotPositiveSemidefinite(f"{what} must be PSD; lambda_min = {w[-1]:.3e}")
    return w


def quantum_entropy(X: np.ndarray) -> float:
    """tr(X log X - X) with the 0*log(0) = 0 convention.

    X must be PSD with tr X <= 1 (both up to tolerance).
    """
    w = _psd_eigenvalues(X, "quantum_entropy argument")
    tr = float(np.sum(w))
    if tr > 1.0 + _TRACE_TOL:
        raise DomainError(f"quantum_entropy needs tr X <= 1, got {tr:.6g}")
    pos = w[w > ZERO_EIG_TOL]
    return float(np.sum(pos * np.log(pos)) - tr)


def conjugate_entropy(Y: np.ndarray) -> float:
    """log tr exp(Y + I), computed shift-invariantly so it never overflows."""
    w = eig(Y).eigenvalues
    m = float(w[0])
    return m + 1.0 + float(np.log(np.sum(np.exp(w - m))))


def gibbs_map(Y: np.ndarray) -> np.ndarray:
    """Normalized matrix exponential exp(Y + I) / tr exp(Y + I).

    This is the conjugate-entropy gradient: the closed-form mirror
    projection onto {X PSD, tr X = 1}. The constant shift I cancels in the
    normalization, and eigenvalues are max-shifted before exponentiating,
    so any Hermitian dual (spectra up to +-1e6 and beyond) is safe.
    Y may be a stack of shape (..., d, d), mapped matrix by matrix.
    """
    if np.shape(Y)[-2:] == (2, 2):
        return _gibbs_2x2(Y, slack=False)
    w, V = eig(Y)
    e = np.exp(w - w[..., :1])
    e /= np.sum(e, axis=-1, keepdims=True)
    X = hermitianize((V * e[..., None, :]) @ V.conj().swapaxes(-1, -2))
    return X / np.trace(X, axis1=-2, axis2=-1).real[..., None, None]


def gibbs_map_bounded(Y: np.ndarray, p: float) -> np.ndarray:
    """Mirror projection onto {X PSD, tr X <= p} via a slack dimension.

    Y is embedded as diag(Y, 0), the Gibbs map applied in dimension n+1,
    the slack coordinate dropped, and the result scaled by p. The slack
    keeps a zero dual drift, so the output trace is strictly below p and
    approaches it as Y dominates the slack coordinate. Y may be a stack
    of shape (..., d, d), mapped matrix by matrix.
    """
    if p <= 0:
        raise ValueError(f"trace bound must be positive, got {p}")
    if np.shape(Y)[-2:] == (2, 2):
        X = _gibbs_2x2(Y, slack=True)
        return X if p == 1 else p * X  # the usual unit cap needs no product
    w, V = eig(Y)
    m = np.maximum(w[..., :1], 0.0)
    e = np.exp(w - m)
    denom = np.sum(e, axis=-1, keepdims=True) + np.exp(-m)
    X = hermitianize(
        (V * (e / denom)[..., None, :]) @ V.conj().swapaxes(-1, -2))
    return X if p == 1 else p * X


def _gibbs_2x2(Y: np.ndarray, slack: bool) -> np.ndarray:
    """`gibbs_map` (no slack) or `gibbs_map_bounded` at p = 1 of 2x2
    matrices as alpha I + beta (H - mu I), with the weights of mu +- r
    (and of the slack's 0) shifted so that the largest is e^0 = 1."""
    H, mu, delta, r = hermitian_2x2(Y)
    alpha, beta, shear = _weights_2x2(mu, delta, r, slack)
    X = beta[..., None, None] * H
    X[..., 0, 0] = alpha + shear
    X[..., 1, 1] = alpha - shear
    return X


def gibbs_2x2_coordinates(y: np.ndarray, slack: bool) -> np.ndarray:
    """`_gibbs_2x2` of 2x2 matrices given by their Hermitian coordinates,
    shape (..., 4), as its coordinates, bit for bit: the same arithmetic,
    with no complex matrix built. The upper entry is beta * b as the
    same complex product, on (Re b, Im b) viewed as b, so that even its
    zeros keep their signs."""
    alpha, beta, shear = _weights_2x2(*spectrum_2x2(y), slack)
    x = np.empty(y.shape)
    np.add(alpha, shear, out=x[..., 0])
    np.subtract(alpha, shear, out=x[..., 1])
    np.multiply(beta, y[..., 2:].view(complex)[..., 0],
                out=x[..., 2:].view(complex)[..., 0])
    return x


def _weights_2x2(mu: np.ndarray, delta: np.ndarray, r: np.ndarray,
                 slack: bool) -> tuple[np.ndarray, ...]:
    """alpha, beta and beta * delta of the 2x2 Gibbs maps."""
    top = mu + r
    shift = np.maximum(top, 0.0) if slack else top
    e_top = np.exp(top - shift)
    minus_two_r = -2.0 * r
    both = e_top * (1.0 + np.exp(minus_two_r))
    denom = both + np.exp(-shift) if slack else both
    # (1 - e^(-2r)) / (2r) = expm1(-2r) / (-2r), 1 at r = 0 without
    # dividing by 0
    split = minus_two_r < 0
    if split.all():
        slope = np.expm1(minus_two_r) / minus_two_r
    else:
        slope = np.where(split, np.expm1(minus_two_r)
                         / np.where(split, minus_two_r, 1.0), 1.0)
    alpha = both / (2.0 * denom)
    beta = e_top * slope / denom
    return alpha, beta, beta * delta


def von_neumann_divergence(X: np.ndarray, Y: np.ndarray) -> float:
    """tr(X log X - X log Y): the Bregman divergence of the quantum entropy.

    X must be PSD with tr <= 1; Y must be positive definite
    (lambda_min >= 1e-12) with tr <= 1. A singular Y is rejected rather
    than clamped: the divergence against it is genuinely infinite, and
    silently flooring would mask solver bugs.
    """
    wx = _psd_eigenvalues(X, "divergence first argument")
    if float(np.sum(wx)) > 1.0 + _TRACE_TOL:
        raise DomainError("divergence first argument needs tr <= 1")
    wy, Vy = eig(Y)
    if wy[-1] < 1e-12:
        raise DomainError(
            f"divergence second argument must be PD (lambda_min >= 1e-12), "
            f"got lambda_min = {wy[-1]:.3e}"
        )
    if float(np.sum(wy)) > 1.0 + _TRACE_TOL:
        raise DomainError("divergence second argument needs tr <= 1")
    pos = wx[wx > ZERO_EIG_TOL]
    x_log_x = float(np.sum(pos * np.log(pos)))
    log_y = hermitianize((Vy * np.log(wy)) @ Vy.conj().T)
    return x_log_x - trace_inner(np.asarray(X, dtype=complex), log_y)


def fenchel_coupling(Q: np.ndarray, Y: np.ndarray) -> float:
    """omega(Q) + omega*(Y) - tr(Q Y) for feasible Q (PSD, tr Q = 1).

    Nonnegative, zero exactly when Q is the Gibbs state of Y; equals the
    von Neumann divergence between Q and gibbs_map(Y).
    """
    trq = float(np.trace(np.asarray(Q)).real)
    if abs(trq - 1.0) > _TRACE_TOL:
        raise DomainError(f"fenchel_coupling needs tr Q = 1, got {trq:.6g}")
    Q = np.asarray(Q, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    return quantum_entropy(Q) + conjugate_entropy(Y) - trace_inner(Q, Y)
