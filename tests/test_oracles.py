"""Independent verification oracles (projection, finite differences, series exp)."""

import numpy as np
import pytest

from spectra_svi import linalg, oracles
from spectra_svi.problem import SpectraSet, TraceMode, pad_blocks


def test_project_spectrahedron_fixed_point():
    # A feasible point projects to itself.
    X = np.diag([0.5, 0.3, 0.2])
    P = oracles.project_spectrahedron(X)
    assert np.max(np.abs(P - X)) <= 1e-12


def test_project_spectrahedron_hand_computed_shift():
    # diag(0.6, 0.2, 0.1, 0.05): trace 0.95, equality projection adds 0.0125.
    X = np.diag([0.6, 0.2, 0.1, 0.05])
    P = oracles.project_spectrahedron(X, mode=TraceMode.EQUAL)
    assert np.allclose(np.diag(P), [0.6125, 0.2125, 0.1125, 0.0625], atol=1e-12)


def test_project_spectrahedron_clips_negative_directions():
    X = np.diag([2.0, -1.0])
    P = oracles.project_spectrahedron(X, mode=TraceMode.EQUAL)
    assert np.allclose(np.diag(P), [1.0, 0.0], atol=1e-12)


def test_project_spectrahedron_inequality_keeps_interior():
    X = np.diag([0.3, 0.2])
    P = oracles.project_spectrahedron(X, mode=TraceMode.AT_MOST)
    assert np.max(np.abs(P - X)) <= 1e-12


def test_project_spectrahedron_inequality_zeroes_negative():
    X = np.diag([0.3, -0.4])
    P = oracles.project_spectrahedron(X, mode=TraceMode.AT_MOST)
    assert np.allclose(np.diag(P), [0.3, 0.0], atol=1e-12)


def test_project_spectrahedron_respects_bound():
    rng = np.random.default_rng(0)
    for _ in range(25):
        A = linalg.random_hermitian(rng, 4, scale=3.0)
        P = oracles.project_spectrahedron(A, bound=0.5, mode=TraceMode.EQUAL)
        assert np.trace(P).real == pytest.approx(0.5, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(P)) >= -1e-12


def test_project_spectrahedron_is_nearest_point():
    # Projection beats random feasible candidates in Frobenius distance.
    rng = np.random.default_rng(1)
    A = linalg.random_hermitian(rng, 3, scale=2.0)
    P = oracles.project_spectrahedron(A, mode=TraceMode.EQUAL)
    d_proj = np.linalg.norm(A - P)
    from spectra_svi.mirror import gibbs_map

    for _ in range(200):
        Z = gibbs_map(linalg.random_hermitian(rng, 3, scale=4.0))
        assert np.linalg.norm(A - Z) >= d_proj - 1e-9


def test_finite_diff_gradient_quadratic():
    # f(X) = tr(X^2) has gradient 2X.
    rng = np.random.default_rng(2)
    X = linalg.random_hermitian(rng, 3)

    def f(Z):
        return linalg.trace_inner(Z, Z)

    G = oracles.finite_diff_gradient(f, X)
    assert np.max(np.abs(G - 2 * X)) <= 1e-6


def test_finite_diff_gradient_linear():
    rng = np.random.default_rng(3)
    A = linalg.random_hermitian(rng, 4)
    X = linalg.random_hermitian(rng, 4)

    def f(Z):
        return linalg.trace_inner(A, Z)

    G = oracles.finite_diff_gradient(f, X)
    assert np.max(np.abs(G - A)) <= 1e-8


def test_finite_diff_gradient_is_hermitian():
    rng = np.random.default_rng(4)
    X = linalg.random_hermitian(rng, 3)
    G = oracles.finite_diff_gradient(lambda Z: linalg.trace_inner(Z, Z), X)
    assert np.max(np.abs(G - G.conj().T)) <= 1e-12


def test_sampled_sup_linear_with_maximizer_hits_closed_form():
    cset = SpectraSet((2, 2), bound=1.0, mode=TraceMode.EQUAL)
    rng = np.random.default_rng(5)
    F = pad_blocks([linalg.random_hermitian(rng, 2) for _ in range(2)])
    got = oracles.sampled_sup_linear(F, cset, probes=50, rng=rng)
    expected = -sum(np.linalg.eigvalsh(F[i])[0] for i in range(2))
    assert got == pytest.approx(expected, abs=1e-10)


def test_sampled_sup_linear_probes_only_lower_bounds():
    cset = SpectraSet((3,), bound=1.0, mode=TraceMode.EQUAL)
    rng = np.random.default_rng(6)
    F = pad_blocks([linalg.random_hermitian(rng, 3)])
    exact = -np.linalg.eigvalsh(F[0])[0]
    sampled = oracles.sampled_sup_linear(F, cset, probes=200, rng=rng, include_maximizer=False)
    assert sampled <= exact + 1e-10
    assert sampled >= 0.3 * exact  # random probes should not be hopeless in dim 3


def test_sampled_sup_linear_requires_some_candidate():
    cset = SpectraSet((2,))
    F = pad_blocks([np.eye(2)])
    with pytest.raises(ValueError):
        oracles.sampled_sup_linear(F, cset, probes=0, rng=np.random.default_rng(0), include_maximizer=False)
