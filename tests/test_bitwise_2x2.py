"""The 2x2 closed forms, bit for bit against a frozen copy.

`_hermitian_2x2` and `_gibbs_2x2` below keep the arithmetic of
`linalg.hermitian_2x2` and `mirror._gibbs_2x2` as it was before they
were trimmed for speed (halving the diagonal once, computing 2r and
beta * delta once, skipping the `np.where` guards when no block has
r = 0, skipping the multiplication by p = 1). The trimmed kernels must
reproduce every bit of it: the same operations on the same operands.
The stacks hold blocks with r = 0 only, r > 0 only and both, at unit
scale and with entries near 1e-300 and near 1e300. The front end that
the solver loop applies to Hermitian coordinates must give the
coordinates of the same bits.
"""

import numpy as np
import pytest

from spectra_svi import linalg, mirror


def _hermitian_2x2(H):
    a, d = H[..., 0, 0].real, H[..., 1, 1].real
    delta = a / 2 - d / 2
    return H, a / 2 + d / 2, delta, np.hypot(delta, np.abs(H[..., 0, 1]))


def _gibbs_2x2(Y, slack):
    H, mu, delta, r = _hermitian_2x2(Y)
    top = mu + r
    shift = np.maximum(top, 0.0) if slack else top
    e_top = np.exp(top - shift)
    both = e_top * (1.0 + np.exp(-2.0 * r))
    denom = both + np.exp(-shift) if slack else both
    two_r = 2.0 * r
    split = two_r > 0
    slope = np.where(split, -np.expm1(-two_r) / np.where(split, two_r, 1.0),
                     1.0)
    alpha = both / (2.0 * denom)
    beta = e_top * slope / denom
    X = beta[..., None, None] * H
    X[..., 0, 0] = alpha + beta * delta
    X[..., 1, 1] = alpha - beta * delta
    return X


def _random_hermitian(rng, shape):
    G = rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(
        shape + (2, 2))
    return (G + G.conj().swapaxes(-1, -2)) / 2


def _scalar(rng, shape):
    """Multiples of the identity: r = 0 exactly."""
    c = rng.standard_normal(shape)
    return c[..., None, None] * np.eye(2, dtype=complex)


def _stack(kind, scale, seed=0):
    rng = np.random.default_rng(seed)
    shape = (5, 7)
    if kind == "r=0":
        Y = _scalar(rng, shape)
    elif kind == "r>0":
        Y = _random_hermitian(rng, shape)
    else:
        Y = np.where(rng.uniform(size=shape)[..., None, None] < 0.5,
                     _scalar(rng, shape), _random_hermitian(rng, shape))
    return Y * scale


STACKS = [(kind, scale) for kind in ("r=0", "r>0", "mixed")
          for scale in (1.0, 1e-300, 1e300, -1e300)]


def _same_bits(got, want):
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, scale", STACKS)
def test_stacks_have_the_intended_radii(kind, scale):
    r = _hermitian_2x2(_stack(kind, scale))[3]
    if kind == "r=0":
        assert not r.any()
    elif kind == "r>0":
        assert (r > 0).all()
    else:
        assert (r == 0).any() and (r > 0).any()


@pytest.mark.parametrize("kind, scale", STACKS)
def test_hermitian_2x2_keeps_its_bits(kind, scale):
    Y = _stack(kind, scale)
    for got, want in zip(linalg.hermitian_2x2(Y), _hermitian_2x2(Y)):
        _same_bits(got, want)


@pytest.mark.parametrize("kind, scale", STACKS)
def test_eigvals_keep_their_bits(kind, scale):
    Y = _stack(kind, scale)
    _, mu, _, r = _hermitian_2x2(Y)
    _same_bits(linalg.eigvals(Y), np.stack((mu + r, mu - r), axis=-1))


@pytest.mark.parametrize("kind, scale", STACKS)
def test_gibbs_maps_keep_their_bits(kind, scale):
    Y = _stack(kind, scale)
    _same_bits(mirror.gibbs_map(Y), _gibbs_2x2(Y, slack=False))
    X = _gibbs_2x2(Y, slack=True)
    for p in (0.75, 3.0):
        _same_bits(mirror.gibbs_map_bounded(Y, p), p * X)
    # At p = 1 the product is skipped. As a complex product, 1.0 * X can
    # turn a -0.0 component into +0.0; X holds one only where beta * Y_ij
    # underflowed, which a solver dual (never -0.0, nowhere near 1e300)
    # does not give.
    bounded = mirror.gibbs_map_bounded(Y, 1.0)
    _same_bits(bounded, X)
    assert np.array_equal(bounded, 1.0 * X)
    if abs(scale) <= 1.0:
        _same_bits(bounded, 1.0 * X)


@pytest.mark.parametrize("kind, scale", STACKS)
def test_coordinate_front_end_keeps_the_bits(kind, scale):
    Y = _stack(kind, scale)
    y = linalg.to_coordinates(Y)
    for got, want in zip(linalg.spectrum_2x2(y), _hermitian_2x2(Y)[1:]):
        _same_bits(got, want)
    for slack in (False, True):
        _same_bits(mirror.gibbs_2x2_coordinates(y, slack),
                   linalg.to_coordinates(_gibbs_2x2(Y, slack)))


@pytest.mark.parametrize("kind", ("r=0", "r>0", "mixed"))
def test_single_matrices_keep_their_bits(kind):
    for Y in _stack(kind, 1.0)[0, :3]:
        _same_bits(mirror.gibbs_map(Y), _gibbs_2x2(Y, slack=False))
        _same_bits(mirror.gibbs_map_bounded(Y, 1.0),
                   1.0 * _gibbs_2x2(Y, slack=True))
        _, mu, _, r = _hermitian_2x2(Y)
        _same_bits(linalg.eigvals(Y), np.stack((mu + r, mu - r), axis=-1))
