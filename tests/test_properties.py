"""Property tests of the building blocks, over hypothesis-drawn inputs.

The Gibbs maps land in their feasible sets and the equality-trace map
ignores constant dual shifts; the averaging recursion equals the direct
stepsize-weighted sum; `derive_seed` is a pure function of its
arguments. Every test is derandomized (see conftest.py), so a run draws
the same examples each time.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_svi import linalg, mirror
from spectra_svi.harness import derive_seed
from spectra_svi.problem import BlockProfile
from spectra_svi.solvers import AveragingState, update_average

PROPERTY = settings(max_examples=60)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 5)
# Half-widths of the dual's spectrum, from near zero to beyond the point
# where an unshifted exp() overflows.
spreads = st.sampled_from((1e-6, 1.0, 30.0, 1e3, 1e6))


def _dual(seed, dim, spread):
    rng = np.random.default_rng(seed)
    return linalg.random_spectrum_hermitian(rng, dim, -spread, spread)


@PROPERTY
@given(seeds, dims, spreads)
def test_gibbs_map_is_a_density_matrix(seed, dim, spread):
    X = mirror.gibbs_map(_dual(seed, dim, spread))
    assert np.array_equal(X, X.conj().T)
    assert np.min(np.linalg.eigvalsh(X)) >= -1e-14
    assert abs(np.trace(X).real - 1.0) <= 1e-12


@PROPERTY
@given(seeds, dims, spreads, st.floats(0.01, 100.0))
def test_gibbs_map_bounded_respects_its_cap(seed, dim, spread, bound):
    X = mirror.gibbs_map_bounded(_dual(seed, dim, spread), bound)
    assert np.array_equal(X, X.conj().T)
    assert np.min(np.linalg.eigvalsh(X)) >= -1e-14 * bound
    assert np.trace(X).real <= bound * (1 + 1e-12)


@PROPERTY
@given(seeds, dims, st.sampled_from((1e-6, 1.0, 30.0)),
       st.floats(-1e3, 1e3))
def test_gibbs_map_ignores_constant_shifts(seed, dim, spread, shift):
    # Shifting the spectrum by c moves the eigenvalues by about eps * c,
    # so the tolerance grows with the shift.
    Y = _dual(seed, dim, spread)
    X1 = mirror.gibbs_map(Y)
    X2 = mirror.gibbs_map(Y + shift * np.eye(dim))
    assert np.max(np.abs(X1 - X2)) <= 1e-13 * (1.0 + abs(shift))


@PROPERTY
@given(seeds, st.lists(st.floats(1e-4, 10.0), min_size=1, max_size=40),
       st.sampled_from(((2,), (2, 2, 2), (3, 1, 3))))
def test_averaging_recursion_is_the_weighted_sum(seed, etas, block_dims):
    rng = np.random.default_rng(seed)
    iterates = [BlockProfile(tuple(
        mirror.gibbs_map(linalg.random_hermitian(rng, d))
        for d in block_dims)) for _ in etas]
    avg = AveragingState(etas[0], iterates[0])
    for eta, X in zip(etas[1:], iterates[1:]):
        avg = update_average(avg, X, eta)
    total = sum(etas)
    assert abs(avg.gamma - total) <= 1e-13 * total
    for i in range(len(block_dims)):
        direct = sum(eta * X[i] for eta, X in zip(etas, iterates)) / total
        assert np.allclose(avg.xbar[i], direct, rtol=0, atol=1e-13)


parts = st.lists(st.one_of(st.integers(), st.floats(allow_nan=False),
                           st.text(max_size=8)), max_size=6)


@PROPERTY
@given(st.integers(0, 2**64 - 1), parts)
def test_derive_seed_is_a_pure_function_of_its_arguments(base, cell):
    seed = derive_seed(base, *cell)
    assert 0 <= seed < 2**64
    assert seed == derive_seed(base, *cell)
    # Parts enter only through their text, joined by the unit separator.
    text = "\x1f".join(str(p) for p in cell).encode("utf-8")
    digest = int.from_bytes(hashlib.sha256(text).digest()[:8], "big")
    assert seed == base ^ digest
    assert derive_seed(base, *map(str, cell)) == seed


@PROPERTY
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), parts)
def test_derive_seed_base_enters_by_xor(a, b, cell):
    assert derive_seed(a, *cell) ^ derive_seed(b, *cell) == a ^ b


def test_derive_seed_values_are_pinned():
    # Every cell's channels and noise stream follow from these values;
    # a change here moves every result of every grid.
    assert derive_seed(2026, "channels", 2, 2, 0) == 7366935605206246392
    assert derive_seed(2026, "solver", "am-smd", "0", 2, 2, "1", 0) == (
        14294210373690340818)
