"""Seven-cell MIMO throughput game."""

import re

import numpy as np
import pytest

from spectra_svi import mimo, problem as pb
from spectra_svi.errors import DomainError, NumericalFailure
from spectra_svi.linalg import (
    from_coordinates,
    hermitianize,
    spectral_norm,
    to_coordinates,
)
from spectra_svi.oracles import finite_diff_gradient
from spectra_svi.problem import TraceMode


def _feasible_profile(topology, rng, interior=True):
    cset = topology.constraint_set()
    X = pb.random_feasible_profile(cset, rng)
    if interior:
        X = 0.9 * X
    return X


def test_distance_matrix_shape_and_direct_links():
    D = mimo.DISTANCE_KM
    assert D.shape == (7, 7)
    assert np.all(np.diag(D) == 0.89)
    # Direct links are the shortest paths out of every transmitter.
    for j in range(7):
        assert np.argmin(D[j]) == j


def test_canonical_topology_defaults():
    topo = mimo.canonical_topology()
    assert topo.users == 7
    assert topo.tx_antennas == (2,) * 7
    assert topo.rx_antennas == (2,) * 7
    assert topo.max_power == 1.0
    cset = topo.constraint_set()
    assert cset.dims == (2,) * 7
    assert cset.mode is TraceMode.AT_MOST and cset.bound == 1.0


def test_canonical_topology_antenna_override():
    topo = mimo.canonical_topology(4, 2)
    assert topo.tx_antennas == (4,) * 7
    assert topo.rx_antennas == (2,) * 7


def test_topology_validation():
    with pytest.raises(ValueError):
        mimo.NetworkTopology((2, 2), (2,), np.ones((2, 2)))
    with pytest.raises(ValueError):
        mimo.NetworkTopology((2,), (2,), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        mimo.NetworkTopology((2,), (2,), np.ones((1, 1)), max_power=0.0)
    with pytest.raises(ValueError, match="tx_antennas"):
        mimo.NetworkTopology((2, 0), (2, 2), np.ones((2, 2)))
    with pytest.raises(ValueError, match="distances"):
        mimo.NetworkTopology((2,), (2,), np.full((1, 1), np.inf))


def test_sample_channels_shapes():
    topo = mimo.canonical_topology(3, 2)
    ch = mimo.sample_channels(topo, np.random.default_rng(0))
    assert ch.users == 7
    assert ch.stacked.shape == (7, 7, 2, 3)
    for j in range(7):
        for i in range(7):
            assert ch.link(j, i).shape == (2, 3)
    assert np.shares_memory(ch.link(4, 4), ch.stacked)


@pytest.mark.parametrize("topo", [
    mimo.canonical_topology(2, 4),
    mimo.NetworkTopology((2, 3, 2), (3, 2, 2), np.ones((3, 3)) + np.eye(3)),
    mimo.canonical_topology(2, 2),
    mimo.canonical_topology(4, 2),
    mimo.canonical_topology(4, 4),
    mimo.NetworkTopology((2, 4, 3, 1, 2, 4, 2), (4, 2, 2, 3, 1, 2, 4),
                         mimo.DISTANCE_KM),
], ids=["2x4", "unequal", "2x2", "4x2", "4x4", "mixed7"])
def test_sample_channels_equals_a_link_by_link_draw(topo):
    # Each link drawn alone, in (j, i) order, real part then imaginary,
    # into a zero-padded stack: the one draw of every link's normals
    # must consume the stream and give the bits of that loop.
    rng = np.random.default_rng(30)
    N, rx, tx = topo.users, topo.rx_antennas, topo.tx_antennas
    stacked = np.zeros((N, N, max(rx), max(tx)), dtype=complex)
    ref = {}
    for j in range(N):
        for i in range(N):
            shape = (rx[i], tx[j])
            scale = 1.0 / (topo.distance_km[j, i] * np.sqrt(2.0))
            ref[j, i] = scale * (rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape))
            stacked[j, i, :rx[i], :tx[j]] = ref[j, i]
    ch = mimo.sample_channels(topo, np.random.default_rng(30))
    assert ch.stacked.tobytes() == stacked.tobytes()
    # Draws compare by identity, never entry by entry.
    assert ch != mimo.sample_channels(topo, np.random.default_rng(30))
    for (j, i), H in ref.items():
        assert ch.link(j, i).tobytes() == H.tobytes()
        outside = ch.stacked[j, i].copy()
        outside[:H.shape[0], :H.shape[1]] = 0
        assert not outside.any()


def test_sample_channels_variance_scales_with_distance():
    # Entry variance is 1/d^2; estimate over many draws on one short and
    # one long link.
    topo = mimo.canonical_topology(2, 2)
    rng = np.random.default_rng(1)
    short, long_ = [], []
    for _ in range(300):
        ch = mimo.sample_channels(topo, rng)
        short.append(ch.link(0, 0))  # d = 0.89
        long_.append(ch.link(3, 6))  # d = 2.76
    var_short = np.var(np.stack(short))  # complex var = E|z|^2
    var_long = np.var(np.stack(long_))
    assert var_short == pytest.approx(1.0 / 0.89**2, rel=0.15)
    assert var_long == pytest.approx(1.0 / 2.76**2, rel=0.15)


def test_mui_covariance_identity_at_zero_power():
    # With no transmit power, the received covariance and the
    # interference-plus-noise covariance are both the identity.
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(2))
    x = to_coordinates(topo.constraint_set().zeros())
    assert not np.any(mimo._received(ch, x))
    assert not np.any(mimo._received(ch, x, interference=True))
    assert np.array_equal(mimo.throughput(ch, x), np.zeros(7))


def test_mui_covariance_excludes_own_signal():
    # When only user 2 transmits, its interference-plus-noise covariance
    # is the identity, so its rate is log det(I + H_22 X_2 H_22^dag).
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    X = _feasible_profile(topo, rng)
    only_own = np.zeros_like(X)
    only_own[2] = X[2]
    H = ch.link(2, 2)
    expected = float(np.sum(np.log(np.linalg.eigvalsh(
        np.eye(2) + H @ X[2] @ H.conj().T))))
    assert mimo.throughput(ch, to_coordinates(only_own), 2) == pytest.approx(
        expected, rel=1e-12)


def test_throughput_zero_at_zero_power_and_positive_otherwise():
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(5))
    zero = topo.constraint_set().zeros()
    rng = np.random.default_rng(6)
    X = _feasible_profile(topo, rng)
    for i in range(7):
        assert mimo.throughput(ch, to_coordinates(zero), i) == pytest.approx(
            0.0, abs=1e-12)
        own = np.zeros_like(X)
        own[i] = X[i]
        assert mimo.throughput(ch, to_coordinates(own), i) > 0


def test_throughput_single_user_closed_form():
    # One user, no interference: R = log det(I + H X H^dag).
    topo = mimo.NetworkTopology((2,), (2,), np.array([[1.0]]))
    ch = mimo.sample_channels(topo, np.random.default_rng(7))
    X = pb.pad_blocks([np.diag([0.6, 0.4])])
    H = ch.link(0, 0)
    expected = float(np.log(np.linalg.det(
        np.eye(2) + H @ X[0] @ H.conj().T)).real)
    assert mimo.throughput(ch, to_coordinates(X), 0) == pytest.approx(
        expected, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("m,n", [(2, 2), (4, 4)])
def test_throughput_rejects_non_finite_covariances(m, n, bad):
    # A non-finite entry of the link H_03 makes receiver 3's covariances
    # non-finite. They must not pass as "not PD", nor give NaN rates:
    # they stop in the linear-algebra layer's check, which names the
    # first of them, receiver 3's full covariance, as the block.
    topo = mimo.canonical_topology(m, n)
    ch = mimo.sample_channels(topo, np.random.default_rng(10))
    stacked = ch.stacked.copy()
    stacked[0, 3, 0, 1] = bad
    ch = mimo.ChannelSet(stacked, ch.tx_antennas, ch.rx_antennas)
    X = _feasible_profile(topo, np.random.default_rng(11))
    # inf * 0 in the operators' build makes NaNs, with a warning
    with pytest.raises(NumericalFailure, match="non-finite") as info, \
            np.errstate(invalid="ignore"):
        mimo.throughput(ch, to_coordinates(X))
    assert info.value.diagnostics == {"dim": n, "block": 3}


def _not_pd_profile():
    """A profile far outside the set, on the 4x4 game, and the start of
    the error for its first covariance that is not PD (full ones first,
    then the interference-only ones, by receiver), from the slow
    full - own reference."""
    topo = mimo.canonical_topology(4, 4)
    ch = mimo.sample_channels(topo, np.random.default_rng(12))
    X = -50.0 * _feasible_profile(topo, np.random.default_rng(13))
    eye = np.eye(4)
    failing = []
    for kind in ("full", "interference"):
        for i in range(7):
            full = eye + sum(ch.link(j, i) @ X[j] @ ch.link(j, i).conj().T
                             for j in range(7))
            own = ch.link(i, i) @ X[i] @ ch.link(i, i).conj().T
            W = full if kind == "full" else full - own
            lam_min = np.linalg.eigvalsh(hermitianize(W))[0]
            if lam_min < 0:
                failing.append(f"{kind} covariance not PD: lambda_min = "
                               f"{lam_min:.3e} (receiver {i}")
    assert failing
    return topo, ch, X, failing[0]


def test_throughput_names_lambda_min_of_a_covariance_that_is_not_pd():
    # The received covariances themselves are indefinite: the Cholesky
    # factorization fails, and only then is the first failing matrix
    # sought. The error names its kind, its receiver and its lambda_min.
    _, ch, X, message = _not_pd_profile()
    with pytest.raises(DomainError, match=re.escape(message + ")")):
        mimo.throughput(ch, to_coordinates(X))


def test_throughput_names_the_cell_of_a_covariance_that_is_not_pd():
    # With a leading axis the error also names the cell: here the last
    # of three, after two feasible ones.
    topo, ch, X, message = _not_pd_profile()
    rng = np.random.default_rng(14)
    X = np.stack([_feasible_profile(topo, rng) for _ in range(2)] + [X])
    with pytest.raises(DomainError, match=re.escape(message + ", cell 2)")):
        mimo.throughput(ch, to_coordinates(X))


def test_rates_of_pd_covariances_take_no_eigenvalue_solve(monkeypatch):
    # The stability workload's shape: 4 cells of the 4x4 game on 2 draws.
    topo = mimo.canonical_topology(4, 4)
    draws = [mimo.sample_channels(topo, np.random.default_rng(s))
             for s in (14, 15)]
    ch = mimo.ChannelSet.stack(draws * 2)
    rng = np.random.default_rng(16)
    X = np.stack([_feasible_profile(topo, rng) for _ in range(4)])
    expected = mimo.throughput(ch, to_coordinates(X))

    def refuse(*args):
        raise AssertionError("eigenvalue solve on the rates' success path")

    monkeypatch.setattr(mimo.linalg, "eigvals", refuse)
    rates = mimo.throughput(ch, to_coordinates(X))
    assert rates.shape == (4, 7) and np.array_equal(rates, expected)


def test_interference_reduces_rate():
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    X = _feasible_profile(topo, rng)
    own_only = np.zeros_like(X)
    own_only[0] = X[0]
    assert (mimo.throughput(ch, to_coordinates(X), 0)
            < mimo.throughput(ch, to_coordinates(own_only), 0))


def test_throughput_gradient_matches_finite_differences():
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    X = _feasible_profile(topo, rng)
    for i in (0, 3, 6):
        def rate_of_block(Z, i=i):
            Xmod = X.copy()
            Xmod[i] = Z
            return mimo.throughput(ch, to_coordinates(Xmod), i)

        G_fd = finite_diff_gradient(rate_of_block, X[i])
        G = mimo.throughput_gradient(ch, X, i)
        assert np.max(np.abs(G - G_fd)) <= 1e-4 * max(1.0, spectral_norm(G))


def test_throughput_gradient_is_psd():
    topo = mimo.canonical_topology(3, 2)
    ch = mimo.sample_channels(topo, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    X = _feasible_profile(topo, rng)
    for i in range(7):
        G = mimo.throughput_gradient(ch, X, i)
        assert np.array_equal(G, G.conj().T)
        assert np.min(np.linalg.eigvalsh(G)) >= -1e-12


def test_game_mapping_is_monotone_on_samples():
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(14))
    prob = mimo.game_to_svi(topo, ch)
    rng = np.random.default_rng(15)
    worst = np.inf
    for _ in range(30):
        X = _feasible_profile(topo, rng)
        Y = _feasible_profile(topo, rng)
        worst = min(worst, pb.monotonicity_witness(
            prob, to_coordinates(X), to_coordinates(Y)))
    assert worst >= -1e-10


def test_game_to_svi_oracle_bound_dominates_mapping():
    topo = mimo.canonical_topology(3, 3)
    ch = mimo.sample_channels(topo, np.random.default_rng(16))
    prob = mimo.game_to_svi(topo, ch)
    assert prob.oracle_bound == pytest.approx(
        max(spectral_norm(ch.link(i, i)) ** 2 for i in range(7)))
    rng = np.random.default_rng(17)
    for _ in range(25):
        X = pb.random_feasible_profile(prob.constraints, rng)
        F = from_coordinates(prob.mapping(to_coordinates(X)), 3)
        assert spectral_norm(F) <= prob.oracle_bound + 1e-12


def test_game_to_svi_noise_margin():
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(18))
    quiet = mimo.game_to_svi(topo, ch)
    noisy = mimo.game_to_svi(topo, ch, sigma=2.0)
    assert noisy.noise.sigma == 2.0
    assert noisy.oracle_bound == pytest.approx(
        quiet.oracle_bound + 6.0 * np.sqrt(2.0))


@pytest.mark.parametrize("m, n", [(2, 2), (2, 4), (4, 2), (4, 4)])
def test_direct_gain_of_uniform_links_is_that_of_one_norm_per_link(m, n):
    # One batched norm of the direct links gives the bits of one call
    # per link, on every draw.
    topo = mimo.canonical_topology(m, n)
    rng = np.random.default_rng(m * n)
    for _ in range(20):
        ch = mimo.sample_channels(topo, rng)
        per_link = max(spectral_norm(ch.link(i, i)) ** 2 for i in range(7))
        assert np.float64(ch.direct_gain).tobytes() == np.float64(
            per_link).tobytes()


def test_direct_gain_of_mixed_links_is_the_largest_of_their_norms():
    topo = mimo.NetworkTopology((2, 3, 2), (3, 2, 2),
                                mimo.DISTANCE_KM[:3, :3])
    ch = mimo.sample_channels(topo, np.random.default_rng(29))
    assert ch.direct_gain == max(
        np.linalg.norm(ch.link(i, i), 2) ** 2 for i in range(3))


@pytest.mark.parametrize("shape", [(7,), (6, 7), (150, 7)])
@pytest.mark.parametrize("m", [2, 4])
def test_closed_form_gradients_add_their_terms_as_one_sum(shape, m):
    # The four terms of each gradient coordinate, added in order, give
    # the bits of numpy's sum over them, signed zeros included: rows and
    # columns of zeros, of either sign, in the operator.
    rng = np.random.default_rng(m + len(shape))
    w = rng.standard_normal(shape + (4,)) * [1, 1, 0.3, 0.3]
    w[..., :2] = np.abs(w[..., :2])
    K = rng.standard_normal(shape + (4, m * m))
    K[..., 0, :] = -0.0
    K[..., :, 1] = -0.0
    K[..., 2:, 2] = 0.0
    K[..., :, 3] = 0.0
    got = mimo._gradients_2(w.copy(), K)
    W = w + mimo._EYE_2
    s = np.maximum(W[..., 0], W[..., 1])
    W /= s[..., None]
    det = s * (W[..., 0] * W[..., 1] - (W[..., 2] ** 2 + W[..., 3] ** 2))
    inverse = W[..., mimo._ADJ_SOURCE] * (mimo._ADJ_SIGN / det[..., None])
    terms = inverse[..., None] * K
    want = terms.sum(axis=-2)
    assert got.tobytes() == want.tobytes()
    # the case where the sum starts from +0.0: four -0.0 terms
    plain = ((terms[..., 0, :] + terms[..., 1, :]) + terms[..., 2, :]) \
        + terms[..., 3, :]
    assert np.signbit(plain).any() and not np.signbit(want[want == 0]).any()
