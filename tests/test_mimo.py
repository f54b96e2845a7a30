"""Seven-cell MIMO throughput game."""

import numpy as np
import pytest

from spectra_svi import mimo, problem as pb
from spectra_svi.errors import NumericalFailure
from spectra_svi.linalg import spectral_norm
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
], ids=["2x4", "unequal"])
def test_sample_channels_equals_a_link_by_link_draw(topo):
    # Each link drawn alone, in (j, i) order, real part then imaginary.
    rng = np.random.default_rng(30)
    ref = {}
    for j in range(topo.users):
        for i in range(topo.users):
            shape = (topo.rx_antennas[i], topo.tx_antennas[j])
            scale = 1.0 / (topo.distance_km[j, i] * np.sqrt(2.0))
            ref[j, i] = scale * (rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape))
    ch = mimo.sample_channels(topo, np.random.default_rng(30))
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
    X = topo.constraint_set().zeros()
    cov = mimo.covariances(ch, X)
    assert np.array_equal(cov.full, np.broadcast_to(np.eye(2), (7, 2, 2)))
    assert np.array_equal(mimo.throughput(ch, cov), np.zeros(7))


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
    assert mimo.throughput(ch, only_own, 2) == pytest.approx(
        expected, rel=1e-12)


def test_throughput_zero_at_zero_power_and_positive_otherwise():
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(5))
    zero = topo.constraint_set().zeros()
    rng = np.random.default_rng(6)
    X = _feasible_profile(topo, rng)
    for i in range(7):
        assert mimo.throughput(ch, zero, i) == pytest.approx(0.0, abs=1e-12)
        own = np.zeros_like(X)
        own[i] = X[i]
        assert mimo.throughput(ch, own, i) > 0


def test_throughput_single_user_closed_form():
    # One user, no interference: R = log det(I + H X H^dag).
    topo = mimo.NetworkTopology((2,), (2,), np.array([[1.0]]))
    ch = mimo.sample_channels(topo, np.random.default_rng(7))
    X = pb.pad_blocks([np.diag([0.6, 0.4])])
    H = ch.link(0, 0)
    expected = float(np.log(np.linalg.det(
        np.eye(2) + H @ X[0] @ H.conj().T)).real)
    assert mimo.throughput(ch, X, 0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("m,n", [(2, 2), (4, 4)])
def test_throughput_rejects_non_finite_covariances(m, n, bad):
    # A NaN covariance must not pass as "not PD", nor an inf one as NaN
    # rates: both stop in the linear-algebra layer's check, which names
    # the receiver's block.
    topo = mimo.canonical_topology(m, n)
    ch = mimo.sample_channels(topo, np.random.default_rng(10))
    cov = mimo.covariances(ch, _feasible_profile(topo, np.random.default_rng(11)))
    full = cov.full.copy()
    full[3, 0, 1] = bad
    with pytest.raises(NumericalFailure, match="non-finite") as info:
        mimo.throughput(ch, cov._replace(full=full))
    assert info.value.diagnostics == {"dim": n, "block": 3}


def test_interference_reduces_rate():
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    X = _feasible_profile(topo, rng)
    own_only = np.zeros_like(X)
    own_only[0] = X[0]
    assert mimo.throughput(ch, X, 0) < mimo.throughput(ch, own_only, 0)


def test_throughput_gradient_matches_finite_differences():
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    X = _feasible_profile(topo, rng)
    for i in (0, 3, 6):
        def rate_of_block(Z, i=i):
            Xmod = X.copy()
            Xmod[i] = Z
            return mimo.throughput(ch, Xmod, i)

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
        worst = min(worst, pb.monotonicity_witness(prob, X, Y))
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
        F = prob.mapping(X)
        assert spectral_norm(F) <= prob.oracle_bound + 1e-12


def test_game_to_svi_noise_margin():
    topo = mimo.canonical_topology()
    ch = mimo.sample_channels(topo, np.random.default_rng(18))
    quiet = mimo.game_to_svi(topo, ch)
    noisy = mimo.game_to_svi(topo, ch, sigma=2.0)
    assert noisy.noise.sigma == 2.0
    assert noisy.oracle_bound == pytest.approx(
        quiet.oracle_bound + 6.0 * np.sqrt(2.0))
