"""Seven-cell MIMO throughput game and its variational reformulation.

Each of seven users controls the input signal covariance of its own
MIMO link, subject to a power cap tr X_i <= p, and receives multi-user
interference from the other six. Rates use natural logs; the mapping
F(X) = -diag(grad_1 R_1, ..., grad_N R_N) is monotone because each -R_i
is convex in X_i, so Nash equilibria coincide with strong solutions of
the induced VI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DomainError
from .linalg import hermitianize
from .problem import (
    BlockProfile,
    BlockSpec,
    NoiseModel,
    SpectraSet,
    SviProblem,
    TraceMode,
    block_layout,
)

# Transmitter-to-receiver distances in km for the canonical 7-cell
# hexagonal layout (cell radius 1 km); row j = transmitter j, column
# i = receiver i. Diagonals are the direct links and are the row minima.
DISTANCE_KM = np.array([
    [0.89, 1.01, 1.05, 1.10, 1.01, 1.05, 1.10],
    [1.01, 0.89, 1.05, 2.10, 2.69, 2.66, 1.99],
    [1.10, 1.90, 0.89, 1.01, 2.10, 2.72, 2.72],
    [1.99, 2.61, 1.94, 0.89, 1.10, 2.10, 2.76],
    [2.56, 2.69, 2.66, 1.99, 0.89, 1.05, 2.10],
    [2.52, 2.10, 2.72, 2.72, 1.90, 0.89, 1.01],
    [1.90, 1.10, 2.10, 2.76, 2.61, 1.94, 0.89],
])

@dataclass(frozen=True)
class NetworkTopology:
    """User count, per-user antenna sizes, distances, and the power cap.

    distance_km[j][i] is the transmitter-j to receiver-i distance; the
    power cap applies per user as the trace bound on X_i.
    """

    tx_antennas: tuple[int, ...]
    rx_antennas: tuple[int, ...]
    distance_km: np.ndarray
    max_power: float = 1.0

    def __post_init__(self) -> None:
        D = np.asarray(self.distance_km, dtype=float)
        N = len(self.tx_antennas)
        if len(self.rx_antennas) != N:
            raise ValueError("tx and rx antenna lists must have equal length")
        if D.shape != (N, N):
            raise ValueError(f"distance matrix must be {N}x{N}, got {D.shape}")
        if min(self.tx_antennas + self.rx_antennas, default=1) < 1:
            raise ValueError(
                f"antenna counts must be >= 1, got tx_antennas "
                f"{self.tx_antennas}, rx_antennas {self.rx_antennas}")
        if not np.all(np.isfinite(D) & (D > 0)):
            raise ValueError("distances must be finite and positive")
        if not 0 < self.max_power < math.inf:
            raise ValueError(f"power cap must be finite and positive, "
                             f"got {self.max_power}")
        object.__setattr__(self, "distance_km", D)

    @property
    def users(self) -> int:
        return len(self.tx_antennas)

    def constraint_set(self) -> SpectraSet:
        return SpectraSet(tuple(
            BlockSpec(m, self.max_power, TraceMode.AT_MOST)
            for m in self.tx_antennas))


def canonical_topology(m: int = 2, n: int = 2) -> NetworkTopology:
    """The 7-cell hexagonal network with its measured distance matrix,
    uniform antenna counts (m transmit, n receive), unit power cap."""
    return NetworkTopology(
        tx_antennas=(m,) * 7,
        rx_antennas=(n,) * 7,
        distance_km=DISTANCE_KM.copy(),
    )


@dataclass(frozen=True)
class ChannelSet:
    """Cross-channel matrices: H[j][i] maps transmitter j's signal into
    receiver i's antenna space, shape rx_antennas[i] x tx_antennas[j].

    The game evaluates every link at once on `stacked`, the (N, N, n, m)
    array of all H[j][i] (zero-padded to the largest antenna counts when
    they differ between users), built at construction. The channels of
    several cells, made by `stack`, give every H[j][i] and `stacked` a
    leading cell axis."""

    H: tuple[tuple[np.ndarray, ...], ...]
    stacked: np.ndarray | None = field(default=None, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        if self.stacked is None:
            object.__setattr__(self, "stacked", self._padded())

    @classmethod
    def stack(cls, channel_sets: list["ChannelSet"]) -> "ChannelSet":
        """Cells that share a draw (the same object) share its padded
        stack: the batch's is one gather over the distinct draws, and
        each H[j][i] is a view of it."""
        slots: dict[int, int] = {}
        distinct = []
        for c in channel_sets:
            if id(c) not in slots:
                slots[id(c)] = len(distinct)
                distinct.append(c.stacked)
        stacked = np.stack(distinct)[[slots[id(c)] for c in channel_sets]]
        first = channel_sets[0]
        rx, tx = first.rx_antennas, first.tx_antennas
        return cls(tuple(
            tuple(stacked[:, j, i, :rx[i], :tx[j]] for i in range(first.users))
            for j in range(first.users)), stacked)

    @property
    def users(self) -> int:
        return len(self.H)

    def direct(self, i: int) -> np.ndarray:
        return self.H[i][i]

    @functools.cached_property
    def tx_antennas(self) -> tuple[int, ...]:
        return tuple(self.H[j][j].shape[-1] for j in range(self.users))

    @functools.cached_property
    def rx_antennas(self) -> tuple[int, ...]:
        return tuple(self.H[i][i].shape[-2] for i in range(self.users))

    def _padded(self) -> np.ndarray:
        N = self.users
        lead = self.H[0][0].shape[:-2]
        stack = np.zeros(lead + (N, N, max(self.rx_antennas),
                                 max(self.tx_antennas)), dtype=complex)
        for j in range(N):
            for i in range(N):
                rows, cols = self.H[j][i].shape[-2:]
                stack[..., j, i, :rows, :cols] = self.H[j][i]
        return stack

    @functools.cached_property
    def stacked_conj(self) -> np.ndarray:
        return self.stacked.conj()

    @functools.cached_property
    def identity(self) -> np.ndarray:
        return np.eye(self.stacked.shape[-2], dtype=complex)

    @functools.cached_property
    def direct_stacked(self) -> np.ndarray:
        """(..., N, n, m): the direct links H[i][i]."""
        users = np.arange(self.users)
        return self.stacked[..., users, users, :, :]

    @functools.cached_property
    def direct_gain(self) -> float:
        """max_i ||H_ii||_2^2, the game's noiseless oracle bound."""
        return max(linalg.spectral_norm(self.direct(i)) ** 2
                   for i in range(self.users))


def sample_channels(topology: NetworkTopology,
                    rng: np.random.Generator) -> ChannelSet:
    """Rayleigh-fading draw: each entry of H[j][i] is circularly
    symmetric complex Gaussian with variance 1/distance^2 (real and
    imaginary parts i.i.d. with variance 1/(2 d^2))."""
    rows = []
    for j in range(topology.users):
        row = []
        for i in range(topology.users):
            d = topology.distance_km[j, i]
            shape = (topology.rx_antennas[i], topology.tx_antennas[j])
            scale = 1.0 / (d * np.sqrt(2.0))
            row.append(scale * (rng.standard_normal(shape)
                                + 1j * rng.standard_normal(shape)))
        rows.append(tuple(row))
    return ChannelSet(tuple(rows))


def _padded_profile(channels: ChannelSet, X: BlockProfile) -> np.ndarray:
    """X as one (..., N, m, m) stack, zero-padded to the largest block."""
    if len(X.parts) == 1:
        return X.parts[0]
    m = max(channels.tx_antennas)
    lead = X.parts[0].shape[:-3]
    out = np.zeros(lead + (len(X), m, m), dtype=complex)
    for (d, index), part in zip(X.layout.groups, X.parts):
        out[..., index, :d, :d] = part
    return out


def _crop(stack: np.ndarray, dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Undo the zero padding: stack parts laid out as block_layout(dims)."""
    layout = block_layout(dims)
    if len(layout.groups) == 1:
        return (stack,)
    return tuple(stack[..., index, :d, :d] for d, index in layout.groups)


def _received_terms(channels: ChannelSet, X: BlockProfile) -> np.ndarray:
    """Shape (..., N + 1, N, n, n): I at index 0, then H_ji X_j H_ji^dag
    at index 1 + j for every receiver i; the leading axes are those of
    the channels and of X, broadcast. Summing over that axis adds the
    terms in j order starting from I."""
    H = channels.stacked
    *lead, N, _, n, m = H.shape
    # H_ji X_j for all i at once: one (N n, m) x (m, m) product per j.
    HX = (H.reshape(*lead, N, N * n, m) @ _padded_profile(channels, X))
    lead = HX.shape[:-3]
    terms = np.empty((*lead, N + 1, N, n, n), dtype=complex)
    terms[..., 0, :, :, :] = channels.identity
    np.matmul(HX.reshape(*lead, N, N, n, m),
              channels.stacked_conj.swapaxes(-1, -2),
              out=terms[..., 1:, :, :, :])
    return terms


def _skip_own(terms: np.ndarray) -> np.ndarray:
    """Zero each receiver's own-signal term H_ii X_i H_ii^dag in place."""
    users = np.arange(terms.shape[-3])
    terms[..., users + 1, users, :, :] = 0
    return terms


def _covariance(terms: np.ndarray) -> np.ndarray:
    return hermitianize(terms.sum(axis=-4))


def mui_covariance(channels: ChannelSet, X: BlockProfile, i: int) -> np.ndarray:
    """Interference-plus-noise covariance at receiver i:
    I + sum_{j != i} H_ji X_j H_ji^dag. PD with lambda_min >= 1."""
    W = _covariance(_skip_own(_received_terms(channels, X)))[i]
    n_i = channels.rx_antennas[i]
    return W[:n_i, :n_i]


def _logdet_pd(W: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(W)
    if np.any(w[..., 0] <= 0):
        raise DomainError(
            f"covariance not PD: lambda_min = {np.min(w[..., 0]):.3e}")
    return np.sum(np.log(w), axis=-1)


def throughput(channels: ChannelSet, X: BlockProfile,
               i: int | None = None) -> float | np.ndarray:
    """User i's rate: log det(I + sum_j H_ji X_j H_ji^dag) minus the
    log det of the interference-only covariance. Nonnegative, and
    concave in X_i since the second term does not depend on X_i.

    With i = None, every user's rate as one array from one pass over the
    received covariances. X may carry leading axes (several profiles on
    the same channels); the rates then have shape (..., N)."""
    terms = _received_terms(channels, X)
    full = _logdet_pd(_covariance(terms))
    rates = full - _logdet_pd(_covariance(_skip_own(terms)))
    return rates if i is None else float(rates[i])


def _rate_gradients(channels: ChannelSet, X: BlockProfile) -> np.ndarray:
    """H_ii^dag W_i^{-1} H_ii for every user i, stacked (..., N, m, m)."""
    W = _covariance(_received_terms(channels, X))
    H = channels.direct_stacked
    return hermitianize(H.conj().swapaxes(-1, -2) @ np.linalg.solve(W, H))


def throughput_gradient(channels: ChannelSet, X: BlockProfile,
                        i: int) -> np.ndarray:
    """Gradient of R_i in X_i: H_ii^dag W^{-1} H_ii with W the full
    received covariance at i (the interference-only term is constant in
    X_i, so it drops out). Hermitian PSD of the transmit dimension."""
    m_i = channels.tx_antennas[i]
    return _rate_gradients(channels, X)[i, :m_i, :m_i]


def game_mapping(channels: ChannelSet, X: BlockProfile) -> BlockProfile:
    """Blockwise F(X) = -grad R_i: the monotone VI mapping of the game,
    evaluated for all users in one batched solve. With stacked channels,
    X has a cell axis and every cell is evaluated in the same calls."""
    dims = channels.tx_antennas
    return BlockProfile.from_parts(
        _crop(-_rate_gradients(channels, X), dims), block_layout(dims))


@dataclass(frozen=True, eq=False)
class GameMapping:
    """The game's VI mapping on fixed channels, as an SviProblem mapping;
    `stack` evaluates the games of several cells in one call."""

    channels: ChannelSet

    def __call__(self, X: BlockProfile) -> BlockProfile:
        return game_mapping(self.channels, X)

    @classmethod
    def stack(cls, mappings: list["GameMapping"]) -> "GameMapping":
        return cls(ChannelSet.stack([f.channels for f in mappings]))


def game_to_svi(topology: NetworkTopology, channels: ChannelSet,
                sigma: float = 0.0) -> SviProblem:
    """Package the game as an SVI over the power-cap constraint set.

    The oracle bound uses the exact noiseless supremum
    max_i ||H_ii||_2^2 (W >= I makes ||H^dag W^{-1} H||_2 <= ||H||_2^2),
    plus a spectral margin for the Gaussian noise; no sampling needed.
    """
    C = channels.direct_gain
    if sigma > 0:
        C += 3.0 * sigma * math.sqrt(max(topology.tx_antennas))
    return SviProblem(
        constraints=topology.constraint_set(),
        mapping=GameMapping(channels),
        noise=NoiseModel(sigma),
        oracle_bound=max(float(C), 1e-12),
    )
