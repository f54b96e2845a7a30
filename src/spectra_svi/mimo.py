"""Seven-cell MIMO throughput game and its variational reformulation.

Each of seven users controls the input signal covariance of its own
MIMO link, subject to a power cap tr X_i <= p, and receives multi-user
interference from the other six. Rates use natural logs; the mapping
F(X) = -diag(grad_1 R_1, ..., grad_N R_N) is monotone because each -R_i
is convex in X_i, so Nash equilibria coincide with strong solutions of
the induced VI.

The game works on a profile's zero-padded (N, m, m) array (m the
largest transmit count; see `problem`) and on the channels'
zero-padded links as they are: the padding of a user with
fewer antennas contributes nothing, and the mapping is exactly zero
outside each user's corner.

The mapping and the rates start from the same received covariances
I + sum_j H_ji X_j H_ji^dag. The channels stay fixed for a whole run, so
X -> (sum_j H_ji X_j H_ji^dag)_i is one fixed real-linear operator per
channel draw: a real (N m^2, N n^2) matrix on Hermitian coordinates (m^2
reals per block: the diagonal, then the real and the imaginary parts of
the upper triangle), built once per draw (`ChannelSet.operator`).
`covariances` packs a stack of profiles into those coordinates, applies
the operator with one small matrix-vector product per profile and
unpacks the result, exactly Hermitian, plus I. Both `game_mapping` and
`throughput` accept that build in place of the profile; the rates'
interference-only covariance is the full one minus H_ii X_i H_ii^dag.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DomainError
from .linalg import hermitianize
from .problem import (
    NoiseModel,
    SpectraSet,
    SviProblem,
    TraceMode,
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
        return SpectraSet(self.tx_antennas, self.max_power, TraceMode.AT_MOST)


def canonical_topology(m: int = 2, n: int = 2) -> NetworkTopology:
    """The 7-cell hexagonal network with its measured distance matrix,
    uniform antenna counts (m transmit, n receive), unit power cap."""
    return NetworkTopology(
        tx_antennas=(m,) * 7,
        rx_antennas=(n,) * 7,
        distance_km=DISTANCE_KM.copy(),
    )


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Cross-channel matrices: `link(j, i)` = H_ji maps transmitter j's
    signal into receiver i's antenna space, shape rx_antennas[i] x
    tx_antennas[j].

    All links live in `stacked`, shape (N, N, n, m) for the largest
    antenna counts n and m: H_ji is the top-left corner of
    stacked[j, i], and the rest of it is zero. The game evaluates every
    link at once on `stacked` and on the draw's received-covariance
    `operator`, built on first use. The channels of several cells, made
    by `stack`, give `stacked` a leading cell axis, and keep one
    operator per distinct draw in `operators` and each cell's draw
    number in `draw`."""

    stacked: np.ndarray = field(repr=False)
    tx_antennas: tuple[int, ...]
    rx_antennas: tuple[int, ...]
    operators: tuple[np.ndarray, ...] | None = field(default=None, repr=False)
    draw: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def stack(cls, channel_sets: list["ChannelSet"]) -> "ChannelSet":
        """Cells that share a draw (the same object) share its padded
        stack and its operator: the batch's stack is one gather over the
        distinct draws, and each distinct draw builds its operator once."""
        slots: dict[ChannelSet, int] = {}
        for c in channel_sets:
            slots.setdefault(c, len(slots))
        draw = np.array([slots[c] for c in channel_sets])
        first = channel_sets[0]
        return cls(np.stack([c.stacked for c in slots])[draw],
                   first.tx_antennas, first.rx_antennas,
                   tuple(c.operator for c in slots), draw)

    @property
    def users(self) -> int:
        return len(self.tx_antennas)

    def link(self, j: int, i: int) -> np.ndarray:
        """H_ji, a view of `stacked` (with the cell axis, if stacked)."""
        return self.stacked[..., j, i, :self.rx_antennas[i],
                            :self.tx_antennas[j]]

    @functools.cached_property
    def operator(self) -> np.ndarray:
        """The received-covariance operator of a single draw (see
        `_received_operator`)."""
        return _received_operator(self.stacked)

    @functools.cached_property
    def draw_rows(self) -> tuple[np.ndarray, ...]:
        """The cells of each distinct draw of a stacked set."""
        return tuple(np.flatnonzero(self.draw == d)
                     for d in range(len(self.operators)))

    def received(self, x: np.ndarray) -> np.ndarray:
        """Every receiver's sum_j H_ji X_j H_ji^dag in Hermitian
        coordinates, shape (R, N n^2), for the R profiles whose Hermitian
        coordinates are the rows of x, shape (R, N m^2); with stacked
        channels, row r is on cell r's draw.

        Each row is a (1, N m^2) x (N m^2, N n^2) product of its own, so
        a row's bits do not depend on how many rows share the call."""
        rows = x[:, None, :]
        if self.operators is None or len(self.operators) == 1:
            op = self.operator if self.operators is None else self.operators[0]
            return (rows @ op)[:, 0, :]
        out = np.empty((len(x), self.operators[0].shape[1]))
        for op, index in zip(self.operators, self.draw_rows):
            out[index] = (rows[index] @ op)[:, 0, :]
        return out

    @functools.cached_property
    def direct_stacked(self) -> np.ndarray:
        """(..., N, n, m): the direct links H_ii, zero-padded."""
        users = np.arange(self.users)
        return self.stacked[..., users, users, :, :]

    @functools.cached_property
    def direct_gain(self) -> float:
        """max_i ||H_ii||_2^2, the game's noiseless oracle bound."""
        return max(linalg.spectral_norm(self.link(i, i)) ** 2
                   for i in range(self.users))


def sample_channels(topology: NetworkTopology,
                    rng: np.random.Generator) -> ChannelSet:
    """Rayleigh-fading draw: each entry of H_ji is circularly symmetric
    complex Gaussian with variance 1/distance^2 (real and imaginary parts
    i.i.d. with variance 1/(2 d^2)). Links are drawn in (j, i) order,
    the real part of each before its imaginary part."""
    tx, rx, N = topology.tx_antennas, topology.rx_antennas, topology.users
    stacked = np.zeros((N, N, max(rx), max(tx)), dtype=complex)
    for j in range(N):
        for i in range(N):
            shape = (rx[i], tx[j])
            scale = 1.0 / (topology.distance_km[j, i] * np.sqrt(2.0))
            stacked[j, i, :rx[i], :tx[j]] = scale * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ChannelSet(stacked, tx, rx)


@functools.lru_cache(maxsize=None)
def _hermitian_coordinates(d: int) -> tuple[np.ndarray, ...]:
    """The d^2 real coordinates of a d x d Hermitian matrix: its
    diagonal, then the real parts and then the imaginary parts of its
    upper triangle (row by row).

    Returns `take`, the coordinates' positions in the float view of the
    row-major matrix (real and imaginary parts interleaved), and
    `source`, `sign`, `eye`: position p of that float view of the matrix
    is sign[p] * coordinate[source[p]], and eye[p] is the identity's."""
    diag = np.arange(d) * (d + 1)
    k, l = np.triu_indices(d, 1)
    upper, lower = k * d + l, l * d + k
    take = np.concatenate((2 * diag, 2 * upper, 2 * upper + 1))
    u = len(upper)
    source = np.zeros(2 * d * d, dtype=np.intp)
    sign = np.zeros(2 * d * d)
    source[take] = np.arange(d * d)
    sign[take] = 1.0
    source[2 * lower] = d + np.arange(u)
    sign[2 * lower] = 1.0
    source[2 * lower + 1] = d + u + np.arange(u)
    sign[2 * lower + 1] = -1.0
    eye = np.zeros(2 * d * d)
    eye[2 * diag] = 1.0
    return take, source, sign, eye


def _to_coordinates(A: np.ndarray) -> np.ndarray:
    """(R, N, d, d) Hermitian stacks as (R, N d^2) reals."""
    R, N, d, _ = A.shape
    take = _hermitian_coordinates(d)[0]
    floats = np.ascontiguousarray(A).view(float).reshape(R, N, 2 * d * d)
    return np.take(floats, take, axis=-1).reshape(R, N * d * d)


def _from_coordinates(x: np.ndarray, d: int, plus: float = 0.0
                      ) -> np.ndarray:
    """(R, N d^2) reals as (R, N, d, d) Hermitian stacks, plus `plus`
    times the identity; exactly Hermitian, since the lower triangle is
    filled from the upper one."""
    _, source, sign, eye = _hermitian_coordinates(d)
    R = len(x)
    floats = np.take(x.reshape(R, -1, d * d), source, axis=-1) * sign
    if plus:
        floats += plus * eye
    return floats.view(complex).reshape(R, -1, d, d)


def _received_operator(H: np.ndarray) -> np.ndarray:
    """The real-linear map X -> (sum_j H_ji X_j H_ji^dag)_i of one draw's
    padded (N, N, n, m) channel stack, as a real (N m^2, N n^2) matrix
    acting on row vectors of Hermitian coordinates: entry (j m^2 + c,
    i n^2 + r) is coordinate r at receiver i of H_ji E_c H_ji^dag, for
    the basis matrix E_c of coordinate c."""
    N, _, n, m = H.shape
    basis = _from_coordinates(np.eye(m * m), m)[:, 0]  # (m^2, m, m)
    images = (H[:, :, None] @ basis) @ H[:, :, None].conj().swapaxes(-1, -2)
    coords = _to_coordinates(images.reshape(N * N * m * m, 1, n, n))
    return np.ascontiguousarray(
        coords.reshape(N, N, m * m, n * n).transpose(0, 2, 1, 3)
    ).reshape(N * m * m, N * n * n)


class Covariances(NamedTuple):
    """The received covariances I + sum_j H_ji X_j H_ji^dag of a stack of
    profiles, shape (..., N, n, n), with the profiles' arrays they were
    built from, shape (..., N, m, m), and the direct links of the same
    rows, shape (..., N, n, m). Built once by `covariances`, they serve
    both the game mapping and the rates."""

    full: np.ndarray
    profile: np.ndarray
    direct: np.ndarray

    def rows(self, index: np.ndarray) -> "Covariances":
        """Those of the profiles at `index` along the leading axis."""
        return Covariances(*(a[index] for a in self))


def covariances(channels: ChannelSet, X: np.ndarray) -> Covariances:
    """The received covariances of X, any leading axes (one per cell of
    stacked channels): one product with the draw's operator per profile,
    in Hermitian coordinates."""
    lead, (N, m, _) = X.shape[:-3], X.shape[-3:]
    n = channels.stacked.shape[-2]
    x = _to_coordinates(X.reshape(-1, N, m, m))
    full = _from_coordinates(channels.received(x), n, plus=1.0)
    direct = channels.direct_stacked
    return Covariances(full.reshape(lead + (N, n, n)), X,
                       np.broadcast_to(direct, lead + direct.shape[-3:]))


def _covariances_of(channels: ChannelSet,
                    X: np.ndarray | Covariances) -> Covariances:
    return X if isinstance(X, Covariances) else covariances(channels, X)


def _logdet_pd(W: np.ndarray) -> np.ndarray:
    w = linalg.eigvals(W)
    if np.any(w[..., -1] <= 0):
        raise DomainError(
            f"covariance not PD: lambda_min = {np.min(w[..., -1]):.3e}")
    return np.sum(np.log(w), axis=-1)


def throughput(channels: ChannelSet, X: np.ndarray | Covariances,
               i: int | None = None) -> float | np.ndarray:
    """User i's rate: log det(I + sum_j H_ji X_j H_ji^dag) minus the
    log det of the interference-only covariance, that sum less
    H_ii X_i H_ii^dag. Nonnegative, and concave in X_i since the second
    term does not depend on X_i.

    With i = None, every user's rate as one array; both covariances of
    every user go through one `linalg.eigvals` call. X may carry leading axes
    (several profiles on the same channels); the rates then have shape
    (..., N). X may also be the profile's `covariances`, when already
    built."""
    cov = _covariances_of(channels, X)
    H = cov.direct
    own = H @ cov.profile @ H.conj().swapaxes(-1, -2)
    logdet = _logdet_pd(np.stack((cov.full, cov.full - own)))
    rates = logdet[0] - logdet[1]
    return rates if i is None else float(rates[i])


def _rate_gradients(channels: ChannelSet,
                    X: np.ndarray | Covariances) -> np.ndarray:
    """H_ii^dag W_i^{-1} H_ii for every user i, stacked (..., N, m, m)."""
    W = _covariances_of(channels, X).full
    H = channels.direct_stacked
    return hermitianize(H.conj().swapaxes(-1, -2) @ np.linalg.solve(W, H))


def throughput_gradient(channels: ChannelSet, X: np.ndarray,
                        i: int) -> np.ndarray:
    """Gradient of R_i in X_i: H_ii^dag W^{-1} H_ii with W the full
    received covariance at i (the interference-only term is constant in
    X_i, so it drops out). Hermitian PSD of the transmit dimension."""
    m_i = channels.tx_antennas[i]
    return _rate_gradients(channels, X)[i, :m_i, :m_i]


def game_mapping(channels: ChannelSet,
                 X: np.ndarray | Covariances) -> np.ndarray:
    """Blockwise F(X) = -grad R_i: the monotone VI mapping of the game,
    evaluated for all users in one batched solve. With stacked channels,
    X has a cell axis and every cell is evaluated in the same calls. X
    may also be the profile's `covariances`, when already built."""
    return -_rate_gradients(channels, X)


@dataclass(frozen=True, eq=False)
class GameMapping:
    """The game's VI mapping on fixed channels, as an SviProblem mapping;
    `stack` evaluates the games of several cells in one call."""

    channels: ChannelSet

    def __call__(self, X: np.ndarray | Covariances) -> np.ndarray:
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
