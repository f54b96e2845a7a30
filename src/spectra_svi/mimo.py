"""Seven-cell MIMO throughput game and its variational reformulation.

Each of seven users controls the input signal covariance of its own
MIMO link, subject to a power cap tr X_i <= p, and receives multi-user
interference from the other six. Rates use natural logs; the mapping
F(X) = -diag(grad_1 R_1, ..., grad_N R_N) is monotone because each -R_i
is convex in X_i, so Nash equilibria coincide with strong solutions of
the induced VI.

The game takes a profile as the Hermitian coordinates of its
zero-padded (N, m, m) array, shape (..., N, m^2), m the largest
transmit count (see `problem` and `linalg.to_coordinates`: m^2 reals
per block, the diagonal, then the real and the imaginary parts of the
upper triangle), and the channels' zero-padded links as they are: the
padding of a user with fewer antennas contributes nothing, and the
mapping is exactly zero outside each user's corner. `game_mapping`
gives coordinates and `throughput` rates; only `throughput_gradient`,
which states the gradient as a matrix for the finite-difference
checks, takes and gives complex matrices.

The mapping and the rates start from the same received covariances
I + sum_j H_ji X_j H_ji^dag. The channels stay fixed for a whole run, so
X -> (sum_j H_ji X_j H_ji^dag)_i is one fixed real-linear operator per
channel draw: a real (N m^2, N n^2) matrix on Hermitian coordinates,
built once per draw (`_received_operator`). The draws' operators are
applied to a stack of profiles in one broadcast product (a small
matrix-vector product per profile). The rates' interference-only sums
X -> (sum_{j != i} H_ji X_j H_ji^dag)_i come the same way from a second
operator per draw, the first with its j == i blocks zeroed, built only
when rates are asked for.

The mapping's rate gradients H_ii^dag W_i^{-1} H_ii take one of two
paths, chosen by the receive count n alone. With n = 2 they come in
closed form from W_i's four received coordinates, with no complex
matrix built: W^{-1} = adj(W) / det(W), on W scaled by max(W_11, W_22)
so that no product overflows, then G = sum_c (W^{-1})_c H_ii^dag E_c
H_ii over the four coordinate basis matrices E_c, whose images are a
second real operator per draw (`ChannelSet.gradient_operator`). Every
other n takes a batched LAPACK solve with the full covariances, and
hands over the coordinates of its hermitianized G.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DomainError
from .linalg import from_coordinates, hermitianize, to_coordinates
from .problem import (
    NoiseModel,
    SpectraSet,
    SviProblem,
    TraceMode,
    check_shape,
)

# The stacked received-covariance operators of each tuple of draws (see
# `ChannelSet._layout`). A value depends on its key alone, and an entry
# goes once no stacked set holds its value. The same for their
# interference-only operators (see `ChannelSet._interference`).
_OPERATOR_STACKS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERFERENCE_STACKS: weakref.WeakValueDictionary = (
    weakref.WeakValueDictionary())

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
    operator (and, with 2 receive antennas, its `gradient_operator`),
    each built on first use. The channels of several cells, made
    by `stack`, give `stacked` a leading cell axis, and keep the
    distinct source draws in `draws` and each cell's draw number in
    `draw`; each cell is evaluated on its draw's own operators, which
    the stacks of the same draws share (`_layout`)."""

    stacked: np.ndarray = field(repr=False)
    tx_antennas: tuple[int, ...]
    rx_antennas: tuple[int, ...]
    draws: tuple["ChannelSet", ...] | None = field(default=None, repr=False)
    draw: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def stack(cls, channel_sets: list["ChannelSet"]) -> "ChannelSet":
        """Cells that share a draw (the same object) share its padded
        stack and its operators: the batch's stack is one gather over the
        distinct draws, and each draw builds its operators once, however
        many stacks it is in."""
        slots: dict[ChannelSet, int] = {}
        for c in channel_sets:
            slots.setdefault(c, len(slots))
        draw = np.array([slots[c] for c in channel_sets])
        first = channel_sets[0]
        return cls(np.stack([c.stacked for c in slots])[draw],
                   first.tx_antennas, first.rx_antennas, tuple(slots), draw)

    @property
    def users(self) -> int:
        return len(self.tx_antennas)

    def link(self, j: int, i: int) -> np.ndarray:
        """H_ji, a view of `stacked` (with the cell axis, if stacked)."""
        return self.stacked[..., j, i, :self.rx_antennas[i],
                            :self.tx_antennas[j]]

    @functools.cached_property
    def gradient_operator(self) -> np.ndarray:
        """The rate-gradient operator of a single draw (see
        `_gradient_operator`); of stacked channels, each draw's own,
        gathered per cell as `stacked` is."""
        if self.draws is None:
            return _gradient_operator(self.direct_stacked)
        return np.stack([d.gradient_operator for d in self.draws])[self.draw]

    @functools.cached_property
    def _layout(self) -> tuple[np.ndarray | slice, np.ndarray | slice,
                               np.ndarray]:
        """How `received` lays its rows out: `take` gathers them into an
        (S, D) table whose column d holds the rows of draw d in order
        (padded with row 0), `put` reads the table back into row order,
        and `operators`, (D, N m^2, N n^2), holds the draws' operators.
        The gathers are plain slices when row r already sits in slot r
        (every draw's rows in turn, as the harness lays a batch out).
        `operators` is built in place, so no draw holds an operator of
        its own, and it is shared by every stacked set of the same draws
        while any of them lives (a batch's cells and its cells'
        averages)."""
        if self.draws is None:
            return slice(None), slice(None), _received_operator(
                self.stacked)[None]
        D = len(self.draws)
        rank = np.tril(self.draw[:, None] == self.draw, -1).sum(axis=1)
        put = rank * D + self.draw
        take = np.zeros(D * (rank.max() + 1), dtype=np.intp)
        take[put] = np.arange(len(put))
        if np.array_equal(take, np.arange(len(take))):
            take = put = slice(None)
        operators = _OPERATOR_STACKS.get(self.draws)
        if operators is None:
            N, (n, m) = self.users, self.stacked.shape[-2:]
            operators = np.empty((D, N * m * m, N * n * n))
            for out, draw in zip(operators, self.draws):
                out[...] = _received_operator(draw.stacked)
            _OPERATOR_STACKS[self.draws] = operators
        return take, put, operators

    @functools.cached_property
    def _interference(self) -> np.ndarray:
        """`_layout`'s operators with their j == i blocks zeroed, bit for
        bit those of the same channels without their direct links: the
        maps X -> (sum_{j != i} H_ji X_j H_ji^dag)_i. Built on first use
        (only the rates read them) and shared as `_layout`'s are."""
        operators = (None if self.draws is None
                     else _INTERFERENCE_STACKS.get(self.draws))
        if operators is None:
            operators = self._layout[-1].copy()
            N, users = self.users, np.arange(self.users)
            operators.reshape(len(operators), N, operators.shape[1] // N,
                              N, -1)[:, users, :, users] = 0.0
            if self.draws is not None:
                _INTERFERENCE_STACKS[self.draws] = operators
        return operators

    def received(self, x: np.ndarray,
                 interference: bool = False) -> np.ndarray:
        """Every receiver's sum_j H_ji X_j H_ji^dag in Hermitian
        coordinates, shape (R, N n^2), for the R profiles whose Hermitian
        coordinates are the rows of x, shape (R, N m^2); with stacked
        channels, row r is on cell r's draw. With `interference`, the
        sums over j != i alone.

        One broadcast product of the rows, laid out as `_layout` says,
        with the draws' operators: each row is a (1, N m^2) x
        (N m^2, N n^2) product of its own, so a row's bits do not depend
        on how many rows share the call or on how their draws lie."""
        take, put, operators = self._layout
        if interference:
            operators = self._interference
        rows = x[take].reshape(-1, len(operators), 1, x.shape[-1])
        return (rows @ operators).reshape(-1, operators.shape[-1])[put]

    @functools.cached_property
    def direct_stacked(self) -> np.ndarray:
        """(..., N, n, m): the direct links H_ii, zero-padded."""
        users = np.arange(self.users)
        return self.stacked[..., users, users, :, :]

    @functools.cached_property
    def direct_gain(self) -> float:
        """max_i ||H_ii||_2^2, the game's noiseless oracle bound: one
        batched norm of the direct links when every user has the same
        antenna counts (LAPACK still factors each link alone, so the
        bits are those of one call per link), else one call per link."""
        if len(set(self.tx_antennas)) == len(set(self.rx_antennas)) == 1:
            return linalg.spectral_norm(self.direct_stacked) ** 2
        return max(linalg.spectral_norm(self.link(i, i)) ** 2
                   for i in range(self.users))


def sample_channels(topology: NetworkTopology,
                    rng: np.random.Generator) -> ChannelSet:
    """Rayleigh-fading draw: each entry of H_ji is circularly symmetric
    complex Gaussian with variance 1/distance^2 (real and imaginary parts
    i.i.d. with variance 1/(2 d^2)). Links are drawn in (j, i) order,
    the real part of each before its imaginary part, all from one
    `standard_normal` call."""
    tx, rx, N = topology.tx_antennas, topology.rx_antennas, topology.users
    scale = 1.0 / (topology.distance_km * np.sqrt(2.0))
    n, m = max(rx), max(tx)
    if min(rx) == n and min(tx) == m:
        G = rng.standard_normal((N, N, 2, n, m))
        return ChannelSet(scale[:, :, None, None] * (
            G[:, :, 0] + 1j * G[:, :, 1]), tx, rx)
    G = rng.standard_normal(2 * sum(rx) * sum(tx))
    stacked = np.zeros((N, N, n, m), dtype=complex)
    start = 0
    for j in range(N):
        for i in range(N):
            size = rx[i] * tx[j]
            re, im = G[start:start + 2 * size].reshape(2, rx[i], tx[j])
            stacked[j, i, :rx[i], :tx[j]] = scale[j, i] * (re + 1j * im)
            start += 2 * size
    return ChannelSet(stacked, tx, rx)


def _received_operator(H: np.ndarray) -> np.ndarray:
    """The real-linear map X -> (sum_j H_ji X_j H_ji^dag)_i of one draw's
    padded (N, N, n, m) channel stack, as a real (N m^2, N n^2) matrix
    acting on row vectors of Hermitian coordinates: entry (j m^2 + c,
    i n^2 + r) is coordinate r at receiver i of H_ji E_c H_ji^dag, for
    the basis matrix E_c of coordinate c."""
    N, _, n, m = H.shape
    basis = from_coordinates(np.eye(m * m), m)  # (m^2, m, m)
    images = (H[:, :, None] @ basis) @ H[:, :, None].conj().swapaxes(-1, -2)
    return np.ascontiguousarray(
        to_coordinates(images).transpose(0, 2, 1, 3)
    ).reshape(N * m * m, N * n * n)


def _gradient_operator(direct: np.ndarray) -> np.ndarray:
    """The real-linear maps A -> H_ii^dag A H_ii of one draw's padded
    (N, n, m) direct links, as a real (N, n^2, m^2) array: row c of user
    i holds the Hermitian coordinates of H_ii^dag E_c H_ii, for the basis
    matrix E_c of coordinate c."""
    N, n, m = direct.shape
    basis = from_coordinates(np.eye(n * n), n)  # (n^2, n, n)
    H = direct[:, None]
    return to_coordinates((H.conj().swapaxes(-1, -2) @ basis) @ H)


def _received(channels: ChannelSet, x: np.ndarray,
              interference: bool = False) -> np.ndarray:
    """Every receiver's sum_j H_ji X_j H_ji^dag in Hermitian coordinates,
    shape (..., N, n^2), for the Hermitian coordinates x of profiles X,
    shape (..., N, m^2), of any leading axes (one per cell of stacked
    channels): one product with the draw's operator per profile. With
    `interference`, the sums over j != i alone."""
    lead, N = x.shape[:-2], x.shape[-2]
    w = channels.received(x.reshape(-1, N * x.shape[-1]), interference)
    return w.reshape(lead + (N, -1))


def _logdet_pd(W: np.ndarray) -> np.ndarray:
    """log det of every matrix of a PD stack (..., 2, N, n, n), each
    receiver's full and interference-only covariance: 2 sum log diag(L)
    from one batched Cholesky factorization. Only when that fails is the
    first failing matrix sought, by its own factorization, and its
    eigenvalues computed, to name its kind, receiver, cell (its index
    along the leading axes, when there are any) and lambda_min."""
    L = linalg.cholesky(W)
    if L is None:
        # The batched call factors each matrix alone: one of them fails.
        first = next(k for k in np.ndindex(W.shape[:-2])
                     if linalg.cholesky(W[k]) is None)
        *cell, kind, i = first
        lam = linalg.eigvals(W[first])[-1]
        where = f"receiver {i}"
        if cell:
            where += f", cell {np.ravel_multi_index(cell, W.shape[:-4])}"
        kind = ("full", "interference")[kind]
        raise DomainError(f"{kind} covariance not PD: lambda_min = "
                          f"{lam:.3e} ({where})")
    diag = np.diagonal(L, axis1=-2, axis2=-1).real
    return 2 * np.sum(np.log(diag), axis=-1)


def throughput(channels: ChannelSet, x: np.ndarray,
               i: int | None = None) -> float | np.ndarray:
    """User i's rate: log det(I + sum_j H_ji X_j H_ji^dag) minus the
    log det of the interference-only covariance I + sum_{j != i}
    H_ji X_j H_ji^dag. Nonnegative, and concave in X_i since the second
    term does not depend on X_i.

    X is given by its Hermitian coordinates x, shape (..., N, m^2), as
    `game_mapping` takes them. Both sums come from the draws' operators,
    the second from their interference-only stack
    (`ChannelSet._interference`); one `from_coordinates` makes every
    covariance, and one batched `linalg.cholesky` call gives their
    log-determinants. Eigenvalues are computed only to report a
    covariance that is not PD. With i = None, every user's rate as one
    array; x may carry leading axes (several profiles, or one per cell
    of stacked channels), and the rates then have shape (..., N)."""
    check_shape(x, channels.tx_antennas)
    sums = np.stack((_received(channels, x),
                     _received(channels, x, interference=True)), axis=-3)
    logdet = _logdet_pd(from_coordinates(sums, channels.stacked.shape[-2],
                                         plus=1.0))
    rates = logdet[..., 0, :] - logdet[..., 1, :]
    return rates if i is None else float(rates[i])


def _gradient_coordinates(channels: ChannelSet, x: np.ndarray) -> np.ndarray:
    """H_ii^dag W_i^{-1} H_ii for every user i, as Hermitian coordinates
    (..., N, m^2), at the profiles of Hermitian coordinates x, shape
    (..., N, m^2): in closed form with n = 2 receive antennas, else from
    one batched solve."""
    w = _received(channels, x)
    n = channels.stacked.shape[-2]
    if n == 2:
        return _gradients_2(w, channels.gradient_operator)
    return to_coordinates(
        _solved_gradients(channels, from_coordinates(w, n, plus=1.0)))


def _solved_gradients(channels: ChannelSet, W: np.ndarray) -> np.ndarray:
    """H_ii^dag W_i^{-1} H_ii from the full covariances W, by one batched
    solve, exactly Hermitian."""
    H = channels.direct_stacked
    return hermitianize(H.conj().swapaxes(-1, -2) @ np.linalg.solve(W, H))


# Hermitian coordinates at n = 2: the identity's, and the adjugate
# adj(W) = [[W_22, -W_12], [-W_21, W_11]], whose coordinate c is
# _ADJ_SIGN[c] times coordinate _ADJ_SOURCE[c] of W.
_EYE_2 = np.array([1.0, 1.0, 0.0, 0.0])
_ADJ_SOURCE = np.array([1, 0, 2, 3])
_ADJ_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


def _gradients_2(w: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The rate gradients' Hermitian coordinates at n = 2, (..., N, m^2),
    from the received coordinates w, (..., N, 4), and the gradient
    operator K, (..., N, 4, m^2).

    W's coordinates are divided by s = max(W_11, W_22) first, so that no
    product overflows. Of the scaled W, W^{-1} = adj / (s det), where
    s det = det(W) / s >= lambda_min(W) >= 1. G's coordinates are then
    four multiply-adds of W^{-1}'s with the rows of K, added in order."""
    W = w + _EYE_2
    s = np.maximum(W[..., 0], W[..., 1])
    W /= s[..., None]
    square = W * W
    det = s * (W[..., 0] * W[..., 1] - (square[..., 2] + square[..., 3]))
    inverse = W[..., _ADJ_SOURCE] * (_ADJ_SIGN / det[..., None])
    terms = inverse[..., None] * K
    G = terms[..., 0, :] + terms[..., 1, :]
    G += terms[..., 2, :]
    G += terms[..., 3, :]
    # The bits of `terms.sum(axis=-2)`, which adds the rows in order
    # from +0.0: only a sum of four -0.0 differs, and this makes it +0.0.
    G += 0.0
    return G


def throughput_gradient(channels: ChannelSet, X: np.ndarray,
                        i: int) -> np.ndarray:
    """Gradient of R_i in X_i: H_ii^dag W^{-1} H_ii with W the full
    received covariance at i (the interference-only term is constant in
    X_i, so it drops out). Hermitian PSD of the transmit dimension.
    X is a complex profile, shape (N, m, m), and so is the gradient."""
    m_i = channels.tx_antennas[i]
    G = _gradient_coordinates(channels, to_coordinates(X))[i]
    return from_coordinates(G, channels.stacked.shape[-1])[:m_i, :m_i]


def game_mapping(channels: ChannelSet, x: np.ndarray) -> np.ndarray:
    """Blockwise F(X) = -grad R_i: the monotone VI mapping of the game,
    evaluated for all users in one batched call, on the profile's
    Hermitian coordinates x, shape (..., N, m^2), as coordinates. With
    stacked channels, x has a cell axis and every cell is evaluated in
    the same calls."""
    check_shape(x, channels.tx_antennas)
    return -_gradient_coordinates(channels, x)


@dataclass(frozen=True, eq=False)
class GameMapping:
    """The game's VI mapping on fixed channels, as an SviProblem mapping;
    `stack` evaluates the games of several cells in one call."""

    channels: ChannelSet

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return game_mapping(self.channels, x)

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
