"""Block-structured stochastic variational inequality problems.

A problem couples a product constraint set, one PSD trace-constrained
spectrahedron per player block, with a deterministic monotone mapping F
acting blockwise and a noise model that turns F into the stochastic
oracle Phi(X, xi) = F(X) + Z. A profile diag(X_1, ..., X_N) crosses
every function boundary here as its Hermitian coordinates
(`linalg.to_coordinates`): a real array of shape (..., N, D^2), D the
largest block dimension, whose row i holds block i zero-padded to
D x D, the block being the top-left dims[i] x dims[i] corner. Leading
axes, such as a batch's cell axis, broadcast through the arithmetic.
The mapping, the noise, the oracle, the feasibility check and the
strong gap sup_Z tr(F(X)(X - Z)) (in closed form: a minimum-eigenvalue
problem per block) take and give coordinates.

The matrix layer states the invariants on the zero-padded complex
profiles, shape (..., N, D, D), that coordinates describe
(`linalg.from_coordinates`): `pad_blocks` builds one from its blocks,
`SpectraSet.blocks` gives their corners, and `random_feasible_profile`,
`best_response` and `profile_inner` work on them. The constraint set's
`dims` is the only record of the block sizes. Inside a function,
complex blocks are built from coordinates only for LAPACK, the pairing
<F_i, X_i> and blocks of mixed sizes, which `SpectraSet.map_blocks`
handles once per distinct size. Coordinates describe exactly Hermitian
blocks, whose lower triangle mirrors the upper one entry for entry, so
`linalg`, which uses its input as given, never gets a block that is
Hermitian only up to rounding.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import DomainError, NumericalFailure
from .linalg import (
    eig,
    eigvals,
    from_coordinates,
    hermitianize,
    to_coordinates,
    trace_inner,
)
from .mirror import gibbs_map

FEASIBILITY_PSD_TOL = 1e-9
FEASIBILITY_TRACE_TOL = 1e-8
# Hermitian coordinates (32 KiB) in one block of a batch's noise draws,
# drawn from twice as many normals
NOISE_BLOCK_ENTRIES = 4096


class TraceMode(enum.Enum):
    """Trace constraint flavor: density-style equality or power-cap bound."""

    EQUAL = "eq"
    AT_MOST = "le"


def pad_blocks(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The profile diag(mats[0], ..., mats[N-1]) as its zero-padded
    complex array, shape (N, D, D) for the largest block dimension D."""
    D = max(len(b) for b in mats)
    out = np.zeros((len(mats), D, D), dtype=complex)
    for i, b in enumerate(map(np.asarray, mats)):
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"block {i} is not square: shape {b.shape}")
        out[i, :len(b), :len(b)] = b
    return out


@dataclass(frozen=True)
class SpectraSet:
    """The feasible set of the VI: one spectrahedron {X_i PSD,
    tr X_i (= or <=) bound} per block, of dimension dims[i]. Every block
    has the same trace bound and mode."""

    dims: tuple[int, ...]
    bound: float = 1.0
    mode: TraceMode = TraceMode.EQUAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        if not self.dims:
            raise ValueError("constraint set needs at least one block")
        if min(self.dims) < 1:
            raise ValueError(f"block dimensions must be >= 1, got {self.dims}")
        if not 0 < self.bound < math.inf:
            raise ValueError(
                f"trace bound must be finite and positive, got {self.bound}")

    @property
    def total_dim(self) -> int:
        """Dimension of the block-diagonal ambient matrix, sum of block dims."""
        return sum(self.dims)

    def zeros(self, *lead: int) -> np.ndarray:
        """The zero profile, with leading axes of the given lengths."""
        D = max(self.dims)
        return np.zeros(lead + (len(self.dims), D, D), dtype=complex)

    def blocks(self, X: np.ndarray) -> tuple[np.ndarray, ...]:
        """The blocks of profile X, as views of its corners."""
        return tuple(X[..., i, :d, :d] for i, d in enumerate(self.dims))

    def map_blocks(self, fn: Callable[..., np.ndarray],
                   *profiles: np.ndarray) -> np.ndarray:
        """fn(*profiles) on their blocks, as one block-ordered array.

        fn takes stacks of equal-size blocks, shape (..., n, d, d), and
        returns one value per block, shape (..., n, *tail) with one tail
        for every size, or one d x d matrix per block. With blocks of one
        size, fn gets the profiles themselves. Otherwise it is called once
        per size on the gathered corners, and its results are scattered
        back in block order: values into shape (..., N, *tail), matrices
        into the corners of a zero-padded (..., N, D, D) array. A
        NumericalFailure from fn has its `block` diagnostic translated to
        a block number."""
        dims = self.dims
        if min(dims) == max(dims):
            return _blockwise(fn, profiles, range(len(dims)))
        # The block axis is indexed explicitly: a trailing `...` would
        # put per-block values of a single profile on the wrong axis.
        lead = (slice(None),) * (profiles[0].ndim - 3)
        out = None
        for d in dict.fromkeys(dims):
            index = np.flatnonzero(np.array(dims) == d)
            corner = lead + (index, slice(d), slice(d))
            part = _blockwise(fn, [P[corner] for P in profiles], index)
            head, tail = part.shape[:len(lead)], part.shape[len(lead) + 1:]
            matrices = tail == (d, d)
            if out is None:
                D = max(dims)
                out = np.zeros(head + (len(dims),)
                               + ((D, D) if matrices else tail), part.dtype)
            out[corner if matrices else lead + (index,)] = part
        return out


def check_shape(x: np.ndarray, dims: tuple[int, ...]) -> None:
    """Raise DomainError unless x has the shape (..., N, D^2) of the
    Hermitian coordinates of profiles of N blocks of sizes `dims`, D the
    largest."""
    D = max(dims)
    if x.shape[-2:] != (len(dims), D * D):
        raise DomainError(f"profile shape {x.shape} does not match set "
                          f"dims {dims}")


def _blockwise(fn: Callable[..., np.ndarray], arrays: Sequence[np.ndarray],
               index: Sequence[int]) -> np.ndarray:
    """fn(*arrays) on stacks of the blocks `index`; a NumericalFailure's
    `block`, counted along the flattened leading axes, becomes the block
    number."""
    try:
        return fn(*arrays)
    except NumericalFailure as exc:
        block = exc.diagnostics.get("block")
        if isinstance(block, int):
            exc.diagnostics["block"] = int(index[block % len(index)])
        raise


def profile_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Real trace pairing summed over blocks: sum_i Re tr(A_i B_i)."""
    return sum(trace_inner(a, b) for a, b in zip(A, B, strict=True))


def assert_feasible(x: np.ndarray, cset: SpectraSet,
                    psd_tol: float = FEASIBILITY_PSD_TOL,
                    trace_tol: float = FEASIBILITY_TRACE_TOL) -> None:
    """Raise DomainError unless every block of the profiles whose
    Hermitian coordinates are x, shape (..., N, D^2), is PSD with a
    conforming trace.

    A profile passes when its blocks' diagonal sums conform and its
    blocks are PSD to psd_tol. When every block is 2x2, PSD means
    mu - r >= -psd_tol in the closed form of `linalg.spectrum_2x2`,
    taken straight from the coordinates: the lambda_min that `eigvals`
    gives the failure path, bit for bit, with no LAPACK call. Other
    sizes pass when X + psd_tol I has a Cholesky factor: one batched
    `linalg.cholesky` call per block size, made straight from the
    coordinates when all blocks have one size. Otherwise the eigenvalues
    decide, and only then are they computed: a block fails when
    lambda_min < -psd_tol or the sum of its eigenvalues is out of bound,
    and the message names the first failing block (of the first failing
    cell, when x has a cell axis)."""
    check_shape(x, cset.dims)
    D = max(cset.dims)
    bound, capped = cset.bound, cset.mode is TraceMode.AT_MOST
    same = min(cset.dims) == D

    def trace_ok(tr: np.ndarray) -> np.ndarray:
        return (tr <= bound + trace_tol if capped
                else np.abs(tr - bound) <= trace_tol)

    def conforms(Xg: np.ndarray) -> np.ndarray:
        if same and D == 2:
            mu, _, r = linalg.spectrum_2x2(Xg)
            return trace_ok(Xg[..., 0] + Xg[..., 1]) & (mu - r >= -psd_tol)
        if same:
            psd = linalg.cholesky(from_coordinates(Xg, D, plus=psd_tol))
            # Summed as complex numbers, as np.trace sums the profile's
            # diagonal: a real sum adds in another order.
            tr = Xg[..., :D].astype(complex).sum(axis=-1).real
        else:
            psd = linalg.cholesky(Xg + psd_tol * np.eye(Xg.shape[-1]))
            tr = np.trace(Xg, axis1=-2, axis2=-1).real
        return trace_ok(tr) & (psd is not None)

    if cset.map_blocks(conforms, x if same else from_coordinates(x, D)).all():
        return

    def margins(Xg: np.ndarray) -> np.ndarray:
        w = eigvals(Xg)
        return np.stack((w[..., -1], np.sum(w, axis=-1)), axis=-1)

    N = len(cset.dims)
    lam_min, tr = np.moveaxis(cset.map_blocks(
        margins, from_coordinates(x, D)).reshape(-1, N, 2), -1, 0)
    not_psd = lam_min < -psd_tol
    bad = not_psd | ~trace_ok(tr)
    if not bad.any():
        return
    cell = int(np.argmax(bad.any(axis=1)))
    lam_min, tr, not_psd = lam_min[cell], tr[cell], not_psd[cell]
    i = int(np.argmax(bad[cell]))
    if not_psd[i]:
        raise DomainError(f"block {i} not PSD: lambda_min = {lam_min[i]:.3e}")
    if capped:
        raise DomainError(
            f"block {i} trace {tr[i]:.12g} exceeds bound {bound:.12g}")
    raise DomainError(f"block {i} trace {tr[i]:.12g} != bound {bound:.12g}")


@dataclass(frozen=True)
class NoiseModel:
    """Additive Hermitian Gaussian oracle noise; sigma = 0 means none.

    Each noise block is the Hermitian part of a matrix with i.i.d.
    circularly symmetric complex Gaussian entries of variance sigma^2,
    so the noise is zero-mean by construction. A batch of cells has one
    sigma per cell, as an array.
    """

    sigma: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma)
        if not np.all(np.isfinite(sigma) & (sigma >= 0)):
            raise ValueError(
                f"noise level must be finite and >= 0, got {self.sigma}")

    @functools.cached_property
    def noisy(self) -> CellMask:
        """The cells (or the one problem) with sigma > 0."""
        return cell_mask(np.asarray(self.sigma) > 0)

    def sample(self, dims: tuple[int, ...],
               rng: np.random.Generator | Sequence[np.random.Generator],
               count: int | None = None) -> np.ndarray:
        """The Hermitian coordinates, shape (N, D^2), of one noise profile
        from a single draw of normals; with `count`, those of that many
        consecutive profiles stacked on a new leading axis.

        The draw is block-ordered, real part then imaginary part of each
        block, so it consumes the stream exactly as drawing block by
        block would. The `count` profiles come from one draw of `count`
        times as many normals, which consumes the stream exactly as
        `count` single draws do and gives their profiles bit for bit.
        Given a list of generators, one per cell, each cell with sigma > 0
        draws from its own generator exactly as alone, and the draws are
        stacked along a cell axis (after the count axis); cells with
        sigma = 0 get zeros and leave their stream untouched. Blocks of
        several sizes are zero-padded. A block is the Hermitian part of
        s (G + i G'), s = sigma / sqrt(2): entry (k, l) is
        s (G_kl + G_lk) / 2 + i s (G'_kl - G'_lk) / 2, each part added
        and halved on the scaled normals (see `_noise_pairs`).
        """
        dims = tuple(dims)
        N, D = len(dims), max(dims)
        sizes = [2 * d * d for d in dims]
        cells = isinstance(rng, (list, tuple))
        rngs = rng if cells else [rng]
        sigma = np.asarray(self.sigma).reshape(-1)
        lead = (len(rngs), 1 if count is None else count)
        G = np.zeros(lead + (sum(sizes),))
        for c, level in enumerate(sigma.tolist()):
            if level > 0:
                rngs[c].standard_normal(out=G[c])
        G *= (sigma / math.sqrt(2.0))[:, None, None]
        if min(dims) < D:
            pieces = np.split(G, np.cumsum(sizes)[:-1], axis=-1)
            G = np.zeros(lead + (N, 2, D, D))
            for i, (d, piece) in enumerate(zip(dims, pieces)):
                G[..., i, :, :d, :d] = piece.reshape(lead + (2, d, d))
        G = G.reshape(lead + (N, 2 * D * D)).swapaxes(0, 1)
        first, second, sign = _noise_pairs(D)
        Z = G.take(first, axis=-1)
        Z += sign * G.take(second, axis=-1)
        Z *= 0.5
        Z = Z if cells else Z[:, 0]
        return Z if count is not None else Z[0]


@functools.lru_cache(maxsize=None)
def _noise_pairs(D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the Hermitian coordinates (`linalg`) of a D x D noise block
    come from in its normals G, the real and then the imaginary D x D
    part: coordinate p is (G[first[p]] + sign[p] G[second[p]]) / 2, its
    part of entries (k, l) and (l, k), added for the real part and
    subtracted for the imaginary part."""
    parts = np.arange(2 * D * D).reshape(2, D, D)
    first, second = (parts.transpose(axes).reshape(-1)
                     for axes in ((1, 2, 0), (2, 1, 0)))
    take = linalg._hermitian_coordinates(D)[0]
    return first[take], second[take], np.tile([1.0, -1.0], D * D)[take]


@dataclass(frozen=True)
class SviProblem:
    """Constraint set, deterministic mapping, noise model, oracle bound.

    `mapping` evaluates F at the profiles whose Hermitian coordinates it
    is given, shape (..., N, D^2), as coordinates.
    `oracle_bound` is the constant C with E ||Phi(X, xi)||_2^2 <= C^2 over
    feasible X; it bounds the full noisy oracle, not just the mean part,
    and feeds the horizon-tuned constant stepsize.

    `stack_problems` turns the problems of several cells into one over a
    cell axis. A mapping class with a `stack(mappings)` classmethod (the
    MIMO game's) then evaluates all cells in one call; any other mapping
    is called cell by cell.
    """

    constraints: SpectraSet
    mapping: Callable[[np.ndarray], np.ndarray]
    noise: NoiseModel = NoiseModel()
    oracle_bound: float | np.ndarray = 1.0

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.oracle_bound) <= 0):
            raise ValueError(
                f"oracle bound must be positive, got {self.oracle_bound}")


def stack_problems(problems: Sequence[SviProblem]) -> SviProblem:
    """The problems of several cells as one problem over a cell axis:
    cell c of a stacked profile is mapped by problems[c].mapping, and the
    noise level and oracle bound become per-cell arrays."""
    cset = problems[0].constraints
    if any(p.constraints != cset for p in problems):
        raise ValueError("the cells of a batch must share one constraint set")
    mappings = [p.mapping for p in problems]
    kind = type(mappings[0])
    if hasattr(kind, "stack") and all(type(m) is kind for m in mappings):
        mapping = kind.stack(mappings)
    else:
        def mapping(x: np.ndarray) -> np.ndarray:
            return np.stack([f(x[c]) for c, f in enumerate(mappings)])
    return SviProblem(
        cset, mapping,
        NoiseModel(np.array([p.noise.sigma for p in problems])),
        np.array([p.oracle_bound for p in problems]))


class CellMask(NamedTuple):
    """A boolean per cell, and whether it holds for every cell and for
    some: built once for a batch, it spares each `select_cells` its
    reductions."""

    where: np.ndarray
    every: bool
    some: bool


def cell_mask(mask: np.ndarray) -> CellMask:
    """The CellMask of a boolean per cell, shape (C,)."""
    mask = np.asarray(mask, dtype=bool)
    return CellMask(mask, bool(mask.all()), bool(mask.any()))


def select_cells(mask: np.ndarray | CellMask, A: np.ndarray,
                 B: np.ndarray) -> np.ndarray:
    """Cell c from A where mask[c] holds, else from B, for a boolean
    per cell or its `cell_mask`; A and B have the cell axis first.
    Unlike adding a zero term, this leaves B's cells bit for bit as they
    are."""
    if not isinstance(mask, CellMask):
        mask = cell_mask(mask)
    if mask.every:
        return A
    if not mask.some:
        return B
    where = mask.where
    return np.where(where.reshape(where.shape + (1,) * (A.ndim - 1)), A, B)


def noise_draws(problem: SviProblem, rngs: Sequence[np.random.Generator],
                calls: int) -> Iterator[np.ndarray | None]:
    """The noise of a stacked problem's next `calls` oracle calls, one
    profile's Hermitian coordinates with a cell axis per call, shape
    (C, N, D^2), for the generators `rngs`.

    Each block of K calls is one `NoiseModel.sample`, drawn when it is
    reached: K is the most that fits NOISE_BLOCK_ENTRIES (at least 1),
    and no block goes past the last call. Each cell's stream is consumed
    exactly as with one draw per call, and its noise is bit for bit that
    of one `NoiseModel.sample` per call. With no noisy cell nothing is
    drawn, and each call's noise is None.
    """
    cset = problem.constraints
    if not problem.noise.noisy.some:
        yield from itertools.repeat(None, calls)
        return
    K = max(1, NOISE_BLOCK_ENTRIES
            // (len(rngs) * len(cset.dims) * max(cset.dims) ** 2))
    for start in range(0, calls, K):
        yield from problem.noise.sample(cset.dims, rngs,
                                        min(K, calls - start))


def oracle_sample(problem: SviProblem, x: np.ndarray,
                  rng: np.random.Generator | Sequence[np.random.Generator],
                  F: np.ndarray | None = None, Z: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One stochastic oracle call at the profile whose Hermitian
    coordinates are x: returns (F(X) + Z, Z), as coordinates.

    The rng stream is consumed only when the noise level is nonzero, and
    is passed explicitly so a seed fixes the sample path regardless of
    scheduling. Pass F when the mapping's value at X is already known.
    For a stacked problem, X has a cell axis and rng is one generator
    per cell; cells with sigma = 0 get F(X) itself. Pass Z when this
    call's noise is drawn already (`noise_draws`); with Z = None it is
    drawn now. With no noisy cell, nothing is drawn or added: the call
    returns F(X) and zeros.
    """
    check_shape(x, problem.constraints.dims)
    if F is None:
        F = problem.mapping(x)
    noisy = problem.noise.noisy
    if not noisy.some:
        return F, np.zeros_like(F)
    if Z is None:
        Z = problem.noise.sample(problem.constraints.dims, rng)
    return select_cells(noisy, F + Z, F), Z


def best_response(F: np.ndarray, cset: SpectraSet) -> np.ndarray:
    """Blockwise minimizer of tr(F_i Z_i) over the constraint set.

    For a trace-equality block the minimizer is bound * (bottom
    eigenvector projector); with a trace cap the zero matrix wins
    whenever lambda_min(F_i) >= 0.
    """
    blocks = []
    for Fi in cset.blocks(F):
        w, V = eig(Fi)
        if cset.mode is TraceMode.AT_MOST and w[-1] >= 0:
            blocks.append(np.zeros_like(Fi))
            continue
        v = V[:, -1]
        blocks.append(cset.bound * hermitianize(np.outer(v, v.conj())))
    return pad_blocks(blocks)


def strong_gap(problem: SviProblem, x: np.ndarray,
               F: np.ndarray | None = None) -> float | np.ndarray:
    """sup_Z tr(F(X)(X - Z)) over the constraint set, in closed form, at
    the profile whose Hermitian coordinates are x.

    The supremum of a linear functional over a spectrahedron is an
    eigenvalue problem: per block, inf_Z tr(F_i Z_i) equals
    bound * lambda_min(F_i) under trace equality and
    bound * min(0, lambda_min(F_i)) under a trace cap. Zero exactly at
    strong solutions; nonnegative on feasible profiles. The block terms
    are added in block order. Pass F, as coordinates, when the mapping's
    value at x is already known. With a cell axis on x, returns one gap
    per cell. lambda_min of 2x2 blocks comes from `linalg.spectrum_2x2`
    on the coordinates; complex blocks are built for the pairing
    <F_i, X_i>, for LAPACK and, with blocks of mixed sizes, for
    `SpectraSet.map_blocks`.
    """
    cset = problem.constraints
    check_shape(x, cset.dims)
    D = max(cset.dims)
    if F is None:
        F = problem.mapping(x)
    same = min(cset.dims) == D

    def terms(f: np.ndarray, x: np.ndarray) -> np.ndarray:
        Fg = from_coordinates(f, D) if same else f
        if same and D == 2:
            mu, _, r = linalg.spectrum_2x2(f)
            lam_min = mu - r
        else:
            lam_min = eigvals(Fg)[..., -1]
        if cset.mode is TraceMode.AT_MOST:
            lam_min = np.minimum(lam_min, 0.0)
        Xg = from_coordinates(x, D) if same else x
        inner = np.sum(Fg * Xg.swapaxes(-1, -2), axis=(-2, -1)).real
        return inner - cset.bound * lam_min

    if not same:
        F, x = from_coordinates(F, D), from_coordinates(x, D)
    gaps = np.add.accumulate(cset.map_blocks(terms, F, x), axis=-1)[..., -1]
    return float(gaps) if gaps.ndim == 0 else gaps


def random_feasible_profile(cset: SpectraSet,
                            rng: np.random.Generator) -> np.ndarray:
    """Full-support sample of the constraint set, without rejection.

    Each block is a random Hermitian matrix pushed through the Gibbs map
    (trace exactly the bound); under a trace cap it is additionally
    shrunk by a uniform factor to cover the interior.
    """
    blocks = []
    for d in cset.dims:
        X = gibbs_map(linalg.random_hermitian(rng, d))
        scale = cset.bound
        if cset.mode is TraceMode.AT_MOST:
            scale *= float(rng.uniform())
        blocks.append(scale * X)
    return pad_blocks(blocks)


def monotonicity_witness(problem: SviProblem, x: np.ndarray,
                         y: np.ndarray) -> float:
    """tr((X - Y)(F(X) - F(Y))) at the profiles whose Hermitian
    coordinates are x and y; nonnegative iff the mapping is monotone."""
    D = max(problem.constraints.dims)
    return profile_inner(
        from_coordinates(x - y, D),
        from_coordinates(problem.mapping(x) - problem.mapping(y), D))


def quadratic_test_problem(B: np.ndarray, cset: SpectraSet,
                           sigma: float = 0.0) -> SviProblem:
    """VI with mapping F(X) = X - B, the gradient of 0.5 ||X - B||_F^2,
    for a Hermitian target profile B; the mapping takes and gives
    Hermitian coordinates, x - b.

    Its unique solution is the Euclidean projection of B onto the
    constraint set, which an independent projection oracle can verify.
    The oracle bound is analytic: ||X_i - B_i||_2 <= bound + ||B_i||_2
    per block, plus a spectral-norm margin for the noise when sigma > 0.
    A target that is not exactly Hermitian is refused: its coordinates
    would keep the upper triangle alone.
    """
    if B.shape != cset.zeros().shape:
        raise DomainError(f"target shape {B.shape} does not match set "
                          f"dims {cset.dims}")
    if not np.array_equal(B, B.conj().swapaxes(-1, -2)):
        raise DomainError("target profile is not exactly Hermitian")
    C = cset.bound + linalg.spectral_norm(B)
    if sigma > 0:
        C += 3.0 * sigma * math.sqrt(max(cset.dims))
    b = to_coordinates(B.astype(complex))
    return SviProblem(
        constraints=cset,
        mapping=lambda x: x - b,
        noise=NoiseModel(sigma),
        oracle_bound=C,
    )
