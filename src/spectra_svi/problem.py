"""Block-structured stochastic variational inequality problems.

A problem couples a product constraint set, one PSD trace-constrained
spectrahedron per player block, with a deterministic monotone mapping F
acting blockwise and a noise model that turns F into the stochastic
oracle Phi(X, xi) = F(X) + Z. A profile of blocks is one zero-padded
complex array (`BlockProfile`); `SpectraSet.map_blocks` applies a
function of stacks of blocks to it, once per distinct block size. The
strong gap sup_Z tr(F(X)(X - Z)) lives here too, in closed form: a
minimum-eigenvalue problem per block.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import DomainError, NumericalFailure
from .linalg import eig, eigvals, hermitianize, trace_inner
from .mirror import gibbs_map

FEASIBILITY_PSD_TOL = 1e-9
FEASIBILITY_TRACE_TOL = 1e-8


class TraceMode(enum.Enum):
    """Trace constraint flavor: density-style equality or power-cap bound."""

    EQUAL = "eq"
    AT_MOST = "le"


class BlockProfile:
    """Ordered Hermitian blocks of a block-diagonal matrix diag(X_1,...,X_N).

    Construct from a sequence of square matrices or from one (N, d, d)
    stack. The blocks live in one zero-padded complex array `array`,
    shape (N, D, D) for the largest block dimension D: block i is the
    top-left dims[i] x dims[i] corner of array[i], and the rest of it is
    zero. Blocks of equal size make `array` the plain stack, and every
    operation on a profile is one numpy call on it. Supports the linear
    arithmetic the solvers need (addition, subtraction, scalar
    multiples), always returning new profiles. Norms follow
    block-diagonal semantics: the Frobenius norm adds across blocks in
    squares, the spectral norm is the blockwise maximum.

    A batched solver run gives `array` a leading cell axis, shape
    (C, N, D, D), one profile per cell (`stack`, `cells`). The
    arithmetic and the batched layers broadcast over it; indexing,
    `blocks` and the norms are for single profiles.
    """

    __slots__ = ("array", "dims")

    # Opt out of numpy ufunc dispatch: otherwise numpy_scalar * profile
    # broadcasts over the blocks instead of calling __rmul__.
    __array_ufunc__ = None

    def __init__(self, blocks: np.ndarray | Sequence[np.ndarray]):
        if isinstance(blocks, np.ndarray) and blocks.ndim == 3:
            self.array = blocks.astype(complex, copy=False)
            N, d, d2 = self.array.shape
            if d != d2:
                raise ValueError(f"blocks are not square: shape {blocks.shape}")
            self.dims = (d,) * N
            return
        mats = [np.asarray(b, dtype=complex) for b in blocks]
        for i, b in enumerate(mats):
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ValueError(f"block {i} is not square: shape {b.shape}")
        self.dims = tuple(len(b) for b in mats)
        D = max(self.dims)
        self.array = np.zeros((len(mats), D, D), dtype=complex)
        for i, b in enumerate(mats):
            self.array[i, :len(b), :len(b)] = b

    @classmethod
    def wrap(cls, array: np.ndarray, dims: tuple[int, ...]) -> "BlockProfile":
        """Wrap a padded array of blocks of these dims, without copying."""
        profile = object.__new__(cls)
        profile.array = array
        profile.dims = dims
        return profile

    @classmethod
    def stack(cls, profiles: Sequence["BlockProfile"]) -> "BlockProfile":
        """Single profiles of one dims as one profile with a cell axis."""
        return cls.wrap(np.stack([P.array for P in profiles]),
                        profiles[0].dims)

    @classmethod
    def concat(cls, profiles: Sequence["BlockProfile"]) -> "BlockProfile":
        """Profiles of one dims with a cell axis, one after the other."""
        return cls.wrap(np.concatenate([P.array for P in profiles]),
                        profiles[0].dims)

    def cells(self, c: int | slice | np.ndarray) -> "BlockProfile":
        """Cell c of a profile with a cell axis, or the cells a slice
        (both views) or an index array (a copy) selects."""
        return BlockProfile.wrap(self.array[c], self.dims)

    def __repr__(self) -> str:
        return f"BlockProfile(dims={self.dims})"

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, i: int) -> np.ndarray:
        d = self.dims[i]
        return self.array[i, :d, :d]

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(self[i] for i in range(len(self)))

    def _check_dims(self, other: "BlockProfile") -> None:
        if other.dims != self.dims:
            raise ValueError(
                f"profile dims {self.dims} and {other.dims} differ")

    def __add__(self, other: "BlockProfile") -> "BlockProfile":
        self._check_dims(other)
        return BlockProfile.wrap(self.array + other.array, self.dims)

    def __sub__(self, other: "BlockProfile") -> "BlockProfile":
        self._check_dims(other)
        return BlockProfile.wrap(self.array - other.array, self.dims)

    def __mul__(self, scalar: float) -> "BlockProfile":
        return BlockProfile.wrap(scalar * self.array, self.dims)

    __rmul__ = __mul__

    def frobenius_norm(self) -> float:
        return math.sqrt(sum(linalg.frobenius_norm(b) ** 2 for b in self.blocks))

    def spectral_norm(self) -> float:
        return max(linalg.spectral_norm(b) for b in self.blocks)


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

    def zeros(self) -> "BlockProfile":
        D = max(self.dims)
        return BlockProfile.wrap(
            np.zeros((len(self.dims), D, D), dtype=complex), self.dims)

    def map_blocks(self, fn: Callable[..., np.ndarray],
                   *profiles: BlockProfile) -> np.ndarray:
        """fn(*arrays) on the profiles' blocks, as one block-ordered array.

        fn takes stacks of equal-size blocks, shape (..., n, d, d), and
        returns one value per block, shape (..., n, *tail) with one tail
        for every size, or one d x d matrix per block. With blocks of one
        size, fn gets the profiles' arrays. Otherwise it is called once
        per size on the gathered corners, and its results are scattered
        back in block order: values into shape (..., N, *tail), matrices
        into the corners of a zero-padded (..., N, D, D) array. A
        NumericalFailure from fn has its `block` diagnostic translated to
        a block number."""
        dims, arrays = self.dims, [P.array for P in profiles]
        if min(dims) == max(dims):
            return _blockwise(fn, arrays, np.arange(len(dims)))
        # The block axis is indexed explicitly: a trailing `...` would
        # put per-block values of a single profile on the wrong axis.
        lead = (slice(None),) * (arrays[0].ndim - 3)
        out = None
        for d in dict.fromkeys(dims):
            index = np.flatnonzero(np.array(dims) == d)
            corner = lead + (index, slice(d), slice(d))
            part = _blockwise(fn, [a[corner] for a in arrays], index)
            head, tail = part.shape[:len(lead)], part.shape[len(lead) + 1:]
            matrices = tail == (d, d)
            if out is None:
                D = max(dims)
                out = np.zeros(head + (len(dims),)
                               + ((D, D) if matrices else tail), part.dtype)
            out[corner if matrices else lead + (index,)] = part
        return out


def _blockwise(fn: Callable[..., np.ndarray], arrays: list[np.ndarray],
               index: np.ndarray) -> np.ndarray:
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


def profile_inner(A: BlockProfile, B: BlockProfile) -> float:
    """Real trace pairing summed over blocks: sum_i Re tr(A_i B_i)."""
    return sum(trace_inner(a, b)
               for a, b in zip(A.blocks, B.blocks, strict=True))


def assert_feasible(X: BlockProfile, cset: SpectraSet,
                    psd_tol: float = FEASIBILITY_PSD_TOL,
                    trace_tol: float = FEASIBILITY_TRACE_TOL) -> None:
    """Raise DomainError unless every block is PSD with a conforming trace.

    The message names the first failing block (of the first failing cell,
    when X has a cell axis)."""
    if X.dims != cset.dims:
        raise DomainError(f"profile dims {X.dims} do not match set {cset.dims}")

    def margins(Xg: np.ndarray) -> np.ndarray:
        w = eigvals(Xg)
        return np.stack((w[..., -1], np.sum(w, axis=-1)), axis=-1)

    N = len(cset.dims)
    lam_min, tr = np.moveaxis(
        cset.map_blocks(margins, X).reshape(-1, N, 2), -1, 0)
    bound, capped = cset.bound, cset.mode is TraceMode.AT_MOST
    not_psd = lam_min < -psd_tol
    bad = not_psd | (tr > bound + trace_tol if capped
                     else np.abs(tr - bound) > trace_tol)
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

    def sample(self, dims: tuple[int, ...],
               rng: np.random.Generator | Sequence[np.random.Generator]
               ) -> BlockProfile:
        """One noise profile from a single draw of normals.

        The draw is block-ordered, real part then imaginary part of each
        block, so it consumes the stream exactly as drawing block by
        block would. Given a list of generators, one per cell, each cell
        with sigma > 0 draws from its own generator exactly as alone, and
        the draws are stacked along a cell axis; cells with sigma = 0 get
        zeros and leave their stream untouched. Blocks of several sizes
        are zero-padded as in `BlockProfile`.
        """
        dims = tuple(dims)
        N, D = len(dims), max(dims)
        sizes = [2 * d * d for d in dims]
        size = sum(sizes)
        sigma = np.asarray(self.sigma)
        if not isinstance(rng, (list, tuple)):
            if sigma == 0:
                return SpectraSet(dims).zeros()
            G = rng.standard_normal(size)
        else:
            G = np.zeros((len(rng), size))
            for c, level in enumerate(sigma.tolist()):
                if level > 0:
                    G[c] = rng[c].standard_normal(size)
            sigma = sigma[:, None, None, None]
        lead = G.shape[:-1]
        if min(dims) == D:
            G = G.reshape(lead + (N, 2, D, D))
        else:
            pieces = np.split(G, np.cumsum(sizes)[:-1], axis=-1)
            G = np.zeros(lead + (N, 2, D, D))
            for i, (d, piece) in enumerate(zip(dims, pieces)):
                G[..., i, :, :d, :d] = piece.reshape(lead + (2, d, d))
        s = sigma / math.sqrt(2.0)
        return BlockProfile.wrap(
            hermitianize(s * (G[..., 0, :, :] + 1j * G[..., 1, :, :])), dims)


@dataclass(frozen=True)
class SviProblem:
    """Constraint set, deterministic mapping, noise model, oracle bound.

    `mapping` evaluates the blockwise Hermitian values of F at a profile.
    `oracle_bound` is the constant C with E ||Phi(X, xi)||_2^2 <= C^2 over
    feasible X; it bounds the full noisy oracle, not just the mean part,
    and feeds the horizon-tuned constant stepsize.

    `stack_problems` turns the problems of several cells into one over a
    cell axis. A mapping class with a `stack(mappings)` classmethod (the
    MIMO game's) then evaluates all cells in one call; any other mapping
    is called cell by cell.
    """

    constraints: SpectraSet
    mapping: Callable[[BlockProfile], BlockProfile]
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
        def mapping(X: BlockProfile) -> BlockProfile:
            return BlockProfile.stack(
                [f(X.cells(c)) for c, f in enumerate(mappings)])
    return SviProblem(
        cset, mapping,
        NoiseModel(np.array([p.noise.sigma for p in problems])),
        np.array([p.oracle_bound for p in problems]))


def select_cells(mask: np.ndarray, A: BlockProfile,
                 B: BlockProfile) -> BlockProfile:
    """Cell c from A where mask[c] holds, else from B. Unlike adding a
    zero term, this leaves B's cells bit for bit as they are."""
    if mask.all():
        return A
    if not mask.any():
        return B
    return BlockProfile.wrap(
        np.where(mask[:, None, None, None], A.array, B.array), A.dims)


def oracle_sample(problem: SviProblem, X: BlockProfile,
                  rng: np.random.Generator | Sequence[np.random.Generator],
                  F: BlockProfile | None = None
                  ) -> tuple[BlockProfile, BlockProfile]:
    """One stochastic oracle call: returns (F(X) + Z, Z).

    The rng stream is consumed only when the noise level is nonzero, and
    is passed explicitly so a seed fixes the sample path regardless of
    scheduling. Pass F when the mapping's value at X is already known.
    For a stacked problem, X has a cell axis and rng is one generator
    per cell; cells with sigma = 0 get F(X) itself.
    """
    if F is None:
        F = problem.mapping(X)
    Z = problem.noise.sample(X.dims, rng)
    return select_cells(np.asarray(problem.noise.sigma) > 0, F + Z, F), Z


def best_response(F: BlockProfile, cset: SpectraSet) -> BlockProfile:
    """Blockwise minimizer of tr(F_i Z_i) over the constraint set.

    For a trace-equality block the minimizer is bound * (bottom
    eigenvector projector); with a trace cap the zero matrix wins
    whenever lambda_min(F_i) >= 0.
    """
    blocks = []
    for Fi in F.blocks:
        w, V = eig(Fi)
        if cset.mode is TraceMode.AT_MOST and w[-1] >= 0:
            blocks.append(np.zeros_like(Fi))
            continue
        v = V[:, -1]
        blocks.append(cset.bound * hermitianize(np.outer(v, v.conj())))
    return BlockProfile(tuple(blocks))


def strong_gap(problem: SviProblem, X: BlockProfile,
               F: BlockProfile | None = None) -> float | np.ndarray:
    """sup_Z tr(F(X)(X - Z)) over the constraint set, in closed form.

    The supremum of a linear functional over a spectrahedron is an
    eigenvalue problem: per block, inf_Z tr(F_i Z_i) equals
    bound * lambda_min(F_i) under trace equality and
    bound * min(0, lambda_min(F_i)) under a trace cap. Zero exactly at
    strong solutions; nonnegative on feasible profiles. The block terms
    are added in block order. Pass F when the mapping's value at X is
    already known. With a cell axis on X, returns one gap per cell.
    """
    cset = problem.constraints

    def terms(Fg: np.ndarray, Xg: np.ndarray) -> np.ndarray:
        lam_min = eigvals(Fg)[..., -1]
        if cset.mode is TraceMode.AT_MOST:
            lam_min = np.minimum(lam_min, 0.0)
        inner = np.sum(Fg * Xg.swapaxes(-1, -2), axis=(-2, -1)).real
        return inner - cset.bound * lam_min

    if F is None:
        F = problem.mapping(X)
    gaps = np.add.accumulate(cset.map_blocks(terms, F, X), axis=-1)[..., -1]
    return float(gaps) if gaps.ndim == 0 else gaps


def random_feasible_profile(cset: SpectraSet,
                            rng: np.random.Generator) -> BlockProfile:
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
    return BlockProfile(tuple(blocks))


def monotonicity_witness(problem: SviProblem, X: BlockProfile,
                         Y: BlockProfile) -> float:
    """tr((X - Y)(F(X) - F(Y))); nonnegative iff the mapping is monotone."""
    return profile_inner(X - Y, problem.mapping(X) - problem.mapping(Y))


def quadratic_test_problem(B: BlockProfile, cset: SpectraSet,
                           sigma: float = 0.0) -> SviProblem:
    """VI with mapping F(X) = X - B, the gradient of 0.5 ||X - B||_F^2.

    Its unique solution is the Euclidean projection of B onto the
    constraint set, which an independent projection oracle can verify.
    The oracle bound is analytic: ||X_i - B_i||_2 <= bound + ||B_i||_2
    per block, plus a spectral-norm margin for the noise when sigma > 0.
    """
    if B.dims != cset.dims:
        raise DomainError(f"target dims {B.dims} do not match set {cset.dims}")
    C = max(cset.bound + linalg.spectral_norm(Bi) for Bi in B.blocks)
    if sigma > 0:
        C += 3.0 * sigma * math.sqrt(max(cset.dims))
    return SviProblem(
        constraints=cset,
        mapping=lambda X: X - B,
        noise=NoiseModel(sigma),
        oracle_bound=C,
    )
