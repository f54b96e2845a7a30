"""Block-structured stochastic variational inequality problems.

A problem couples a product constraint set, one PSD trace-constrained
spectrahedron per player block, with a deterministic monotone mapping F
acting blockwise and a noise model that turns F into the stochastic
oracle Phi(X, xi) = F(X) + Z. Both merit functions live here: the strong
gap sup_Z tr(F(X)(X - Z)) in closed form (a minimum-eigenvalue problem
per block) and a sampled lower bound on the weak gap
sup_Z tr(F(Z)(X - Z)).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import DomainError, NumericalFailure
from .linalg import eig, hermitianize, trace_inner
from .mirror import gibbs_map

FEASIBILITY_PSD_TOL = 1e-9
FEASIBILITY_TRACE_TOL = 1e-8


class TraceMode(enum.Enum):
    """Trace constraint flavor: density-style equality or power-cap bound."""

    EQUAL = "eq"
    AT_MOST = "le"


@dataclass(frozen=True)
class BlockSpec:
    """One factor of the constraint set: {X PSD, tr X (= or <=) bound}."""

    dim: int
    bound: float = 1.0
    mode: TraceMode = TraceMode.EQUAL

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"block dimension must be >= 1, got {self.dim}")
        if self.bound <= 0:
            raise ValueError(f"trace bound must be positive, got {self.bound}")


class BlockLayout(NamedTuple):
    """How a profile with these block dims is stored: blocks of equal
    dimension share one (n, d, d) stack, and the stacks are ordered by
    their dimension's first appearance.

    `groups[k]` is (d, block numbers in stack k); `where[i]` is (stack,
    position) of block i; `draw_index[k]` picks stack k's real and
    imaginary noise parts, shape (n, 2, d, d), out of one block-ordered
    draw of `draw_size` normals.
    """

    dims: tuple[int, ...]
    groups: tuple[tuple[int, np.ndarray], ...]
    where: tuple[tuple[int, int], ...]
    draw_size: int
    draw_index: tuple[np.ndarray, ...]


@functools.lru_cache(maxsize=None)
def block_layout(dims: tuple[int, ...]) -> BlockLayout:
    starts = np.cumsum([0] + [2 * d * d for d in dims])
    groups, where, draw_index = [], [None] * len(dims), []
    for k, d in enumerate(dict.fromkeys(dims)):
        index = np.array([i for i, di in enumerate(dims) if di == d])
        groups.append((d, index))
        for pos, i in enumerate(index):
            where[i] = (k, pos)
        draw_index.append(starts[index][:, None, None, None]
                          + np.arange(2 * d * d).reshape(2, d, d))
    return BlockLayout(tuple(dims), tuple(groups), tuple(where),
                       int(starts[-1]), tuple(draw_index))


class BlockProfile:
    """Ordered Hermitian blocks of a block-diagonal matrix diag(X_1,...,X_N).

    Construct from a sequence of square matrices or from one (N, d, d)
    stack. Blocks are stored stacked, one complex (n, d, d) array per
    distinct dimension (see `BlockLayout`), so a profile of equal-size
    blocks is a single array and every operation on it is one numpy
    call. Supports the linear arithmetic the solvers need (addition,
    subtraction, scalar multiples), always returning new profiles. Norms
    follow block-diagonal semantics: Frobenius and trace norms add across
    blocks, the spectral norm is the blockwise maximum.

    A batched solver run gives its stacks a leading cell axis, shape
    (C, n, d, d), one profile per cell (`stack`, `cells`). The
    arithmetic and the batched layers broadcast over it; indexing,
    `blocks` and the norms are for single profiles.
    """

    __slots__ = ("parts", "layout")

    # Opt out of numpy ufunc dispatch: otherwise numpy_scalar * profile
    # broadcasts over the blocks instead of calling __rmul__.
    __array_ufunc__ = None

    def __init__(self, blocks: np.ndarray | Sequence[np.ndarray]):
        if isinstance(blocks, np.ndarray) and blocks.ndim == 3:
            stack = blocks.astype(complex, copy=False)
            if stack.shape[1] != stack.shape[2]:
                raise ValueError(f"blocks are not square: shape {stack.shape}")
            self.parts = (stack,)
            self.layout = block_layout((stack.shape[1],) * stack.shape[0])
            return
        mats = [np.asarray(b, dtype=complex) for b in blocks]
        for i, b in enumerate(mats):
            if b.ndim != 2 or b.shape[0] != b.shape[1]:
                raise ValueError(f"block {i} is not square: shape {b.shape}")
        self.layout = block_layout(tuple(b.shape[0] for b in mats))
        self.parts = tuple(np.stack([mats[i] for i in index])
                           for _, index in self.layout.groups)

    @classmethod
    def from_parts(cls, parts: tuple[np.ndarray, ...],
                   layout: BlockLayout) -> "BlockProfile":
        """Wrap stacks already arranged as `layout` says, without copying."""
        profile = object.__new__(cls)
        profile.parts = parts
        profile.layout = layout
        return profile

    @classmethod
    def zeros(cls, layout: BlockLayout) -> "BlockProfile":
        return cls.from_parts(tuple(
            np.zeros((len(index), d, d), dtype=complex)
            for d, index in layout.groups), layout)

    @classmethod
    def stack(cls, profiles: Sequence["BlockProfile"]) -> "BlockProfile":
        """Single profiles of one layout as one profile with a cell axis."""
        return cls.from_parts(tuple(
            np.stack([P.parts[k] for P in profiles])
            for k in range(len(profiles[0].parts))), profiles[0].layout)

    def cells(self, c: int) -> "BlockProfile":
        """Cell c of a profile with a cell axis, as a view."""
        return BlockProfile.from_parts(
            tuple(p[c] for p in self.parts), self.layout)

    def __repr__(self) -> str:
        return f"BlockProfile(dims={self.dims})"

    def __len__(self) -> int:
        return len(self.layout.dims)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, i: int) -> np.ndarray:
        k, pos = self.layout.where[i]
        return self.parts[k][pos]

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        if len(self.parts) == 1:
            return tuple(self.parts[0])
        return tuple(self[i] for i in range(len(self)))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.layout.dims

    def _check_layout(self, other: "BlockProfile") -> None:
        if other.layout is not self.layout and other.dims != self.dims:
            raise ValueError(
                f"profile dims {self.dims} and {other.dims} differ")

    def __add__(self, other: "BlockProfile") -> "BlockProfile":
        self._check_layout(other)
        return BlockProfile.from_parts(
            tuple(a + b for a, b in zip(self.parts, other.parts)), self.layout)

    def __sub__(self, other: "BlockProfile") -> "BlockProfile":
        self._check_layout(other)
        return BlockProfile.from_parts(
            tuple(a - b for a, b in zip(self.parts, other.parts)), self.layout)

    def __mul__(self, scalar: float) -> "BlockProfile":
        return BlockProfile.from_parts(
            tuple(scalar * p for p in self.parts), self.layout)

    __rmul__ = __mul__

    def frobenius_norm(self) -> float:
        return math.sqrt(sum(linalg.frobenius_norm(b) ** 2 for b in self.blocks))

    def trace_norm(self) -> float:
        return sum(linalg.trace_norm(b) for b in self.blocks)

    def spectral_norm(self) -> float:
        return max(linalg.spectral_norm(b) for b in self.blocks)


class BlockGroup(NamedTuple):
    """Blocks of a constraint set that share one dimension and trace mode.

    A profile holds them at `parts[part][select]`; `index` are their
    block numbers and `bound` their trace bounds, shape (n, 1, 1).
    """

    part: int
    select: slice | np.ndarray
    index: np.ndarray
    mode: TraceMode
    bound: np.ndarray


@dataclass(frozen=True)
class SpectraSet:
    """Product of per-block spectrahedra; the feasible set of the VI."""

    blocks: tuple[BlockSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("constraint set needs at least one block")

    @classmethod
    def single(cls, dim: int, bound: float = 1.0,
               mode: TraceMode = TraceMode.EQUAL) -> "SpectraSet":
        return cls((BlockSpec(dim, bound, mode),))

    @classmethod
    def uniform(cls, count: int, dim: int, bound: float = 1.0,
                mode: TraceMode = TraceMode.EQUAL) -> "SpectraSet":
        return cls(tuple(BlockSpec(dim, bound, mode) for _ in range(count)))

    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.dim for b in self.blocks)

    @property
    def total_dim(self) -> int:
        """Dimension of the block-diagonal ambient matrix, sum of block dims."""
        return sum(b.dim for b in self.blocks)

    @functools.cached_property
    def layout(self) -> BlockLayout:
        return block_layout(self.dims)

    @functools.cached_property
    def groups(self) -> tuple[BlockGroup, ...]:
        """Blocks grouped by (dim, mode), in stack order then mode order."""
        groups = []
        for k, (_, index) in enumerate(self.layout.groups):
            modes = [self.blocks[i].mode for i in index]
            for mode in dict.fromkeys(modes):
                local = np.array([p for p, m in enumerate(modes) if m is mode])
                groups.append(BlockGroup(
                    k, slice(None) if len(local) == len(index) else local,
                    index[local], mode,
                    self.bounds[index[local], None, None]))
        return tuple(groups)

    @functools.cached_property
    def bounds(self) -> np.ndarray:
        return np.array([b.bound for b in self.blocks])

    @functools.cached_property
    def capped(self) -> np.ndarray:
        """True where the trace is capped (AT_MOST), False where fixed."""
        return np.array([b.mode is TraceMode.AT_MOST for b in self.blocks])

    def zeros(self) -> "BlockProfile":
        return BlockProfile.zeros(self.layout)

    def map_groups(self, fn: Callable[..., np.ndarray],
                   *profiles: BlockProfile) -> list[np.ndarray]:
        """fn(group, *stacks) once per (dim, mode) group, where stacks are
        the group's blocks of each profile (after any cell axis). A
        NumericalFailure from fn has its `block` diagnostic translated to
        a block number."""
        out = []
        for g in self.groups:
            try:
                out.append(fn(g, *(P.parts[g.part][..., g.select, :, :]
                                   for P in profiles)))
            except NumericalFailure as exc:
                block = exc.diagnostics.get("block")
                if isinstance(block, int):
                    exc.diagnostics["block"] = int(
                        g.index[block % len(g.index)])
                raise
        return out

    def assemble(self, stacks: list[np.ndarray]) -> BlockProfile:
        """Profile from one (..., n, d, d) stack per group, as map_groups
        gives."""
        parts = tuple(stacks)
        if len(stacks) != len(self.layout.groups):
            lead = stacks[0].shape[:-3]
            parts = tuple(np.empty(lead + (len(index), d, d), dtype=complex)
                          for d, index in self.layout.groups)
            for g, stack in zip(self.groups, stacks, strict=True):
                parts[g.part][..., g.select, :, :] = stack
        return BlockProfile.from_parts(parts, self.layout)

    def per_block(self, values: list[np.ndarray]) -> np.ndarray:
        """Block-ordered array, shape (..., N), from one value array per
        group."""
        if len(values) == 1:
            return values[0]
        out = np.empty(values[0].shape[:-1] + (len(self.blocks),),
                       dtype=values[0].dtype)
        for g, v in zip(self.groups, values, strict=True):
            out[..., g.index] = v
        return out


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
    w = cset.map_groups(lambda g, Xg: eig(Xg).eigenvalues, X)
    N = len(cset.blocks)
    lam_min = cset.per_block([v[..., -1] for v in w]).reshape(-1, N)
    tr = cset.per_block([np.sum(v, axis=-1) for v in w]).reshape(-1, N)
    bound, capped = cset.bounds, cset.capped
    not_psd = lam_min < -psd_tol
    bad = not_psd | np.where(capped, tr > bound + trace_tol,
                             np.abs(tr - bound) > trace_tol)
    if not bad.any():
        return
    cell = int(np.argmax(bad.any(axis=1)))
    lam_min, tr, not_psd = lam_min[cell], tr[cell], not_psd[cell]
    i = int(np.argmax(bad[cell]))
    if not_psd[i]:
        raise DomainError(f"block {i} not PSD: lambda_min = {lam_min[i]:.3e}")
    if capped[i]:
        raise DomainError(
            f"block {i} trace {tr[i]:.12g} exceeds bound {bound[i]:.12g}")
    raise DomainError(f"block {i} trace {tr[i]:.12g} != bound {bound[i]:.12g}")


def is_feasible(X: BlockProfile, cset: SpectraSet,
                psd_tol: float = FEASIBILITY_PSD_TOL,
                trace_tol: float = FEASIBILITY_TRACE_TOL) -> bool:
    try:
        assert_feasible(X, cset, psd_tol, trace_tol)
    except DomainError:
        return False
    return True


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
        zeros and leave their stream untouched.
        """
        layout = block_layout(tuple(dims))
        sigma = np.asarray(self.sigma)
        if not isinstance(rng, (list, tuple)):
            if sigma == 0:
                return BlockProfile.zeros(layout)
            G = rng.standard_normal(layout.draw_size)
        else:
            G = np.zeros((len(rng), layout.draw_size))
            for c, level in enumerate(sigma.tolist()):
                if level > 0:
                    G[c] = rng[c].standard_normal(layout.draw_size)
            sigma = sigma[:, None, None, None]
        s = sigma / math.sqrt(2.0)
        parts = []
        for ix in layout.draw_index:
            Gk = G[..., ix]
            parts.append(hermitianize(
                s * (Gk[..., 0, :, :] + 1j * Gk[..., 1, :, :])))
        return BlockProfile.from_parts(tuple(parts), layout)


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
    m = mask[:, None, None, None]
    return BlockProfile.from_parts(
        tuple(np.where(m, a, b) for a, b in zip(A.parts, B.parts)), A.layout)


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
    for Fi, spec in zip(F.blocks, cset.blocks, strict=True):
        w, V = eig(Fi)
        if spec.mode is TraceMode.AT_MOST and w[-1] >= 0:
            blocks.append(np.zeros_like(Fi))
            continue
        v = V[:, -1]
        blocks.append(spec.bound * hermitianize(np.outer(v, v.conj())))
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
    def terms(g: BlockGroup, Fg: np.ndarray, Xg: np.ndarray) -> np.ndarray:
        lam_min = eig(Fg).eigenvalues[..., -1]
        if g.mode is TraceMode.AT_MOST:
            lam_min = np.minimum(lam_min, 0.0)
        inner = np.sum(Fg * Xg.swapaxes(-1, -2), axis=(-2, -1)).real
        return inner - g.bound[:, 0, 0] * lam_min

    cset = problem.constraints
    if F is None:
        F = problem.mapping(X)
    per_block = cset.per_block(cset.map_groups(terms, F, X))
    gaps = np.add.accumulate(per_block, axis=-1)[..., -1]
    return float(gaps) if gaps.ndim == 0 else gaps


def random_feasible_block(spec: BlockSpec, rng: np.random.Generator) -> np.ndarray:
    """Full-support sample of one spectrahedron block, without rejection.

    A random Hermitian matrix is pushed through the Gibbs map (trace
    exactly the bound); under a trace cap the result is additionally
    shrunk by a uniform factor to cover the interior.
    """
    X = gibbs_map(linalg.random_hermitian(rng, spec.dim))
    scale = spec.bound
    if spec.mode is TraceMode.AT_MOST:
        scale *= float(rng.uniform())
    return scale * X


def random_feasible_profile(cset: SpectraSet,
                            rng: np.random.Generator) -> BlockProfile:
    return BlockProfile(tuple(
        random_feasible_block(spec, rng) for spec in cset.blocks))


def weak_gap_estimate(problem: SviProblem, X: BlockProfile, probes: int,
                      rng: np.random.Generator) -> float:
    """Sampled lower bound on sup_Z tr(F(Z)(X - Z)).

    A lower bound only: the sup is nonconvex in Z for general F, so the
    candidate set is Z = X itself (making the estimate >= 0), the
    closed-form strong-gap maximizer, and `probes` random feasible
    profiles.
    """
    candidates = [X, best_response(problem.mapping(X), problem.constraints)]
    candidates.extend(
        random_feasible_profile(problem.constraints, rng)
        for _ in range(probes))
    best = -math.inf
    for Z in candidates:
        val = profile_inner(problem.mapping(Z), X - Z)
        best = max(best, val)
    return best


def monotonicity_witness(problem: SviProblem, X: BlockProfile,
                         Y: BlockProfile) -> float:
    """tr((X - Y)(F(X) - F(Y))); nonnegative iff the mapping is monotone."""
    return profile_inner(X - Y, problem.mapping(X) - problem.mapping(Y))


def quadratic_test_problem(B: BlockProfile, cset: SpectraSet,
                           sigma: float = 0.0) -> SviProblem:
    """VI with mapping F(X) = X - B, the gradient of 0.5 ||X - B||_F^2.

    Its unique solution is the Euclidean projection of B onto the
    constraint set, which an independent projection oracle can verify.
    The oracle bound is analytic: ||X_i - B_i||_2 <= bound_i + ||B_i||_2
    per block, plus a spectral-norm margin for the noise when sigma > 0.
    """
    if B.dims != cset.dims:
        raise DomainError(f"target dims {B.dims} do not match set {cset.dims}")
    C = max(spec.bound + linalg.spectral_norm(Bi)
            for Bi, spec in zip(B.blocks, cset.blocks, strict=True))
    if sigma > 0:
        C += 3.0 * sigma * math.sqrt(max(cset.dims))
    return SviProblem(
        constraints=cset,
        mapping=lambda X: X - B,
        noise=NoiseModel(sigma),
        oracle_bound=C,
    )
