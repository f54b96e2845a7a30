"""Block-structured stochastic variational inequality problems.

A problem couples a product constraint set, one PSD trace-constrained
spectrahedron per player block, with a deterministic monotone mapping F
acting blockwise and a noise model that turns F into the stochastic
oracle Phi(X, xi) = F(X) + Z. A profile diag(X_1, ..., X_N) is one
zero-padded complex array of shape (..., N, D, D), D the largest block
dimension: block i is the top-left dims[i] x dims[i] corner of
X[..., i, :, :] and the rest is zero, so blocks of equal size make it
the plain stack. The constraint set's `dims` is the only record of the
block sizes (`SpectraSet.blocks` gives the corners, `pad_blocks` builds
a profile from its blocks). Leading axes, such as a batch's cell axis,
broadcast through the arithmetic. `SpectraSet.map_blocks` applies a
function of stacks of blocks to profiles, once per distinct block size.
The strong gap sup_Z tr(F(X)(X - Z)) lives here too, in closed form: a
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
            return _blockwise(fn, profiles, np.arange(len(dims)))
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


def _blockwise(fn: Callable[..., np.ndarray], arrays: Sequence[np.ndarray],
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


def profile_inner(A: np.ndarray, B: np.ndarray) -> float:
    """Real trace pairing summed over blocks: sum_i Re tr(A_i B_i)."""
    return sum(trace_inner(a, b) for a, b in zip(A, B, strict=True))


def assert_feasible(X: np.ndarray, cset: SpectraSet,
                    psd_tol: float = FEASIBILITY_PSD_TOL,
                    trace_tol: float = FEASIBILITY_TRACE_TOL) -> None:
    """Raise DomainError unless every block is PSD with a conforming trace.

    The message names the first failing block (of the first failing cell,
    when X has a cell axis)."""
    if X.shape[-3:] != cset.zeros().shape:
        raise DomainError(f"profile shape {X.shape} does not match set "
                          f"dims {cset.dims}")

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
               ) -> np.ndarray:
        """One noise profile from a single draw of normals.

        The draw is block-ordered, real part then imaginary part of each
        block, so it consumes the stream exactly as drawing block by
        block would. Given a list of generators, one per cell, each cell
        with sigma > 0 draws from its own generator exactly as alone, and
        the draws are stacked along a cell axis; cells with sigma = 0 get
        zeros and leave their stream untouched. Blocks of several sizes
        are zero-padded.
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
        return hermitianize(s * (G[..., 0, :, :] + 1j * G[..., 1, :, :]))


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
        def mapping(X: np.ndarray) -> np.ndarray:
            return np.stack([f(X[c]) for c, f in enumerate(mappings)])
    return SviProblem(
        cset, mapping,
        NoiseModel(np.array([p.noise.sigma for p in problems])),
        np.array([p.oracle_bound for p in problems]))


def select_cells(mask: np.ndarray, A: np.ndarray,
                 B: np.ndarray) -> np.ndarray:
    """Cell c from A where mask[c] holds, else from B. Unlike adding a
    zero term, this leaves B's cells bit for bit as they are."""
    if mask.all():
        return A
    if not mask.any():
        return B
    return np.where(mask[:, None, None, None], A, B)


def oracle_sample(problem: SviProblem, X: np.ndarray,
                  rng: np.random.Generator | Sequence[np.random.Generator],
                  F: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One stochastic oracle call: returns (F(X) + Z, Z).

    The rng stream is consumed only when the noise level is nonzero, and
    is passed explicitly so a seed fixes the sample path regardless of
    scheduling. Pass F when the mapping's value at X is already known.
    For a stacked problem, X has a cell axis and rng is one generator
    per cell; cells with sigma = 0 get F(X) itself.
    """
    if F is None:
        F = problem.mapping(X)
    Z = problem.noise.sample(problem.constraints.dims, rng)
    return select_cells(np.asarray(problem.noise.sigma) > 0, F + Z, F), Z


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


def strong_gap(problem: SviProblem, X: np.ndarray,
               F: np.ndarray | None = None) -> float | np.ndarray:
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


def monotonicity_witness(problem: SviProblem, X: np.ndarray,
                         Y: np.ndarray) -> float:
    """tr((X - Y)(F(X) - F(Y))); nonnegative iff the mapping is monotone."""
    return profile_inner(X - Y, problem.mapping(X) - problem.mapping(Y))


def quadratic_test_problem(B: np.ndarray, cset: SpectraSet,
                           sigma: float = 0.0) -> SviProblem:
    """VI with mapping F(X) = X - B, the gradient of 0.5 ||X - B||_F^2.

    Its unique solution is the Euclidean projection of B onto the
    constraint set, which an independent projection oracle can verify.
    The oracle bound is analytic: ||X_i - B_i||_2 <= bound + ||B_i||_2
    per block, plus a spectral-norm margin for the noise when sigma > 0.
    """
    if B.shape != cset.zeros().shape:
        raise DomainError(f"target shape {B.shape} does not match set "
                          f"dims {cset.dims}")
    C = cset.bound + linalg.spectral_norm(B)
    if sigma > 0:
        C += 3.0 * sigma * math.sqrt(max(cset.dims))
    return SviProblem(
        constraints=cset,
        mapping=lambda X: X - B,
        noise=NoiseModel(sigma),
        oracle_bound=C,
    )
