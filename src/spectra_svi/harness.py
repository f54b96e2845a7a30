"""Experiment orchestration: configs, seeded grids, CSV emission.

A grid is the product (antenna pair) x sigma x method x lambda x sample
path. Every cell derives its RNG seeds by hashing the cell coordinates
together with the base seed, so results are reproducible byte for byte
and independent of execution order or thread count. Channel draws use a
seed that excludes the method, lambda and sigma: all methods in a cell
face the same channel realizations and differ only in their own noise
streams. All cells of one antenna pair share their array shapes and run
as one batched solver loop (`solvers.run_batch`). On Linux the batches
run in worker processes forked directly from this process (`_forked`):
they take whole pairs, largest first, and a pair is cut into chunks
only when there are fewer pairs than workers. Each worker pickles its
results into its own in-memory file; a truncated record fails only the
batch its worker held when it died, and no worker outlives this
process. Everywhere else, and on Linux when no worker can be forked,
the batches run in this process. A batch draws each distinct channel
seed once; its cells share that draw, its padded stack and its oracle
bound. Per-player rates stay one (T, N) array per cell until
`write_throughput_csv` formats them.

`ExperimentConfig` holds every default; `_EXPERIMENT` maps each
`[experiment]` key to its field, parser and echo format. A `CellTask`
carries its `SolverConfig`; a `GapRecord` is a CSV row, whose tuple
order is the row order. Repeated grid values are a ConfigError.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import math
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import dataclass
from itertools import product
from typing import BinaryIO, Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .errors import ConfigError
from .mimo import (
    ChannelSet,
    NetworkTopology,
    canonical_topology,
    covariances,
    game_to_svi,
    sample_channels,
    throughput,
)
from .problem import SviProblem
from .solvers import (
    Method,
    ScheduleKind,
    SolverConfig,
    StepSchedule,
    run,  # noqa: F401  re-exported: bench/spans.py wraps harness.run
    run_batch,
)

# bench/spans.py wraps this name as its `solvers.reported_sequence` span;
# nothing in the package sets or calls it.
reported_sequence = None

CSV_HEADER = "method,m,n,sigma,lambda,path,iter,gap,elapsed_ms"
THROUGHPUT_CSV_HEADER = "method,player,path,iter,R"

DEFAULT_BASE_SEED = 2026
SEED_ENV_VAR = "SPECTRA_SVI_SEED"


def _fmt(x: float) -> str:
    """Floats at 17 significant digits: round-trips float64 exactly."""
    return f"{float(x):.17g}"


def _fmt_list(values: Iterable[float]) -> str:
    return ", ".join(_fmt(v) for v in values)


def _reject_repeats(name: str, values: tuple) -> None:
    """ConfigError if `values` lists one value twice (equal floats count,
    so 0 and -0 are one): each repeat would rerun a cell under its key."""
    if len(set(values)) < len(values):
        raise ConfigError(f"{name}: values must be distinct, got {values}")


@dataclass(frozen=True)
class MethodSpec:
    """One methods-grid entry: solver, its schedule, and the lambda list
    (non-empty only for MEL)."""

    method: Method
    schedule: StepSchedule
    lambdas: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        if not self.lambdas:
            raise ConfigError("lambdas: list must be non-empty")
        if self.method is not Method.MEL and self.lambdas != (0.0,):
            raise ConfigError("lambdas: values only apply to MEL")
        if not all(0 <= lam < np.inf for lam in self.lambdas):
            raise ConfigError(
                f"lambdas: must be finite and >= 0, got {self.lambdas}")
        _reject_repeats("lambdas", self.lambdas)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    antenna_pairs: tuple[tuple[int, int], ...] = ((2, 2),)
    sigmas: tuple[float, ...] = (1.0,)
    methods: tuple[MethodSpec, ...]
    iterations: int = 4000
    sample_paths: int = 10
    gap_every: int = 100
    base_seed: int = DEFAULT_BASE_SEED
    topology: str = "canonical7"
    resample_channels: bool = True
    record_timing: bool = False
    record_throughput: bool = False

    def __post_init__(self) -> None:
        if not self.antenna_pairs:
            raise ConfigError("antenna pair list must be non-empty")
        if min(min(pair) for pair in self.antenna_pairs) < 1:
            raise ConfigError(
                f"antennas: counts must be >= 1, got {self.antenna_pairs}")
        _reject_repeats("antennas", self.antenna_pairs)
        if self.topology != "canonical7" and len(self.antenna_pairs) > 1:
            # The file fixes every user's antenna counts; each pair would
            # rerun the same game under another label.
            raise ConfigError(
                f"antennas: a topology file sets the antenna counts, so "
                f"list one pair, got {len(self.antenna_pairs)}")
        if not self.sigmas:
            raise ConfigError("sigma list must be non-empty")
        if not all(0 <= s < np.inf for s in self.sigmas):
            raise ConfigError(
                f"sigmas: must be finite and >= 0, got {self.sigmas}")
        _reject_repeats("sigmas", self.sigmas)
        if not self.methods:
            raise ConfigError("method list must be non-empty")
        # The solver seed leaves out the schedule: a method listed twice
        # would run its cells twice under one key.
        _reject_repeats("methods",
                        tuple(spec.method.value for spec in self.methods))
        for name in ("iterations", "sample_paths", "gap_every"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}")


class GapRecord(NamedTuple):
    """One results CSV row, fields in column order. Tuples order rows:
    the cell coordinates and iteration before them are unique in a grid,
    so gap and elapsed_ms never decide."""

    method: str
    m: int
    n: int
    sigma: float
    lam: float
    path: int
    iteration: int
    gap: float
    elapsed_ms: float


def derive_seed(base_seed: int, *parts: object) -> int:
    """Stable 64-bit seed from the base seed and cell coordinates.

    Hashing goes through sha256 of the joined string parts: the builtin
    hash() is salted per process and would break cross-run determinism.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return (int(base_seed) ^ int.from_bytes(digest[:8], "big")) & (2**64 - 1)


@dataclass(frozen=True)
class CellTask:
    """Self-contained unit of work. Forked workers inherit the tasks;
    only the `GridResult`s they return are pickled."""

    topology: NetworkTopology
    m: int
    n: int
    sigma: float
    path: int
    channel_seed: int
    solver: SolverConfig
    record_timing: bool
    record_throughput: bool

    def label(self) -> str:
        return (f"method={self.solver.method.value} m={self.m} n={self.n} "
                f"sigma={_fmt(self.sigma)} lambda={_fmt(self.solver.lam)} "
                f"path={self.path}")


# One cell's per-player rates: (method, path, rates), rates[t - 1, i] is
# player i's rate at iteration t.
CellRates = tuple[str, int, np.ndarray]


class GridResult(NamedTuple):
    """The output of a batch or a grid: its gap records (a grid's sorted
    by cell and iteration), then, in task order, one `rates` entry per
    successful cell of a throughput-recording grid and one failure line
    per failed cell."""

    records: list[GapRecord]
    rates: list[CellRates]
    failures: list[str]


def _load_topology(selector: str, m: int, n: int) -> NetworkTopology:
    if selector == "canonical7":
        return canonical_topology(m, n)
    return _topology_from_file(selector)


def _read_ini(path: str | os.PathLike, kind: str
              ) -> configparser.ConfigParser:
    """Parse an INI file; a missing, malformed or non-UTF-8 file is a
    ConfigError."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {_without_source(exc)}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not read:
        raise ConfigError(f"{kind} file not found: {path}")
    return parser


def _without_source(exc: configparser.Error) -> str:
    """configparser's message for a malformed file without the file name,
    which its messages repeat and `_read_ini` puts first."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"[line {exc.lineno:2d}]: no section header before {exc.line!r}"
    if isinstance(exc, configparser.ParsingError):
        return "; ".join(f"[line {lineno:2d}]: cannot parse {line}"
                         for lineno, line in exc.errors)
    return str(exc).replace(
        f"While reading from {getattr(exc, 'source', None)!r} ", "")


def _reject_unknown(path: str | os.PathLike, names: Iterable[str],
                    known: Iterable[str], what: str) -> None:
    """ConfigError for the first of `names` not in `known`; `what` is the
    message's description of it, with {} for the name."""
    for name in names:
        if name not in known:
            raise ConfigError(f"{path}: unknown {what.format(name)}")


_TOPOLOGY_KEYS = ("tx_antennas", "rx_antennas", "distances", "max_power")


def _topology_from_file(path: str) -> NetworkTopology:
    parser = _read_ini(path, "topology")
    _reject_unknown(path, parser.sections(), ("topology",), "section [{}]")
    if not parser.has_section("topology"):
        raise ConfigError(f"{path}: missing [topology] section")
    sec = parser["topology"]
    _reject_unknown(path, sec, _TOPOLOGY_KEYS, "key '{}' in [topology]")
    try:
        tx = tuple(int(v) for v in sec["tx_antennas"].split(","))
        rx = tuple(int(v) for v in sec["rx_antennas"].split(","))
        rows = [[float(v) for v in line.split()]
                for line in sec["distances"].strip().splitlines()]
        power = float(sec.get("max_power", "1"))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        return NetworkTopology(tx, rx, np.array(rows, dtype=float), power)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_tasks(config: ExperimentConfig) -> list[CellTask]:
    tasks = []
    for m, n in config.antenna_pairs:
        topo = _load_topology(config.topology, m, n)
        for sigma, mspec in product(config.sigmas, config.methods):
            for lam, path in product(mspec.lambdas,
                                     range(config.sample_paths)):
                channel_path = path if config.resample_channels else -1
                solver = SolverConfig(
                    method=mspec.method, iterations=config.iterations,
                    schedule=mspec.schedule, lam=lam,
                    gap_every=config.gap_every,
                    seed=derive_seed(config.base_seed, "solver",
                                     mspec.method.value, _fmt(lam), m, n,
                                     _fmt(sigma), path))
                tasks.append(CellTask(
                    topology=topo, m=m, n=n, sigma=sigma, path=path,
                    channel_seed=derive_seed(config.base_seed, "channels",
                                             m, n, channel_path),
                    solver=solver, record_timing=config.record_timing,
                    record_throughput=config.record_throughput))
    return tasks


def cell_problem(task: CellTask, channels: ChannelSet | None = None
                 ) -> tuple[ChannelSet, SviProblem, SolverConfig]:
    """The channels, game and solver settings of one cell; `channels`,
    when given, is the cell's draw, already made for another cell."""
    if channels is None:
        channels = sample_channels(task.topology,
                                   np.random.default_rng(task.channel_seed))
    problem = game_to_svi(task.topology, channels, task.sigma)
    return channels, problem, task.solver


def game_and_throughput(problem: SviProblem, points: np.ndarray,
                         rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The game mapping at a batch's stacked points and every player's
    rate at its reported points, `points[rows]`, from one build of
    the received covariances."""
    game = problem.mapping
    cov = covariances(game.channels, points)
    return game(cov), throughput(game.channels, cov.rows(rows))


def run_cell(*tasks: CellTask) -> GridResult:
    """Execute cells of one antenna pair as one batched solver run and
    emit their records, rates and failure lines (one task: a lone cell).
    Cells with the same channel seed share one draw: the seed hashes the
    antenna pair, which with the config's one topology fixes the draw.

    elapsed_ms is 0 unless timing was requested: measured wall time
    would make otherwise identical runs differ byte for byte. When
    measured, it is the wall time of the batched solver run, including
    any throughput evaluation, shared by every cell of the batch.
    """
    draws: dict[int, ChannelSet] = {}
    problems = []
    for task in tasks:
        channels, problem, _ = cell_problem(
            task, draws.get(task.channel_seed))
        draws[task.channel_seed] = channels
        problems.append(problem)
    measure = game_and_throughput if tasks[0].record_throughput else None
    tic = time.perf_counter()
    results = run_batch(problems, [task.solver for task in tasks], measure)
    elapsed_ms = (time.perf_counter() - tic) * 1e3

    out = GridResult([], [], [])
    for task, result in zip(tasks, results):
        method = task.solver.method.value
        out.records.extend(
            GapRecord(method, task.m, task.n, task.sigma, task.solver.lam,
                      task.path, it, gap,
                      elapsed_ms if task.record_timing else 0.0)
            for it, gap in result.gap_trace)
        if result.error is not None:
            out.failures.append(f"{task.label()}: {result.error}")
        elif measure is not None:
            out.rates.append((method, task.path, result.measures))
    return out


def _batches(tasks: list[CellTask], workers: int) -> list[list[CellTask]]:
    """Tasks grouped by antenna pair, in grid order: one batch per pair,
    or ceil(workers / pairs) contiguous near-equal batches per pair when
    the grid has fewer pairs than workers. Each batch pays the solver
    loop's per-iteration dispatch and draws its pair's channels, so a
    pair is cut only to keep every worker busy."""
    groups: dict[tuple[int, int], list[CellTask]] = {}
    for task in tasks:
        groups.setdefault((task.m, task.n), []).append(task)
    chunks = -(-workers // len(groups))
    batches = []
    for group in groups.values():
        k = min(chunks, len(group))
        size, extra = divmod(len(group), k)  # the first `extra` get one more
        bounds = [i * size + min(i, extra) for i in range(k + 1)]
        batches += [group[a:b] for a, b in zip(bounds, bounds[1:])]
    return batches


def run_grid(config: ExperimentConfig, threads: int = 1) -> GridResult:
    """Run every cell of the grid; deterministic for a fixed config.

    threads: 1 runs in-process; 0 uses one worker per CPU in this
    process's affinity mask; N > 1 uses up to N forked worker processes
    (never more than there are batches); negative values are a
    ConfigError. Off Linux every grid runs in-process, whatever
    `threads` is: fork after macOS's Accelerate BLAS is not known to be
    safe. The cells of each antenna pair form one batch, cut into
    near-equal chunks only when there are fewer pairs than workers
    (`_batches`). Workers take the batches largest first, by transmit
    count, receive count and cell count, so the costliest pair does not
    start last on a worker that is otherwise idle. A batch that raises
    becomes one failure line per cell of it in the result's `failures`,
    which are the only report of it, and so does the batch a worker held
    when it died; the other batches' records are kept. While workers
    run, SIGTERM kills and reaps them before it ends this process, and
    the kernel kills them with this process on a SIGKILL (`_forked`).
    Each batch's output keeps its place in grid order and gap records
    are sorted after the merge, so the output does not depend on
    scheduling.
    """
    if threads < 0:
        raise ConfigError(f"threads must be >= 0, got {threads}")
    tasks = build_tasks(config)
    workers = ((threads or len(os.sched_getaffinity(0)))
               if sys.platform.startswith("linux") else 1)
    batches = _batches(tasks, workers)
    if workers == 1 or len(batches) == 1:
        outputs = [_run_batch(batch) for batch in batches]
    else:
        order = sorted(range(len(batches)), reverse=True, key=lambda i: (
            batches[i][0].m, batches[i][0].n, len(batches[i])))
        outputs = _forked(batches, order, min(workers, len(batches)))
    out = GridResult([], [], [])
    for output in outputs:
        for merged, part in zip(out, output):
            merged.extend(part)
    out.records.sort()
    return out


class _Terminated(BaseException):
    """SIGTERM, raised while `_forked` runs so that its `finally` runs."""


def _raise_terminated(signum, frame) -> None:
    # One is enough: a second SIGTERM must not cut the reaping short.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise _Terminated


def _failed(batch: list[CellTask], reason: str) -> GridResult:
    return GridResult([], [], [f"{task.label()}: batch failed: {reason}"
                               for task in batch])


def _run_batch(batch: list[CellTask]) -> GridResult:
    # `run_cell` is looked up by its module-level name, so a wrapper put
    # there (the bench's span tracer) sees the calls made in workers too.
    try:
        return run_cell(*batch)
    except Exception as exc:
        return _failed(batch, f"{type(exc).__name__}: {exc}")


def _forked(batches: list[list[CellTask]], order: list[int],
            workers: int) -> list[GridResult]:
    """Batches run by `workers` children forked from this process.

    The batch indices, in `order`, are written as 4-byte integers into
    one pipe before the first fork, and its write end is closed, so a
    child takes the next batch with one read and ends at the pipe's end
    of file. (A pipe holds 16384 indices; there are never more batches
    than cells, nor than workers plus antenna pairs.) Each child writes
    into its own results file, an unbuffered in-memory file
    (`os.memfd_create`) made just before the fork: for each batch it
    takes, the pickled index, then the pickled GridResult. It leaves by
    `os._exit`; SIGTERM takes its default action there. A file never
    blocks a writer, so the parent reaps each child in turn, then reads
    its file. An index without a whole result behind it (a truncated
    pickle raises EOFError or UnpicklingError) is the batch the child
    held when it died: that batch alone fails. A fork, or the file
    before it, that fails ends the forking: the children already
    running take every batch, and if there are none the batches run in
    this process. The parent never runs a batch after a child has died,
    so a crash that kills children cannot take it down too.

    No child outlives this process: the kernel kills each with it
    (`_end_with`), and an interrupted parent kills and reaps those not
    reaped yet. Under SIGTERM's default action the parent would end at
    once and leave its children unreaped. So, when called from the main
    thread with that default in place, the parent makes SIGTERM raise
    `_Terminated` (once; later ones are ignored) until the children are
    reaped, then restores the default and delivers a caught SIGTERM
    again, so the process still ends by the signal. A handler of the
    caller's is left in place.
    """
    deal_r, deal_w = os.pipe()
    try:
        os.write(deal_w, b"".join(i.to_bytes(4, "little") for i in order))
    finally:
        os.close(deal_w)
    # Output still buffered at a fork would be written again by a child.
    for std in (sys.stdout, sys.stderr):
        if std is not None:
            std.flush()
    parent = os.getpid()
    children: dict[int, BinaryIO] = {}  # pid -> its results file
    statuses: dict[int, int] = {}  # pid -> wait status, once reaped
    files = contextlib.ExitStack()  # every results file made
    trap = (threading.current_thread() is threading.main_thread()
            and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL)
    try:
        if trap:
            signal.signal(signal.SIGTERM, _raise_terminated)
        for _ in range(workers):
            # SIGINT and SIGTERM wait until the new child is in `children`,
            # so the `finally` below reaps every child that was forked.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                          {signal.SIGINT, signal.SIGTERM})
            try:
                results = files.enter_context(
                    open(os.memfd_create("results"), "w+b", buffering=0))
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        _end_with(parent)
                        signal.signal(signal.SIGTERM, signal.SIG_DFL)
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        while index := os.read(deal_r, 4):
                            i = int.from_bytes(index, "little")
                            pickle.dump(i, results)
                            pickle.dump(_run_batch(batches[i]), results)
                        code = 0
                    finally:
                        os._exit(code)
                children[pid] = results
            except OSError:  # no worker can be forked now
                break
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if not children:
            return [_run_batch(batch) for batch in batches]
        outputs: list = [None] * len(batches)
        for pid, results in children.items():
            statuses[pid] = os.waitpid(pid, 0)[1]
            results.seek(0)
            records = []
            with contextlib.suppress(EOFError, pickle.UnpicklingError):
                while True:
                    records.append(pickle.load(results))
            for i, output in zip(records[::2], records[1::2]):
                outputs[i] = output
            if len(records) % 2:  # the child died while it held batch i
                i = records[-1]
                code = os.waitstatus_to_exitcode(statuses[pid])
                outputs[i] = _failed(batches[i], "worker " + (
                    f"killed by signal {-code}" if code < 0
                    else f"exited with code {code}"))
    finally:
        os.close(deal_r)
        files.close()
        # A child not reaped yet is killed: this process was interrupted.
        for pid in children.keys() - statuses.keys():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if trap:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            if isinstance(sys.exc_info()[1], _Terminated):
                signal.raise_signal(signal.SIGTERM)
    # A batch no worker took: every worker had died before taking it.
    return [_failed(batch, "no worker finished it") if output is None
            else output for batch, output in zip(batches, outputs)]


def _end_with(parent: int) -> None:
    """Makes this forked child end with `parent`: the kernel SIGKILLs it
    when the thread that forked it ends (PR_SET_PDEATHSIG), and it ends
    now if `parent` ended before this call took effect."""
    # numpy has loaded ctypes by now. Imported above numpy, it would
    # raise every run's peak memory by about 0.2 MB.
    import ctypes
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


@contextlib.contextmanager
def replacing(path: str | os.PathLike) -> Iterator[TextIO]:
    """An ASCII text file written under a temporary name in `path`'s
    directory and moved onto `path` by `os.replace` when the block ends,
    so a kill during the write leaves `path` as it was. If the block
    raises, the temporary file is removed."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii", newline="\n") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_csv(records: Iterable[GapRecord], path: str | os.PathLike) -> None:
    """Pinned schema: method,m,n,sigma,lambda,path,iter,gap,elapsed_ms."""
    lines = [CSV_HEADER]
    for r in sorted(records):
        lines.append(",".join((
            r.method, str(r.m), str(r.n), _fmt(r.sigma), _fmt(r.lam),
            str(r.path), str(r.iteration), _fmt(r.gap), _fmt(r.elapsed_ms))))
    with replacing(path) as f:
        f.write("\n".join(lines) + "\n")


def read_csv(path: str | os.PathLike) -> list[GapRecord]:
    """Records of a results CSV; a file that is not ASCII, or a row with
    a malformed or non-finite number, is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not ASCII text: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: expected header {CSV_HEADER!r}")
    records = []
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 9:
            raise ConfigError(f"{path}:{idx}: expected 9 fields, got {len(parts)}")
        try:
            record = GapRecord(
                parts[0], int(parts[1]), int(parts[2]), float(parts[3]),
                float(parts[4]), int(parts[5]), int(parts[6]),
                float(parts[7]), float(parts[8]))
            # An int too large for a float raises OverflowError here.
            if not all(map(math.isfinite, record[1:])):
                raise ValueError(f"non-finite value in {line!r}")
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}:{idx}: {exc}") from exc
        records.append(record)
    return records


def write_throughput_csv(rates: Iterable[CellRates],
                         path: str | os.PathLike) -> None:
    """Rows `method,player,path,iter,R` in (method, player, path, iter)
    order. Cells that share a (method, path) (they differ in antennas,
    sigma or lambda) share those keys: their rows for one key follow in
    the order of `rates`. Such cells must have rates of one shape."""
    groups: dict[tuple[str, int], list[np.ndarray]] = {}
    for method, p, R in rates:
        groups.setdefault((method, p), []).append(R)
    with replacing(path) as f:
        f.write(THROUGHPUT_CSV_HEADER + "\n")
        for method in sorted({method for method, _ in groups}):
            paths = sorted(p for m, p in groups if m == method)
            # (iteration, player, cell) per path
            cells = {p: np.stack(groups[method, p], axis=-1) for p in paths}
            for player in range(cells[paths[0]].shape[1]):
                for p in paths:
                    head = f"{method},{player},{p},"
                    rows = cells[p][:, player].tolist()
                    f.write("".join([f"{head}{it},{v:.17g}\n"
                                     for it, row in enumerate(rows, 1)
                                     for v in row]))


# --- configuration files --------------------------------------------------

def _parse_int(value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_bool(value: str, where: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {value!r}")


def _parse_pairs(value: str, where: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        bits = item.lower().split("x")
        if len(bits) != 2:
            raise ConfigError(f"{where}: expected 'MxN', got {item!r}")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if not pairs:
        raise ConfigError(f"{where}: empty antenna list")
    return tuple(pairs)


def _parse_floats(value: str, where: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in value.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not values:
        raise ConfigError(f"{where}: empty list")
    return values


def parse_schedule(value: str, where: str = "schedule") -> StepSchedule:
    """A `ScheduleKind` value; `constant` alone takes `:<eta>`."""
    name, colon, eta = value.strip().lower().partition(":")
    kind = {k.value: k for k in ScheduleKind}.get(name)
    if kind is not None and (kind is ScheduleKind.CONSTANT) == bool(colon):
        if not colon:
            return StepSchedule(kind)
        try:
            return StepSchedule.constant(float(eta))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"{where}: unknown schedule {value!r} (use harmonic-sqrt, harmonic, "
        "horizon, or constant:<eta>)")


def _schedule_text(schedule: StepSchedule) -> str:
    """The config-file form of a schedule, as `parse_schedule` reads it."""
    if schedule.kind is ScheduleKind.CONSTANT:
        return "constant:" + _fmt(schedule.eta)
    return schedule.kind.value


def _bool_text(value: bool) -> str:
    return str(value).lower()


# [experiment] key -> (ExperimentConfig field, parser, echo format), in
# echo order. A key left out of a file keeps the field's default.
_EXPERIMENT = {
    "topology": ("topology", lambda value, where: value, str),
    "antennas": ("antenna_pairs", _parse_pairs,
                 lambda pairs: ", ".join(f"{m}x{n}" for m, n in pairs)),
    "sigmas": ("sigmas", _parse_floats, _fmt_list),
    "iterations": ("iterations", _parse_int, str),
    "sample_paths": ("sample_paths", _parse_int, str),
    "gap_every": ("gap_every", _parse_int, str),
    "base_seed": ("base_seed", _parse_int, str),
    "resample_channels": ("resample_channels", _parse_bool, _bool_text),
    "record_timing": ("record_timing", _parse_bool, _bool_text),
    "record_throughput": ("record_throughput", _parse_bool, _bool_text),
}


def parse_config(path: str | os.PathLike) -> ExperimentConfig:
    """Load a flat key = value config; unknown sections and keys are hard
    errors."""
    parser = _read_ini(path, "config")
    _reject_unknown(path, parser.sections(), ("experiment", "methods", "mel"),
                    "section [{}]")
    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    exp = parser["experiment"]
    _reject_unknown(path, exp, _EXPERIMENT, "key '{}' in [experiment]")
    if not parser.has_section("methods"):
        raise ConfigError(f"{path}: missing [methods] section")

    method_by_name = {m.value: m for m in Method}
    lambdas = (0.1, 0.5, 1.0)
    if parser.has_section("mel"):
        _reject_unknown(path, parser["mel"], ("lambdas",), "key '{}' in [mel]")
        if "lambdas" not in parser["mel"]:
            raise ConfigError(f"{path}: [mel] lambdas: missing")
        lambdas = _parse_floats(parser["mel"]["lambdas"], f"{path}: [mel] lambdas")
    specs = []
    for name, sched_text in parser["methods"].items():
        if name not in method_by_name:
            raise ConfigError(
                f"{path}: unknown method '{name}' in [methods] "
                f"(use {', '.join(sorted(method_by_name))})")
        method = method_by_name[name]
        schedule = parse_schedule(sched_text, f"{path}: [methods] {name}")
        specs.append((method, schedule,
                      lambdas if method is Method.MEL else (0.0,)))
    if not specs:
        raise ConfigError(f"{path}: [methods] section is empty")

    # Parsed here, the values carry their own "path: [section] key"
    # prefix; the constructors' range checks below get the path added.
    values = {name: parse(exp[key], f"{path}: [experiment] {key}")
              for key, (name, parse, _) in _EXPERIMENT.items() if key in exp}
    try:
        return ExperimentConfig(
            methods=tuple(MethodSpec(*spec) for spec in specs), **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


PRESETS = ("demo", "full-grid", "stability")


def preset_config(name: str) -> ExperimentConfig:
    """Named experiment presets.

    demo: 7-cell network, m = n = 2, sigma = 1, T = 2000, 3 sample paths.
    full-grid: the full comparison grid, (m,n) in {(2,4),(4,2),(4,4)},
        sigma in {0.5, 1, 5}, all three methods, T = 4000, 10 paths.
    stability: m = n = 4, sigma = 10, AM-SMD vs M-SMD, per-player
        throughput recorded every iteration.
    """
    hs = StepSchedule.harmonic_sqrt()
    h = StepSchedule.harmonic()
    smd = (MethodSpec(Method.AM_SMD, hs), MethodSpec(Method.M_SMD, hs))
    if name == "demo":
        return ExperimentConfig(
            antenna_pairs=((2, 2),), sigmas=(1.0,),
            methods=smd + (MethodSpec(Method.MEL, h, (0.5,)),),
            iterations=2000, sample_paths=3, gap_every=50)
    if name == "full-grid":
        return ExperimentConfig(
            antenna_pairs=((2, 4), (4, 2), (4, 4)), sigmas=(0.5, 1.0, 5.0),
            methods=smd + (MethodSpec(Method.MEL, h, (0.1, 0.5, 1.0)),),
            iterations=4000, sample_paths=10, gap_every=100)
    if name == "stability":
        return ExperimentConfig(
            antenna_pairs=((4, 4),), sigmas=(10.0,), methods=smd,
            iterations=2000, sample_paths=10, gap_every=100,
            record_throughput=True)
    raise ConfigError(f"unknown preset {name!r} (use {', '.join(PRESETS)})")


def config_echo_text(config: ExperimentConfig) -> str:
    """Resolved configuration plus every behavioral convention in effect,
    written where the numbers land so results are self-describing."""
    lines = ["[experiment]"]
    lines += [f"{key} = {echo(getattr(config, name))}"
              for key, (name, _, echo) in _EXPERIMENT.items()]
    lines += ["", "[methods]"]
    lines += [f"{mspec.method.value} = {_schedule_text(mspec.schedule)}"
              for mspec in config.methods]
    mel = [m for m in config.methods if m.method is Method.MEL]
    if mel:
        lines += ["", "[mel]", "lambdas = " + _fmt_list(mel[0].lambdas)]
    lines.append("")
    lines.append("[conventions]")
    lines.append("initial_dual = zero per block (Gibbs map is shift-invariant, "
                 "so this matches any identity multiple)")
    lines.append("stepsize_index = harmonic rules use the one-based iteration "
                 "count")
    lines.append("power_constraint = trace cap via slack-dimension Gibbs map")
    lines.append("oracle_bound = bounds the full noisy oracle, not the mean "
                 "mapping alone")
    lines.append("horizon_dimension = total ambient dimension, sum of block "
                 "dims")
    lines.append("mel_gap_reference = gaps measured against the original "
                 "mapping, not the regularized one")
    lines.append("channel_seed = shared across methods and lambdas within a "
                 "cell (paired comparisons)")
    lines.append("elapsed_ms = " + (
        "measured wall time of the cell's batched solver run, including "
        "any throughput evaluation, shared by the cells of that batch "
        "(output not byte-stable)"
        if config.record_timing else "0 (byte-stable output)"))
    return "\n".join(lines) + "\n"


def write_outputs(grid: GridResult, config: ExperimentConfig, out_dir: str,
                  stem: str) -> dict[str, str]:
    """Write CSV plus config echo (plus the throughput CSV when recorded),
    each replacing its file only once complete (`replacing`); returns
    the written paths keyed by artifact name."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    write_csv(grid.records, csv_path)
    paths["csv"] = csv_path
    echo_path = os.path.join(out_dir, "config.echo.txt")
    with replacing(echo_path) as f:
        f.write(config_echo_text(config))
        if grid.failures:
            f.write("\n[failures]\n")
            for line in grid.failures:
                f.write(line + "\n")
    paths["echo"] = echo_path
    if config.record_throughput:
        tp_path = os.path.join(out_dir, "throughput.csv")
        write_throughput_csv(grid.rates, tp_path)
        paths["throughput"] = tp_path
    return paths
