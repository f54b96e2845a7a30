"""Experiment orchestration: configs, seeded grids, CSV emission.

A grid is the product (antenna pair) x sigma x method x lambda x sample
path. Every cell derives its RNG seeds by hashing the cell coordinates
together with the base seed, so results are reproducible byte for byte
and independent of execution order or thread count. Channel draws use a
seed that excludes the method, lambda and sigma: all methods in a cell
face the same channel realizations and differ only in their own noise
streams. All cells of one antenna pair share their array shapes and run
as one batched solver loop (`solvers.run_batch`), cut into one chunk per
worker when a process pool is used. A batch draws each distinct channel
seed once; its cells share that draw, its padded stack and its oracle
bound. Per-player rates stay one (T, N) array per cell until
`write_throughput_csv` formats them.
"""

from __future__ import annotations

import configparser
import hashlib
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Iterable

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
# throughput is now measured inside the solver loop, so it stays unset.
reported_sequence = None

CSV_HEADER = "method,m,n,sigma,lambda,path,iter,gap,elapsed_ms"
THROUGHPUT_CSV_HEADER = "method,player,path,iter,R"

_log = logging.getLogger(__name__)

DEFAULT_BASE_SEED = 2026
SEED_ENV_VAR = "SPECTRA_SVI_SEED"

_SCHEDULE_NAMES = {
    "harmonic-sqrt": StepSchedule.harmonic_sqrt,
    "harmonic": StepSchedule.harmonic,
    "horizon": StepSchedule.horizon,
}


def _fmt(x: float) -> str:
    """Floats at 17 significant digits: round-trips float64 exactly."""
    return f"{float(x):.17g}"


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


@dataclass(frozen=True)
class ExperimentConfig:
    antenna_pairs: tuple[tuple[int, int], ...]
    sigmas: tuple[float, ...]
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
        if not self.methods:
            raise ConfigError("method list must be non-empty")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.sample_paths < 1:
            raise ConfigError(
                f"sample_paths must be >= 1, got {self.sample_paths}")
        if self.gap_every < 1:
            raise ConfigError(f"gap_every must be >= 1, got {self.gap_every}")


@dataclass(frozen=True)
class GapRecord:
    method: str
    m: int
    n: int
    sigma: float
    lam: float
    path: int
    iteration: int
    gap: float
    elapsed_ms: float

    @property
    def sort_key(self):
        return (self.method, self.m, self.n, self.sigma, self.lam,
                self.path, self.iteration)


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
    """Self-contained unit of work, picklable for process pools."""

    topology: NetworkTopology
    method: Method
    schedule: StepSchedule
    lam: float
    m: int
    n: int
    sigma: float
    path: int
    channel_seed: int
    solver_seed: int
    iterations: int
    gap_every: int
    record_timing: bool
    record_throughput: bool

    def label(self) -> str:
        return (f"method={self.method.value} m={self.m} n={self.n} "
                f"sigma={_fmt(self.sigma)} lambda={_fmt(self.lam)} "
                f"path={self.path}")


# One cell's per-player rates: (method, path, rates), rates[t - 1, i] is
# player i's rate at iteration t.
CellRates = tuple[str, int, np.ndarray]


@dataclass
class GridResult:
    """Gap records sorted by cell and iteration; `rates` holds one entry
    per successful cell of a throughput-recording grid, in task order."""

    records: list[GapRecord] = field(default_factory=list)
    rates: list[CellRates] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


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
        for sigma in config.sigmas:
            for mspec in config.methods:
                for lam in mspec.lambdas:
                    for path in range(config.sample_paths):
                        channel_path = path if config.resample_channels else -1
                        tasks.append(CellTask(
                            topology=topo,
                            method=mspec.method,
                            schedule=mspec.schedule,
                            lam=lam,
                            m=m,
                            n=n,
                            sigma=sigma,
                            path=path,
                            channel_seed=derive_seed(
                                config.base_seed, "channels", m, n,
                                channel_path),
                            solver_seed=derive_seed(
                                config.base_seed, "solver",
                                mspec.method.value, _fmt(lam), m, n,
                                _fmt(sigma), path),
                            iterations=config.iterations,
                            gap_every=config.gap_every,
                            record_timing=config.record_timing,
                            record_throughput=config.record_throughput,
                        ))
    return tasks


def _draw_key(task: CellTask) -> tuple:
    """Identifies a channel draw; NetworkTopology holds an ndarray and is
    unhashable, so the key is built from its fields."""
    topo = task.topology
    return (topo.tx_antennas, topo.rx_antennas, topo.distance_km.tobytes(),
            topo.max_power, task.channel_seed)


def cell_problem(task: CellTask, channels: ChannelSet | None = None
                 ) -> tuple[ChannelSet, SviProblem, SolverConfig]:
    """The channels, game and solver settings of one cell; `channels`,
    when given, is the cell's draw, already made for another cell."""
    if channels is None:
        channels = sample_channels(task.topology,
                                   np.random.default_rng(task.channel_seed))
    problem = game_to_svi(task.topology, channels, task.sigma)
    solver_config = SolverConfig(
        method=task.method,
        iterations=task.iterations,
        schedule=task.schedule,
        lam=task.lam,
        gap_every=task.gap_every,
        seed=task.solver_seed,
    )
    return channels, problem, solver_config


def game_and_throughput(problem: SviProblem, points: np.ndarray,
                         rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The game mapping at a batch's stacked points and every player's
    rate at its reported points, `points[rows]`, from one build of
    the received covariances."""
    game = problem.mapping
    cov = covariances(game.channels, points)
    return game(cov), throughput(game.channels, cov.rows(rows))


def run_cell(*tasks: CellTask
             ) -> tuple[list[GapRecord], list[CellRates], list[str]]:
    """Execute cells of one antenna pair as one batched solver run and
    emit their records, rates and failure lines (one task: a lone cell).
    Cells with the same channel seed share one draw.

    elapsed_ms is 0 unless timing was requested: measured wall time
    would make otherwise identical runs differ byte for byte. When
    measured, it is the wall time of the batched solver run, including
    any throughput evaluation, shared by every cell of the batch.
    """
    draws: dict[tuple, ChannelSet] = {}
    cells = []
    for task in tasks:
        key = _draw_key(task)
        channels, problem, config = cell_problem(task, draws.get(key))
        draws[key] = channels
        cells.append((problem, config))
    measure = game_and_throughput if tasks[0].record_throughput else None
    tic = time.perf_counter()
    results = run_batch([problem for problem, _ in cells],
                        [config for _, config in cells], measure)
    elapsed_ms = (time.perf_counter() - tic) * 1e3

    records: list[GapRecord] = []
    rates: list[CellRates] = []
    failures: list[str] = []
    for task, result in zip(tasks, results):
        records.extend(
            GapRecord(task.method.value, task.m, task.n, task.sigma,
                      task.lam, task.path, it, gap,
                      elapsed_ms if task.record_timing else 0.0)
            for it, gap in result.gap_trace)
        if result.error is not None:
            failures.append(f"{task.label()}: {result.error}")
        elif measure is not None:
            rates.append((task.method.value, task.path, result.measures))
    return records, rates, failures


def _batches(tasks: list[CellTask], chunks: int) -> list[list[CellTask]]:
    """Tasks grouped by antenna pair, each group cut into up to `chunks`
    contiguous near-equal batches."""
    groups: dict[tuple[int, int], list[CellTask]] = {}
    for task in tasks:
        groups.setdefault((task.m, task.n), []).append(task)
    batches = []
    for group in groups.values():
        k = min(chunks, len(group))
        size, extra = divmod(len(group), k)
        start = 0
        for i in range(k):
            stop = start + size + (i < extra)
            batches.append(group[start:stop])
            start = stop
    return batches


def run_grid(config: ExperimentConfig, threads: int = 1,
             on_failure: Callable[[str], None] | None = None) -> GridResult:
    """Run every cell of the grid; deterministic for a fixed config.

    threads: 1 runs in-process; 0 uses one worker per CPU; N > 1 uses up
    to N worker processes (never more than there are batches); negative
    values are a ConfigError. The cells of each antenna pair form one
    batch, cut into one chunk per worker under a pool. A batch that
    raises (or a worker that dies) becomes one failure line per cell of
    it; the other batches' records are kept. Gap records are sorted
    after the merge and rates kept in task order, so the output does not
    depend on scheduling.
    """
    if threads < 0:
        raise ConfigError(f"threads must be >= 0, got {threads}")
    tasks = build_tasks(config)
    workers = threads or os.cpu_count() or 1
    batches = _batches(tasks, workers)
    outputs: list = [None] * len(batches)

    def failed(batch: list[CellTask], exc: Exception) -> tuple:
        _log.error("batch of %d cells failed", len(batch), exc_info=exc)
        reason = f"batch failed: {type(exc).__name__}: {exc}"
        return [], [], [f"{task.label()}: {reason}" for task in batch]

    if workers == 1 or len(batches) == 1:
        for i, batch in enumerate(batches):
            try:
                outputs[i] = run_cell(*batch)
            except Exception as exc:
                outputs[i] = failed(batch, exc)
    else:
        with ProcessPoolExecutor(max_workers=min(workers,
                                                 len(batches))) as pool:
            futures = {pool.submit(run_cell, *batch): i
                       for i, batch in enumerate(batches)}
            for future in as_completed(futures):
                i = futures[future]
                try:
                    outputs[i] = future.result()
                except Exception as exc:
                    outputs[i] = failed(batches[i], exc)
    out = GridResult()
    for records, rates, failures in outputs:
        out.records.extend(records)
        out.rates.extend(rates)
        for failure in failures:
            out.failures.append(failure)
            if on_failure is not None:
                on_failure(failure)
    out.records.sort(key=lambda r: r.sort_key)
    return out


def write_csv(records: Iterable[GapRecord], path: str | os.PathLike) -> None:
    """Pinned schema: method,m,n,sigma,lambda,path,iter,gap,elapsed_ms."""
    lines = [CSV_HEADER]
    for r in sorted(records, key=lambda r: r.sort_key):
        lines.append(",".join((
            r.method, str(r.m), str(r.n), _fmt(r.sigma), _fmt(r.lam),
            str(r.path), str(r.iteration), _fmt(r.gap), _fmt(r.elapsed_ms))))
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_csv(path: str | os.PathLike) -> list[GapRecord]:
    with open(path, "r", encoding="ascii") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: expected header {CSV_HEADER!r}")
    records = []
    for idx, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 9:
            raise ConfigError(f"{path}:{idx}: expected 9 fields, got {len(parts)}")
        try:
            records.append(GapRecord(
                parts[0], int(parts[1]), int(parts[2]), float(parts[3]),
                float(parts[4]), int(parts[5]), int(parts[6]),
                float(parts[7]), float(parts[8])))
        except ValueError as exc:
            raise ConfigError(f"{path}:{idx}: {exc}") from exc
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
    with open(path, "w", encoding="ascii", newline="\n") as f:
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

_EXPERIMENT_KEYS = {
    "topology", "antennas", "sigmas", "iterations", "sample_paths",
    "gap_every", "base_seed", "resample_channels", "record_timing",
    "record_throughput",
}


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
    v = value.strip().lower()
    if v in _SCHEDULE_NAMES:
        return _SCHEDULE_NAMES[v]()
    if v.startswith("constant:"):
        try:
            return StepSchedule.constant(float(v.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(
        f"{where}: unknown schedule {value!r} (use harmonic-sqrt, harmonic, "
        "horizon, or constant:<eta>)")


def parse_config(path: str | os.PathLike) -> ExperimentConfig:
    """Load a flat key = value config; unknown sections and keys are hard
    errors."""
    parser = _read_ini(path, "config")
    _reject_unknown(path, parser.sections(), ("experiment", "methods", "mel"),
                    "section [{}]")
    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    exp = parser["experiment"]
    _reject_unknown(path, exp, _EXPERIMENT_KEYS, "key '{}' in [experiment]")
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

    def get_int(key: str, default: int) -> int:
        if key not in exp:
            return default
        try:
            return int(exp[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: [experiment] {key}: {exc}") from exc

    def get_bool(key: str, default: str) -> bool:
        return _parse_bool(exp.get(key, default),
                           f"{path}: [experiment] {key}")

    # Parsed here, the values carry their own "path: [section] key"
    # prefix; the constructors' range checks below get the path added.
    values = dict(
        antenna_pairs=_parse_pairs(exp.get("antennas", "2x2"),
                                   f"{path}: [experiment] antennas"),
        sigmas=_parse_floats(exp.get("sigmas", "1"),
                             f"{path}: [experiment] sigmas"),
        iterations=get_int("iterations", 4000),
        sample_paths=get_int("sample_paths", 10),
        gap_every=get_int("gap_every", 100),
        base_seed=get_int("base_seed", DEFAULT_BASE_SEED),
        topology=exp.get("topology", "canonical7"),
        resample_channels=get_bool("resample_channels", "true"),
        record_timing=get_bool("record_timing", "false"),
        record_throughput=get_bool("record_throughput", "false"),
    )
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
    if name == "demo":
        return ExperimentConfig(
            antenna_pairs=((2, 2),),
            sigmas=(1.0,),
            methods=(
                MethodSpec(Method.AM_SMD, hs),
                MethodSpec(Method.M_SMD, hs),
                MethodSpec(Method.MEL, h, (0.5,)),
            ),
            iterations=2000,
            sample_paths=3,
            gap_every=50,
        )
    if name == "full-grid":
        return ExperimentConfig(
            antenna_pairs=((2, 4), (4, 2), (4, 4)),
            sigmas=(0.5, 1.0, 5.0),
            methods=(
                MethodSpec(Method.AM_SMD, hs),
                MethodSpec(Method.M_SMD, hs),
                MethodSpec(Method.MEL, h, (0.1, 0.5, 1.0)),
            ),
            iterations=4000,
            sample_paths=10,
            gap_every=100,
        )
    if name == "stability":
        return ExperimentConfig(
            antenna_pairs=((4, 4),),
            sigmas=(10.0,),
            methods=(
                MethodSpec(Method.AM_SMD, hs),
                MethodSpec(Method.M_SMD, hs),
            ),
            iterations=2000,
            sample_paths=10,
            gap_every=100,
            record_throughput=True,
        )
    raise ConfigError(f"unknown preset {name!r} (use {', '.join(PRESETS)})")


def config_echo_text(config: ExperimentConfig) -> str:
    """Resolved configuration plus every behavioral convention in effect,
    written where the numbers land so results are self-describing."""
    lines = ["[experiment]"]
    lines.append("topology = " + config.topology)
    lines.append("antennas = " + ", ".join(
        f"{m}x{n}" for m, n in config.antenna_pairs))
    lines.append("sigmas = " + ", ".join(_fmt(s) for s in config.sigmas))
    lines.append(f"iterations = {config.iterations}")
    lines.append(f"sample_paths = {config.sample_paths}")
    lines.append(f"gap_every = {config.gap_every}")
    lines.append(f"base_seed = {config.base_seed}")
    lines.append(f"resample_channels = {str(config.resample_channels).lower()}")
    lines.append(f"record_timing = {str(config.record_timing).lower()}")
    lines.append(f"record_throughput = {str(config.record_throughput).lower()}")
    lines.append("")
    lines.append("[methods]")
    for mspec in config.methods:
        sched = mspec.schedule
        text = sched.kind.value
        if sched.kind is ScheduleKind.CONSTANT:
            text += ":" + _fmt(sched.eta)
        lines.append(f"{mspec.method.value} = {text}")
    mel = [m for m in config.methods if m.method is Method.MEL]
    if mel:
        lines.append("")
        lines.append("[mel]")
        lines.append("lambdas = " + ", ".join(_fmt(v) for v in mel[0].lambdas))
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
    """Write CSV plus config echo (plus the throughput CSV when recorded);
    returns the written paths keyed by artifact name."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    write_csv(grid.records, csv_path)
    paths["csv"] = csv_path
    echo_path = os.path.join(out_dir, "config.echo.txt")
    with open(echo_path, "w", encoding="ascii", newline="\n") as f:
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
