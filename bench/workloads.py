"""Workload definitions, input generation and output checks.

Each workload is a grid shape. The workload seed becomes the grid's
`base_seed`, so the program only ever sees a generated INI config; the
shape (and with it the amount of work) is the same for every seed. The
checks here parse the written CSVs with the standard library alone, so
they do not trust the program's own reader.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Reference traces are recorded at this workload seed.
DEFAULT_SEED = 1
# ROADMAP tolerance for gap traces; the absolute floor covers gaps that
# are close to zero, where a relative test is meaningless.
REL_TOL = 1e-12
ABS_FLOOR = 1e-13
# solvers.GAP_FLOOR: a gap below it is a numerical failure.
GAP_FLOOR = -1e-8
USERS = 7  # the canonical 7-cell topology

STEM = "results"  # output file stem, as `spectra-svi run --config` uses
GAP_HEADER = "method,m,n,sigma,lambda,path,iter,gap,elapsed_ms"
THROUGHPUT_HEADER = "method,player,path,iter,R"


@dataclass(frozen=True)
class Workload:
    name: str
    antennas: tuple[tuple[int, int], ...]
    sigmas: tuple[float, ...]
    methods: tuple[tuple[str, str], ...]  # (method, schedule)
    lambdas: tuple[float, ...]
    iterations: int
    sample_paths: int
    gap_every: int
    threads: int = 1
    record_throughput: bool = False

    def ini(self, seed: int) -> str:
        """The config file the program receives for this workload seed."""
        lines = [
            "[experiment]",
            "antennas = " + ", ".join(f"{m}x{n}" for m, n in self.antennas),
            "sigmas = " + ", ".join(repr(s) for s in self.sigmas),
            f"iterations = {self.iterations}",
            f"sample_paths = {self.sample_paths}",
            f"gap_every = {self.gap_every}",
            f"base_seed = {int(seed)}",
            "topology = canonical7",
            "resample_channels = true",
            "record_timing = false",
            f"record_throughput = {str(self.record_throughput).lower()}",
            "",
            "[methods]",
        ]
        lines += [f"{m} = {s}" for m, s in self.methods]
        if any(m == "mel" for m, _ in self.methods):
            lines += ["", "[mel]",
                      "lambdas = " + ", ".join(repr(v) for v in self.lambdas)]
        return "\n".join(lines) + "\n"

    def cells(self) -> list[tuple]:
        """Expected cell keys (method, m, n, sigma, lambda, path)."""
        out = []
        for m, n in self.antennas:
            for sigma in self.sigmas:
                for method, _ in self.methods:
                    lams = self.lambdas if method == "mel" else (0.0,)
                    for lam in lams:
                        for path in range(self.sample_paths):
                            out.append((method, m, n, float(sigma),
                                        float(lam), path))
        return out

    def gap_iterations(self) -> list[int]:
        its = list(range(self.gap_every, self.iterations + 1,
                         self.gap_every))
        if not its or its[-1] != self.iterations:
            its.append(self.iterations)
        return its

    def path_iterations(self) -> int:
        return len(self.cells()) * self.iterations


HS, H = "harmonic-sqrt", "harmonic"

# Sized so one repetition takes about a second on a 2-vCPU VM: a run of
# 25 s then holds about 20 repetitions, and the calibration kernel
# (calibrate.py) brackets each one closely.

WORKLOADS = {
    w.name: w for w in (
        # README headline shape: 2x2 blocks, per-call dispatch dominates.
        Workload("demo", ((2, 2),), (1.0,),
                 (("am-smd", HS), ("m-smd", HS), ("mel", H)), (0.5,),
                 iterations=150, sample_paths=2, gap_every=50),
        # Only workload with throughput recording (iterates stored and
        # the averaging replayed per cell).
        Workload("stability", ((4, 4),), (10.0,),
                 (("am-smd", HS), ("m-smd", HS)), (),
                 iterations=100, sample_paths=2, gap_every=50,
                 record_throughput=True),
        # Only workload with the process pool, non-square channels and
        # the lambda sweep.
        Workload("full-grid-2p", ((2, 4), (4, 2), (4, 4)), (0.5, 1.0, 5.0),
                 (("am-smd", HS), ("m-smd", HS), ("mel", H)),
                 (0.1, 0.5, 1.0),
                 iterations=30, sample_paths=1, gap_every=10, threads=2),
        # Gap and feasibility check every iteration; one CSV row each.
        Workload("gap-dense", ((2, 4), (4, 2)), (5.0,),
                 (("am-smd", HS), ("mel", H)), (0.5,),
                 iterations=60, sample_paths=2, gap_every=1),
    )
}


def cell_key_text(key: tuple) -> str:
    method, m, n, sigma, lam, path = key
    return f"{method}|{m}|{n}|{sigma!r}|{lam!r}|{path}"


def read_gap_csv(path: Path) -> dict[tuple, list[tuple[int, float]]]:
    """Gap rows grouped by cell key, in file order."""
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != GAP_HEADER:
        raise ValueError(f"{path}: bad header")
    cells: dict[tuple, list[tuple[int, float]]] = {}
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 9:
            raise ValueError(f"{path}: bad row {line!r}")
        key = (f[0], int(f[1]), int(f[2]), float(f[3]), float(f[4]),
               int(f[5]))
        cells.setdefault(key, []).append((int(f[6]), float(f[7])))
    return cells


def read_throughput_csv(path: Path) -> dict[tuple, list[float]]:
    """Throughput values keyed by (method, path), ordered by (player, iter)."""
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != THROUGHPUT_HEADER:
        raise ValueError(f"{path}: bad header")
    rows: dict[tuple, list[tuple[int, int, float]]] = {}
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 5:
            raise ValueError(f"{path}: bad row {line!r}")
        rows.setdefault((f[0], int(f[2])), []).append(
            (int(f[1]), int(f[3]), float(f[4])))
    return {k: [v for _, _, v in sorted(r)] for k, r in rows.items()}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * abs(b), ABS_FLOOR)


def check_outputs(w: Workload, out_dir: Path, failures: list[str],
                  reference: dict | None = None) -> set[tuple]:
    """Return the set of bad cells of one run written to out_dir.

    A cell is bad if the grid reported it failed, if its gap rows are
    missing, misplaced, non-finite or below the feasible floor, if its
    throughput rows are wrong, or, given a reference, if any value
    differs from it beyond tolerance. A missing or malformed artifact
    makes every cell bad.
    """
    cells = w.cells()
    bad: set[tuple] = set()
    try:
        got = read_gap_csv(out_dir / f"{STEM}.csv")
        svg = (out_dir / f"{STEM}.svg").read_text(encoding="ascii")
        echo = (out_dir / "config.echo.txt").read_text(encoding="ascii")
        tput = (read_throughput_csv(out_dir / "throughput.csv")
                if w.record_throughput else {})
    except (OSError, ValueError):
        return set(cells)
    if not svg.startswith("<svg") or not svg.rstrip().endswith("</svg>"):
        return set(cells)
    if ("[failures]" in echo) != bool(failures):
        return set(cells)
    if set(got) - set(cells):
        return set(cells)

    failed_labels = "\n".join(failures)
    its = w.gap_iterations()
    for key in cells:
        method, m, n, sigma, lam, path = key
        label = (f"method={method} m={m} n={n} sigma={sigma:.17g} "
                 f"lambda={lam:.17g} path={path}:")
        rows = got.get(key, [])
        if (label in failed_labels or [it for it, _ in rows] != its
                or not all(math.isfinite(g) and g >= GAP_FLOOR
                           for _, g in rows)):
            bad.add(key)
            continue
        if reference is not None:
            ref = reference["gaps"].get(cell_key_text(key))
            if ref is None or len(ref) != len(rows) or not all(
                    _close(g, r) for (_, g), r in zip(rows, ref)):
                bad.add(key)
                continue
        if w.record_throughput:
            values = tput.get((method, path), [])
            if len(values) != USERS * w.iterations or not all(
                    math.isfinite(v) and v >= -ABS_FLOOR for v in values):
                bad.add(key)
                continue
            if reference is not None:
                ref = reference["throughput"].get(f"{method}|{path}")
                if ref is None or len(ref) != len(values) or not all(
                        _close(v, r) for v, r in zip(values, ref)):
                    bad.add(key)
    return bad


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict:
    return json.loads(reference_path(name).read_text(encoding="ascii"))


def make_reference(w: Workload, out_dir: Path, seed: int) -> dict:
    """Reference document from the outputs of one run at `seed`."""
    got = read_gap_csv(out_dir / f"{STEM}.csv")
    doc = {
        "workload": w.name,
        "seed": seed,
        "rel_tol": REL_TOL,
        "abs_floor": ABS_FLOOR,
        "gaps": {cell_key_text(k): [g for _, g in got[k]]
                 for k in w.cells()},
    }
    if w.record_throughput:
        tput = read_throughput_csv(out_dir / "throughput.csv")
        doc["throughput"] = {f"{m}|{p}": v for (m, p), v in tput.items()}
    return doc
