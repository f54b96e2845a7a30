"""spectra-svi benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload demo --seed 3 --seconds 20 --trace 0

The workload seed becomes the base seed of a generated INI config (see
workloads.py); the program receives nothing else. Every repetition is a
fresh process (child.py) that imports spectra_svi from ./src, parses the
config and builds the tasks (set-up), then runs the grid, writes the
CSV, config echo, SVG and, when recorded, throughput.csv through the
same calls as `spectra-svi run`.

--trace 0: untraced repetitions until --seconds is spent; prints the
end-to-end metrics as medians over repetitions. Run and CPU times are
in units of a calibration kernel timed around each repetition
(calibrate.py), so that the host's changing speed cancels out.
--trace 1: alternating untraced and traced repetitions; prints the
per-layer metrics from the spans of the traced ones (spans.py) and the
tracing overhead as traced minus untraced run_s.

Every repetition's outputs are checked (workloads.check_outputs), repeated
runs of one seed must write byte-identical CSVs, and one run at the
reference seed is compared with bench/reference/<workload>.json. The
last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import (
    BENCH_DIR,
    DEFAULT_SEED,
    STEM,
    WORKLOADS,
    check_outputs,
    load_reference,
    sha256_file,
)

ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
CHILD = BENCH_DIR / "child.py"
CHILD_TIMEOUT_S = 150
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
SETUP_SAMPLES = 9

# Pinned for this process and inherited by every child and pool worker.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_cal": "cal",
    "mcal_per_path_iter": "mcal",
    "cpu_cal": "cal",
    "peak_rss_mb": "MB",
    "cells_ok_frac": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def spawn(w, seed: int, out: Path, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one repetition in a fresh process; return its measurements."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ini = out / "config.ini"
    ini.write_text(w.ini(seed), encoding="ascii")
    spec = {"root": str(ROOT), "ini": str(ini), "out": str(out),
            "stem": STEM, "threads": w.threads, "trace": trace,
            "setup_only": setup_only}
    with open(out / "child.log", "w", encoding="utf-8") as log:
        spec["t0"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT,
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            # Timeout, Ctrl-C or SIGTERM: end the repetition and its pool.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if code != 0:
        tail = (out / "child.log").read_text(encoding="utf-8")[-2000:]
        raise ChildFailed(f"repetition exited with {code}:\n{tail}")
    return json.loads((out / "child.json").read_text(encoding="ascii"))


class Run:
    """Repetitions of one workload and the checks on their outputs."""

    def __init__(self, w, seed: int, out_base: Path, reference: dict):
        self.w, self.seed, self.out_base = w, seed, out_base
        self.reference = reference  # gap traces at DEFAULT_SEED
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # run-level check failures
        self.csv_hashes: set[str] = set()
        self.reference_checked = False
        self.notes: dict = {}

    def rep(self, trace: bool = False) -> dict:
        out = self.out_base / ("traced" if trace else "rep")
        res = spawn(self.w, self.seed, out, trace=trace)
        ref = self.reference if self.seed == DEFAULT_SEED else None
        self._check(out, res, ref)
        self.csv_hashes.add(sha256_file(out / f"{STEM}.csv"))
        return res

    def reference_rep(self) -> None:
        """One untimed repetition at the reference seed, unless the timed
        ones already ran there."""
        if self.reference_checked:
            return
        out = self.out_base / "reference"
        res = spawn(self.w, DEFAULT_SEED, out)
        self._check(out, res, self.reference)

    def _check(self, out: Path, res: dict, reference) -> None:
        self.attempted += res["cells"]
        self.failed += len(check_outputs(self.w, out, res["failures"],
                                         reference))
        self.reference_checked |= reference is not None

    @property
    def correct(self) -> bool:
        return (self.failed == 0 and not self.problems
                and len(self.csv_hashes) == 1 and self.reference_checked)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _timed_loop(seconds: float, min_rounds: int, round_fn) -> None:
    """Call round_fn until one more round would overrun `seconds`."""
    start = time.monotonic()
    rounds = 0
    while True:
        round_fn()
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    """Untraced repetitions; medians of the end-to-end metrics."""
    w = run.w
    spawn(w, run.seed, run.out_base / "warmup", setup_only=True)
    reps: list[dict] = []
    _timed_loop(seconds, MIN_REPS, lambda: reps.append(run.rep()))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(w, run.seed, run.out_base / "setup",
                            setup_only=True)["setup_s"])
    run.reference_rep()
    run_s = median(r["run_s"] for r in reps)
    run_cal = median(r["run_cal"] for r in reps)
    run.notes.update(setup_samples=len(setups),
                     run_s=run_s,
                     us_per_path_iter=run_s * 1e6 / w.path_iterations(),
                     cpu_s=median(r["cpu_s"] for r in reps),
                     run_s_samples=[r["run_s"] for r in reps],
                     cal_s_samples=[r["cal_s"] for r in reps],
                     run_cal_samples=[r["run_cal"] for r in reps])
    return {
        "setup_s": median(setups),
        "run_cal": run_cal,
        "mcal_per_path_iter": run_cal * 1e3 / w.path_iterations(),
        "cpu_cal": median(r["cpu_cal"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "cells_ok_frac": (run.attempted - run.failed) / run.attempted,
    }, reps


def tail_stats(samples: list[float]) -> tuple[float, float, int]:
    """p50 and the highest whole percentile with >= 10 samples beyond it
    (p50 when there are too few samples for that), nearest rank."""
    xs = sorted(samples)
    n = len(xs)
    pct = max(50, (100 * (n - 10)) // n)

    def rank(p: int) -> float:
        return xs[max(0, -(-p * n // 100) - 1)]
    return rank(50), rank(pct), pct


def per_layer(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    """Alternating untraced and traced repetitions; per-layer metrics
    from the traced spans, medians over the traced repetitions."""
    w = run.w
    spawn(w, run.seed, run.out_base / "warmup", setup_only=True)
    plain: list[dict] = []
    traced: list[dict] = []

    def pair() -> None:
        plain.append(run.rep())
        traced.append(run.rep(trace=True))
    _timed_loop(seconds, MIN_TRACED_PAIRS, pair)
    run.reference_rep()

    layers = [t["layers"] for t in traced]
    m: dict[str, float] = {}
    for key in layers[0]:
        values = [lay[key] for lay in layers]
        if key.endswith(".calls"):
            if len(set(values)) != 1:
                run.problems.append(f"{key} differs between repetitions")
            m[key] = values[0]
        else:
            m[key] = median(values)

    cells = [s for t in traced for s in t["cell_seconds"]]
    p50, tail, pct = tail_stats(cells)
    m["harness.run_cell.p50_s"] = p50
    m["harness.run_cell.tail_s"] = tail
    # Worker CPU over workers x wall, from the untraced repetitions; 0
    # when the grid runs in-process (no pool).
    m["harness.run_grid.worker_util"] = median(
        _ratio(r["workers_cpu_s"], w.threads * r["grid_s"])
        for r in plain) if w.threads > 1 else 0.0
    m["harness.write_outputs.bytes"] = plain[0]["output_bytes"]
    # The raw seconds behind the calibrated end-to-end metrics.
    plain_run = median(r["run_s"] for r in plain)
    m["raw.run_s"] = plain_run
    m["raw.us_per_path_iter"] = plain_run * 1e6 / w.path_iterations()
    m["raw.cpu_s"] = median(r["cpu_s"] for r in plain)
    m["host.cal_s"] = median(r["cal_s"] for r in plain)

    run_busy = m["solvers.run.busy_s"]
    for name in ("mimo.game_mapping", "solvers.dual_to_primal",
                 "problem.strong_gap"):
        m[f"{name}.share_of_run"] = _ratio(m[f"{name}.busy_s"], run_busy)
    m["mimo.throughput.share_of_cells"] = _ratio(
        m["mimo.throughput.busy_s"], m["harness.run_cell.busy_s"])
    # RunResult's own timers against the spans inside them: both ratios
    # sit just under 1, the rest being loop code between the spans.
    m["trace.iterate_span_ratio"] = _ratio(
        m["problem.oracle_sample.busy_s"] + m["solvers.dual_to_primal.busy_s"]
        + m["solvers.update_average.busy_s"],
        m["solvers.run.iterate_seconds"])
    m["trace.gap_span_ratio"] = _ratio(
        m["problem.assert_feasible.busy_s"] + m["problem.strong_gap.busy_s"],
        m["solvers.run.gap_seconds"])
    traced_run = median(t["run_s"] for t in traced)
    m["trace.overhead_s"] = traced_run - plain_run
    # From calibrated times, so a host slowdown between the two halves
    # of a pair does not read as overhead.
    m["trace.overhead_frac"] = _ratio(
        median(t["run_cal"] for t in traced),
        median(r["run_cal"] for r in plain)) - 1.0
    run.notes.update(
        run_cell_samples=len(cells), run_cell_tail_pct=pct,
        workers=w.threads, untraced_run_s=plain_run, traced_run_s=traced_run,
        pool_spans_traced=w.threads > 1)
    return m, plain + traced


def provenance(reps: list[dict]) -> dict:
    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    full = [r for r in reps if "numpy" in r]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": full[0]["numpy"] if full else None,
        "blas": full[0]["blas"] if full else None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("us_per_path_iter"):
        return "us"
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_s", "_seconds")):
        return "s"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spectra_svi" / "__init__.py").is_file():
        print(f"error: no spectra_svi sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    w = WORKLOADS[args.workload]
    out_base = OUT_ROOT / w.name
    shutil.rmtree(out_base, ignore_errors=True)
    run = Run(w, args.seed, out_base, load_reference(w.name))
    try:
        if args.trace:
            metrics, reps = per_layer(run, args.seconds)
            units = {k: _layer_unit(k) for k in metrics}
        else:
            metrics, reps = end_to_end(run, args.seconds)
            units = END_TO_END_UNITS
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    details = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "repetitions": len(reps), "cells_per_repetition": len(w.cells()),
        "failed_frac": run.failed / run.attempted,
        "deterministic_csv": len(run.csv_hashes) == 1,
        "problems": run.problems,
        "reference_checked": run.reference_checked,
        **run.notes,
        "provenance": provenance(reps),
    }
    (out_base / "details.json").write_text(
        json.dumps({**details, "metrics": metrics}, indent=1),
        encoding="ascii")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps(details))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
