"""In-memory span tracer wrapped around spectra_svi's module boundaries.

Nothing under src/ knows about it: `Tracer.install` replaces the name
each caller looks up (e.g. `solvers.oracle_sample`, which `solvers.run`
calls, or `harness.run`, which `harness.run_cell` calls) with a wrapper
that records a span (id, name, start, end, parent id, cell, pid) or
only bumps a call count. Spans stay in memory until `write`.

Pool workers forked by `harness.run_grid` inherit the wrappers. Each
worker clears what it inherited at fork, keeps the parent's open
`harness.run_grid` span as the parent of its cells, and appends its
spans to a per-pid file after every cell; `merge_workers` reads them
back in the parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (span name, module attribute path the caller looks up)
SPANS = (
    ("harness.parse_config", "harness", "parse_config"),
    ("harness.build_tasks", "harness", "build_tasks"),
    ("harness.run_grid", "harness", "run_grid"),
    ("harness.run_cell", "harness", "run_cell"),
    ("mimo.sample_channels", "harness", "sample_channels"),
    ("solvers.run", "harness", "run"),
    ("problem.oracle_sample", "solvers", "oracle_sample"),
    ("mimo.game_mapping", "mimo", "game_mapping"),
    ("problem.NoiseModel.sample", "problem.NoiseModel", "sample"),
    ("solvers.dual_to_primal", "solvers", "dual_to_primal"),
    ("solvers.update_average", "solvers", "update_average"),
    ("problem.assert_feasible", "solvers", "assert_feasible"),
    ("problem.strong_gap", "solvers", "strong_gap"),
    ("solvers.reported_sequence", "harness", "reported_sequence"),
    ("mimo.throughput", "harness", "throughput"),
    ("harness.write_outputs", "harness", "write_outputs"),
    ("svgplot.render_svg", "svgplot", "render_svg"),
)

# Hot helpers get a call count only: a span each would cost more than
# the call. Every module that imported the name is wrapped.
COUNTS = (
    ("mirror.gibbs_map_bounded", ("solvers",), "gibbs_map_bounded"),
    ("linalg.eig", ("linalg", "mirror", "problem"), "eig"),
    ("linalg.hermitianize", ("linalg", "mimo", "mirror", "problem"),
     "hermitianize"),
)


def _resolve(package: str, dotted: str):
    """`harness` -> module spectra_svi.harness; `problem.NoiseModel` -> class."""
    module, *rest = dotted.split(".")
    obj = importlib.import_module(f"{package}.{module}")
    for part in rest:
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.seq = 0
        self.stack: list[int] = []
        self.cell: str | None = None
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        # (cell, RunResult.iterate_seconds, RunResult.gap_seconds)
        self.run_results: list[tuple] = []

    def install(self, package: str) -> None:
        for name, owner, attr in SPANS:
            target = _resolve(package, owner)
            setattr(target, attr, self._span(name, getattr(target, attr)))
        for name, owners, attr in COUNTS:
            for owner in owners:
                target = _resolve(package, owner)
                setattr(target, attr, self._count(name, getattr(target, attr)))
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.seq = 0
        self.spans.clear()
        self.counts.clear()
        self.run_results.clear()

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        is_cell = name == "harness.run_cell"
        is_run = name == "solvers.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_cell:
                self.cell = args[0].label()
            self.seq += 1
            sid = (self.pid << 32) | self.seq
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.cell, self.pid))
            if is_run:
                self.run_results.append(
                    (self.cell, result.iterate_seconds, result.gap_seconds))
            if is_cell:
                self.cell = None
                if self.pid != self.root_pid:
                    self._flush_worker()
            return result
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _flush_worker(self) -> None:
        doc = {"spans": self.spans, "counts": self.counts,
               "run_results": self.run_results}
        path = self.worker_dir / f"worker-{self.pid}.jsonl"
        with open(path, "a", encoding="ascii") as f:
            f.write(json.dumps(doc) + "\n")
        self.spans.clear()
        self.counts.clear()
        self.run_results.clear()

    def merge_workers(self) -> None:
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="ascii").splitlines():
                doc = json.loads(line)
                self.spans.extend(tuple(s) for s in doc["spans"])
                self.counts.update(doc["counts"])
                self.run_results.extend(tuple(r) for r in doc["run_results"])
            path.unlink()

    def write(self, path: Path) -> None:
        """All spans, one JSON array per line, then the call counts."""
        with open(path, "w", encoding="ascii") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
            f.write(json.dumps({"counts": self.counts}) + "\n")

    def summary(self) -> dict[str, float]:
        """calls, busy_s and self_s per span name, plus the counters.

        Self time is a span's duration minus the union of its direct
        children's intervals (pool cells overlap, so a plain sum of the
        children could exceed the parent).
        """
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        out: dict[str, float] = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for sid, name, t0, t1, _, _, _ in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - covered
        for name, _, _ in COUNTS:
            out[f"{name}.calls"] = self.counts.get(name, 0)
        out["solvers.run.iterate_seconds"] = sum(
            r[1] for r in self.run_results)
        out["solvers.run.gap_seconds"] = sum(r[2] for r in self.run_results)
        return out

    def cell_seconds(self) -> list[float]:
        return [s[3] - s[2] for s in self.spans
                if s[1] == "harness.run_cell"]
