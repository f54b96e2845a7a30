"""Process CPU of the full-grid preset's batches, one tree against another.

For each antenna pair of the full-grid preset it times
`harness.run_cell` on that pair's batch (150 cells) at a shortened
horizon, as process CPU (`time.process_time`). Each tree runs in a
fresh process on its own `src`, and the trees alternate: odd pairs run
PARENT first, even pairs CHANGE first. It prints each pair's times, then
per antenna pair and for the three batches together the median and the
quartiles of each tree and the number of pairs in which CHANGE took less.

Usage: python tools/preset_shape.py PARENT CHANGE [--iterations 400]
       [--pairs 10]
(PARENT and CHANGE are source trees, each with a `src/spectra_svi`.)
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

TREES = ("parent", "change")


def time_batches(iterations: int) -> dict[str, float]:
    """Process CPU seconds of `harness.run_cell` on each antenna pair's
    batch of the full-grid preset, run at `iterations`, keyed "MxN"."""
    import time

    # The first channel draw would import numpy.random inside the first
    # timed batch.
    import numpy.random  # noqa: F401
    from spectra_svi import harness

    config = replace(harness.preset_config("full-grid"),
                     iterations=iterations)
    batches: dict[str, list] = {}
    for task in harness.build_tasks(config):
        batches.setdefault(f"{task.m}x{task.n}", []).append(task)
    seconds = {}
    for pair, tasks in batches.items():
        tic = time.process_time()
        grid = harness.run_cell(*tasks)
        seconds[pair] = time.process_time() - tic
        if grid.failures:
            raise SystemExit(f"{pair}: {grid.failures[0]}")
    return seconds


def _run_tree(tree: Path, iterations: int) -> dict[str, float]:
    """time_batches in a fresh process that imports the tree's package."""
    src = tree / "src"
    code = "\n".join((
        "import json, sys",
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})",
        "import preset_shape, spectra_svi",
        f"assert spectra_svi.__file__.startswith({str(src)!r})",
        f"print(json.dumps(preset_shape.time_batches({iterations})))"))
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def _spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (linear interpolation between points)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--iterations", type=int, default=400)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict[str, float]]] = {name: [] for name in TREES}
    for k in range(args.pairs):
        order = TREES if k % 2 == 0 else TREES[::-1]
        for name in order:
            seconds = _run_tree(trees[name], args.iterations)
            seconds["total"] = sum(seconds.values())
            runs[name].append(seconds)
        print(f"pair {k + 1} ({order[0]} first): total "
              f"{runs['parent'][-1]['total']:.3f} -> "
              f"{runs['change'][-1]['total']:.3f} s", flush=True)
    print(f"process CPU (s) of harness.run_cell, T = {args.iterations}, "
          f"{args.pairs} pairs: median [q1, q3]")
    for batch in runs["parent"][0]:
        cols = []
        for name in TREES:
            median, q1, q3 = _spread([r[batch] for r in runs[name]])
            cols.append(f"{name} {median:.3f} [{q1:.3f}, {q3:.3f}]")
        lower = sum(c[batch] < p[batch]
                    for p, c in zip(runs["parent"], runs["change"]))
        print(f"{batch:>5}  {cols[0]}  {cols[1]}  change lower in "
              f"{lower} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
