"""Byte-for-byte comparison of two trees' outputs over a fixed list of runs.

Each run is `spectra_svi.cli run` in a fresh process on one tree's own
`src`, with the same config and thread count for both trees:

* the four bench workloads' configs (`bench/workloads.py`) at seeds 1
  and 7, at threads 1 and 2, and the same configs at gap_every = 1
  where theirs differs;
* the demo and stability presets at threads 1 and 2, and the full-grid
  preset at threads 2;
* a config with the settings of `tests/test_batch.py::COLLIDING`, whose
  cells share their throughput keys, at threads 1 and 2.

It compares each run's gap CSV, `throughput.csv` (where the run records
throughput), `config.echo.txt` and SVG byte for byte and prints one
table row per run and file. It exits 1 when any file differs or is
missing from either tree's outputs, and 0 when all are identical.

Usage: python tools/compare_outputs.py PARENT CHANGE [--only TEXT]
(PARENT and CHANGE are source trees, each with a `src/spectra_svi`;
--only keeps the runs whose name contains TEXT.)
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")

# tests/test_batch.py::COLLIDING as a config file: two antenna pairs, two
# sigmas and two MEL lambdas whose cells share (method, path) keys.
COLLIDING_INI = """\
[experiment]
antennas = 2x2, 2x4
sigmas = 0.0, 1.0
iterations = 6
sample_paths = 2
gap_every = 3
base_seed = 11
record_throughput = true

[methods]
am-smd = harmonic-sqrt
m-smd = harmonic-sqrt
mel = harmonic

[mel]
lambdas = 0.1, 0.5
"""


@dataclass(frozen=True)
class Case:
    """One run: `spectra-svi run` of a config file's text `ini`, or of a
    preset, at `threads`; its gap CSV and SVG are named after `stem`."""

    name: str
    threads: int
    throughput: bool
    ini: str | None = None
    preset: str | None = None

    @property
    def stem(self) -> str:
        return self.preset or "results"

    def files(self) -> list[str]:
        return ([f"{self.stem}.csv", "config.echo.txt", f"{self.stem}.svg"]
                + (["throughput.csv"] if self.throughput else []))


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclass is looked up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def cases() -> list[Case]:
    """The fixed list of runs, in the order they are made."""
    out = []
    for w in _workloads().values():
        for seed in (1, 7):
            ini = w.ini(seed)
            variants = [("", ini)]
            if w.gap_every != 1:
                variants.append(("-every1", re.sub(
                    r"(?m)^gap_every = .*$", "gap_every = 1", ini)))
            for suffix, text in variants:
                for threads in (1, 2):
                    out.append(Case(f"{w.name}-s{seed}{suffix}-t{threads}",
                                    threads, w.record_throughput, ini=text))
    for preset, threads in (("demo", 1), ("demo", 2), ("stability", 1),
                            ("stability", 2), ("full-grid", 2)):
        out.append(Case(f"preset-{preset}-t{threads}", threads,
                        preset == "stability", preset=preset))
    for threads in (1, 2):
        out.append(Case(f"colliding-t{threads}", threads, True,
                        ini=COLLIDING_INI))
    return out


def run_case(tree: Path, case: Case, out: Path) -> None:
    """`spectra-svi run` of `case` on the tree's own `src`, writing to
    `out`; a run whose cells fail still writes its outputs."""
    out.mkdir(parents=True)
    if case.ini is None:
        source = ["--preset", case.preset]
    else:
        config = out.parent / f"{out.name}.ini"
        config.write_text(case.ini, encoding="ascii")
        source = ["--config", str(config)]
    env = {k: v for k, v in os.environ.items() if k != "SPECTRA_SVI_SEED"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "spectra_svi.cli", "run", *source,
                    "--out", str(out), "--threads", str(case.threads)],
                   env=env, capture_output=True, check=False)


def compare(parent: Path, change: Path, files: list[str]) -> list[str]:
    """Per file: identical, differs, or missing from a tree's outputs."""
    results = []
    for name in files:
        missing = [tree for tree, where in zip(TREES, (parent, change))
                   if not (where / name).is_file()]
        if missing:
            results.append("missing in " + " and ".join(missing))
        elif (parent / name).read_bytes() == (change / name).read_bytes():
            results.append("identical")
        else:
            results.append("differs")
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--only", default="", metavar="TEXT",
                        help="keep the runs whose name contains TEXT")
    args = parser.parse_args(argv)
    trees = (args.parent.resolve(), args.change.resolve())
    selected = [c for c in cases() if args.only in c.name]
    if not selected:
        parser.error(f"no run name contains {args.only!r}")
    width = max(len(c.name) for c in selected)
    bad = total = 0
    with tempfile.TemporaryDirectory() as work:
        print(f"{'run':<{width}}  {'file':<16}  result", flush=True)
        for case in selected:
            outs = [Path(work) / tree / case.name for tree in TREES]
            for tree, out in zip(trees, outs):
                run_case(tree, case, out)
            for name, result in zip(case.files(),
                                    compare(*outs, case.files())):
                total += 1
                bad += result != "identical"
                print(f"{case.name:<{width}}  {name:<16}  {result}",
                      flush=True)
    print(f"{total - bad} of {total} files identical over {len(selected)} "
          "runs")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
