"""Self-test of the benchmark at tiny size (about a minute).

    python3 bench/selftest.py

For every workload, shrunk to a few iterations and one path:
- every metric named in BENCHMARK.json is printed with its unit, in
  both modes;
- a reference value perturbed beyond tolerance makes a cell fail, and
  one perturbed within tolerance does not;
- the same seed writes byte-identical CSVs, another seed writes a
  different config and different CSVs.
Last, run.py must exit non-zero without a result line in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

from run import (
    END_TO_END_UNITS,
    OUT_ROOT,
    PINNED_ENV,
    ROOT,
    Run,
    _layer_unit,
    end_to_end,
    per_layer,
    spawn,
)
from workloads import (
    BENCH_DIR,
    DEFAULT_SEED,
    STEM,
    WORKLOADS,
    make_reference,
    sha256_file,
)

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def tiny(w):
    return replace(w, iterations=12, sample_paths=1,
                   gap_every=1 if w.gap_every == 1 else 4)


def check_metrics(name: str, metrics: dict, units: dict,
                  spec: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: units[k] for k in metrics}
    expect(got == want, f"{name}: metrics and units match BENCHMARK.json")


def perturbed(ref: dict, section: str, factor: float) -> dict:
    bad = copy.deepcopy(ref)
    key = sorted(bad[section])[0]
    bad[section][key][-1] *= factor
    return bad


def check_workload(w, bench: dict) -> None:
    out_base = OUT_ROOT / "selftest" / w.name
    shutil.rmtree(out_base, ignore_errors=True)
    seed = DEFAULT_SEED + 1

    spawn(w, DEFAULT_SEED, out_base / "record")
    ref = make_reference(w, out_base / "record", DEFAULT_SEED)

    run = Run(w, seed, out_base / "e2e", ref)
    metrics, _ = end_to_end(run, 0)
    expect(run.correct and run.failed == 0, f"{w.name}: end-to-end run correct")
    check_metrics(w.name, metrics, END_TO_END_UNITS, bench["end_to_end"])

    run = Run(w, seed, out_base / "layers", ref)
    metrics, _ = per_layer(run, 0)
    expect(run.correct and run.failed == 0, f"{w.name}: traced run correct")
    check_metrics(w.name, metrics, {k: _layer_unit(k) for k in metrics},
                  bench["per_layer"])

    sections = ["gaps"] + (["throughput"] if w.record_throughput else [])
    for section in sections:
        for factor, fails in ((1 + 1e-9, True), (1 + 1e-14, False)):
            run = Run(w, seed, out_base / "perturbed",
                      perturbed(ref, section, factor))
            run.reference_rep()
            expect((run.failed > 0) == fails,
                   f"{w.name}: {section} reference x{factor!r} "
                   f"{'fails' if fails else 'passes'}")

    a, b, c = (out_base / x for x in "abc")
    for out, s in ((a, 7), (b, 7), (c, 8)):
        spawn(w, s, out)
    csv = f"{STEM}.csv"
    expect(sha256_file(a / csv) == sha256_file(b / csv),
           f"{w.name}: same seed, byte-identical CSV")
    expect((a / "config.ini").read_bytes() != (c / "config.ini").read_bytes()
           and sha256_file(a / csv) != sha256_file(c / csv),
           f"{w.name}: other seed, other config and CSV")


def check_bare_directory() -> None:
    bare = OUT_ROOT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "demo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/: non-zero exit, no result line")


def main() -> int:
    os.environ.update(PINNED_ENV)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    expect(sorted(x["name"] for x in bench["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists every workload")
    for name in sorted(WORKLOADS):
        check_workload(tiny(WORKLOADS[name]), bench)
    check_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
