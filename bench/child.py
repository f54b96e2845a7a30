"""One measured repetition, in a fresh process started by run.py.

    python3 bench/child.py SPEC_JSON

SPEC_JSON names the checkout root, the generated config, the output
directory, the worker count, whether to trace, whether to stop after
set-up, and `t0`, the parent's time.monotonic() just before it started
this process. CLOCK_MONOTONIC is system wide, so set-up time counts
interpreter start-up and imports. The timed section is bracketed by
calls of the calibration kernel (calibrate.py), and its time is also
reported in units of that kernel's median time. The measurements go to
`<out>/child.json`.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

CAL_CALLS = 5  # calibration kernel calls before and after the timed section


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    out = Path(spec["out"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import spectra_svi
    if not Path(spectra_svi.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"spectra_svi imported from outside {src}")

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer(out)
        tracer.install("spectra_svi")
    from spectra_svi import harness, svgplot

    config = harness.parse_config(spec["ini"])
    tasks = harness.build_tasks(config)
    setup_s = time.monotonic() - spec["t0"]
    result = {"setup_s": setup_s, "cells": len(tasks),
              "iterations": config.iterations}
    if spec["setup_only"]:
        return result

    # The kernel brackets the timed section, so the two see the same host.
    import calibrate
    cal = calibrate.measure(CAL_CALLS)
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    workers_cpu0 = _cpu(resource.RUSAGE_CHILDREN)
    tic = time.perf_counter()
    grid = harness.run_grid(config, threads=spec["threads"])
    grid_s = time.perf_counter() - tic
    paths = harness.write_outputs(grid, config, str(out), spec["stem"])
    svg_path = out / f"{spec['stem']}.svg"
    svgplot.render_svg(grid.records, svg_path)
    run_s = time.perf_counter() - tic
    cpu1 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    workers_cpu = _cpu(resource.RUSAGE_CHILDREN) - workers_cpu0
    cal += calibrate.measure(CAL_CALLS)
    cal_s = median(w for w, _ in cal)
    cal_cpu_s = median(c for _, c in cal)

    result.update(
        run_s=run_s,
        cpu_s=cpu1 - cpu0,
        cal_s=cal_s,
        run_cal=run_s / cal_s,
        cpu_cal=(cpu1 - cpu0) / cal_cpu_s,
        peak_rss_mb=max(_maxrss_mb(resource.RUSAGE_SELF),
                        _maxrss_mb(resource.RUSAGE_CHILDREN)),
        failures=list(grid.failures),
        output_bytes=sum(Path(p).stat().st_size for p in paths.values()),
        grid_s=grid_s,
        workers_cpu_s=workers_cpu,
    )

    import numpy
    result["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["blas"] = {k: blas.get(k) for k in
                          ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        result["blas"] = None

    if tracer is not None:
        tracer.merge_workers()
        tracer.write(out / "spans.jsonl")
        result["layers"] = tracer.summary()
        result["cell_seconds"] = tracer.cell_seconds()
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    res = main(spec)
    Path(spec["out"], "child.json").write_text(json.dumps(res),
                                               encoding="ascii")
