"""The benchmark's tracer still finds every name it wraps.

`bench/spans.py` replaces module attributes of spectra_svi (such as
`harness.sample_channels`, which `harness.cell_problem` looks up) with
timing wrappers. A refactor that renames or stops importing one of them
would make `install` fail, or leave a layer reading zero. The spans
module is loaded read-only and its tables are checked against the
package; the tracer is installed only in a child process, which runs a
tiny grid and reports which layers were called.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans_module()
LOOKUPS = ([(name, owner, attr) for name, owner, attr in spans.SPANS]
           + [(name, owner, attr) for name, owners, attr in spans.COUNTS
              for owner in owners])


@pytest.mark.parametrize("name, owner, attr", LOOKUPS,
                         ids=[f"{n}@{o}" for n, o, _ in LOOKUPS])
def test_every_traced_name_resolves(name, owner, attr):
    target = spans._resolve("spectra_svi", owner)
    assert hasattr(target, attr), f"{name}: spectra_svi.{owner}.{attr} is gone"


# Spans that read zero on every workload today: the tracer still wraps
# `harness.run` and `harness.reported_sequence`, which nothing calls since
# the solver loop became `run_batch` with throughput measured inside it.
DEAD_SPANS = {"solvers.run", "solvers.reported_sequence"}

TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from spans import Tracer
from pathlib import Path
tracer = Tracer(Path(sys.argv[3]))
tracer.install("spectra_svi")
from spectra_svi import harness, svgplot
config = harness.parse_config(sys.argv[4])
grid = harness.run_grid(config, threads=1)
harness.write_outputs(grid, config, sys.argv[3], "results")
svgplot.render_svg(grid.records, sys.argv[3] + "/results.svg")
print(json.dumps(tracer.summary()))
"""


def test_every_live_layer_is_counted(tmp_path):
    ini = tmp_path / "exp.ini"
    # 2x2 blocks take the closed-form Gibbs map, which calls no
    # `linalg.eig`; the 4x4 pair keeps both paths live.
    ini.write_text("[experiment]\nantennas = 2x2, 4x4\nsigmas = 1\n"
                   "iterations = 4\nsample_paths = 2\ngap_every = 2\n"
                   "record_throughput = true\n"
                   "[methods]\nam-smd = harmonic-sqrt\nm-smd = harmonic\n")
    root = SPANS_PY.parent.parent
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(SPANS_PY.parent),
         str(root / "src"), str(tmp_path), str(ini)],
        capture_output=True, text=True, check=True, timeout=120)
    summary = json.loads(out.stdout.splitlines()[-1])
    names = [name for name, _, _ in spans.SPANS + spans.COUNTS]
    assert {n for n in names if summary[f"{n}.calls"] == 0} <= DEAD_SPANS
    # one draw per distinct channel seed and antenna pair: two sample
    # paths of two pairs
    assert summary["mimo.sample_channels.calls"] == 4
