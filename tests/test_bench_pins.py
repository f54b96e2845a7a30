"""The bench workloads' outputs, byte for byte.

`bench/workloads.py` is loaded read-only, as `test_bench_contract.py`
loads `spans.py`. Each workload's generated config runs in-process at
workload seed 1 (`full-grid-2p` at threads 1: the pool does not change
the bytes), and the SHA-256 of its `results.csv` (and, for
`stability`, of its `throughput.csv`) must equal the pinned value. A
speed change to the solver loop, the game or the Gibbs maps must leave
them all as they are.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from spectra_svi import harness

WORKLOADS_PY = (Path(__file__).resolve().parent.parent / "bench"
                / "workloads.py")


def _workloads_module():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _workloads_module().WORKLOADS

PINS = {
    "demo": {"csv": "9d99d5b1cc7114827ce9397f8cf6af09"
                    "7e380088c27efe817926d772c853f87f"},
    "stability": {"csv": "20894c8d21066601475fa081ffb02359"
                         "3e8549df88208eaa5c6935c1202f76f6",
                  "throughput": "ef3e194d7b60e349e4986d1f3816493b"
                                "85534e9035cbbec6bcfe2b980541359c"},
    "full-grid-2p": {"csv": "20925ee2817279dfd0ea8a483232b6ae"
                            "dfd3a03306c76c32f6502580e5797c69"},
    "gap-dense": {"csv": "ffaed30d3913ceb92eb2c80479978aa4"
                         "b72911ec89fbcd5f0f82003dbb6801a1"},
}


def test_every_workload_is_pinned():
    assert set(PINS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_workload_outputs_keep_their_bytes(name, tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(WORKLOADS[name].ini(1))
    config = harness.parse_config(ini)
    grid = harness.run_grid(config, threads=1)
    assert grid.failures == []
    paths = harness.write_outputs(grid, config, str(tmp_path), "results")
    digests = {kind: hashlib.sha256(Path(paths[kind]).read_bytes())
               .hexdigest() for kind in PINS[name]}
    assert digests == PINS[name]
    assert set(paths) - {"echo"} == set(PINS[name])
