"""`tools/preset_shape.py` at a tiny size: one tree against itself."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "preset_shape", ROOT / "tools" / "preset_shape.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_table(lines, batches):
    assert re.fullmatch(r"pair 1 \(parent first\): total [0-9.]+ -> [0-9.]+ s",
                        lines[0])
    assert lines[1].startswith("pair 2 (change first)")
    assert lines[2].startswith("process CPU (s) of harness.run_cell, T = 2")
    spread = r"[0-9.]+ \[[0-9.]+, [0-9.]+\]"
    for line, batch in zip(lines[3:], batches, strict=True):
        assert re.fullmatch(rf" *{batch}  parent {spread}  change {spread}  "
                            r"change lower in [0-2] of 2", line)


def test_preset_shape_times_every_batch_of_both_trees(capsys):
    assert _tool().main([str(ROOT), str(ROOT), "--iterations", "2",
                         "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].endswith("full-grid preset: median [q1, q3]")
    _check_table(lines, ("2x4", "4x2", "4x4", "total"))


def test_preset_shape_times_the_stability_batch(capsys):
    # The stability preset's one 4x4 batch of 20 cells, with its
    # throughput measure.
    assert _tool().main([str(ROOT), str(ROOT), "--iterations", "2",
                         "--pairs", "2", "--preset", "stability"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].endswith("stability preset: median [q1, q3]")
    _check_table(lines, ("4x4", "total"))
