"""`tools/preset_shape.py` at a tiny size: one tree against itself."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_preset_shape_times_every_batch_of_both_trees(capsys):
    spec = importlib.util.spec_from_file_location(
        "preset_shape", ROOT / "tools" / "preset_shape.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([str(ROOT), str(ROOT), "--iterations", "2",
                        "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"pair 1 \(parent first\): total [0-9.]+ -> [0-9.]+ s",
                        lines[0])
    assert lines[1].startswith("pair 2 (change first)")
    assert lines[2].startswith("process CPU (s) of harness.run_cell, T = 2")
    spread = r"[0-9.]+ \[[0-9.]+, [0-9.]+\]"
    for line, batch in zip(lines[3:], ("2x4", "4x2", "4x4", "total"),
                           strict=True):
        assert re.fullmatch(rf" *{batch}  parent {spread}  change {spread}  "
                            r"change lower in [0-2] of 2", line)
