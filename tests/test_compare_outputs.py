"""`tools/compare_outputs.py` on one small run: a tree against itself,
and against a copy whose config echo differs."""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclass is looked up
    spec.loader.exec_module(module)
    return module


def _rows(out):
    return [line.split() for line in out.splitlines()[1:-1]]


def test_a_tree_against_itself_and_a_perturbed_copy(tmp_path, capsys):
    tool = _tool()
    names = [case.name for case in tool.cases()]
    assert len(names) == len(set(names)) == 35
    assert tool.main([str(ROOT), str(ROOT), "--only", "colliding-t1"]) == 0
    out = capsys.readouterr().out
    files = ["results.csv", "config.echo.txt", "results.svg",
             "throughput.csv"]
    assert _rows(out) == [["colliding-t1", f, "identical"] for f in files]
    assert out.splitlines()[-1] == "4 of 4 files identical over 1 runs"

    copy = tmp_path / "tree"
    shutil.copytree(ROOT / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    harness = copy / "src" / "spectra_svi" / "harness.py"
    text = harness.read_text()
    assert text.count("0 (byte-stable output)") == 1
    harness.write_text(text.replace("0 (byte-stable output)", "0"))
    assert tool.main([str(ROOT), str(copy), "--only", "colliding-t1"]) == 1
    assert [row[2] for row in _rows(capsys.readouterr().out)] == [
        "identical", "differs", "identical", "identical"]


def test_a_missing_output_is_a_difference(tmp_path):
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for where in (parent, change):
        where.mkdir()
        (where / "a.csv").write_bytes(b"x\n")
    (parent / "b.svg").write_bytes(b"<svg/>")
    assert tool.compare(parent, change, ["a.csv", "b.svg", "c.txt"]) == [
        "identical", "missing in change", "missing in parent and change"]
