"""`tools/compare_outputs.py` on one small run: a tree against itself,
against a copy whose config echo alone differs and against a copy whose
exit code alone differs; the value report of CSVs that differ."""

import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = ["exit code", "results.csv", "config.echo.txt", "results.svg",
         "throughput.csv"]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclass is looked up
    spec.loader.exec_module(module)
    return module


def _rows(out):
    return [line.split() for line in out.splitlines()[1:-1]]


def _perturbed(where, name, old, new):
    """A copy of the package's source at `where` with `old` replaced by
    `new` in module `name`."""
    shutil.copytree(ROOT / "src", where / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = where / "src" / "spectra_svi" / name
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return where


def test_a_tree_against_itself_and_a_perturbed_copy(tmp_path, capsys):
    tool = _tool()
    names = [case.name for case in tool.cases()]
    assert len(names) == len(set(names)) == 35
    assert tool.main([str(ROOT), str(ROOT), "--only", "colliding-t1"]) == 0
    out = capsys.readouterr().out
    assert _rows(out) == [
        ["colliding-t1", *f.split(), "identical"] for f in FILES]
    assert out.splitlines()[-1] == (
        "4 of 4 files identical and 1 of 1 exit codes equal over 1 runs")

    # A copy whose config echo alone differs: the tool exits 1.
    echo = _perturbed(tmp_path / "echo", "harness.py",
                      "0 (byte-stable output)", "0")
    assert tool.main([str(ROOT), str(echo), "--only", "colliding-t1"]) == 1
    out = capsys.readouterr().out
    assert [row[-1] for row in _rows(out)] == [
        "identical", "identical", "differs", "identical", "identical"]
    assert out.splitlines()[-1] == (
        "3 of 4 files identical and 1 of 1 exit codes equal over 1 runs")


def test_a_differing_exit_code_alone_is_a_difference(tmp_path, capsys):
    tool = _tool()
    code = _perturbed(tmp_path / "code", "cli.py", "EXIT_OK = 0",
                      "EXIT_OK = 4")
    assert tool.main([str(ROOT), str(code), "--only", "colliding-t1"]) == 1
    out = capsys.readouterr().out
    assert [row[-1] for row in _rows(out)] == [
        "4", "identical", "identical", "identical", "identical"]
    assert "differs: 0 -> 4" in out.splitlines()[1]
    assert out.splitlines()[-1] == (
        "4 of 4 files identical and 0 of 1 exit codes equal over 1 runs")


def test_a_perturbed_csv_reports_how_far_its_values_moved(tmp_path):
    # The last rate moves by one unit in the last place; a gap row that
    # moves in another column is only reported as different.
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    rates = ["method,player,path,iter,R", "am-smd,0,0,1,1.5",
             "am-smd,1,0,1,0.25", "am-smd,0,0,2,1.7801430840121752"]
    gaps = ["method,m,n,sigma,lambda,path,iter,gap,elapsed_ms",
            "am-smd,2,2,1,0,0,5,0.5,0"]
    for where in (parent, change):
        where.mkdir()
        (where / "throughput.csv").write_text("\n".join(rates) + "\n")
        (where / "results.csv").write_text("\n".join(gaps) + "\n")
        rates[-1] = "am-smd,0,0,2,1.7801430840121754"
        gaps[-1] = "am-smd,2,2,1,0,0,6,0.5,0"
    [throughput, results] = tool.compare(parent, change,
                                         ["throughput.csv", "results.csv"])
    assert throughput == ("differs: max |dR| 2.22e-16 abs, 1.25e-16 rel, "
                          "1 of 3 values moved")
    assert results == "differs"
    diff = tool.value_diff(parent / "throughput.csv",
                           change / "throughput.csv")
    assert diff["max_abs"] == 1.7801430840121754 - 1.7801430840121752
    assert diff["moved"] == 1 and diff["of"] == 3


def test_a_missing_output_is_a_difference(tmp_path):
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for where in (parent, change):
        where.mkdir()
        (where / "a.csv").write_bytes(b"x\n")
    (parent / "b.svg").write_bytes(b"<svg/>")
    assert tool.compare(parent, change, ["a.csv", "b.svg", "c.txt"]) == [
        "identical", "missing in change", "missing in parent and change"]
