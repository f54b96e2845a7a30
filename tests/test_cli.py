"""Command-line interface: exit codes, artifacts, environment seed."""

import logging
import os

import numpy as np
import pytest

from spectra_svi import cli, harness, solvers
from spectra_svi.checks import CheckResult
from spectra_svi.errors import ConfigError


def _tiny_config_text():
    return (
        "[experiment]\n"
        "antennas = 2x2\n"
        "sigmas = 1\n"
        "iterations = 30\n"
        "sample_paths = 1\n"
        "gap_every = 30\n"
        "base_seed = 5\n"
        "[methods]\n"
        "am-smd = horizon\n"
    )


def test_run_with_config_writes_artifacts(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_tiny_config_text())
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    assert (out / "results.csv").exists()
    assert (out / "results.svg").exists()
    assert (out / "config.echo.txt").exists()
    records = harness.read_csv(out / "results.csv")
    assert len(records) == 1 and records[0].iteration == 30


def test_run_rejects_missing_config(tmp_path):
    code = cli.main(["run", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_run_rejects_bad_config_key(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nspeed = 11\n[methods]\nam-smd = horizon\n")
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_run_rejects_negative_threads(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_tiny_config_text())
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out),
                     "--threads", "-1"])
    assert code == cli.EXIT_CONFIG
    assert "threads must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new, key", [
    ("sigmas = 1", "sigmas = inf", "sigmas"),
    ("sigmas = 1", "sigmas = nan", "sigmas"),
    ("sigmas = 1", "sigmas = -1", "sigmas"),
    ("antennas = 2x2", "antennas = 0x2", "antennas"),
    ("antennas = 2x2", "antennas = 2x0", "antennas"),
    ("am-smd = horizon", "am-smd = constant:nan", "am-smd"),
    ("am-smd = horizon", "mel = harmonic\n[mel]\nlambdas = 0.5, nan",
     "lambdas"),
    ("am-smd = horizon", "mel = harmonic\n[mel]\nlambdas = -0.5", "lambdas"),
    ("sigmas = 1", "sigmas = 1\nsigmas = 2", "sigmas"),
    ("sigmas = 1", "sigmas = 5%", "sigmas"),
    ("", b"\xff\xfe", "UTF-8"),
    ("am-smd = horizon", "mel = harmonic\n[mel]\n", "[mel] lambdas"),
    ("am-smd = horizon", "am-smd = horizon\n[MEL]\nlambdas = 7", "[MEL]"),
    ("sigmas = 1", "sigmas = 1\ntopology = {topology}", "max_pwr"),
    ("antennas = 2x2", "antennas = 2x2, 4x4\ntopology = {topology}",
     "antennas"),
    ("antennas = 2x2", "antennas = 2x2, 2X2", "antennas"),
    ("sigmas = 1", "sigmas = 1, 1.0", "sigmas"),
    ("sigmas = 1", "sigmas = 0, -0", "sigmas"),
    ("am-smd = horizon", "mel = harmonic\n[mel]\nlambdas = 0.5, 0.50",
     "lambdas"),
], ids=["sigma-inf", "sigma-nan", "sigma-negative", "antennas-0x2",
        "antennas-2x0", "constant-nan", "lambda-nan", "lambda-negative",
        "repeated-key", "percent-sign", "not-utf8", "mel-empty",
        "unknown-section", "unknown-topology-key",
        "pairs-with-topology-file", "repeated-antennas", "repeated-sigma",
        "signed-zero-sigmas", "repeated-lambda"])
def test_run_rejects_bad_values_before_any_work(tmp_path, capsys,
                                                old, new, key):
    cfg = tmp_path / "exp.ini"
    # A topology file with a misspelled key; an error in it names it.
    topology = tmp_path / "topo.ini"
    topology.write_text("[topology]\ntx_antennas = 2, 2\n"
                        "rx_antennas = 2, 2\nmax_pwr = 5\n"
                        "distances = 0.9 1.5\n  1.5 0.9\n")
    named = topology if key == "max_pwr" else cfg
    if isinstance(new, bytes):  # bytes that no UTF-8 text starts with
        cfg.write_bytes(new + _tiny_config_text().encode())
    else:
        cfg.write_text(_tiny_config_text().replace(
            old, new.format(topology=topology)))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    # the file is named, also by the constructors' range checks and by
    # configparser's own errors, and only once
    assert err.startswith(f"config error: {named}: ") and key in err
    assert err.count(str(named)) == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_run_requires_config_or_preset():
    with pytest.raises(SystemExit):
        cli.main(["run"])


def test_env_seed_override(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_tiny_config_text())

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    monkeypatch.setenv(harness.SEED_ENV_VAR, "777")
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(out_c)]) == 0

    bytes_a = (out_a / "results.csv").read_bytes()
    bytes_b = (out_b / "results.csv").read_bytes()
    bytes_c = (out_c / "results.csv").read_bytes()
    assert bytes_a != bytes_b  # seed override changes the draw
    assert bytes_b == bytes_c  # but stays deterministic


def test_env_seed_must_be_integer(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_tiny_config_text())
    monkeypatch.setenv(harness.SEED_ENV_VAR, "lucky")
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_apply_env_seed_helper(monkeypatch):
    config = harness.preset_config("demo")
    monkeypatch.delenv(harness.SEED_ENV_VAR, raising=False)
    assert cli._apply_env_seed(config) is config
    monkeypatch.setenv(harness.SEED_ENV_VAR, "31415")
    assert cli._apply_env_seed(config).base_seed == 31415
    monkeypatch.setenv(harness.SEED_ENV_VAR, "pi")
    with pytest.raises(ConfigError):
        cli._apply_env_seed(config)


def test_plot_from_csv(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_tiny_config_text())
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    svg = tmp_path / "replot.svg"
    code = cli.main(["plot", str(out / "results.csv"), str(svg)])
    assert code == cli.EXIT_OK
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text or "circle" in text


def test_plot_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,gap,csv\n")
    assert cli.main(["plot", str(bad), str(tmp_path / "x.svg")]) == cli.EXIT_CONFIG


def test_a_failed_batch_warns_once_per_cell_and_exits_2(tmp_path, capsys,
                                                        caplog, monkeypatch):
    # An error from outside the package fails the 2x4 batch; the 2x2
    # batch's rows are still written, and each failed cell's line reaches
    # stderr once, through the grid's failures, after the one traceback
    # of the batch's error: nothing is logged.
    real = harness.run_cell

    def run_cell(*tasks):
        if tasks[0].n == 4:
            raise RuntimeError("injected")
        return real(*tasks)

    monkeypatch.setattr(harness, "run_cell", run_cell)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_tiny_config_text().replace("2x2", "2x2, 2x4").replace(
        "sample_paths = 1", "sample_paths = 2"))
    out = tmp_path / "out"
    with caplog.at_level(logging.DEBUG):
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_NUMERICAL
    assert caplog.records == []
    err = capsys.readouterr().err
    assert err.count("Traceback (most recent call last):") == 1
    failures = [f"{t.label()}: batch failed: RuntimeError: injected"
                for t in harness.build_tasks(harness.parse_config(str(cfg)))
                if t.n == 4]
    assert len(failures) == 2
    lines = err.splitlines()
    for failure in failures:
        assert lines.count(f"warning: {failure}") == 1
    assert [line for line in lines if "injected" in line][-3:] == [
        "RuntimeError: injected"] + [f"warning: {f}" for f in failures]
    records = harness.read_csv(out / "results.csv")
    assert {(r.m, r.n) for r in records} == {(2, 2)}
    echo = (out / "config.echo.txt").read_text()
    assert echo.split("[failures]\n", 1)[1].splitlines() == failures


def test_run_with_every_cell_failed_writes_partial_results(tmp_path, capsys,
                                                           monkeypatch):
    # A Gibbs map that returns NaN makes every cell fail mid-run. The
    # loop maps 2x2 duals by their Hermitian coordinates.
    monkeypatch.setattr(solvers, "gibbs_2x2_coordinates",
                        lambda y, slack: np.full_like(y, np.nan))
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_tiny_config_text())
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "skipped the SVG plot" in err
    assert harness.read_csv(out / "results.csv") == []
    echo = (out / "config.echo.txt").read_text()
    assert "sigma=1" in echo.split("[failures]\n", 1)[1]
    assert not (out / "results.svg").exists()


def test_run_rejects_a_config_that_repeats_cells(tmp_path, capsys):
    # Each repeat would rerun its cells with the same seeds and write
    # their rows again under the same key.
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_tiny_config_text().replace(
        "antennas = 2x2", "antennas = 2x2, 2X2").replace(
        "sigmas = 1", "sigmas = 1, 1.0").replace(
        "am-smd = horizon", "mel = harmonic\n[mel]\nlambdas = 0.5, 0.50"))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "must be distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", [
    b"am-smd,2,2,1,0,0,30,inf,0",
    b"am-smd,2,2,1,0,0,30,nan,0",
    b"am-smd,2,2,1,0,0,30,0.5,0\xff",
], ids=["gap-inf", "gap-nan", "not-ascii"])
def test_plot_rejects_unplottable_csv(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(harness.CSV_HEADER.encode() + b"\n" + row + b"\n")
    svg = tmp_path / "x.svg"
    assert cli.main(["plot", str(bad), str(svg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}")
    assert "Traceback" not in err
    assert not svg.exists()


def test_plot_rejects_csv_without_records(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(harness.CSV_HEADER + "\n")
    svg = tmp_path / "x.svg"
    assert cli.main(["plot", str(empty), str(svg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "no gap records" in err
    assert "Traceback" not in err
    assert not svg.exists()


def _throughput_warnings(capsys, tmp_path, text):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text.replace("[methods]",
                                "record_throughput = true\n[methods]"))
    code = cli.main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    return [line for line in capsys.readouterr().err.splitlines()
            if "throughput.csv" in line]


def test_run_warns_once_when_throughput_keys_collide(tmp_path, capsys):
    text = _tiny_config_text().replace("iterations = 30", "iterations = 4")
    assert _throughput_warnings(capsys, tmp_path, text) == []
    warnings = _throughput_warnings(
        capsys, tmp_path, text.replace("sigmas = 1", "sigmas = 0, 1")
        .replace("antennas = 2x2", "antennas = 2x2, 2x4"))
    assert len(warnings) == 1 and warnings[0].startswith("warning: ")
    rows = (tmp_path / "out" / "throughput.csv").read_text().splitlines()
    assert len(rows) - 1 == 4 * 4 * 7  # cells x iterations x players
    assert len({row.rsplit(",", 1)[0] for row in rows[1:]}) == 4 * 7


def test_check_command_passes(capsys, monkeypatch):
    # The suite itself runs in test_checks.py; here it returns canned
    # results, all passing and then one failing.
    for failing in (0, 1):
        results = [CheckResult("first", True, "margin 1e-12"),
                   CheckResult("second", not failing, "margin 2e-3")]
        monkeypatch.setattr(cli, "run_checks", lambda: results)
        code = cli.main(["check"])
        assert code == (cli.EXIT_CHECKS if failing else cli.EXIT_OK)
        assert capsys.readouterr().out.splitlines() == [
            "PASS  first: margin 1e-12",
            f"{'FAIL' if failing else 'PASS'}  second: margin 2e-3",
            f"{2 - failing}/2 checks passed",
        ]


def test_preset_choices_are_wired():
    parser = cli.build_parser()
    args = parser.parse_args(["run", "--preset", "demo", "--out", "x"])
    assert args.preset == "demo"
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--preset", "warp", "--out", "x"])
