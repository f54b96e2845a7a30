"""Experiment grids: seeding, CSV schema, config parsing, presets."""

import os
from concurrent.futures import Future

import numpy as np
import pytest

from spectra_svi import harness
from spectra_svi.errors import ConfigError
from spectra_svi.harness import (
    CSV_HEADER,
    ExperimentConfig,
    GapRecord,
    MethodSpec,
    build_tasks,
    derive_seed,
    parse_config,
    parse_schedule,
    preset_config,
    read_csv,
    run_cell,
    run_grid,
    write_csv,
    write_outputs,
    write_throughput_csv,
)
from spectra_svi.solvers import Method, ScheduleKind, StepSchedule

DATA = os.path.join(os.path.dirname(__file__), "data")


def _small_config(**overrides):
    base = dict(
        antenna_pairs=((2, 2),),
        sigmas=(1.0,),
        methods=(
            MethodSpec(Method.AM_SMD, StepSchedule.horizon()),
            MethodSpec(Method.M_SMD, StepSchedule.horizon()),
        ),
        iterations=60,
        sample_paths=2,
        gap_every=30,
        base_seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_derive_seed_is_deterministic_and_sensitive():
    a = derive_seed(7, "solver", "am-smd", 2, 2)
    assert a == derive_seed(7, "solver", "am-smd", 2, 2)
    assert a != derive_seed(8, "solver", "am-smd", 2, 2)
    assert a != derive_seed(7, "solver", "am-smd", 2, 4)
    assert 0 <= a < 2**64


def test_derive_seed_no_separator_collisions():
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


def test_method_spec_rejects_lambdas_off_mel():
    with pytest.raises(ValueError):
        MethodSpec(Method.AM_SMD, StepSchedule.horizon(), (0.5,))
    with pytest.raises(ValueError):
        MethodSpec(Method.MEL, StepSchedule.harmonic(), ())
    for lam in (-0.5, np.nan, np.inf):
        with pytest.raises(ConfigError, match="lambdas"):
            MethodSpec(Method.MEL, StepSchedule.harmonic(), (0.1, lam))


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        _small_config(antenna_pairs=())
    with pytest.raises(ConfigError):
        _small_config(sigmas=())
    with pytest.raises(ConfigError):
        _small_config(iterations=0)
    with pytest.raises(ConfigError):
        _small_config(sample_paths=0)
    for pairs in (((0, 2),), ((2, 2), (2, 0))):
        with pytest.raises(ConfigError, match="antennas"):
            _small_config(antenna_pairs=pairs)
    for sigma in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="sigmas"):
            _small_config(sigmas=(1.0, sigma))


def test_build_tasks_grid_product():
    config = _small_config(
        antenna_pairs=((2, 2), (2, 4)),
        sigmas=(0.5, 1.0),
        methods=(
            MethodSpec(Method.AM_SMD, StepSchedule.horizon()),
            MethodSpec(Method.MEL, StepSchedule.harmonic(), (0.1, 0.5)),
        ),
        sample_paths=3,
    )
    tasks = build_tasks(config)
    # 2 pairs x 2 sigmas x (1 + 2) method-lambda combos x 3 paths
    assert len(tasks) == 2 * 2 * 3 * 3


def test_build_tasks_channel_seed_pairs_methods():
    # All methods and lambdas in one cell share the channel realization;
    # only the sample path (and antenna pair) moves it.
    tasks = build_tasks(_small_config(
        methods=(
            MethodSpec(Method.AM_SMD, StepSchedule.horizon()),
            MethodSpec(Method.M_SMD, StepSchedule.horizon()),
            MethodSpec(Method.MEL, StepSchedule.harmonic(), (0.5,)),
        )))
    by_path = {}
    for t in tasks:
        by_path.setdefault(t.path, set()).add(t.channel_seed)
    assert all(len(seeds) == 1 for seeds in by_path.values())
    assert by_path[0] != by_path[1]


def test_build_tasks_solver_seeds_distinct():
    tasks = build_tasks(_small_config())
    seeds = [t.solver_seed for t in tasks]
    assert len(set(seeds)) == len(seeds)


def test_build_tasks_fixed_channels_mode():
    tasks = build_tasks(_small_config(resample_channels=False))
    assert len({t.channel_seed for t in tasks}) == 1


def test_run_cell_emits_expected_rows():
    task = build_tasks(_small_config())[0]
    records, trecords, failures = run_cell(task)
    assert failures == []
    assert trecords == []
    assert [r.iteration for r in records] == [30, 60]
    assert all(r.method == "am-smd" and r.elapsed_ms == 0.0 for r in records)
    assert all(r.gap >= -1e-8 for r in records)


def test_run_cell_timing_flag_populates_elapsed():
    task = build_tasks(_small_config(record_timing=True))[0]
    records, _, _ = run_cell(task)
    assert all(r.elapsed_ms > 0 for r in records)


def test_run_grid_deterministic_records():
    config = _small_config()
    a = run_grid(config, threads=1)
    b = run_grid(config, threads=1)
    assert a.records == b.records
    assert a.failures == b.failures == []


def test_run_grid_sorted_output():
    grid = run_grid(_small_config(), threads=1)
    keys = [r.sort_key for r in grid.records]
    assert keys == sorted(keys)


def test_run_grid_process_pool_matches_sequential():
    config = _small_config(iterations=30, gap_every=30)
    seq = run_grid(config, threads=1)
    par = run_grid(config, threads=2)
    assert seq.records == par.records


def test_run_grid_keeps_other_batches_when_one_raises(tmp_path, monkeypatch):
    config = _small_config(antenna_pairs=((2, 2), (2, 4)), iterations=10,
                           gap_every=5)
    real = harness.sample_channels

    def broken(topology, rng):
        if topology.rx_antennas[0] == 4:
            raise RuntimeError("channel store offline")
        return real(topology, rng)

    # Forked pool workers inherit the patch.
    monkeypatch.setattr(harness, "sample_channels", broken)
    seen = []
    grid = run_grid(config, threads=2, on_failure=seen.append)
    bad = [t for t in build_tasks(config) if t.n == 4]
    assert grid.failures == [
        f"{t.label()}: batch failed: RuntimeError: channel store offline"
        for t in bad]
    assert seen == grid.failures
    assert {(r.m, r.n) for r in grid.records} == {(2, 2)}
    assert len(grid.records) == 2 * 2 * 2  # methods x paths x gaps

    paths = write_outputs(grid, config, str(tmp_path), "results")
    assert read_csv(paths["csv"]) == grid.records
    echo = (tmp_path / "config.echo.txt").read_text()
    assert echo.split("[failures]\n", 1)[1].splitlines() == grid.failures


def test_run_grid_survives_a_dead_worker(monkeypatch):
    config = _small_config(antenna_pairs=((2, 2), (2, 4)), iterations=10,
                           gap_every=5)
    real = harness.sample_channels

    def fatal(topology, rng):
        if topology.rx_antennas[0] == 4:
            os._exit(1)
        return real(topology, rng)

    monkeypatch.setattr(harness, "sample_channels", fatal)
    grid = run_grid(config, threads=2)
    # Batches still pending when the worker died fail with it; every
    # cell ends with either its records or a failure line.
    failed = {line.split(": ", 1)[0] for line in grid.failures}
    assert all("BrokenProcessPool" in line for line in grid.failures)
    for task in build_tasks(config):
        rows = [r for r in grid.records
                if (r.method, r.n, r.path) == (task.method.value, task.n,
                                               task.path)]
        assert (task.label() in failed) != bool(rows)
        assert task.n == 2 or task.label() in failed


def test_run_grid_timing_is_shared_by_a_batch():
    grid = run_grid(_small_config(record_timing=True), threads=1)
    assert len({r.elapsed_ms for r in grid.records}) == 1
    assert grid.records[0].elapsed_ms > 0
    assert "shared by the cells" in harness.config_echo_text(
        _small_config(record_timing=True))


def test_run_grid_throughput_records():
    config = _small_config(
        iterations=12, gap_every=12, sample_paths=1,
        methods=(MethodSpec(Method.AM_SMD, StepSchedule.harmonic_sqrt()),),
        record_throughput=True)
    grid = run_grid(config, threads=1)
    # one row per iteration, one column per player
    [(method, path, rates)] = grid.rates
    assert (method, path) == ("am-smd", 0)
    assert rates.shape == (12, 7)
    assert np.all(rates >= 0)


def test_run_grid_batches_throughput_cells(monkeypatch):
    # Throughput is measured inside the solver loop, so cells that record
    # it share one batch like all other cells of an antenna pair.
    sizes = []
    real = harness.run_batch

    def counted(problems, configs, measure=None):
        sizes.append((len(problems), measure is not None))
        return real(problems, configs, measure)

    monkeypatch.setattr(harness, "run_batch", counted)
    run_grid(_small_config(iterations=4, gap_every=4), threads=1)
    assert sizes == [(4, False)]  # methods x paths in one batch
    sizes.clear()
    grid = run_grid(_small_config(iterations=4, gap_every=4,
                                  record_throughput=True), threads=1)
    assert sizes == [(4, True)]
    assert [rates.shape for _, _, rates in grid.rates] == [(4, 7)] * 4


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs
    every job in-process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_run_grid_pool_is_no_larger_than_its_batches(monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    config = _small_config(iterations=4, gap_every=4)  # one pair, 4 cells
    expected = run_grid(config, threads=1).records
    for threads in (2, 3, 8, 0):
        assert run_grid(config, threads=threads).records == expected
    assert _RecordingPool.sizes == [2, 3, 4, 4]


def test_run_grid_rejects_negative_threads(monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    with pytest.raises(ConfigError, match="threads"):
        run_grid(_small_config(), threads=-1)
    assert _RecordingPool.sizes == []


def test_csv_round_trip_bitwise(tmp_path):
    grid = run_grid(_small_config(), threads=1)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(grid.records, p1)
    write_csv(read_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_against_golden_fixture(tmp_path):
    # Checked-in output of the small grid; catches accidental changes to
    # seeding, solver arithmetic order, or CSV formatting. Regenerate
    # only for an intentional behavior change (same BLAS/numpy build).
    grid = run_grid(_small_config(), threads=1)
    out = tmp_path / "small_grid.csv"
    write_csv(grid.records, out)
    golden = os.path.join(DATA, "small_grid.csv")
    with open(golden, "rb") as f:
        assert out.read_bytes() == f.read()


def test_read_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("method,m,n\n")
    with pytest.raises(ConfigError, match="header"):
        read_csv(p)


def test_read_csv_rejects_short_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(CSV_HEADER + "\nam-smd,2,2,1\n")
    with pytest.raises(ConfigError, match="9 fields"):
        read_csv(p)


def test_read_csv_rejects_non_numeric(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text(CSV_HEADER + "\nam-smd,2,2,1,0,0,ten,0.5,0\n")
    with pytest.raises(ConfigError):
        read_csv(p)


def test_throughput_csv_round_trip(tmp_path):
    rates = [("am-smd", 0, np.array([[0.123456789012345678, 2.5]]))]
    p = tmp_path / "tp.csv"
    write_throughput_csv(rates, p)
    assert p.read_bytes() == (
        b"method,player,path,iter,R\n"
        b"am-smd,0,0,1,0.12345678901234568\n"
        b"am-smd,1,0,1,2.5\n")


def test_parse_schedule_forms():
    assert parse_schedule("harmonic-sqrt").kind is ScheduleKind.HARMONIC_SQRT
    assert parse_schedule("horizon").kind is ScheduleKind.HORIZON
    sched = parse_schedule("constant:0.05")
    assert sched.kind is ScheduleKind.CONSTANT and sched.eta == 0.05
    with pytest.raises(ConfigError, match="unknown schedule"):
        parse_schedule("linear")
    with pytest.raises(ConfigError):
        parse_schedule("constant:fast")


def test_parse_config_full_file(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(
        "[experiment]\n"
        "antennas = 2x2, 4x2\n"
        "sigmas = 0.5, 1\n"
        "iterations = 500\n"
        "sample_paths = 4\n"
        "gap_every = 50\n"
        "base_seed = 99\n"
        "record_throughput = yes\n"
        "[methods]\n"
        "am-smd = harmonic-sqrt\n"
        "mel = harmonic\n"
        "[mel]\n"
        "lambdas = 0.2, 0.8\n"
    )
    config = parse_config(p)
    assert config.antenna_pairs == ((2, 2), (4, 2))
    assert config.sigmas == (0.5, 1.0)
    assert config.iterations == 500
    assert config.sample_paths == 4
    assert config.base_seed == 99
    assert config.record_throughput is True
    assert config.methods[0].method is Method.AM_SMD
    assert config.methods[1].lambdas == (0.2, 0.8)


def test_parse_config_defaults(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\n[methods]\nm-smd = horizon\n")
    config = parse_config(p)
    assert config.antenna_pairs == ((2, 2),)
    assert config.iterations == 4000
    assert config.base_seed == harness.DEFAULT_BASE_SEED


def test_parse_config_unknown_key_is_error(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nitertions = 10\n[methods]\nm-smd = horizon\n")
    with pytest.raises(ConfigError, match="itertions"):
        parse_config(p)


def test_parse_config_unknown_method(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\n[methods]\nnewton = horizon\n")
    with pytest.raises(ConfigError, match="unknown method"):
        parse_config(p)


def test_parse_config_missing_sections(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[methods]\nm-smd = horizon\n")
    with pytest.raises(ConfigError, match="experiment"):
        parse_config(p)
    p.write_text("[experiment]\n")
    with pytest.raises(ConfigError, match="methods"):
        parse_config(p)
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.ini")


def test_parse_config_bad_antennas(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text("[experiment]\nantennas = 2by2\n[methods]\nm-smd = horizon\n")
    with pytest.raises(ConfigError, match="MxN"):
        parse_config(p)


def test_topology_file_round_trip(tmp_path):
    p = tmp_path / "topo.ini"
    p.write_text(
        "[topology]\n"
        "tx_antennas = 2, 2\n"
        "rx_antennas = 3, 3\n"
        "max_power = 2.5\n"
        "distances = 0.9 1.5\n"
        "  1.5 0.9\n"
    )
    config = parse_config_with_topology(tmp_path, p)
    tasks = build_tasks(config)
    topo = tasks[0].topology
    assert topo.tx_antennas == (2, 2)
    assert topo.rx_antennas == (3, 3)
    assert topo.max_power == 2.5
    assert np.allclose(topo.distance_km, [[0.9, 1.5], [1.5, 0.9]])


def parse_config_with_topology(tmp_path, topo_path):
    p = tmp_path / "exp.ini"
    p.write_text(
        f"[experiment]\ntopology = {topo_path}\niterations = 10\n"
        "[methods]\nm-smd = horizon\n")
    return parse_config(p)


def test_topology_file_errors(tmp_path):
    p = tmp_path / "topo.ini"
    p.write_text("[topology]\ntx_antennas = 2\n")
    config = parse_config_with_topology(tmp_path, p)
    with pytest.raises(ConfigError, match="missing key"):
        build_tasks(config)
    config = parse_config_with_topology(tmp_path, tmp_path / "absent.ini")
    with pytest.raises(ConfigError, match="not found"):
        build_tasks(config)
    good = ("[topology]\ntx_antennas = 2, 2\nrx_antennas = 2, 2\n"
            "distances = 0.9 1.5\n  1.5 0.9\n")
    for old, new, key in (
            ("rx_antennas = 2, 2", "rx_antennas = 2, 0", "rx_antennas"),
            ("0.9 1.5", "0.9 nan", "distances"),
            ("rx_antennas = 2, 2", "rx_antennas = 2\nrx_antennas = 3",
             "rx_antennas")):
        p.write_text(good.replace(old, new))
        with pytest.raises(ConfigError, match=key):
            build_tasks(parse_config_with_topology(tmp_path, p))


def test_presets_exist_and_validate():
    demo = preset_config("demo")
    assert demo.antenna_pairs == ((2, 2),)
    assert demo.sample_paths == 3
    grid = preset_config("full-grid")
    assert grid.antenna_pairs == ((2, 4), (4, 2), (4, 4))
    assert grid.sigmas == (0.5, 1.0, 5.0)
    assert grid.iterations == 4000 and grid.sample_paths == 10
    stab = preset_config("stability")
    assert stab.record_throughput is True
    assert stab.sigmas == (10.0,)
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_config("fast")


def test_full_grid_preset_cell_count():
    tasks = build_tasks(preset_config("full-grid"))
    # 3 antenna pairs x 3 sigmas x (1 + 1 + 3) method-lambda combos x 10 paths
    assert len(tasks) == 3 * 3 * 5 * 10


def test_config_echo_is_deterministic_and_self_describing():
    config = _small_config()
    text = harness.config_echo_text(config)
    assert text == harness.config_echo_text(config)
    assert "[conventions]" in text
    assert "base_seed = 123" in text
    assert "am-smd = horizon" in text


def test_write_outputs_artifacts(tmp_path):
    config = _small_config(
        iterations=12, gap_every=12, sample_paths=1,
        methods=(MethodSpec(Method.AM_SMD, StepSchedule.harmonic_sqrt()),),
        record_throughput=True)
    grid = run_grid(config, threads=1)
    paths = write_outputs(grid, config, str(tmp_path / "out"), "results")
    assert os.path.exists(paths["csv"])
    assert os.path.exists(paths["echo"])
    assert os.path.exists(paths["throughput"])
    assert read_csv(paths["csv"]) == grid.records


def test_write_outputs_records_failures(tmp_path):
    config = _small_config(iterations=12, gap_every=12, sample_paths=1)
    grid = run_grid(config, threads=1)
    grid.failures.append("method=am-smd m=2 n=2 path=0: synthetic failure")
    paths = write_outputs(grid, config, str(tmp_path), "results")
    with open(paths["echo"]) as f:
        text = f.read()
    assert "[failures]" in text and "synthetic failure" in text
