"""Experiment grids: seeding, CSV schema, config parsing, presets."""

import contextlib
import errno
import os
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
import types
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from spectra_svi import harness, linalg, mimo, solvers
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
from spectra_svi.problem import (
    SpectraSet,
    TraceMode,
    quadratic_test_problem,
    random_feasible_profile,
)
from spectra_svi.solvers import Method, ScheduleKind, StepSchedule

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                   "src"))

# Workers are forked only on Linux; elsewhere these tests' worker deaths
# would happen in the test process itself.
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="run_grid forks workers only on Linux")


@pytest.fixture(autouse=True)
def no_child_left():
    """A child of the test process that is still running, or was never
    reaped, after a test fails that test: a runner leaked a worker."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    # a repeated lambda would run its cells twice under one key
    for lambdas in ((0.5, 0.5), (0.1, 0.5, 0.50), (0.0, -0.0)):
        with pytest.raises(ConfigError, match="lambdas"):
            MethodSpec(Method.MEL, StepSchedule.harmonic(), lambdas)


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
    # repeated values would run one cell several times under one key
    with pytest.raises(ConfigError, match="antennas"):
        _small_config(antenna_pairs=((2, 2), (2, 4), (2, 2)))
    for sigmas in ((1.0, 1.0), (0.0, -0.0)):
        with pytest.raises(ConfigError, match="sigmas"):
            _small_config(sigmas=sigmas)
    with pytest.raises(ConfigError, match="methods"):
        _small_config(methods=(
            MethodSpec(Method.AM_SMD, StepSchedule.horizon()),
            MethodSpec(Method.AM_SMD, StepSchedule.harmonic())))


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
    seeds = [t.solver.seed for t in tasks]
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
    keys = [r[:7] for r in grid.records]
    assert keys == sorted(keys)


def test_run_grid_process_pool_matches_sequential():
    config = _small_config(iterations=30, gap_every=30)
    seq = run_grid(config, threads=1)
    par = run_grid(config, threads=2)
    assert seq.records == par.records


@pytest.mark.parametrize("threads", (1, 2))
def test_a_batch_error_from_outside_the_package_prints_its_traceback(
        threads, tmp_path, capfd, monkeypatch):
    # A bug in the run path fails its batch as before, and its stack
    # reaches stderr once, from the process that ran the batch; the
    # failure lines, the echo and the CSVs hold no trace of it. A
    # package error, or a warning that the warnings filter made an
    # error, prints none.
    config = _small_config(antenna_pairs=((2, 2), (2, 4)), iterations=10,
                           gap_every=5)
    real = harness.run_cell

    def run_cell(*tasks):
        if tasks[0].n == 4:
            raise RuntimeError("injected")
        return real(*tasks)

    monkeypatch.setattr(harness, "run_cell", run_cell)
    grid = run_grid(config, threads=threads)
    err = capfd.readouterr().err
    bad = [t for t in build_tasks(config) if t.n == 4]
    assert grid.failures == [
        f"{t.label()}: batch failed: RuntimeError: injected" for t in bad]
    assert err.count("Traceback (most recent call last):") == 1
    assert "in run_cell" in err
    assert err.endswith("RuntimeError: injected\n")
    paths = write_outputs(grid, config, str(tmp_path), "results")
    assert read_csv(paths["csv"]) == grid.records
    assert {(r.m, r.n) for r in grid.records} == {(2, 2)}
    echo = (tmp_path / "config.echo.txt").read_text()
    assert echo.split("[failures]\n", 1)[1].splitlines() == grid.failures
    assert "Traceback" not in echo

    for error in (ConfigError("injected"), RuntimeWarning("injected")):
        def expected_error(*tasks, error=error):
            raise error

        monkeypatch.setattr(harness, "run_cell", expected_error)
        grid = run_grid(config, threads=threads)
        assert "Traceback" not in capfd.readouterr().err
        assert len(grid.failures) == len(build_tasks(config))


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
    grid = run_grid(config, threads=2)
    bad = [t for t in build_tasks(config) if t.n == 4]
    assert grid.failures == [
        f"{t.label()}: batch failed: RuntimeError: channel store offline"
        for t in bad]
    assert {(r.m, r.n) for r in grid.records} == {(2, 2)}
    assert len(grid.records) == 2 * 2 * 2  # methods x paths x gaps

    paths = write_outputs(grid, config, str(tmp_path), "results")
    assert read_csv(paths["csv"]) == grid.records
    echo = (tmp_path / "config.echo.txt").read_text()
    assert echo.split("[failures]\n", 1)[1].splitlines() == grid.failures


@linux_only
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
    # Only the batch the dead worker held fails; the other worker runs
    # the rest, so every n = 2 cell keeps its records.
    bad = [t for t in build_tasks(config) if t.n == 4]
    assert grid.failures == [
        f"{t.label()}: batch failed: worker exited with code 1" for t in bad]
    lone = run_grid(replace(config, antenna_pairs=((2, 2),)), threads=1)
    assert grid.records == lone.records


@linux_only
def test_run_grid_survives_a_killed_worker(monkeypatch):
    config = _small_config(antenna_pairs=((2, 2), (2, 4), (4, 2)),
                           iterations=10, gap_every=5)
    real = harness.sample_channels

    def killed(topology, rng):
        if topology.rx_antennas[0] == 4:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(topology, rng)

    monkeypatch.setattr(harness, "sample_channels", killed)
    grid = run_grid(config, threads=2)
    bad = [t for t in build_tasks(config) if t.n == 4]
    assert grid.failures == [
        f"{t.label()}: batch failed: worker killed by signal "
        f"{int(signal.SIGKILL)}" for t in bad]
    lone = run_grid(replace(config, antenna_pairs=((2, 2), (4, 2))),
                    threads=1)
    assert grid.records == lone.records


@linux_only
def test_run_grid_survives_every_worker_dying(monkeypatch):
    # Two workers die on their first batches, so the third batch is
    # never taken: every cell still ends with a failure line.
    config = _small_config(antenna_pairs=((2, 2), (2, 4), (4, 2)),
                           iterations=10, gap_every=5)
    monkeypatch.setattr(harness, "sample_channels",
                        lambda topology, rng: os._exit(3))
    grid = run_grid(config, threads=2)
    assert grid.records == [] and grid.rates == []
    labels = [line.split(": batch failed: ")[0] for line in grid.failures]
    assert labels == [t.label() for t in build_tasks(config)]
    reasons = [line.split(": batch failed: ")[1] for line in grid.failures]
    assert reasons.count("worker exited with code 3") == 2 * 4
    assert reasons.count("no worker finished it") == 4


@linux_only
def test_run_grid_survives_a_worker_dying_halfway_through_a_result(
        monkeypatch):
    # The worker holding the 4x2 batch writes half of its pickled result
    # and exits: the truncated record fails that batch alone.
    config = _small_config(antenna_pairs=((2, 2), (2, 4), (4, 2)),
                           iterations=10, gap_every=5)

    def dump(obj, file):
        data = pickle.dumps(obj)
        if isinstance(obj, harness.GridResult) and obj.records[0].m == 4:
            file.write(data[:len(data) // 2])
            file.flush()
            os._exit(3)
        file.write(data)

    # Forked workers inherit the shim; the parent loads with the real one.
    monkeypatch.setattr(harness, "pickle", types.SimpleNamespace(
        dump=dump, load=pickle.load, UnpicklingError=pickle.UnpicklingError))
    grid = run_grid(config, threads=2)
    bad = [t for t in build_tasks(config) if t.m == 4]
    assert grid.failures == [
        f"{t.label()}: batch failed: worker exited with code 3" for t in bad]
    lone = run_grid(replace(config, antenna_pairs=((2, 2), (2, 4))),
                    threads=1)
    assert grid.records == lone.records


def test_run_grid_drains_results_larger_than_a_pipe(tmp_path):
    # Each worker returns more rates than a pipe holds (64 KiB); every
    # byte comes back.
    config = _small_config(
        antenna_pairs=((2, 2), (2, 4)), iterations=600, gap_every=300,
        sample_paths=2, record_throughput=True,
        methods=(MethodSpec(Method.AM_SMD, StepSchedule.harmonic_sqrt()),))
    lone = run_grid(config, threads=1)
    forked = run_grid(config, threads=2)
    assert [rates.nbytes for _, _, rates in forked.rates] == [600 * 7 * 8] * 4
    assert 2 * 600 * 7 * 8 > 65536
    assert forked.records == lone.records and forked.failures == []
    write_throughput_csv(lone.rates, tmp_path / "lone.csv")
    write_throughput_csv(forked.rates, tmp_path / "forked.csv")
    assert ((tmp_path / "forked.csv").read_bytes()
            == (tmp_path / "lone.csv").read_bytes())


@linux_only
def test_run_grid_kills_and_reaps_its_workers_when_interrupted(monkeypatch):
    config = _small_config(antenna_pairs=((2, 2), (2, 4)), iterations=10)
    monkeypatch.setattr(harness, "sample_channels",
                        lambda topology, rng: time.sleep(60))

    real = os.waitpid

    def interrupted(pid, options):
        # The parent's first wait, for a worker that sleeps in its batch.
        monkeypatch.setattr(os, "waitpid", real)
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "waitpid", interrupted)
    tic = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_grid(config, threads=2)
    assert time.monotonic() - tic < 30  # the sleeping workers were killed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_grid_imports_no_process_pool_machinery():
    # multiprocessing and concurrent.futures pull in subprocess, socket
    # and logging; the CLI and the grid runner need none of them.
    script = (
        "import sys\n"
        "from dataclasses import replace\n"
        "import spectra_svi.cli\n"
        "from spectra_svi import harness\n"
        "config = replace(harness.preset_config('demo'), iterations=4,"
        " gap_every=4, sample_paths=1, antenna_pairs=((2, 2), (2, 4)))\n"
        "threads = [1, 2] if sys.platform.startswith('linux') else [1]\n"
        "for t in threads:\n"
        "    assert not harness.run_grid(config, threads=t).failures\n"
        "print(' '.join(m for m in ('multiprocessing', 'concurrent.futures',"
        " 'subprocess', 'socket', 'logging', 'select')"
        " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


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


def test_recording_throughput_leaves_every_gap_unchanged():
    # The rates (`harness.reported_rates`) are measured beside the game,
    # which is mapped as it is without them: on the closed form at n = 2
    # and the solve else.
    hs = StepSchedule.harmonic_sqrt()
    config = _small_config(
        antenna_pairs=((2, 2), (4, 2), (2, 4), (4, 4)), sigmas=(0.0, 1.0),
        methods=(MethodSpec(Method.AM_SMD, hs), MethodSpec(Method.M_SMD, hs),
                 MethodSpec(Method.MEL, hs, (0.5,))),
        iterations=20, gap_every=5, sample_paths=1)
    plain = run_grid(config, threads=1)
    recorded = run_grid(replace(config, record_throughput=True), threads=1)
    assert plain.failures == [] and recorded.failures == []
    assert len(plain.records) == 4 * 2 * 3 * 4
    assert recorded.records == plain.records


@pytest.mark.parametrize("max_power", ["1e160", "1e300"])
def test_a_2x2_grid_at_huge_power_caps_fails_no_cell(tmp_path, max_power):
    # The 2x2 closed form of the rate gradients scales the covariances
    # before forming their determinants, which would overflow unscaled.
    topology = tmp_path / "huge.ini"
    distances = "\n".join("  " + " ".join(map(str, row))
                          for row in mimo.DISTANCE_KM)
    topology.write_text(
        "[topology]\ntx_antennas = 2, 2, 2, 2, 2, 2, 2\n"
        f"rx_antennas = 2, 2, 2, 2, 2, 2, 2\nmax_power = {max_power}\n"
        f"distances =\n{distances}\n")
    grid = run_grid(_small_config(topology=str(topology), sigmas=(0.0, 1.0),
                                  iterations=40, gap_every=20), threads=1)
    assert grid.failures == []
    assert len(grid.records) == 2 * 2 * 2 * 2
    assert all(np.isfinite(r.gap) and r.gap >= 0 for r in grid.records)


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
    """Stands in for the forked runner, `harness._forked`: records the
    worker count and the (m, n, cells) of each batch in the order dealt,
    and runs every batch in-process, so no worker is ever started."""

    sizes: list = []
    submitted: list = []

    @classmethod
    def run(cls, batches, order, workers):
        cls.sizes.append(workers)
        cls.submitted.extend(
            (batches[i][0].m, batches[i][0].n, len(batches[i])) for i in order)
        return [harness._run_batch(batch) for batch in batches]


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(harness, "_forked", _RecordingPool.run)
    for name in ("sizes", "submitted"):
        monkeypatch.setattr(_RecordingPool, name, [])
    return _RecordingPool


def test_run_grid_pool_is_no_larger_than_its_batches(monkeypatch,
                                                     recording_pool):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    config = _small_config(iterations=4, gap_every=4)  # one pair, 4 cells
    expected = run_grid(config, threads=1).records
    for threads in (2, 3, 8, 0):
        assert run_grid(config, threads=threads).records == expected
    assert recording_pool.sizes == [2, 3, 4, 4]


def test_run_grid_counts_only_the_cpus_it_may_use(monkeypatch,
                                                  recording_pool):
    # Pinned to one CPU, threads = 0 runs in-process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    config = _small_config(iterations=4, gap_every=4)
    assert (run_grid(config, threads=0).records
            == run_grid(config, threads=1).records)
    assert recording_pool.sizes == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    run_grid(config, threads=0)
    assert recording_pool.sizes == [2]


def test_run_grid_pool_starts_its_workers_by_fork_on_linux(monkeypatch):
    forks = []
    real = os.fork

    def counted():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(sys, "platform", "linux")
    config = _small_config(antenna_pairs=((2, 2), (2, 4)), iterations=4,
                           gap_every=4)
    grid = run_grid(config, threads=2)
    assert forks == [1, 1]
    assert grid.records == run_grid(config, threads=1).records
    assert grid.failures == []


@pytest.mark.parametrize("platform", ["darwin", "win32"])
def test_run_grid_runs_in_process_off_linux(monkeypatch, platform):
    # Off Linux nothing is forked and no CPU count is read, whatever the
    # thread count: every grid runs in this process.
    config = _small_config(antenna_pairs=((2, 2), (2, 4)), iterations=4,
                           gap_every=2, record_throughput=True)
    lone = run_grid(config, threads=1)
    lone_rates = [(m, p, rates.tobytes()) for m, p, rates in lone.rates]

    def no_fork():
        raise AssertionError("forked off Linux")

    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for threads in (0, 2, 8):
        grid = run_grid(config, threads=threads)
        assert grid.records == lone.records
        assert grid.failures == lone.failures == []
        assert [(m, p, rates.tobytes())
                for m, p, rates in grid.rates] == lone_rates


@linux_only
@pytest.mark.parametrize("failing_call", [1, 2])
def test_run_grid_runs_on_when_a_fork_fails(tmp_path, monkeypatch,
                                            failing_call):
    # A fork that fails, or the results file made for it, ends the
    # forking: with no worker the batches run in-process, and one worker
    # takes them all. The outputs are those of threads = 1, and neither
    # an fd nor a child is left.
    config = _small_config(antenna_pairs=((2, 2), (2, 4), (4, 2)),
                           iterations=10, gap_every=5, record_throughput=True)
    write_outputs(run_grid(config, threads=1), config, str(tmp_path / "lone"),
                  "results")
    for name, code in (("fork", errno.EAGAIN), ("memfd_create", errno.EMFILE)):
        calls = []
        real = getattr(os, name)

        def failing(*args, real=real, code=code):
            calls.append(1)
            if len(calls) == failing_call:
                raise OSError(code, os.strerror(code))
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(os, name, failing)
            fds = os.listdir("/proc/self/fd")
            grid = run_grid(config, threads=3)
            assert os.listdir("/proc/self/fd") == fds
        assert len(calls) == failing_call  # none after the failed one
        write_outputs(grid, config, str(tmp_path / name), "results")
        for out in ("results.csv", "throughput.csv", "config.echo.txt"):
            assert ((tmp_path / name / out).read_bytes()
                    == (tmp_path / "lone" / out).read_bytes())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@linux_only
def test_run_grid_traps_sigterm_only_in_the_main_thread(monkeypatch):
    # With no worker forked, `_forked` runs the batches in-process under
    # its SIGTERM handler. The handler is set only where signals can be
    # handled and no handler of the caller's is in place, and the
    # default action is back once the grid returns.
    handlers = []
    real = harness.run_cell

    def recorded(*tasks):
        handlers.append(signal.getsignal(signal.SIGTERM))
        return real(*tasks)

    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def callers(signum, frame):
        pass

    monkeypatch.setattr(harness, "run_cell", recorded)
    monkeypatch.setattr(os, "fork", no_fork)
    config = _small_config(antenna_pairs=((2, 2), (2, 4)), iterations=4,
                           gap_every=4)
    run_grid(config, threads=2)
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    other = threading.Thread(target=run_grid, args=(config, 2))
    other.start()
    other.join(timeout=60)
    assert not other.is_alive()
    signal.signal(signal.SIGTERM, callers)
    try:
        run_grid(config, threads=2)
        assert signal.getsignal(signal.SIGTERM) is callers
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    assert handlers == [harness._raise_terminated] * 2 + [
        signal.SIG_DFL] * 2 + [callers] * 2


@pytest.fixture
def sleeping_run():
    """A `run_grid` subprocess whose two forked workers sleep in their
    first batch, and the workers' pids, which the run prints as it forks
    them. Whatever of them is still running at teardown is killed."""
    script = (
        "import os, time\n"
        "from dataclasses import replace\n"
        "from spectra_svi import harness\n"
        "real = os.fork\n"
        "def fork():\n"
        "    pid = real()\n"
        "    if pid:\n"
        "        print(pid, flush=True)\n"
        "    return pid\n"
        "os.fork = fork\n"
        "harness.sample_channels = lambda topology, rng: time.sleep(60)\n"
        "config = replace(harness.preset_config('demo'), iterations=4,"
        " gap_every=4, sample_paths=1, antenna_pairs=((2, 2), (2, 4)))\n"
        "harness.run_grid(config, threads=2)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    pids = []
    try:
        pids += [int(proc.stdout.readline()) for _ in range(2)]
        yield proc, pids
    finally:
        for pid in pids:  # only if a worker outlived the run
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.communicate()


@linux_only
def test_sigterm_reaps_the_workers_and_ends_the_run_by_the_signal(
        sleeping_run):
    # SIGTERM to the run must kill and reap both workers before the run
    # ends with status -SIGTERM.
    proc, pids = sleeping_run
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == -signal.SIGTERM, proc.stderr.read()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _running(pid: int) -> bool:
    """Whether process `pid` exists and has not ended: a zombie has."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except (FileNotFoundError, ProcessLookupError):
        return False


@linux_only
def test_sigkill_of_the_run_ends_its_workers(sleeping_run):
    # A SIGKILL cannot be caught, so the kernel must end the workers with
    # the run. Their new parent need not reap them at once: a zombie
    # counts as ended.
    proc, pids = sleeping_run
    proc.kill()
    proc.wait(timeout=30)
    deadline = time.monotonic() + 5
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, pids))


@pytest.mark.parametrize("threads, submitted", [
    (2, [(4, 4, 4), (4, 2, 4), (2, 4, 4)]),
    (4, [(4, 4, 2), (4, 4, 2), (4, 2, 2), (4, 2, 2), (2, 4, 2), (2, 4, 2)]),
])
def test_run_grid_pool_deals_whole_pairs_largest_first(
        tmp_path, recording_pool, threads, submitted):
    # Pairs go whole to the pool while there are at least as many as
    # workers, costliest first; with more workers than pairs each pair
    # is cut into ceil(workers / pairs) chunks. Neither changes a byte.
    config = _small_config(antenna_pairs=((2, 4), (4, 2), (4, 4)),
                           iterations=4, gap_every=2, record_throughput=True)
    lone = run_grid(config, threads=1)
    pooled = run_grid(config, threads=threads)
    assert recording_pool.sizes == [threads]
    assert recording_pool.submitted == submitted
    assert pooled.records == lone.records
    assert pooled.failures == []
    write_throughput_csv(lone.rates, tmp_path / "lone.csv")
    write_throughput_csv(pooled.rates, tmp_path / "pooled.csv")
    assert ((tmp_path / "pooled.csv").read_bytes()
            == (tmp_path / "lone.csv").read_bytes())


def test_run_grid_rejects_negative_threads(recording_pool):
    with pytest.raises(ConfigError, match="threads"):
        run_grid(_small_config(), threads=-1)
    assert recording_pool.sizes == []


def test_csv_round_trip_bitwise(tmp_path):
    grid = run_grid(_small_config(), threads=1)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(grid.records, p1)
    write_csv(read_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _row_by_row_csv(records):
    """The results CSV with every field of every row formatted alone."""
    def fmt(x):
        return f"{float(x):.17g}"

    lines = [CSV_HEADER] + [",".join((
        r.method, str(r.m), str(r.n), fmt(r.sigma), fmt(r.lam), str(r.path),
        str(r.iteration), fmt(r.gap), fmt(r.elapsed_ms)))
        for r in sorted(records)]
    return ("\n".join(lines) + "\n").encode("ascii")


def test_csv_formatted_once_per_cell_is_the_row_by_row_csv(tmp_path):
    # Timed cells of several batches, and cells whose sigma, lambda or
    # elapsed_ms differ only in the sign of a zero: 0.0 and -0.0 compare
    # equal, but each row keeps its own.
    grid = run_grid(_small_config(antenna_pairs=((2, 2), (2, 4)),
                                  record_timing=True), threads=1)
    rng = np.random.default_rng(28)
    records = list(grid.records)
    assert len({r.elapsed_ms for r in records}) == 2
    for sigma, lam, elapsed in ((0.0, 0.0, 0.0), (-0.0, 0.0, -0.0),
                                (0.0, -0.0, 0.0), (-0.0, -0.0, 1.5),
                                (0.0, 0.5, -0.0), (-0.0, 0.5, 0.0)):
        records += [GapRecord("mel", 2, 2, sigma, lam, path, it,
                              float(rng.random()), elapsed)
                    for path in (0, 1) for it in (1, 2, 3)]
    rng.shuffle(records)
    out = tmp_path / "results.csv"
    write_csv(records, out)
    assert out.read_bytes() == _row_by_row_csv(records)
    text = out.read_text()
    assert ",-0,0,0," in text and ",0,-0,1," in text and text.count(",-0\n")


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


MIXED_TOPOLOGY = (
    "[topology]\n"
    "tx_antennas = 2, 3, 2\n"
    "rx_antennas = 3, 2, 2\n"
    "max_power = 1.5\n"
    "distances = 0.89 1.01 1.05\n"
    "  1.01 0.89 1.05\n"
    "  1.10 1.90 0.89\n"
)


def mixed_grid_config(tmp_path):
    """A tiny grid on a topology file whose users have unequal antenna
    counts, so its profiles have blocks of unequal size."""
    topology = tmp_path / "mixed.ini"
    topology.write_text(MIXED_TOPOLOGY)
    hs = StepSchedule.harmonic_sqrt()
    return ExperimentConfig(
        antenna_pairs=((2, 2),),
        sigmas=(0.0, 1.0),
        methods=(
            MethodSpec(Method.AM_SMD, hs),
            MethodSpec(Method.M_SMD, hs),
            MethodSpec(Method.MEL, StepSchedule.harmonic(), (0.5,)),
        ),
        iterations=40,
        sample_paths=2,
        gap_every=10,
        topology=str(topology),
        record_throughput=True,
    )


@pytest.mark.parametrize("threads", [1, 2])
def test_mixed_grid_against_golden_fixtures(tmp_path, threads):
    # The bench workloads and presets all have blocks of one size; this
    # pins the gaps and rates of a grid with blocks of sizes 2 and 3.
    config = mixed_grid_config(tmp_path)
    paths = write_outputs(run_grid(config, threads=threads), config,
                          str(tmp_path / "out"), "results")
    for name, golden in (("csv", "mixed_grid.csv"),
                         ("throughput", "mixed_grid_throughput.csv")):
        assert (Path(paths[name]).read_bytes()
                == Path(DATA, golden).read_bytes()), golden


def test_read_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("method,m,n\n")
    with pytest.raises(ConfigError, match="header"):
        read_csv(p)


def _exactly_hermitian(A):
    return np.array_equal(A, A.conj().swapaxes(-1, -2))


def test_inputs_spared_the_hermitian_part_are_exactly_hermitian(
        tmp_path, monkeypatch):
    # `linalg` takes its input as given, without taking the Hermitian
    # part; the loop's duals, reported points, mapping values and rate
    # covariances give the bits they gave with it only if each equals its
    # conjugate transpose exactly. The feasibility check and the strong
    # gap take Hermitian coordinates, which describe exactly Hermitian
    # blocks; the complex blocks they build are inputs of `linalg`.
    seen = dict.fromkeys(("gibbs_map", "gibbs_map_bounded", "linalg"), 0)

    def checked(name, fn):
        def wrapper(Y, *args):
            assert _exactly_hermitian(Y), name
            seen[name] += 1
            return fn(Y, *args)
        return wrapper

    for name in ("gibbs_map", "gibbs_map_bounded"):
        monkeypatch.setattr(solvers, name,
                            checked(name, getattr(solvers, name)))
    # Every input of `linalg`, the rates' covariances among them.
    real = linalg._checked_finite

    def checked_finite(A):
        assert _exactly_hermitian(A)
        seen["linalg"] += 1
        return real(A)

    monkeypatch.setattr(linalg, "_checked_finite", checked_finite)
    square = ExperimentConfig(
        antenna_pairs=((2, 2), (4, 4)), sigmas=(0.0, 1.0),
        methods=(MethodSpec(Method.AM_SMD, StepSchedule.harmonic_sqrt()),
                 MethodSpec(Method.M_SMD, StepSchedule.harmonic_sqrt()),
                 MethodSpec(Method.MEL, StepSchedule.harmonic(), (0.5,))),
        iterations=6, sample_paths=1, gap_every=2, record_throughput=True)
    for config in (square, mixed_grid_config(tmp_path)):
        assert run_grid(config, threads=1).failures == []
    # The game's constraint sets cap the trace; `gibbs_map` serves
    # trace equality.
    for dim in (2, 4):
        cset = SpectraSet((dim, dim), mode=TraceMode.EQUAL)
        problems = [quadratic_test_problem(random_feasible_profile(
                        cset, np.random.default_rng(sigma)), cset, sigma)
                    for sigma in (0, 1)]
        results = solvers.run_batch(problems, [
            solvers.SolverConfig(method, 6, StepSchedule.harmonic_sqrt(),
                                 gap_every=2, seed=c)
            for c, method in enumerate((Method.AM_SMD, Method.M_SMD))])
        assert all(r.error is None for r in results)
    assert all(seen.values()), seen


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


def test_read_csv_rejects_non_ascii_bytes(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_bytes(CSV_HEADER.encode() + b"\nam-smd\xe9,2,2,1,0,0,1,0.5,0\n")
    with pytest.raises(ConfigError, match=re.escape(f"{p}: not ASCII")):
        read_csv(p)


@pytest.mark.parametrize("row", [
    "am-smd,2,2,nan,0,0,1,0.5,0",
    "am-smd,2,2,1,inf,0,1,0.5,0",
    "am-smd,2,2,1,0,0,1,nan,0",
    "am-smd,2,2,1,0,0,1,-inf,0",
    "am-smd,2,2,1,0,0,1,0.5,inf",
    "am-smd,2,2,1,0,0," + "9" * 400 + ",0.5,0",
], ids=["sigma-nan", "lambda-inf", "gap-nan", "gap-minus-inf",
        "elapsed-inf", "iteration-beyond-float"])
def test_read_csv_rejects_non_finite_values(tmp_path, row):
    p = tmp_path / "bad.csv"
    p.write_text(f"{CSV_HEADER}\nam-smd,2,2,1,0,0,1,0.5,0\n{row}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{p}:3: ")):
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
    # only `constant` takes a stepsize, and it needs one
    for text in ("constant", "harmonic:3", "horizon:"):
        with pytest.raises(ConfigError, match="unknown schedule"):
            parse_schedule(text)
    with pytest.raises(ConfigError, match="finite and positive, got 0.0"):
        parse_schedule("constant:0")
    assert parse_schedule(" Harmonic ") == StepSchedule.harmonic()


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
             "rx_antennas"),
            ("[topology]", "[extra]\nx = 1\n[topology]",
             r"section \[extra\]")):
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


def _parse_echo(tmp_path, config):
    """The config that parse_config reads back from the echo's
    [experiment], [methods] and [mel] sections."""
    text = harness.config_echo_text(config)
    p = tmp_path / "echo.ini"
    p.write_text(text.split("\n[conventions]\n", 1)[0])
    return parse_config(p)


@pytest.mark.parametrize("name", harness.PRESETS)
def test_config_echo_parses_back_to_the_preset(tmp_path, name):
    config = preset_config(name)
    assert _parse_echo(tmp_path, config) == config


def test_config_echo_parses_back_with_every_key_set(tmp_path):
    # Every [experiment] field away from its default, a constant
    # schedule and lambdas that need all 17 digits.
    config = ExperimentConfig(
        antenna_pairs=((3, 1),),
        sigmas=(0.1, 2.5e-7),
        methods=(
            MethodSpec(Method.M_SMD, StepSchedule.constant(1 / 3)),
            MethodSpec(Method.MEL, StepSchedule.horizon(), (0.7, 1e-3)),
            MethodSpec(Method.AM_SMD, StepSchedule.harmonic()),
        ),
        iterations=17,
        sample_paths=3,
        gap_every=4,
        base_seed=-5,
        topology="layouts/three-cell.ini",
        resample_channels=False,
        record_timing=True,
        record_throughput=True,
    )
    p = tmp_path / "defaults.ini"
    p.write_text("[experiment]\n[methods]\nm-smd = horizon\n")
    defaults = parse_config(p)
    assert all(getattr(config, f.name) != getattr(defaults, f.name)
               for f in fields(ExperimentConfig) if f.name != "methods")
    assert _parse_echo(tmp_path, config) == config


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


class _FailingFile:
    """A text file whose first write stores half its text, then raises,
    as a kill or a full disk partway through would leave it."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        self.f.write(text[:len(text) // 2])
        self.f.flush()
        raise OSError("no space left on device")


def test_an_interrupted_write_keeps_the_previous_outputs(tmp_path,
                                                         monkeypatch):
    from spectra_svi import svgplot

    config = _small_config(
        iterations=12, gap_every=4, sample_paths=1,
        methods=(MethodSpec(Method.AM_SMD, StepSchedule.harmonic_sqrt()),),
        record_throughput=True)
    grid = run_grid(config, threads=1)
    paths = write_outputs(grid, config, str(tmp_path), "results")
    paths["svg"] = str(tmp_path / "results.svg")
    svgplot.render_svg(grid.records, paths["svg"])
    before = {p: Path(p).read_bytes() for p in paths.values()}
    listing = sorted(os.listdir(tmp_path))

    real_open = open
    monkeypatch.setattr(harness, "open", lambda *a, **k: _FailingFile(
        real_open(*a, **k)), raising=False)
    writes = [
        lambda: harness.write_csv(grid.records, paths["csv"]),
        lambda: harness.write_throughput_csv(grid.rates, paths["throughput"]),
        lambda: write_outputs(grid, config, str(tmp_path), "results"),
        lambda: svgplot.render_svg(grid.records, paths["svg"]),
    ]
    for write in writes:
        with pytest.raises(OSError, match="no space left"):
            write()
        assert {p: Path(p).read_bytes() for p in paths.values()} == before
        assert sorted(os.listdir(tmp_path)) == listing
    # A first write that fails leaves no file at all.
    with pytest.raises(OSError, match="no space left"):
        harness.write_csv(grid.records, tmp_path / "new.csv")
    assert sorted(os.listdir(tmp_path)) == listing


def test_write_outputs_records_failures(tmp_path):
    config = _small_config(iterations=12, gap_every=12, sample_paths=1)
    grid = run_grid(config, threads=1)
    grid.failures.append("method=am-smd m=2 n=2 path=0: synthetic failure")
    paths = write_outputs(grid, config, str(tmp_path), "results")
    with open(paths["echo"]) as f:
        text = f.read()
    assert "[failures]" in text and "synthetic failure" in text
