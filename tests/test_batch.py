"""Batch invariance: a cell run in a batch equals its lone run bit for bit.

`run_grid` runs all cells of one antenna pair as one batched solver loop
(cut into one chunk per worker under a pool). Random small grids check
that every cell's gap trace and final point equal those of its lone
`solvers.run`, and that a cell failing inside a batch (in the solver or
in the throughput measured inside its loop) leaves the other cells
untouched and ends with exactly its lone run's error.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectra_svi import harness, solvers
from spectra_svi.errors import DomainError
from spectra_svi.harness import ExperimentConfig, MethodSpec
from spectra_svi.problem import SpectraSet, quadratic_test_problem
from spectra_svi.problem import random_feasible_profile
from spectra_svi.solvers import Method, SolverConfig, StepSchedule

SCHEDULES = (StepSchedule.harmonic_sqrt(), StepSchedule.harmonic(),
             StepSchedule.horizon(), StepSchedule.constant(0.3))


@st.composite
def grids(draw, sigmas=(0.0, 0.5, 2.0), min_paths=1):
    methods = draw(st.lists(st.sampled_from(list(Method)), min_size=1,
                            max_size=3, unique=True))
    specs = tuple(
        MethodSpec(method, draw(st.sampled_from(SCHEDULES)),
                   tuple(draw(st.lists(st.sampled_from((0.0, 0.1, 1.0)),
                                       min_size=1, max_size=2, unique=True)))
                   if method is Method.MEL else (0.0,))
        for method in methods)
    return ExperimentConfig(
        antenna_pairs=tuple(draw(st.lists(
            st.sampled_from(((2, 2), (2, 4), (4, 2))), min_size=1,
            max_size=2, unique=True))),
        sigmas=tuple(draw(st.lists(st.sampled_from(sigmas), min_size=1,
                                   max_size=2, unique=True))),
        methods=specs,
        iterations=draw(st.integers(1, 8)),
        sample_paths=draw(st.integers(min_paths, 2)),
        gap_every=draw(st.integers(1, 4)),
        base_seed=draw(st.integers(0, 2**16)),
    )


def _key(task):
    return (task.method.value, task.m, task.n, task.sigma, task.lam,
            task.path)


def _traces(grid):
    out = {}
    for r in grid.records:
        key = (r.method, r.m, r.n, r.sigma, r.lam, r.path)
        out.setdefault(key, []).append((r.iteration, r.gap))
    return out


def _lone(task):
    _, problem, config = harness.cell_problem(task)
    return solvers.run(problem, config)


def _same_point(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.parts, b.parts))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(grids())
def test_batched_cells_equal_their_lone_runs(config):
    tasks = harness.build_tasks(config)
    lone = {_key(t): _lone(t) for t in tasks}
    expected = {k: list(r.gap_trace) for k, r in lone.items()}
    for threads in (1, 2):
        grid = harness.run_grid(config, threads=threads)
        assert grid.failures == []
        assert _traces(grid) == expected
    for pair in config.antenna_pairs:
        group = [t for t in tasks if (t.m, t.n) == pair]
        cells = [harness.cell_problem(t) for t in group]
        results = solvers.run_batch([p for _, p, _ in cells],
                                    [c for _, _, c in cells])
        for task, result in zip(group, results):
            ref = lone[_key(task)]
            assert result.gap_trace == ref.gap_trace
            assert _same_point(result.final_point, ref.final_point)


class _FailingStream:
    """A generator whose normals turn to NaN after `good` draws."""

    def __init__(self, rng, good):
        self.rng, self.good = rng, good

    def standard_normal(self, size=None, out=None):
        x = self.rng.standard_normal(size, out=out)
        self.good -= 1
        if self.good < 0:
            x[...] = np.nan
        return x


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(grids(sigmas=(0.5, 2.0, 0.0), min_paths=2), st.data())
def test_a_failing_cell_leaves_its_batch_unchanged(config, data):
    # Two paths give every antenna pair a batch of at least two cells.
    tasks = harness.build_tasks(config)
    noisy = [t for t in tasks if t.sigma > 0]
    assume(noisy)
    target = data.draw(st.sampled_from(noisy))
    good = data.draw(st.integers(0, config.iterations - 1))
    clean = _traces(harness.run_grid(config))

    real = np.random.default_rng

    def default_rng(seed=None):
        rng = real(seed)
        return _FailingStream(rng, good) if seed == target.solver_seed else rng

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", default_rng)
        lone = _lone(target)
        faulty = [harness.run_grid(config, threads=t) for t in (1, 2)]
    assert lone.error is not None and "non-finite" in lone.error
    expected = dict(clean)
    expected.pop(_key(target))
    if lone.gap_trace:
        expected[_key(target)] = list(lone.gap_trace)
    for grid in faulty:
        assert grid.failures == [f"{target.label()}: {lone.error}"]
        assert _traces(grid) == expected


def _csv_lines(grid, tmp_path, skip):
    """The gap and throughput CSV lines of every cell but `skip`."""
    harness.write_csv(grid.records, tmp_path / "gaps.csv")
    harness.write_throughput_csv(grid.throughput_records,
                                 tmp_path / "throughput.csv")
    gaps = (tmp_path / "gaps.csv").read_bytes().splitlines()
    rates = (tmp_path / "throughput.csv").read_bytes().splitlines()
    cell = (skip.method.value.encode(), str(skip.path).encode())
    # method and path: fields 0 and 5 of a gap row, 0 and 2 of a rate row
    return ([g for g in gaps if tuple(g.split(b",")[0:6:5]) != cell],
            [r for r in rates if tuple(r.split(b",")[0:3:2]) != cell])


@pytest.mark.parametrize("threads", (1, 2))
def test_a_throughput_failure_fails_only_its_cell(threads, tmp_path,
                                                  monkeypatch):
    config = ExperimentConfig(
        antenna_pairs=((2, 2),), sigmas=(1.0,),
        methods=(MethodSpec(Method.AM_SMD, StepSchedule.harmonic_sqrt()),
                 MethodSpec(Method.M_SMD, StepSchedule.harmonic_sqrt())),
        iterations=12, sample_paths=2, gap_every=4, base_seed=8,
        record_throughput=True)
    tasks = harness.build_tasks(config)
    assert len(tasks) == 4
    target, k = tasks[2], 7  # M-SMD, path 0; fails at iteration 7
    clean = harness.run_grid(config, threads=threads)
    poison = np.array([r.value for r in clean.throughput_records
                       if (r.method, r.path, r.iteration)
                       == (target.method.value, target.path, k)])
    real = harness.throughput

    def faulty(channels, X):
        # Each cell's rates are bit for bit those of its lone run, so
        # the target's clean rates at iteration k find it in any batch.
        rates = real(channels, X)
        if np.any(np.all(rates == poison, axis=-1)):
            raise DomainError("covariance not PD: injected at iteration k")
        return rates

    monkeypatch.setattr(harness, "throughput", faulty)
    lone_records, lone_rates, lone_failures = harness.run_cell(target)
    grid = harness.run_grid(config, threads=threads)
    assert lone_failures == [
        f"{target.label()}: covariance not PD: injected at iteration k"]
    assert grid.failures == lone_failures
    assert [r.iteration for r in lone_records] == [4]  # the partial trace
    assert [r for r in grid.records
            if (r.method, r.path) == (target.method.value, target.path)
            ] == lone_records
    assert lone_rates == []
    assert not [r for r in grid.throughput_records
                if (r.method, r.path) == (target.method.value, target.path)]
    others = _csv_lines(clean, tmp_path, target)
    assert [len(lines) for lines in others] == [1 + 3 * 3, 1 + 3 * 12 * 7]
    assert _csv_lines(grid, tmp_path, target) == others


def test_run_batch_rejects_cells_that_cannot_share_a_loop():
    rng = np.random.default_rng(0)
    two, three = SpectraSet.uniform(2, 2), SpectraSet.uniform(3, 2)
    p2 = quadratic_test_problem(random_feasible_profile(two, rng), two)
    p3 = quadratic_test_problem(random_feasible_profile(three, rng), three)
    short = SolverConfig(Method.M_SMD, 5, StepSchedule.harmonic())
    long = SolverConfig(Method.M_SMD, 6, StepSchedule.harmonic())
    with pytest.raises(ValueError, match="constraint set"):
        solvers.run_batch([p2, p3], [short, short])
    with pytest.raises(ValueError, match="iterations"):
        solvers.run_batch([p2, p2], [short, long])
