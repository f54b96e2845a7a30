"""Batch invariance: a cell run in a batch equals its lone run bit for bit.

The solver loop evaluates the game once per iteration; random batches
check it bit for bit against a copy of the loop that mapped the reported
points and the next iterate separately and measured throughput apart.

`run_grid` runs all cells of one antenna pair as one batched solver loop
(cut into one chunk per worker under a pool). Random small grids check
that every cell's gap trace and final point equal those of its lone
`solvers.run`, and that a cell failing inside a batch (in the solver or
in the throughput measured inside its loop) leaves the other cells
untouched and ends with exactly its lone run's error. Cells that share a
channel seed share one draw, equal to each one's lone draw, and the
per-cell rate arrays write the bytes of the record-based throughput CSV.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectra_svi import harness, mimo, solvers
from spectra_svi import problem as problem_mod
from spectra_svi.errors import DomainError
from spectra_svi.harness import ExperimentConfig, MethodSpec
from spectra_svi.problem import (
    SpectraSet,
    TraceMode,
    assert_feasible,
    oracle_sample,
    quadratic_test_problem,
    random_feasible_profile,
    select_cells,
    stack_problems,
    strong_gap,
)
from spectra_svi.solvers import (
    AveragingState,
    Method,
    SolverConfig,
    StepSchedule,
    dual_to_primal,
    mirror_step,
    update_average,
)

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


@settings(max_examples=25)
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
            assert np.array_equal(result.final_point, ref.final_point)


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


@settings(max_examples=15)
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
    harness.write_throughput_csv(grid.rates, tmp_path / "throughput.csv")
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
    [poison] = [rates[k - 1] for method, path, rates in clean.rates
                if (method, path) == (target.method.value, target.path)]
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
    assert not [cell for cell in grid.rates
                if cell[:2] == (target.method.value, target.path)]
    others = _csv_lines(clean, tmp_path, target)
    assert [len(lines) for lines in others] == [1 + 3 * 3, 1 + 3 * 12 * 7]
    assert _csv_lines(grid, tmp_path, target) == others


HS = StepSchedule.harmonic_sqrt()
# Cells of two antenna pairs, two sigmas and two MEL lambdas share their
# (method, path) keys in throughput.csv.
COLLIDING = ExperimentConfig(
    antenna_pairs=((2, 2), (2, 4)), sigmas=(0.0, 1.0),
    methods=(MethodSpec(Method.AM_SMD, HS), MethodSpec(Method.M_SMD, HS),
             MethodSpec(Method.MEL, StepSchedule.harmonic(), (0.1, 0.5))),
    iterations=6, sample_paths=2, gap_every=3, base_seed=11,
    record_throughput=True)
STABILITY_SHAPED = ExperimentConfig(
    antenna_pairs=((4, 4),), sigmas=(10.0,),
    methods=(MethodSpec(Method.AM_SMD, HS), MethodSpec(Method.M_SMD, HS)),
    iterations=8, sample_paths=3, gap_every=4, base_seed=5,
    record_throughput=True)


@pytest.mark.parametrize("resample", (True, False))
def test_a_batch_draws_each_channel_seed_once(resample, monkeypatch):
    config = replace(COLLIDING, resample_channels=resample)
    tasks = harness.build_tasks(config)
    seeds = []
    real = harness.sample_channels

    def counted(topology, rng):
        seeds.append(rng.bit_generator.state["state"]["state"])
        return real(topology, rng)

    monkeypatch.setattr(harness, "sample_channels", counted)
    harness.run_grid(config, threads=1)
    # one batch per antenna pair, one draw per distinct seed in it
    distinct = {(t.m, t.n, t.channel_seed) for t in tasks}
    assert len(distinct) == 2 * (2 if resample else 1)
    assert len(seeds) == len(distinct) == len(set(seeds))
    seeds.clear()
    harness.run_cell(*tasks[:5])
    assert len(seeds) == len({t.channel_seed for t in tasks[:5]})


@pytest.mark.parametrize("paths", (1, 2))
def test_a_batch_builds_one_operator_per_draw(paths, monkeypatch):
    # A full-grid-shaped antenna pair: 3 sigmas x (AM-SMD, M-SMD and MEL
    # at 3 lambdas) = 15 cells per sample path, all on the path's draw.
    config = ExperimentConfig(
        antenna_pairs=((2, 4),), sigmas=(0.0, 1.0, 2.0),
        methods=(MethodSpec(Method.AM_SMD, HS), MethodSpec(Method.M_SMD, HS),
                 MethodSpec(Method.MEL, HS, (0.1, 0.5, 1.0))),
        iterations=2, sample_paths=paths, gap_every=1, base_seed=4)
    tasks = harness.build_tasks(config)
    assert len(tasks) == 15 * paths
    built = []
    real = mimo._received_operator

    def counted(H):
        built.append(None)
        return real(H)

    monkeypatch.setattr(mimo, "_received_operator", counted)
    records, _, failures = harness.run_cell(*tasks)
    assert not failures and len(records) == 2 * len(tasks)
    assert len(built) == paths


def test_shared_draws_equal_lone_draws(monkeypatch):
    batches = []
    real = harness.run_batch

    def captured(problems, configs, measure=None):
        batches.append(problems)
        return real(problems, configs, measure)

    monkeypatch.setattr(harness, "run_batch", captured)
    harness.run_grid(COLLIDING, threads=1)
    tasks = harness.build_tasks(COLLIDING)
    problems = [p for batch in batches for p in batch]
    assert len(problems) == len(tasks)
    stacked = [problem_mod.stack_problems(batch).mapping.channels
               for batch in batches]
    batched = [(ch, c) for ch in stacked for c in range(len(ch.stacked))]
    for task, problem, (batch_channels, c) in zip(tasks, problems, batched):
        lone_channels, lone, _ = harness.cell_problem(task)
        channels = problem.mapping.channels
        assert problem.oracle_bound == lone.oracle_bound
        assert (batch_channels.stacked[c].tobytes()
                == channels.stacked.tobytes()
                == lone_channels.stacked.tobytes())
        for j in range(channels.users):
            for i in range(channels.users):
                assert (batch_channels.link(j, i)[c].tobytes()
                        == channels.link(j, i).tobytes()
                        == lone_channels.link(j, i).tobytes())


def _record_based_csv(config, path):
    """The throughput CSV as the record-based writer produced it: one
    record per (cell, iteration, player) from each cell's lone run, in
    task order, stably sorted by (method, player, path, iter)."""
    records = []
    for task in harness.build_tasks(config):
        _, rates, _ = harness.run_cell(task)
        for method, cell_path, R in rates:
            records.extend((method, player, cell_path, it, value)
                           for it, row in enumerate(R.tolist(), 1)
                           for player, value in enumerate(row))
    records.sort(key=lambda r: r[:4])
    lines = [harness.THROUGHPUT_CSV_HEADER] + [
        f"{m},{player},{p},{it},{value:.17g}"
        for m, player, p, it, value in records]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path.read_bytes()


@pytest.mark.parametrize("threads", (1, 2))
@pytest.mark.parametrize("config", (COLLIDING, STABILITY_SHAPED),
                         ids=("colliding", "stability"))
def test_throughput_csv_equals_the_record_based_writer(config, threads,
                                                       tmp_path):
    expected = _record_based_csv(config, tmp_path / "records.csv")
    grid = harness.run_grid(config, threads=threads)
    paths = harness.write_outputs(grid, config, str(tmp_path), "results")
    assert open(paths["throughput"], "rb").read() == expected


def test_run_batch_rejects_cells_that_cannot_share_a_loop():
    rng = np.random.default_rng(0)
    two, three = SpectraSet((2, 2)), SpectraSet((2, 2, 2))
    p2 = quadratic_test_problem(random_feasible_profile(two, rng), two)
    p3 = quadratic_test_problem(random_feasible_profile(three, rng), three)
    short = SolverConfig(Method.M_SMD, 5, StepSchedule.harmonic())
    long = SolverConfig(Method.M_SMD, 6, StepSchedule.harmonic())
    with pytest.raises(ValueError, match="constraint set"):
        solvers.run_batch([p2, p3], [short, short])
    with pytest.raises(ValueError, match="iterations"):
        solvers.run_batch([p2, p2], [short, long])


def _reference_run(problems, configs, measure=None):
    """The solver loop as it was before one evaluation per iteration
    served the oracle, the gap and the measure: a gap iteration maps the
    reported points, the next oracle call maps X_t again unless no cell
    averages, and `measure(problem, reported)` is evaluated apart. Timing
    and failure handling are left out. Returns (gap traces, final
    points, measures) per cell."""
    T, gap_every = configs[0].iterations, configs[0].gap_every
    C = len(configs)
    problem = stack_problems(problems)
    cset = problem.constraints
    averaging = np.array([c.method is Method.AM_SMD for c in configs])
    lam = np.array([c.lam if c.method is Method.MEL else 0.0
                    for c in configs])[:, None, None, None]
    regularized = lam[:, 0, 0, 0] > 0
    etas = np.array([
        [eta_at(t) for t in range(T + 1)]
        for eta_at in (c.schedule.resolve(p.oracle_bound, cset.total_dim, T)
                       for p, c in zip(problems, configs))
    ])[:, :, None, None, None]
    rngs = [np.random.default_rng(c.seed) for c in configs]
    Y = cset.zeros(C)
    X = dual_to_primal(Y, cset)
    avg = AveragingState(etas[:, 0], X)
    final = X
    traces = [[] for _ in range(C)]
    measures = []
    F_next = None
    for t in range(T):
        F = problem.mapping(X) if F_next is None else F_next
        if regularized.any():
            F = select_cells(regularized, F + lam * X, F)
        phi, _ = oracle_sample(problem, X, rngs, F)
        Y, X = mirror_step(Y, phi, etas[:, t], cset)
        avg = update_average(avg, X, etas[:, t + 1])
        F_next = None
        reported = select_cells(averaging, avg.xbar, X)
        it = t + 1
        if it % gap_every == 0 or it == T:
            assert_feasible(reported, cset)
            final = reported
            F_reported = problem.mapping(reported)
            gaps = strong_gap(problem, reported, F_reported)
            assert gaps.min() >= solvers.GAP_FLOOR
            for trace, gap in zip(traces, gaps):
                trace.append((it, float(gap)))
            if not averaging.any():
                F_next = F_reported
        if measure is not None:
            measures.append(measure(problem, reported))
    rows = np.stack(measures, axis=1) if measures else None
    return [(tuple(traces[c]), final[c],
             None if rows is None else rows[c]) for c in range(C)]


def _entries(X):
    return X.reshape(len(X), -1)


def _game_problems(m, n, seeds, sigmas):
    topo = mimo.canonical_topology(m, n)
    return [mimo.game_to_svi(topo, mimo.sample_channels(
                topo, np.random.default_rng(seed)), sigma)
            for seed, sigma in zip(seeds, sigmas)]


def _quadratic_problems(seeds, sigmas, mode):
    cset = SpectraSet((2, 2, 2), mode=mode)
    return [quadratic_test_problem(random_feasible_profile(
                SpectraSet((2, 2, 2)), np.random.default_rng(seed)),
                cset, sigma)
            for seed, sigma in zip(seeds, sigmas)]


@st.composite
def batches(draw):
    """A problem kind, cells of every method and sigma, a horizon, a gap
    cadence and whether a measure is recorded."""
    size = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=size,
                          max_size=size))
    sigmas = draw(st.lists(st.sampled_from((0.0, 0.5, 2.0)), min_size=size,
                           max_size=size))
    kind = draw(st.sampled_from(("quadratic", "2x2", "2x4")))
    if kind == "quadratic":
        mode = draw(st.sampled_from(list(TraceMode)))
        problems = _quadratic_problems(seeds, sigmas, mode)
    else:
        problems = _game_problems(int(kind[0]), int(kind[2]), seeds, sigmas)
    T = draw(st.integers(1, 8))
    gap_every = draw(st.integers(1, T))
    configs = []
    for seed in seeds:
        method = draw(st.sampled_from(list(Method)))
        lam = (draw(st.sampled_from((0.0, 0.1, 1.0)))
               if method is Method.MEL else 0.0)
        configs.append(SolverConfig(
            method, T, draw(st.sampled_from(SCHEDULES)), lam=lam,
            gap_every=gap_every, seed=seed + 1))
    return kind, problems, configs, draw(st.booleans())


@settings(max_examples=40)
@given(batches())
def test_one_evaluation_per_iteration_equals_the_reference_loop(batch):
    kind, problems, configs, measured = batch
    if not measured:
        measure = reference_measure = None
    elif kind == "quadratic":
        def measure(problem, points, rows):
            return problem.mapping(points), _entries(points[rows])

        def reference_measure(problem, reported):
            return _entries(reported)
    else:
        measure = harness.game_and_throughput

        def reference_measure(problem, reported):
            return mimo.throughput(problem.mapping.channels, reported)

    results = solvers.run_batch(problems, configs, measure)
    reference = _reference_run(problems, configs, reference_measure)
    for result, (trace, final, rows) in zip(results, reference):
        assert result.error is None
        assert result.gap_trace == trace
        assert np.array_equal(result.final_point, final)
        if measured:
            assert np.array_equal(result.measures, rows)
        else:
            assert result.measures is None
