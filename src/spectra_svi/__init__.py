"""Stochastic variational inequalities over PSD trace-constrained blocks.

Dual-averaging solvers (with and without iterate averaging, plus the
regularized variant) driven by the quantum-entropy mirror map, a
seven-cell MIMO throughput game as the flagship application, and a
deterministic experiment harness.
"""

from .errors import (
    ConfigError,
    DomainError,
    NotPositiveSemidefinite,
    NumericalFailure,
    SpectraSviError,
)
from .linalg import (
    eig,
    hermitianize,
    matrix_exp,
    matrix_log,
    trace_inner,
    trace_norm,
)
from .mirror import (
    conjugate_entropy,
    fenchel_coupling,
    gibbs_map,
    gibbs_map_bounded,
    quantum_entropy,
    von_neumann_divergence,
)
from .problem import (
    BlockProfile,
    BlockSpec,
    NoiseModel,
    SpectraSet,
    SviProblem,
    TraceMode,
    estimate_oracle_bound,
    monotonicity_witness,
    oracle_sample,
    quadratic_test_problem,
    random_feasible_profile,
    strong_gap,
    weak_gap_estimate,
)
from .solvers import (
    AveragingState,
    Method,
    RunResult,
    SolverConfig,
    StepSchedule,
    mirror_step,
    run,
    run_batch,
    horizon_stepsize,
    update_average,
)
from .mimo import (
    ChannelSet,
    NetworkTopology,
    canonical_topology,
    game_to_svi,
    mui_covariance,
    sample_channels,
    throughput,
    throughput_gradient,
)

__version__ = "0.1.0"
