"""Stochastic variational inequalities over PSD trace-constrained blocks.

Dual-averaging solvers (with and without iterate averaging, plus the
regularized variant) driven by the quantum-entropy mirror map, a
seven-cell MIMO throughput game as the flagship application, and a
deterministic experiment harness. The API lives in the submodules
(`solvers`, `problem`, `mimo`, `harness`, ...); nothing is re-exported
here.
"""

__version__ = "0.1.0"
