"""A fixed reference kernel that gauges how fast this machine runs now.

The benchmark shares a few cores of a host with other tenants, and their
load changes this process's speed by up to 2x over seconds to minutes:
CPU time grows with wall time, so the processor itself runs slower (a
busy sibling hyperthread or shared cache), not the scheduler. A bench
repetition therefore times this kernel in the same process just before
and just after the program's timed section and reports the program's
time as a multiple of the kernel's (`run_cal`, `cpu_cal`). Both slow
down together, so the ratio keeps what the program does and drops most
of what the host does; the raw seconds are reported beside it.

The kernel does what the solvers do at their smallest: Python-level
dispatch over small complex Hermitian blocks, with eigh, exp, matmul and
trace. It uses numpy alone and never imports spectra_svi, so no change
under src/ can move it.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 100  # 35 to 70 ms per call on a 2-vCPU Xeon VM


def _blocks() -> list[np.ndarray]:
    rng = np.random.default_rng(20180924)
    out = []
    for d in (2, 2, 2, 4, 4, 2, 2, 4):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out.append((a + a.conj().T) / 2)
    return out


_BLOCKS = _blocks()


def kernel() -> float:
    acc = 0.0
    for _ in range(ROUNDS):
        for y in _BLOCKS:
            w, v = np.linalg.eigh(y)
            x = (v * np.exp(w - w.max())) @ v.conj().T
            x /= np.trace(x).real
            acc += float(np.trace(x @ y).real)
    return acc


def measure(n: int) -> list[tuple[float, float]]:
    """Wall and CPU seconds of each of n calls of the kernel."""
    out = []
    for _ in range(n):
        t, c = time.perf_counter(), time.process_time()
        kernel()
        out.append((time.perf_counter() - t, time.process_time() - c))
    return out
