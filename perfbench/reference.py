"""A fixed reference computation that gauges the speed of the host.

The benchmark runs in a VM whose vCPUs share their host with other tenants.
There the CPU time of one and the same computation drifts by tens of
percent over minutes (the same kernel-scan operation took 1.0 CPU seconds
and, three minutes later, 1.8), and it drifts alike for the program and for
this reference.  run.py therefore times this reference beside the program,
in the same process and the same minutes, and reports the program's CPU
time scaled to a host on which one reference sample takes NOMINAL_S.

The reference mixes what the program's hot paths do: a complex recurrence
in a Python loop, batched inverse FFTs, a gather with a max/argmax
reduction, complex exponentials of an outer product summed (as in a Gauss
sum), and plain interpreter work (as in an import).  Its inputs are fixed;
it shares no code with dispmax, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# A constant that sets the unit of run_s and setup_s: CPU seconds on a host
# where one sample takes NOMINAL_S.  A sample took 0.16 to 0.35 s on the
# 2-vCPU x86-64 VM (Intel Xeon, numpy 2.4.6, one BLAS thread) the benchmark
# was written on, depending on the load of the host.
NOMINAL_S = 0.25

PASSES = 10

_rng = np.random.default_rng(20190306)
_ROWS, _N, _N_EVAL = 64, 2048, 4096
_COEFFS = _rng.standard_normal(_N) + 1j * _rng.standard_normal(_N)
_STEP = np.exp(1j * _rng.uniform(-0.1, 0.1, _N))
_POS = _rng.permutation(_N_EVAL)[:_N]
_IDX = _rng.integers(0, _N_EVAL, size=(_ROWS, 65 * 9))
_X = _rng.uniform(-1.0, 1.0, 96)
_XI = _rng.uniform(-64.0, 64.0, 1024)
_WORDS = [f"w{i}" for i in range(997)]


def _one_pass() -> float:
    coeff = np.empty((_ROWS, _N), dtype=complex)
    coeff[0] = _COEFFS
    for i in range(1, _ROWS):
        coeff[i] = coeff[i - 1] * _STEP
    a = np.zeros((_ROWS, _N_EVAL), dtype=complex)
    a[:, _POS] = coeff
    fields = np.fft.ifft(a, axis=1)
    g = np.abs(np.take_along_axis(fields, _IDX, axis=1))
    total = float(g.max(axis=1).sum()) + float(g.argmax(axis=1).sum())
    total += float(np.exp(1j * np.outer(_X, _XI) + 0.5j * _XI**2).sum().real)
    table = {}
    for i in range(6000):
        key = _WORDS[i % len(_WORDS)]
        table[key] = table.get(key, 0) + len(key) + i % 7
    return total + sum(table.values())


def sample() -> float:
    """CPU seconds of PASSES passes, after one untimed pass."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _one_pass()
        t0 = time.process_time()
        for _ in range(PASSES):
            _one_pass()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()
