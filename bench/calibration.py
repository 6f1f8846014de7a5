"""A fixed kernel that measures how fast the machine runs right now.

The benchmark shares its CPUs with other tenants, and their load changes
the speed of the same code by up to 2x within seconds.  Each timed
sample is therefore bracketed by runs of this kernel, and its wall time
is scaled by (NOMINAL_S over the kernel's mean time around it) to the
power EXPONENT: the result is the time the sample would take on a
machine where the kernel takes NOMINAL_S.  The kernel is the benchmark's
own code, so no change to nnrad can speed it up; it mixes the interpreter
float work, small-array NumPy calls and object churn that a Newmark step
spends its time on.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REPS = 2000
# Kernel time in seconds at the nominal machine speed: a round figure just
# under its fastest runs on a 2-vCPU x86-64 VM with Python 3.11, NumPy 2.4.
NOMINAL_S = 5.0e-3
# On the VM of NOMINAL_S, when the machine slows the kernel by a factor f
# it slows the solver by about f**0.8.  With this exponent the reported
# ms/step hardly depends on the kernel's median time in the run: over 20
# runs of each workload the fitted slope of log ms/step over log kernel
# time is +0.02 to +0.08, against -0.09 to -0.18 with exponent 1, where a
# run at the machine's fast speed read 10 % high.
EXPONENT = 0.8

# A fresh interpreter spends its start-up loading code and mapping shared
# libraries, and its speed drifts apart from that of a warm process, so the
# kernel does not track it.  Set-up times are scaled instead by a fresh
# interpreter that imports what nnrad imports from outside: no change to
# nnrad can change its cost.  NOMINAL_IMPORT_S is its time at the nominal
# machine speed, a round figure below its runs.
IMPORT_ARGS = ("-c", "import numpy, scipy.linalg")
NOMINAL_IMPORT_S = 0.3


def kernel() -> float:
    v = np.arange(8.0)
    acc = 0.0
    for i in range(REPS):
        w = v * 1.000001 + np.zeros_like(v)
        acc += math.sqrt(w[i & 7] + acc * 1e-12)
        _ = (acc, w, i)
    return acc


def measure() -> float:
    """Wall seconds of one kernel run."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scale(before: float, after: float, nominal: float = NOMINAL_S,
          exponent: float = EXPONENT) -> float:
    """Factor that converts a wall time measured between two reference runs."""
    return (nominal / (0.5 * (before + after))) ** exponent
