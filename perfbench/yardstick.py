"""A fixed reference kernel, timed beside the ops, that rescales every time to one machine speed.

The host this benchmark runs on is shared: its speed drifts by 10-40% over
minutes, so two runs of the same code a few minutes apart differ by that
much however long each one lasts.  The drift reaches all code in the
process.  So every run also times this kernel once after each op (never
inside an op's timer); it does not call ``amplify_acct`` and never changes.
A time measured in the run is multiplied by ``Yardstick.factor()``,
``(NOMINAL_S / kernel median) ** ELASTICITY``, and reads as seconds on a
machine where the kernel takes ``NOMINAL_S``.  The factor does not depend on
the program, so a change to the program moves the rescaled times exactly as
much as the raw ones.

``ELASTICITY`` is how much the program's times move with the kernel's.  The
kernel reacts more strongly than the program to the host's load: over 65
runs on the reference machine (both workloads, eleven sets of five or ten
seeds), the slope of log(raw ``wall_s``) against log(kernel time), within
each set, was 0.52 (correlation 0.86; 0.41 to 1.9 in single sets).  With
exponents from 0.5 to 0.8 the worst IQR/median of any timing metric in a
set was 0.12-0.13 on average over the sets, against 0.13 with the full
ratio and 0.18 without rescaling; the full ratio overcorrected the runs
that fell in fast or slow spells (up to 0.24 in one set).

The kernel is a chain of numpy calls on a small array, the style of most of
the program's time.  A pure-Python float loop, Philox generators,
scipy.special calls, a Python-and-numpy binomial sum and sums over arrays
larger than the caches tracked the program no better, alone or combined.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# The kernel's median time on the reference machine: 2-vCPU 2.1 GHz Xeon VM,
# Python 3.11, numpy 2.4.
NOMINAL_S = 3.4e-4
ELASTICITY = 0.6

_GRID = np.linspace(0.0, 5.0, 512)


def kernel() -> float:
    s = 0.0
    for _ in range(40):
        s += float(np.log(np.exp(_GRID - _GRID.max()).sum()))
    return s


class Yardstick:
    """Samples of the reference kernel's time taken during one run."""

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def kernel_s(self) -> float:
        return median(self.samples)

    def factor(self) -> float:
        """Multiply a time measured in this run by this to rescale it to the nominal speed."""
        return (NOMINAL_S / self.kernel_s()) ** ELASTICITY
