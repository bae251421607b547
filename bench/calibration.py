"""A fixed calibration kernel, timed between evaluations to track host speed.

On a shared host the speed of one core drifts between levels for tens of
seconds to minutes at a time, by up to a third, because of what other
tenants run.  A run then measures the host as much as the program.  The
benchmark times this kernel before and after every set-up and evaluation
and expresses their times in reference seconds:

    reference seconds = wall seconds * CAL_REF_S / calibration wall seconds

The kernel does the same fixed work on every run and never calls the
package, so a change to the package moves reference seconds in full, while
a slow spell of the host slows the kernel too and cancels out.  It has
three parts of about equal time, one for each kind of work the workloads
do: batched small Hermitian eigensolves (LAPACK call overhead), large
elementwise array arithmetic (memory traffic and allocation) and a Python
loop (interpreter).
"""

import time

import numpy as np

# About the kernel's wall time on the reference host, a 2-core Intel Xeon VM,
# in an undisturbed spell.  Reference seconds read as that host's seconds.
CAL_REF_S = 0.08

SMALL = 8192  # 2x2 Hermitian matrices per eigensolve
EIGH_REPEATS = 3
BIG = 250_000  # complex entries per array operation, small beside any workload
BIG_REPEATS = 12
LOOP = 400_000  # Python loop iterations


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((SMALL, 2, 2)) + 1j * rng.standard_normal((SMALL, 2, 2))
        self.small = a + np.conj(np.swapaxes(a, -1, -2))
        self.big = rng.standard_normal(BIG) + 0j

    def wall(self):
        """Wall seconds of one pass of the kernel."""
        t0 = time.perf_counter()
        for _ in range(EIGH_REPEATS):
            np.linalg.eigh(self.small)
        for _ in range(BIG_REPEATS):
            x = self.big * 1.5
            x = x + self.big
            np.exp(x.real)
        z = 0
        for i in range(LOOP):
            z += i * i
        return time.perf_counter() - t0


def reference_s(wall_s, cal_s):
    """``wall_s`` measured while the kernel took ``cal_s``, in reference seconds."""
    return wall_s * CAL_REF_S / cal_s
