"""Machine-speed correction for timings taken on a shared, noisy host.

On a host whose cores are shared with other tenants, the same pure-Python
work runs up to ~1.8x slower for stretches of seconds to minutes, so raw
medians of whole runs differ by 20-30 % from run to run.  `SpeedGauge` times
a fixed reference kernel (sparse dict-of-tuples products and Fraction sums,
the kind of work spochar does, but none of its code) between the
measurements and scales each raw time by REF_NOMINAL_S / (reference time
around it): a corrected time is the time the work would take on this host
when nothing else competes for the core.  Raw times are kept alongside.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

# The reference kernel's time on an otherwise idle 2.0 GHz Xeon vCPU
# (CPython 3.11); corrected times are "seconds at that speed".
REF_NOMINAL_S = 1.2e-3
# A measurement is bracketed by reference samples no more than this far apart
# (longer measurements get one right before and one right after).
REF_EVERY_S = 0.02

_BASE = {(i, j, i ^ j): 7 * i + j for i in range(9) for j in range(7)}


def reference_kernel():
    out = {}
    for ea, ca in _BASE.items():
        for eb, cb in _BASE.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[key] = out.get(key, 0) + ca * cb
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 3)
    return len(out), total


class SpeedGauge:
    """Reference-kernel samples with the time each was taken."""

    def __init__(self):
        self.times = []  # end time of each sample, ascending
        self.samples = []  # seconds the reference kernel took

    def sample(self):
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)

    def tick(self):
        """Sample unless the last sample is recent; call between measurements."""
        if not self.times or perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def factor(self, start=None, end=None):
        """Multiplier from raw to corrected seconds for a measurement over
        [start, end]: from the two samples before it and the first after it.
        Without bounds, from every sample."""
        if start is None:
            return REF_NOMINAL_S / statistics.median(self.samples)
        i = bisect.bisect_right(self.times, start)
        j = bisect.bisect_left(self.times, end)
        around = self.samples[max(i - 2, 0):i] + self.samples[j:j + 1]
        return REF_NOMINAL_S / statistics.median(around)
