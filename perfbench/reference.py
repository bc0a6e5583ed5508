"""Machine-speed reference that every reported time is scaled by.

On a shared machine the speed of the same pure-Python code drifts by up to
1.7x over minutes, as neighbours come and go.  ``reference_s`` times a
fixed pure-Python integer loop that shares no code with the package, in the
same process and the same minutes as the measurement.  A time t measured
while the loop took r seconds (for a request, the mean of the timings just
before and just after it) is reported as t * NOMINAL_S / r: the time it
would have taken at the speed where the loop takes NOMINAL_S.  Changes to
the package cannot move the loop, so they still show in full; a busy
machine slows both and largely cancels out.  Raw times are kept in the run
record.

The package runs on mpmath's pure-Python backend, so its cost is mostly
interpreter work; of the reference jobs tried (this loop, and mpmath jobs
at 512 to 4096 bits), this loop tracked the workloads' slowdowns best.
"""

from __future__ import annotations

import statistics
import time

#: the loop's typical median time on the machine the bounds were set on
#: (Python 3.11; about 5 ms on an idle core, 6 to 7 ms while shared)
NOMINAL_S = 0.0065


def _job() -> int:
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def reference_s() -> float:
    """Median of three timed runs of the job, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _job()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(refs) -> float:
    """The factor NOMINAL_S / median(refs) that converts raw times."""
    return NOMINAL_S / statistics.median(refs)


def local_scales(refs, ref_at, n: int):
    """Per-request factors: request i is scaled by NOMINAL_S over the mean of
    the two reference times that bracket it, the last one taken before it
    (ref_at[j] <= i) and the first one taken after it (ref_at[j] > i)."""
    out = []
    j = 0
    for i in range(n):
        while j + 1 < len(ref_at) and ref_at[j + 1] <= i:
            j += 1
        out.append(NOMINAL_S / ((refs[j] + refs[j + 1]) / 2))
    return out
