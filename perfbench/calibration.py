"""A fixed reference unit of work, timed beside every benchmark operation.

The benchmark runs on a few cores of a shared host whose speed flips
between two levels about 2x apart, from one millisecond to the next, and
spends more or less of its time in the slow level for minutes at a time,
moving every operation together.  A median over one run cannot remove a
slow spell that lasts the whole run, so each timed operation is also
scaled by the time of this unit measured next to it:

    scaled = seconds * REFERENCE_S / (unit seconds measured beside it)

``REFERENCE_S`` is the unit's median time on an idle core of the machine
the benchmark was defined on (a 2-CPU Intel Xeon virtual machine,
NumPy with one BLAS thread), so scaled times read in milliseconds at that
machine's unhurried speed.  The unit is a short mix of interpreter work
and small NumPy calls, the same mix as the library's per-row loops; it
does not touch the library, so a change to the library moves only the
operation's share.  The raw wall times stay in the benchmark's report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 25e-6
# Units in the burst after an operation: at least BURST, and enough to
# last SHARE of the operation, so a long operation, which averages the
# speed over its length, is scaled by an average over a comparable span.
BURST = 7
SHARE = 0.2
# Units in a session's first burst, which scales the import in a set-up probe.
OPENING = 4001

_VEC = np.linspace(-1.0, 1.0, 64)
_MAT = np.full((8, 8), 0.01) + 0.5 * np.eye(8)


def unit() -> float:
    """The reference work: eight elementwise steps on a 64-vector, then four 8x8 products."""
    x = _VEC
    acc = 0.0
    for i in range(8):
        x = x[::-1] * 0.999 + 0.001 * np.cos(x)
        acc += float(x[i])
    m = _MAT
    for _ in range(4):
        m = m @ _MAT
    return acc + float(m[0, 0])


unit()  # NumPy's first calls pay lazy set-up here, not inside a burst


def units_beside(seconds: float) -> int:
    """How many units to time next to an operation of ``seconds``."""
    return max(BURST, int(SHARE * seconds / REFERENCE_S))


def burst(count: int) -> list:
    """Seconds of each of ``count`` back-to-back units."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        unit()
        times.append(time.perf_counter() - start)
    return times


def level(times: list) -> float:
    """Mean unit seconds, each capped at three times the median.

    The mean follows the share of time spent at the slow speed, as an
    operation's own time does; the cap keeps one interrupted unit from
    moving it.
    """
    cap = 3.0 * statistics.median(times)
    return sum(min(x, cap) for x in times) / len(times)
