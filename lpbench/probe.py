"""CPU speed probe: scales measured times to an uncontended core.

The benchmark runs on small shared virtual machines. There, the same CLI
command can take up to twice as long from one minute to the next, because
other tenants contend for the physical core; the slowdown shows in CPU time
as much as in wall time, and it lasts longer than a run. Medians over the
repeats of one run cannot remove it, so every timed step is bracketed by
this fixed pure-Python loop, and the step's time is multiplied by
``REF_S / probe time``: the time the step would have taken on a core where
the probe runs in ``REF_S``. Raw times are kept next to the scaled ones.

Standard library only (see ``workloads.py``).
"""

from __future__ import annotations

import time

LOOPS = 1_000_000
# Fastest probe time on an idle core of the reference machine: a 2-vCPU
# Intel Xeon virtual machine running CPython 3.11.
REF_S = 0.040


def probe():
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i & 7
    return time.perf_counter() - start


def scale(before, after):
    """Factor that maps a time measured between two probes to the reference
    core: below 1 when the machine ran slow."""
    return REF_S / ((before + after) / 2.0)
