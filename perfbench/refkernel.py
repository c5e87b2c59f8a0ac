"""Reference kernel for host calibration.

A fixed dict/set workload whose time tracks how fast this host runs
interpreted Python right now.  Slices of it run interleaved through a
timed window; every time-valued end-to-end metric is scaled by
``NOMINAL_S / median(slice times)``, so it reads in seconds at the
host's nominal speed.

The kernel imports nothing from the program under test.  It pauses the
cyclic garbage collector around each slice (restoring the caller's
state) and keeps nothing alive after it returns, so its time does not
grow with the program's heap: a change that shrinks the heap must not
read as a slower kernel, hence a slower program.
"""

from __future__ import annotations

import gc
import time

#: Median slice time on the reference host (2-core container, CPython
#: 3.11), measured idle.  Calibrated times are in these units.
NOMINAL_S = 0.0100

_KEYS = 15000
_ROUNDS = 3


def _work() -> int:
    total = 0
    for round_ in range(_ROUNDS):
        table = {}
        for key in range(_KEYS):
            table[key] = key ^ round_
        members = set(range(0, _KEYS, 3))
        for key in range(_KEYS):
            if key in members:
                total += table.pop(key)
        total += len(table)
    return total


def run_slice() -> float:
    """Run one kernel slice and return its wall time in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
