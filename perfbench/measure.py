"""Small measurement helpers shared by the workload runners."""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import refkernel


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size of one process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Calibration:
    """Reference-kernel samples interleaved through one phase of a run.

    The host's speed drifts in phases of a few seconds, so each moment is
    scaled by the kernel samples nearest to it (about a second's worth)
    rather than by one factor per run, and by their mean rather than their
    median: time stolen by other tenants slows the program in proportion,
    and the mean keeps it.
    """

    INTERVAL_S = 0.1  # window time between samples
    NEAREST = 5

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (position, seconds)

    def sample(self, position: float) -> None:
        self.samples.append((position, refkernel.run_slice()))

    def seconds(self) -> list[float]:
        return [seconds for _, seconds in self.samples]

    def factor(self, position: float) -> float:
        """Turns wall time at ``position`` into nominal time."""
        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - position))
        return refkernel.NOMINAL_S / statistics.mean(s for _, s in nearest[: self.NEAREST])
