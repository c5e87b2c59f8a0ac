"""The benchmark's fixed workload matrix.

Every number here is part of the benchmark's definition: a change to it
is a change to the benchmark, not to the program.  Each workload uses
the program's defaults (no join-engine choice), so a later change of a
default is measured.

``ts_per_second`` fixes the closed-loop work: a run replays
``round(seconds * ts_per_second)`` timestamps however long they take,
so a slow host stretches the window instead of shrinking the work.  For
the open-loop serve cell it is the offered rate.
"""

from __future__ import annotations

from dataclasses import dataclass

STREAMS = 8
QUERY_EDGES = 5
CHECKPOINTS = 4  # sampled timestamps for the VF2 gate

#: Coin-flip probabilities (appear, disappear) of the paper's Sec. V-B.
DENSE = (0.20, 0.15)
SPARSE = (0.10, 0.30)


@dataclass(frozen=True)
class Workload:
    name: str
    vertices: int  # per stream
    mean_degree: float  # at the coin-flip equilibrium
    probs: tuple[float, float]
    vertex_labels: int
    queries: int  # standing queries
    ts_per_second: float
    churn_every: int = 0  # deregister oldest + register a held-out one
    setup_repeats: int = 5
    latency_limit_ms: float = 1000.0  # for on_time_ratio
    workers: int = 0  # > 0: open loop over `repro serve --tcp`; 0: in-process closed loop
    probe_every: int = 0  # timestamps between register+deregister probes


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense-inproc",
            vertices=14,
            mean_degree=6.0,
            probs=DENSE,
            vertex_labels=4,
            queries=10,
            ts_per_second=18.0,
            setup_repeats=15,
            latency_limit_ms=1000.0,
            probe_every=3,
        ),
        Workload(
            name="sparse-1kq-churn",
            vertices=14,
            mean_degree=2.5,
            probs=SPARSE,
            vertex_labels=6,
            queries=1000,
            ts_per_second=8.5,
            churn_every=2,
            setup_repeats=5,
            latency_limit_ms=1000.0,
        ),
        Workload(
            name="serve-tcp-2w",
            vertices=10,
            mean_degree=2.0,
            probs=SPARSE,
            vertex_labels=6,
            queries=10,
            ts_per_second=18.0,
            setup_repeats=5,
            latency_limit_ms=250.0,
            workers=2,
            probe_every=1,
        ),
    )
}
