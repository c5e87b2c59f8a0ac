"""Timed in-process runner: ``python3 inproc.py INPUTS WORKLOAD TRACE OUT``.

Runs in its own process, which only reads the generated files back, so
its peak RSS is the program's plus the inputs', never the generator's.
The loop is closed: every timestamp applies one batch to every stream,
then reads ``matches()``, as fast as the program allows.  Reference
kernel slices run between timestamps, outside the timed segments.

With TRACE=1 a second, traced pass replays the same timestamps on a
fresh monitor; end-to-end numbers always come from the untraced pass.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from collections import deque
from pathlib import Path

from repro import StreamMonitor
from repro.graph.io import read_graph_set, read_stream
from repro.graph.operations import apply_operation
from repro.isomorphism import SubgraphMatcher

import spans
from measure import Calibration, peak_rss_mb, percentile, spread
from workloads import CHECKPOINTS, WORKLOADS, Workload


class Inputs:
    def __init__(self, directory: Path) -> None:
        self.manifest = json.loads((directory / "manifest.json").read_text())
        self.queries = dict(read_graph_set(directory / "queries.txt"))
        self.held_out = dict(read_graph_set(directory / "held_out.txt"))
        self.streams = {s: read_stream(directory / f"{s}.txt") for s in self.manifest["streams"]}
        self.timestamps = self.manifest["timestamps"]


def build(inputs: Inputs) -> StreamMonitor:
    monitor = StreamMonitor(inputs.queries)
    for stream_id, stream in inputs.streams.items():
        monitor.add_stream(stream_id, stream.initial)
    return monitor


def checkpoints(timestamps: int, count: int) -> list[int]:
    return sorted({timestamps * (k + 1) // count - 1 for k in range(count)})


def replay(monitor: StreamMonitor, inputs: Inputs, spec: Workload, tracer=None) -> dict:
    """One closed-loop pass over every timestamp."""
    calibration = Calibration()
    samples = set(checkpoints(inputs.timestamps, CHECKPOINTS))
    active = deque(inputs.queries)
    held = iter(inputs.held_out.items())
    latencies, segments, positions, registers, snapshots = [], [], [], [], {}
    changes = polls = candidates = 0
    elapsed = next_sample = 0.0  # window time, the kernel samples' clock
    for t in range(inputs.timestamps):
        if elapsed >= next_sample:
            calibration.sample(elapsed)
            next_sample = elapsed + Calibration.INTERVAL_S
        if tracer is not None:
            tracer.ts = t
        start = time.perf_counter()
        for stream_id, stream in inputs.streams.items():
            monitor.apply(stream_id, stream.operations[t])
        result = monitor.matches()
        stop = time.perf_counter()
        latencies.append(stop - start)
        polls += 1
        candidates += len(result)
        if t in samples:
            snapshots[t] = (result, list(active))
        if spec.churn_every and t % spec.churn_every == spec.churn_every - 1:
            monitor.deregister_query(active.popleft())
            query_id, pattern = next(held)
            begin = time.perf_counter()
            monitor.register_query(query_id, pattern)
            registers.append((t, time.perf_counter() - begin))
            active.append(query_id)
        if spec.probe_every and t % spec.probe_every == 0:
            query_id, pattern = next(held)
            begin = time.perf_counter()
            monitor.register_query(query_id, pattern)
            registers.append((t, time.perf_counter() - begin))
            monitor.deregister_query(query_id)
        segments.append(time.perf_counter() - start)
        positions.append(elapsed + segments[-1] / 2)
        elapsed += segments[-1]
        for stream in inputs.streams.values():
            changes += len(stream.operations[t])
    if tracer is not None:
        tracer.ts = -1  # spans past the window are not attributed
    factors = [calibration.factor(position) for position in positions]
    return {
        "window": sum(segments),
        "nominal_window": sum(f * seconds for f, seconds in zip(factors, segments)),
        "latencies": [f * seconds for f, seconds in zip(factors, latencies)],
        "registers": [factors[t] * seconds for t, seconds in registers],
        "changes": changes,
        "polls": polls,
        "candidates": candidates,
        "snapshots": snapshots,
        "calibration": calibration,
        "final": monitor.matches(),
    }


def rebuild_check(monitor: StreamMonitor, inputs: Inputs, final: set) -> bool:
    """Does ``final`` equal the answer of a monitor built fresh
    on the live monitor's final graphs and query set?"""
    patterns = {**inputs.queries, **inputs.held_out}
    fresh = StreamMonitor({q: patterns[q] for q in monitor.query_ids()})
    for stream_id in inputs.streams:
        fresh.add_stream(stream_id, monitor.graph(stream_id).copy())
    return fresh.matches() == final


def vf2_check(inputs: Inputs, snapshots: dict) -> tuple[int, int, int, int]:
    """At each sampled timestamp ``t -> (candidates, query_ids)``, every
    VF2-true (stream, query) pair must be a candidate (zero false
    negatives, Lemma 4.2).  Returns (checks, missing, true_candidates,
    candidates); the last two give the filter's precision."""
    patterns = {**inputs.queries, **inputs.held_out}
    checks = missing = true_candidates = candidates = 0
    graphs = {s: stream.initial.copy() for s, stream in inputs.streams.items()}
    for t in range(max(snapshots) + 1):
        for stream_id, stream in inputs.streams.items():
            apply_operation(graphs[stream_id], stream.operations[t])
        if t not in snapshots:
            continue
        result, query_ids = snapshots[t]
        for stream_id, graph in graphs.items():
            matcher = SubgraphMatcher(graph)
            for query_id in query_ids:
                truth = matcher.is_subgraph(patterns[query_id])
                candidate = (stream_id, query_id) in result
                checks += 1
                missing += truth and not candidate
                candidates += candidate
                true_candidates += truth and candidate
    return checks, missing, true_candidates, candidates


def instrument(monitor: StreamMonitor, tracer: spans.Tracer) -> None:
    engine = monitor.engine
    tracer.wrap(monitor, "apply", "monitor.apply")
    tracer.wrap(engine, "batch_update", "engine.batch_update", count=lambda s, d: len(d))
    tracer.wrap(engine, "on_vertex_added", "engine.on_vertex_added")
    tracer.wrap(engine, "on_vertex_removed", "engine.on_vertex_removed")
    tracer.wrap(monitor, "matches", "monitor.matches")
    tracer.wrap(engine, "candidates", "engine.candidates")
    tracer.wrap(monitor, "register_query", "monitor.register_query")
    tracer.wrap(engine, "add_query", "engine.add_query")
    tracer.wrap(monitor, "deregister_query", "monitor.deregister_query")
    tracer.wrap(engine, "remove_query", "engine.remove_query")


LAYERS = {
    "nnt.maintain_s": ("monitor.apply",),
    "join.deliver_s": ("engine.batch_update", "engine.on_vertex_added", "engine.on_vertex_removed"),
    "join.answer_s": ("monitor.matches", "engine.candidates"),
    "join.register_s": ("monitor.register_query", "engine.add_query"),
    "join.deregister_s": ("monitor.deregister_query", "engine.remove_query"),
}


ABSENT_LAYERS = (
    "runtime.submit_s", "runtime.poll_s", "runtime.worker_apply_s", "runtime.bytes_pickled",
    "runtime.inbox_depth_max", "serve.rtt_batch_ms_p50", "serve.rtt_commit_ms_p50",
    "serve.commit_s", "serve.edge_s", "serve.bytes_sent", "serve.bytes_received",
    "serve.rejected", "gen.lag_ms_p90", "gen.lag_ms_max", "runtime.self_s",
)


def traced_pass(
    inputs: Inputs, spec: Workload, untraced: dict, true_candidates: int, checked: int, dump: Path
) -> dict:
    """Replay the same timestamps on a fresh, instrumented monitor."""
    monitor = build(inputs)
    tracer = spans.Tracer()
    instrument(monitor, tracer)
    run = replay(monitor, inputs, spec, tracer)
    tracer.dump(dump)
    finished = [span for span in tracer.finished() if span[4] >= 0]
    self_time = spans.self_times(finished)
    layers = {
        metric: sum(self_time.get(name, 0.0) for name in names)
        for metric, names in LAYERS.items()
    }
    deliver_calls = sum(len(spans.durations(finished, name)) for name in LAYERS["join.deliver_s"])
    deltas = tracer.counts["engine.batch_update"]
    tree_nodes = sum(s["tree_nodes"] for s in monitor.stats()["streams"].values())
    kernel = untraced["calibration"].seconds()
    return {
        **layers,
        "nnt.share": layers["nnt.maintain_s"] / run["window"],
        "nnt.changes": run["changes"],
        "nnt.tree_nodes": tree_nodes,
        "join.deliver_calls": deliver_calls,
        "join.deltas": deltas,
        "nnt.deltas_per_change": deltas / run["changes"],
        "join.candidates_per_poll": run["candidates"] / run["polls"],
        "join.precision": true_candidates / checked if checked else 1.0,
        "host.ref_kernel_ms_p50": statistics.median(kernel) * 1e3,
        "host.ref_kernel_spread": spread(kernel),
        "wall_s": untraced["window"],
        "trace.coverage": sum(layers.values()) / run["window"],
        "trace.overhead": run["nominal_window"] / untraced["nominal_window"] - 1.0,
        # The in-process cells have no runtime, serve or load-generator layer.
        **dict.fromkeys(ABSENT_LAYERS, 0),
        "_final": run["final"],
    }


def main(argv: list[str]) -> int:
    directory, name, trace, out = Path(argv[0]), argv[1], argv[2] == "1", Path(argv[3])
    spec = WORKLOADS[name]
    inputs = Inputs(directory)
    gc.collect()  # so parsing garbage is not collected inside a timed set-up

    calibration = Calibration()
    setups = []
    for k in range(spec.setup_repeats):
        monitor = None  # one monitor alive at a time
        calibration.sample(k)
        begin = time.perf_counter()
        monitor = build(inputs)
        setups.append(time.perf_counter() - begin)
    calibration.sample(spec.setup_repeats)
    setup_s = statistics.median(
        calibration.factor(k + 0.5) * seconds for k, seconds in enumerate(setups)
    )

    run = replay(monitor, inputs, spec)
    rss = peak_rss_mb()
    attempted = run["polls"] * (len(inputs.streams) + 1) + 2 * len(run["registers"])
    checks, failures, true_candidates, checked = vf2_check(inputs, run["snapshots"])
    checks += 1
    failures += not rebuild_check(monitor, inputs, run["final"])

    latencies_ms = [value * 1e3 for value in run["latencies"]]
    on_time = sum(value <= spec.latency_limit_ms for value in latencies_ms)
    result = {
        "attempted": attempted + checks,
        "failed": failures,
        "correct": failures == 0,
        "samples": {"ts": len(latencies_ms), "register": len(run["registers"])},
        "kernel_ms": [value * 1e3 for value in run["calibration"].seconds()],
        "wall_s": run["window"],
        "end_to_end": {
            "setup_s": setup_s,
            "changes_per_s": run["changes"] / run["nominal_window"],
            "ts_latency_p50_ms": percentile(latencies_ms, 0.5),
            "ts_latency_p90_ms": percentile(latencies_ms, 0.9),
            "query_register_p50_ms": statistics.median(run["registers"]) * 1e3,
            "peak_rss_mb": rss,
            "ok_ratio": (attempted + checks - failures) / (attempted + checks),
            "on_time_ratio": on_time / len(latencies_ms),
        },
    }
    if trace:
        result["per_layer"] = traced_pass(
            inputs, spec, run, true_candidates, checked, out.with_suffix(".spans.json")
        )
        if result["per_layer"].pop("_final") != run["final"]:
            result["failed"] += 1
            result["correct"] = False
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
