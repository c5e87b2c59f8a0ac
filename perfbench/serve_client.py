"""Timed TCP-serve runner: ``python3 serve_client.py INPUTS WORKLOAD TRACE OUT``.

Spawns the real ``python -m repro serve --tcp 127.0.0.1:0 --workers N``
CLI and is its one client, on one connection: per timestamp a ``batch``
per stream, then a ``commit``.  The loop is open: timestamp ``t`` is
due at ``start + t / rate`` whatever happened before, its latency runs
from that due time to the ``commit`` reply, and how late the generator
sent it is recorded.  Reference-kernel slices run in the idle gaps.

The server's ``stats`` reply gives the runtime and serve layers; the
client's round trips give the edge.  Correctness: the commit replies'
appeared/vanished events, replayed, must equal an in-process
``StreamMonitor`` on the same inputs at sampled timestamps and at the
end, and miss no VF2-true pair.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.protocol import change_to_dict

import spans
from inproc import Inputs, build, checkpoints, vf2_check
from measure import Calibration, peak_rss_mb, percentile, spread
from workloads import CHECKPOINTS, WORKLOADS, Workload

KERNEL_SLACK_S = 0.03  # run a kernel slice only when the next timestamp is this far off
STATS_EVERY = 20  # traced pass: timestamps between inbox-depth samples
REPLY_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve --tcp`` process tree and a client connection."""

    def __init__(self, inputs_dir: Path, workers: int) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--queries", str(inputs_dir / "queries.txt"),
                "--workers", str(workers),
                "--tcp", "127.0.0.1:0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,  # its own process group, so every worker stops with it
        )
        self.sock = None
        self.sent = self.received = 0
        try:
            notice = json.loads(self.proc.stdout.readline())
            if notice.get("notice") != "listening":
                raise RuntimeError(f"server did not start: {notice}")
            self.sock = socket.create_connection(("127.0.0.1", notice["port"]), timeout=REPLY_TIMEOUT_S)
            self.wire = self.sock.makefile("rwb")
            hello = json.loads(self.wire.readline())
            if hello.get("notice") != "hello":
                raise RuntimeError(f"no hello from server: {hello}")
        except BaseException:
            self.close()
            raise

    def call(self, doc: dict) -> dict:
        line = (json.dumps(doc) + "\n").encode()
        self.wire.write(line)
        self.wire.flush()
        self.sent += len(line)
        while True:
            raw = self.wire.readline()
            if not raw:
                raise ConnectionError("server closed the connection")
            self.received += len(raw)
            reply = json.loads(raw)
            if "notice" not in reply:
                return reply

    def processes(self) -> list[int]:
        """The server's pid and every descendant's."""
        pids, frontier = [], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            for task in Path(f"/proc/{pid}/task").glob("*/children"):
                frontier += [int(child) for child in task.read_text().split()]
        return pids

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.call({"cmd": "quit"})
            except (OSError, ValueError):
                pass
            self.wire.close()
            self.sock.close()
        group = self.proc.pid
        try:
            os.killpg(group, signal.SIGTERM)
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(group, signal.SIGKILL)
            self.proc.wait(timeout=30)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 30
        try:  # workers left behind by the coordinator
            os.killpg(group, signal.SIGKILL)
            while time.monotonic() < deadline:
                os.killpg(group, 0)
                time.sleep(0.05)
        except ProcessLookupError:
            pass  # the whole group has ended
        self.proc.stdout.close()


def load_streams(server: Server, inputs: Inputs) -> dict:
    """Register every stream with its initial graph and commit."""
    ok = True
    for stream_id, stream in inputs.streams.items():
        ok &= server.call({"cmd": "stream", "stream": stream_id})["ok"]
        graph = stream.initial
        initial = [
            {"op": "ins", "u": u, "v": v, "edge_label": label,
             "u_label": graph.vertex_label(u), "v_label": graph.vertex_label(v)}
            for u, v, label in graph.edges()
        ]
        ok &= server.call({"cmd": "batch", "stream": stream_id, "changes": initial})["ok"]
    reply = server.call({"cmd": "commit"})
    if not (ok and reply["ok"]):
        raise RuntimeError(f"loading the initial graphs failed: {reply}")
    return reply


def replay_events(state: set, reply: dict) -> None:
    for event in reply.get("events", ()):
        pair = (event["stream"], event["query"])
        if event["kind"] == "appeared":
            state.add(pair)
        else:
            state.discard(pair)


def histogram_sum(stats: dict, name: str) -> float:
    return stats["merged_obs"].get(name, {}).get("sum", 0.0)


def counter(stats: dict, name: str) -> float:
    return stats["merged_obs"].get(name, {}).get("value", 0)


def layer_totals(stats: dict) -> dict:
    """Cumulative server-side layer figures from one ``stats`` reply."""
    apply = histogram_sum(stats, "monitor.apply.seconds")
    deliver = histogram_sum(stats, "nnt.batch_update.seconds")
    return {
        "nnt.maintain_s": apply - deliver,
        "nnt.changes": counter(stats, "monitor.changes"),
        "join.deliver_s": deliver,
        "join.deliver_calls": stats["merged_obs"].get("nnt.batch_update.seconds", {}).get("count", 0),
        "join.deltas": counter(stats, "nnt.deltas_delivered"),
        "join.answer_s": histogram_sum(stats, "monitor.matches.seconds"),
        "runtime.submit_s": histogram_sum(stats, "runtime.submit.seconds"),
        "runtime.poll_s": histogram_sum(stats, "runtime.matches.seconds"),
        "runtime.worker_apply_s": stats["merged_counters"]["busy_seconds"],
        "runtime.bytes_pickled": counter(stats, "runtime.bytes_pickled"),
        "serve.commit_s": histogram_sum(stats, "serve.commit.seconds"),
        "serve.rejected": sum(v for k, v in stats["serve"].items() if k.startswith("rejected_")),
    }


def window(server: Server, inputs: Inputs, spec: Workload, state: set, tracer=None) -> dict:
    """The open-loop timed window; ``state`` holds the replayed events."""
    calibration = Calibration()
    samples = set(checkpoints(inputs.timestamps, CHECKPOINTS))
    snapshots, latencies, lags, in_flight, adds, deletes = {}, [], [], [], [], []
    held = iter(inputs.held_out.items())
    ok = attempted = changes = candidates = depth_max = 0
    interval = 1.0 / spec.ts_per_second
    start = time.perf_counter() + 0.05
    next_sample = start
    for t in range(inputs.timestamps):
        due = start + t * interval
        now = time.perf_counter()
        if now >= next_sample and due - now > KERNEL_SLACK_S:
            calibration.sample(now - start)
            next_sample = now + Calibration.INTERVAL_S
        if tracer is not None and t % STATS_EVERY == 0 and due - time.perf_counter() > KERNEL_SLACK_S:
            depths = server.call({"cmd": "stats"})["stats"]["inbox_depths"]
            depth_max = max(depth_max, sum(depths.values()))
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        lags.append(sent - due)
        if tracer is not None:
            tracer.ts = t
        for stream_id, stream in inputs.streams.items():
            doc = {
                "cmd": "batch",
                "stream": stream_id,
                "changes": [change_to_dict(c) for c in stream.operations[t]],
            }
            if tracer is None:
                reply = server.call(doc)
            else:
                with tracer.span("client.batch"):
                    reply = server.call(doc)
            attempted += 1
            ok += bool(reply.get("ok"))
            changes += len(stream.operations[t])
        if tracer is None:
            reply = server.call({"cmd": "commit"})
        else:
            with tracer.span("client.commit"):
                reply = server.call({"cmd": "commit"})
        done = time.perf_counter()
        attempted += 1
        ok += bool(reply.get("ok"))
        replay_events(state, reply)
        latencies.append(done - due)
        in_flight.append(done - sent)
        candidates += len(state)
        if t in samples:
            snapshots[t] = (set(state), list(inputs.queries))
        if t % spec.probe_every == 0:  # in the idle gap, between commits
            query_id, pattern = next(held)
            begin = time.perf_counter()
            reply = server.call(inline_pattern(query_id, pattern))
            adds.append((t, time.perf_counter() - begin))
            ok += bool(reply.get("ok"))
            begin = time.perf_counter()
            reply = server.call({"cmd": "delq", "query": query_id})
            deletes.append((t, time.perf_counter() - begin))
            ok += bool(reply.get("ok"))
            attempted += 2
    if tracer is not None:
        tracer.ts = -1
    factors = [
        calibration.factor(t * interval + latency / 2) for t, latency in enumerate(latencies)
    ]
    return {
        "wall": time.perf_counter() - start,
        "in_flight": sum(in_flight),
        "nominal_in_flight": sum(f * seconds for f, seconds in zip(factors, in_flight)),
        "latencies": [f * seconds for f, seconds in zip(factors, latencies)],
        "lags": lags,
        "ok": ok,
        "attempted": attempted,
        "changes": changes,
        "candidates": candidates,
        "snapshots": snapshots,
        "final": state,
        "calibration": calibration,
        "depth_max": depth_max,
        "adds": adds,
        "nominal_adds": [factors[t] * seconds for t, seconds in adds],
        "deletes": deletes,
    }


def inline_pattern(query_id: str, pattern) -> dict:
    return {
        "cmd": "addq",
        "query": query_id,
        "vertices": sorted(pattern.vertex_items()),
        "edges": sorted(pattern.edges()),
    }


def reference(inputs: Inputs, timestamps: set) -> tuple[dict, set]:
    """The in-process answer at the sampled timestamps and at the end."""
    monitor = build(inputs)
    answers = {}
    for t in range(inputs.timestamps):
        for stream_id, stream in inputs.streams.items():
            monitor.apply(stream_id, stream.operations[t])
        if t in timestamps:
            answers[t] = monitor.matches()
    return answers, monitor.matches()


def measured_session(inputs_dir: Path, inputs: Inputs, spec: Workload, tracer=None) -> dict:
    """Start a server, load it, run the window, collect its stats."""
    server = Server(inputs_dir, spec.workers)
    try:
        state: set = set()
        replay_events(state, load_streams(server, inputs))
        before = layer_totals(server.call({"cmd": "stats"})["stats"])
        run = window(server, inputs, spec, state, tracer)
        stats = server.call({"cmd": "stats"})["stats"]
        run["rss"] = sum(peak_rss_mb(pid) for pid in server.processes())
        after = layer_totals(stats)
        run["layers"] = {name: after[name] - before[name] for name in after}
        run["tree_nodes"] = sum(
            stream["tree_nodes"]
            for worker in stats["workers"].values()
            for stream in worker["monitor"]["streams"].values()
        )
        run["sent"], run["received"] = server.sent, server.received
    finally:
        server.close()
    return run


def _stop(signum: int, frame) -> None:
    raise SystemExit(f"stopped by signal {signum}")  # unwinds through Server.close()


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _stop)
    directory, name, trace, out = Path(argv[0]), argv[1], argv[2] == "1", Path(argv[3])
    spec = WORKLOADS[name]
    inputs = Inputs(directory)

    calibration = Calibration()
    setups = []
    for k in range(spec.setup_repeats):
        calibration.sample(k)
        begin = time.perf_counter()
        server = Server(directory, spec.workers)
        try:
            load_streams(server, inputs)
            setups.append(time.perf_counter() - begin)
        finally:
            server.close()
    calibration.sample(spec.setup_repeats)
    setup_s = statistics.median(
        calibration.factor(k + 0.5) * seconds for k, seconds in enumerate(setups)
    )

    run = measured_session(directory, inputs, spec)
    answers, final = reference(inputs, set(run["snapshots"]))
    checks, failures, true_candidates, checked = vf2_check(inputs, run["snapshots"])
    for t, (state, _) in run["snapshots"].items():
        checks += 1
        failures += state != answers[t]
    checks += 1
    failures += run["final"] != final

    latencies_ms = [value * 1e3 for value in run["latencies"]]
    attempted = run["attempted"] + checks
    failed = run["attempted"] - run["ok"] + failures
    on_time = sum(value <= spec.latency_limit_ms for value in latencies_ms)
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "samples": {"ts": len(latencies_ms), "register": len(run["adds"])},
        "kernel_ms": [value * 1e3 for value in run["calibration"].seconds()],
        "wall_s": run["wall"],
        "end_to_end": {
            "setup_s": setup_s,
            # Open loop: the offered rate sets the window, so this is not
            # host-scaled; it drops only if the server falls behind.
            "changes_per_s": run["changes"] / run["wall"],
            "ts_latency_p50_ms": percentile(latencies_ms, 0.5),
            "ts_latency_p90_ms": percentile(latencies_ms, 0.9),
            "query_register_p50_ms": statistics.median(run["nominal_adds"]) * 1e3,
            "peak_rss_mb": run["rss"],
            "ok_ratio": (attempted - failed) / attempted,
            "on_time_ratio": on_time / len(latencies_ms),
        },
    }
    if trace:
        tracer = spans.Tracer()
        traced = measured_session(directory, inputs, spec, tracer)
        tracer.dump(out.with_suffix(".spans.json"))
        if traced["final"] != final:
            result["failed"] += 1
            result["correct"] = False
        result["per_layer"] = per_layer(spec, run, traced, tracer, true_candidates, checked)
    out.write_text(json.dumps(result))
    return 0


def per_layer(
    spec: Workload, untraced: dict, run: dict, tracer: spans.Tracer, true_candidates: int, checked: int
) -> dict:
    finished = [span for span in tracer.finished() if span[4] >= 0]
    self_time = spans.self_times(finished)
    layers = run["layers"]
    round_trips = self_time.get("client.batch", 0.0) + self_time.get("client.commit", 0.0)
    # The workers compute in parallel, so their mean busy time, not the
    # sum, is what the commit waits for.
    in_worker = (
        layers["nnt.maintain_s"] + layers["join.deliver_s"] + layers["join.answer_s"]
    ) / spec.workers
    runtime_self = max(0.0, layers["serve.commit_s"] - in_worker)
    edge = round_trips - layers["serve.commit_s"]
    kernel = untraced["calibration"].seconds()
    polls = len(run["latencies"])
    return {
        **layers,
        "nnt.share": layers["nnt.maintain_s"] / spec.workers / run["in_flight"],
        "nnt.tree_nodes": run["tree_nodes"],
        "nnt.deltas_per_change": layers["join.deltas"] / layers["nnt.changes"],
        "join.candidates_per_poll": run["candidates"] / polls,
        "join.precision": true_candidates / checked if checked else 1.0,
        "join.register_s": sum(seconds for _, seconds in run["adds"]),
        "join.deregister_s": sum(seconds for _, seconds in run["deletes"]),
        "runtime.inbox_depth_max": run["depth_max"],
        "serve.rtt_batch_ms_p50": statistics.median(spans.durations(finished, "client.batch")) * 1e3,
        "serve.rtt_commit_ms_p50": statistics.median(spans.durations(finished, "client.commit")) * 1e3,
        "serve.edge_s": edge,
        "serve.bytes_sent": run["sent"],
        "serve.bytes_received": run["received"],
        "gen.lag_ms_p90": percentile(run["lags"], 0.9) * 1e3,
        "gen.lag_ms_max": max(run["lags"]) * 1e3,
        "host.ref_kernel_ms_p50": statistics.median(kernel) * 1e3,
        "host.ref_kernel_spread": spread(kernel),
        "wall_s": untraced["wall"],
        # Attributed: in-worker NNT and join work, the runtime's share of
        # the server commit, and the serve edge; over the time the client
        # had a timestamp in flight (the open loop idles by design).
        "trace.coverage": (in_worker + runtime_self + max(0.0, edge)) / run["in_flight"],
        "trace.overhead": run["nominal_in_flight"] / untraced["nominal_in_flight"] - 1.0,
        "runtime.self_s": runtime_self,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
