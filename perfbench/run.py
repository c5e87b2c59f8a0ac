"""The repository's end-to-end benchmark, one workload per invocation.

    python3 perfbench/run.py --workload dense-inproc --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  It generates the seeded inputs
(``perfbench/gen.py``) into ``.perfbench_work/``, runs the workload's
runner in a fresh process that only reads them back
(``perfbench/inproc.py`` or ``perfbench/serve_client.py``), checks
every answer there, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Diagnostics (raw wall
time, reference-kernel samples, sample counts) go on the lines before.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 140.0  # a run must end within 180 s, stopping included
STOP_GRACE_S = 30.0

#: name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "changes_per_s": "1/s",
    "ts_latency_p50_ms": "ms",
    "ts_latency_p90_ms": "ms",
    "query_register_p50_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
    "on_time_ratio": "ratio",
}
PER_LAYER = {
    "nnt.maintain_s": "s",
    "nnt.share": "ratio",
    "nnt.changes": "count",
    "nnt.tree_nodes": "count",
    "join.deliver_s": "s",
    "join.deliver_calls": "count",
    "join.deltas": "count",
    "nnt.deltas_per_change": "ratio",
    "join.answer_s": "s",
    "join.candidates_per_poll": "count",
    "join.precision": "ratio",
    "join.register_s": "s",
    "join.deregister_s": "s",
    "runtime.submit_s": "s",
    "runtime.poll_s": "s",
    "runtime.worker_apply_s": "s",
    "runtime.bytes_pickled": "bytes",
    "runtime.inbox_depth_max": "count",
    "runtime.self_s": "s",
    "serve.rtt_batch_ms_p50": "ms",
    "serve.rtt_commit_ms_p50": "ms",
    "serve.commit_s": "s",
    "serve.edge_s": "s",
    "serve.bytes_sent": "bytes",
    "serve.bytes_received": "bytes",
    "serve.rejected": "count",
    "gen.lag_ms_p90": "ms",
    "gen.lag_ms_max": "ms",
    "host.ref_kernel_ms_p50": "ms",
    "host.ref_kernel_spread": "ratio",
    "wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return fail(f"no program source under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import gen
    from workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    timestamps = round(args.seconds * spec.ts_per_second)
    held_out = math.ceil(timestamps / (spec.churn_every or spec.probe_every))
    work = ROOT / ".perfbench_work" / f"{spec.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen.generate(spec, args.seed, timestamps, held_out, work)
        runner = HERE / ("serve_client.py" if spec.workers else "inproc.py")
        env = dict(os.environ)
        env.pop("REPRO_OBS", None)  # the program's defaults, whatever the caller set
        env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
        out = work / "result.json"
        remaining = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.Popen(
            [sys.executable, str(runner), str(work), spec.name, str(args.trace), str(out)],
            cwd=ROOT,
            env=env,
        )
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.terminate()  # the runner stops what it started, then exits
            try:
                proc.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            return fail(f"runner did not finish within {remaining:.0f} s")
        if code != 0:
            return fail(f"runner exited with code {code}")
        result = json.loads(out.read_text())
        spans = out.with_suffix(".spans.json")
        if spans.exists():
            shutil.move(spans, ROOT / ".perfbench_work" / f"spans-{spec.name}-{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "workload": spec.name,
        "seed": args.seed,
        "timestamps": timestamps,
        "samples": result["samples"],
        "wall_s": result["wall_s"],
        "kernel_ms": [round(value, 3) for value in result["kernel_ms"]],
    }))
    values, units = (
        (result["per_layer"], PER_LAYER) if args.trace else (result["end_to_end"], END_TO_END)
    )
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
