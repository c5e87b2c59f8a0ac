"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``."""

import ast
import gc
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import refkernel
import run as bench
import spans
from repro.isomorphism import SubgraphMatcher
from workloads import WORKLOADS

BENCH = Path(bench.__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_every_metric_with_unit(workload, trace):
    """generate -> run -> correctness -> every named metric, with its unit."""
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        assert result["metrics"]["on_time_ratio"]["value"] == 1.0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("dense-inproc", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


# -- reference kernel --------------------------------------------------------


def test_kernel_imports_nothing_from_the_program():
    tree = ast.parse(Path(refkernel.__file__).read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "gc", "time"}
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, refkernel; refkernel.run_slice(); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"],
        cwd=BENCH, capture_output=True, text=True, timeout=60,
    )
    assert probe.stdout.strip() == "[]", probe.stderr


def test_kernel_restores_gc_state_and_keeps_nothing():
    was_enabled = gc.isenabled()
    try:
        gc.disable()
        refkernel.run_slice()
        assert not gc.isenabled()
        gc.enable()
        refkernel.run_slice()
        assert gc.isenabled()
        refkernel.run_slice()
        before = sys.getallocatedblocks()
        assert refkernel.run_slice() > 0
        assert sys.getallocatedblocks() - before < 50
    finally:
        (gc.enable if was_enabled else gc.disable)()


# -- attribution -------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    synthetic = [
        ("root", 0.0, 10.0, -1, 0),
        ("child", 1.0, 3.0, 0, 0),
        ("leaf", 1.5, 2.0, 1, 0),
        ("child", 5.0, 6.0, 0, 0),
        ("other", 20.0, 21.0, -1, 1),
    ]
    assert spans.self_times(synthetic) == pytest.approx(
        {"root": 7.0, "child": 2.5, "leaf": 0.5, "other": 1.0}
    )


def test_overlapping_children_are_counted_once():
    synthetic = [("root", 0.0, 4.0, -1, 0), ("a", 1.0, 3.0, 0, 0), ("b", 2.0, 5.0, 0, 0)]
    assert spans.self_times(synthetic)["root"] == pytest.approx(1.0)


def test_tracer_links_wrapped_calls_to_their_caller():
    class Engine:
        def deliver(self, deltas):
            return len(deltas)

    class Monitor:
        def __init__(self):
            self.engine = Engine()

        def apply(self, deltas):
            return self.engine.deliver(deltas)

    monitor, tracer = Monitor(), spans.Tracer()
    tracer.wrap(monitor, "apply", "apply")
    tracer.wrap(monitor.engine, "deliver", "deliver", count=lambda deltas: len(deltas))
    tracer.ts = 7
    assert monitor.apply([1, 2, 3]) == 3
    (apply, deliver) = tracer.finished()  # in the order they opened
    assert apply[0] == "apply" and apply[3] == -1
    assert deliver[0] == "deliver" and deliver[3] == 0 and deliver[4] == 7
    assert apply[1] <= deliver[1] <= deliver[2] <= apply[2]
    assert tracer.counts["deliver"] == 3


# -- input generation ----------------------------------------------------------


def test_patterns_are_pairwise_non_isomorphic():
    spec = WORKLOADS["sparse-1kq-churn"]
    rng = random.Random(5)
    topologies = [gen.topology(rng, spec) for _ in range(8)]
    patterns = gen.distinct_patterns(rng, topologies, 60, 5)
    for i, a in enumerate(patterns):
        matcher = SubgraphMatcher(a)
        for b in patterns[i + 1:]:
            assert not matcher.is_subgraph(b)  # equal sizes: subgraph iff isomorphic


def test_canonical_form_ignores_vertex_names():
    spec = WORKLOADS["dense-inproc"]
    rng = random.Random(9)
    pattern = gen.extract_pattern(rng, gen.topology(rng, spec), 5)
    names = list(pattern.vertices())
    shuffled = names[:]
    rng.shuffle(shuffled)
    renamed = pattern.relabeled({old: f"n{new}" for old, new in zip(names, shuffled)})
    assert gen.canonical_form(renamed) == gen.canonical_form(pattern)


def test_generation_is_seeded(tmp_path):
    spec = WORKLOADS["dense-inproc"]
    gen.generate(spec, 4, 5, 3, tmp_path / "a")
    gen.generate(spec, 4, 5, 3, tmp_path / "b")
    gen.generate(spec, 5, 5, 3, tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert all((tmp_path / "a" / f).read_text() == (tmp_path / "b" / f).read_text() for f in files)
    assert (tmp_path / "a" / "s0.txt").read_text() != (tmp_path / "c" / "s0.txt").read_text()
