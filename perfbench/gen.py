"""Seeded input generation, written in ``repro.graph.io`` formats.

Each stream is the paper's coin-flip stream (Sec. V-B) over a fixed set
of candidate vertex pairs, sized so that the mean degree at the
equilibrium density ``p1 / (p1 + p2)`` matches the workload.  The
initial graph is drawn from that equilibrium (every pair present with
the stationary probability), so the cost per timestamp does not trend
during a run.

Queries and held-out patterns are connected edge subgraphs of the
candidate topology, pairwise non-isomorphic: a duplicate would take the
engine's identical-projection dedup shortcut and make registration
times depend on the seed's luck.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from repro.graph.io import write_graph_set, write_stream
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.operations import EdgeChange, GraphChangeOperation
from repro.graph.stream import GraphStream

from workloads import QUERY_EDGES, STREAMS, Workload

VERTEX_LABELS = "ABCDEFGHIJ"
EDGE_LABELS = "xy"


def topology(rng: random.Random, spec: Workload) -> LabeledGraph:
    """The candidate pairs of one stream, as a connected labeled graph."""
    p_appear, p_disappear = spec.probs
    density = p_appear / (p_appear + p_disappear)
    n = spec.vertices
    wanted = min(n * (n - 1) // 2, round(n * spec.mean_degree / 2 / density))
    graph = LabeledGraph()
    for i in range(n):
        graph.add_vertex(f"v{i}", VERTEX_LABELS[rng.randrange(spec.vertex_labels)])
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):  # random spanning tree keeps the topology connected
        u, v = order[k], order[rng.randrange(k)]
        graph.add_edge(f"v{u}", f"v{v}", rng.choice(EDGE_LABELS))
    # Then join least-connected pairs: near-equal degrees keep the NNT
    # cost, which grows with degree, from depending on the seed's luck.
    vertices = [f"v{i}" for i in range(n)]
    while graph.num_edges < wanted:
        u = min(vertices, key=lambda x: (graph.degree(x), rng.random()))
        v = min(
            (x for x in vertices if x != u and not graph.has_edge(u, x)),
            key=lambda x: (graph.degree(x), rng.random()),
        )
        graph.add_edge(u, v, rng.choice(EDGE_LABELS))
    return graph


def coin_flip_stream(
    rng: random.Random, topo: LabeledGraph, spec: Workload, timestamps: int, name: str
) -> GraphStream:
    """Equilibrium start plus ``timestamps`` coin-flip change batches."""
    p_appear, p_disappear = spec.probs
    density = p_appear / (p_appear + p_disappear)
    pairs = sorted(topo.edges())
    present = {(u, v) for u, v, _ in pairs if rng.random() < density}
    initial = LabeledGraph()
    for u, v, label in pairs:
        if (u, v) in present:
            for vertex in (u, v):
                if not initial.has_vertex(vertex):
                    initial.add_vertex(vertex, topo.vertex_label(vertex))
            initial.add_edge(u, v, label)
    operations = []
    for _ in range(timestamps):
        deletions, insertions = [], []
        for u, v, label in pairs:
            if (u, v) in present:
                if rng.random() < p_disappear:
                    present.discard((u, v))
                    deletions.append(EdgeChange.delete(u, v))
            elif rng.random() < p_appear:
                present.add((u, v))
                insertions.append(
                    EdgeChange.insert(
                        u, v, label, topo.vertex_label(u), topo.vertex_label(v)
                    )
                )
        operations.append(GraphChangeOperation(deletions + insertions))
    return GraphStream(initial, operations, name=name)


def extract_pattern(rng: random.Random, topo: LabeledGraph, num_edges: int) -> LabeledGraph:
    """A random connected edge subgraph, vertices renumbered from 0."""
    start = rng.choice(sorted(topo.edges()))
    chosen = {frozenset(start[:2]): start}
    vertices = {start[0], start[1]}
    while len(chosen) < num_edges:
        frontier = sorted(
            (u, v, label)
            for u in vertices
            for v, label in topo.neighbor_items(u)
            if frozenset((u, v)) not in chosen
        )
        u, v, label = rng.choice(frontier)
        chosen[frozenset((u, v))] = (u, v, label)
        vertices.update((u, v))
    ids = {vertex: str(i) for i, vertex in enumerate(sorted(vertices))}
    pattern = LabeledGraph()
    for vertex, new_id in ids.items():
        pattern.add_vertex(new_id, topo.vertex_label(vertex))
    for u, v, label in chosen.values():
        pattern.add_edge(ids[u], ids[v], label)
    return pattern


def canonical_form(graph: LabeledGraph) -> tuple:
    """An isomorphism-invariant key of a small labeled graph: the
    smallest encoding over all vertex orders that list labels sorted."""
    by_label: dict[str, list] = {}
    for vertex, label in graph.vertex_items():
        by_label.setdefault(label, []).append(vertex)
    labels = sorted(by_label)
    best = None
    for blocks in itertools.product(
        *(itertools.permutations(by_label[label]) for label in labels)
    ):
        position = {vertex: i for i, vertex in enumerate(itertools.chain(*blocks))}
        code = tuple(
            sorted(
                (min(position[u], position[v]), max(position[u], position[v]), label)
                for u, v, label in graph.edges()
            )
        )
        if best is None or code < best:
            best = code
    return (tuple(len(by_label[label]) for label in labels), tuple(labels), best)


def distinct_patterns(
    rng: random.Random, topologies: list[LabeledGraph], count: int, num_edges: int
) -> list[LabeledGraph]:
    """``count`` pairwise non-isomorphic patterns."""
    seen: set[tuple] = set()
    patterns: list[LabeledGraph] = []
    attempts = 0
    while len(patterns) < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise RuntimeError(f"could not draw {count} distinct patterns")
        pattern = extract_pattern(rng, rng.choice(topologies), num_edges)
        key = canonical_form(pattern)
        if key not in seen:
            seen.add(key)
            patterns.append(pattern)
    return patterns


def generate(spec: Workload, seed: int, timestamps: int, held_out: int, out: Path) -> None:
    """Write every input of one run into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{spec.name}/{seed}")
    topologies = [topology(rng, spec) for _ in range(STREAMS)]
    patterns = distinct_patterns(rng, topologies, spec.queries + held_out, QUERY_EDGES)
    query_ids = [f"q{i}" for i in range(spec.queries)]
    held_ids = [f"h{i}" for i in range(held_out)]
    write_graph_set(patterns[: spec.queries], out / "queries.txt", names=query_ids)
    write_graph_set(patterns[spec.queries :], out / "held_out.txt", names=held_ids)
    streams = []
    for i, topo in enumerate(topologies):
        stream_id = f"s{i}"
        write_stream(coin_flip_stream(rng, topo, spec, timestamps, stream_id), out / f"{stream_id}.txt")
        streams.append(stream_id)
    manifest = {
        "workload": spec.name,
        "seed": seed,
        "timestamps": timestamps,
        "streams": streams,
        "queries": query_ids,
        "held_out": held_ids,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
