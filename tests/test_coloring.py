"""Jones-Plassmann greedy coloring (algorithms.GreedyColoring): the
parallel rounds must reproduce SEQUENTIAL greedy coloring in priority
order exactly (same per-round priorities), the coloring must be proper,
and both engine executors must agree — this also exercises the engine's
per-superstep combiner extension (min phase / bitwise-OR phase)."""

import shutil

import numpy as np
import ray.data as rd

from distributed_graph_computing_platform_ray.algorithms import GreedyColoring, make_algorithm
from distributed_graph_computing_platform_ray.engine import BSPEngine
from distributed_graph_computing_platform_ray.pipelines.graph import result_dataset
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest
from distributed_graph_computing_platform_ray.utils import mix64

TMP = "/tmp/graft_tests/coloring"

# a 4-clique, a triangle sharing a vertex, a path, and an isolated pair
EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (3, 4), (4, 5), (5, 3),
    (6, 7), (7, 8),
    (9, 10),
]
SEED = 7


def oracle_jp(edges, seed):
    """Round-faithful JP: each round, every uncolored vertex with the
    strict-min priority among its uncolored neighbors takes the mex of
    its ALREADY-colored neighborhood."""
    n = max(max(u, v) for u, v in edges) + 1
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    color = [-1] * n
    r = 0
    while any(c < 0 for c in color):
        pr = {
            v: int(mix64(np.uint64(seed + r), np.uint64(v)) >> np.uint64(11))
            for v in range(n)
            if color[v] < 0
        }
        winners = [
            v
            for v in pr
            if all(color[u] >= 0 or pr[v] < pr[u] for u in adj[v])
        ]
        for v in winners:
            used = {color[u] for u in adj[v] if color[u] >= 0}
            c = 0
            while c in used:
                c += 1
            color[v] = c
        r += 1
        assert r < 100
    return color


def test_coloring_matches_sequential_greedy_both_backends(use_executor):
    ds = rd.from_items(
        [{"src_key": str(u), "dst_key": str(v)} for u, v in EDGES]
        + [{"src_key": str(v), "dst_key": str(u)} for u, v in EDGES]
    )
    gdir = f"{TMP}/graph"
    shutil.rmtree(TMP, ignore_errors=True)
    build_graph(ds, gdir, n_parts=2, n_buckets=4, dedup=False, symmetrize_edges=False)
    man = GraphManifest.load(gdir)

    exp = oracle_jp(EDGES, SEED)
    adj = {}
    for u, v in EDGES:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for executor in ("tasks", "local"):
        use_executor(executor)
        eng = BSPEngine(man, f"{TMP}/run_{executor}")
        final = eng.run(
            make_algorithm("coloring", seed=SEED),
            checkpoint_interval=3,
        )
        res = result_dataset(man, eng.iter_dir(final)).to_pandas()
        got = {
            int(v): (int(x) >> GreedyColoring._COLOR_SHIFT & 63) - 1
            for v, x in zip(res["vertex"], res["value"])
        }
        assert set(got) == set(range(len(exp)))
        for v, c in got.items():
            assert c == exp[v], (executor, v, c, exp[v])
        for u, nbrs in adj.items():  # proper coloring
            for w in nbrs:
                assert got[u] != got[w], (executor, u, w)
