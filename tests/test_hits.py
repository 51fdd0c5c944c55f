"""HITS hubs/authorities: the doubled-bipartite-graph sum propagation
(algorithms.SumPropagation) must reproduce the textbook simultaneous
power iteration h <- A·a, a <- Aᵀ·h exactly (iterates are integers, so
equality is exact, not allclose). Both engine executors."""

import shutil

import numpy as np
import ray.data as rd

from distributed_graph_computing_platform_ray.algorithms import make_algorithm
from distributed_graph_computing_platform_ray.engine import BSPEngine
from distributed_graph_computing_platform_ray.pipelines.graph import result_dataset
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

TMP = "/tmp/graft_tests/hits"

# directed graph with a clear hub (0) and authority (2), plus a dangling
# source (3) and a vertex with no in-edges (0 itself)
EDGES = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (3, 1)]
ITERS = 4


def numpy_hits(edges, iters):
    n = max(max(u, v) for u, v in edges) + 1
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = 1.0
    h = np.ones(n)
    a = np.ones(n)
    for _ in range(iters):
        h, a = A @ a, A.T @ h  # simultaneous update, like the doubled graph
    return h, a


def test_hits_sumprop_matches_numpy_both_backends(use_executor):
    doubled = [(2 * u, 2 * v + 1) for u, v in EDGES] + [
        (2 * v + 1, 2 * u) for u, v in EDGES
    ]
    ds = rd.from_items([{"src_key": str(u), "dst_key": str(v)} for u, v in doubled])
    gdir = f"{TMP}/graph"
    shutil.rmtree(TMP, ignore_errors=True)
    build_graph(ds, gdir, n_parts=2, n_buckets=4, dedup=False, symmetrize_edges=False)
    man = GraphManifest.load(gdir)

    h, a = numpy_hits(EDGES, ITERS)
    for executor in ("tasks", "local"):
        use_executor(executor)
        eng = BSPEngine(man, f"{TMP}/run_{executor}")
        final = eng.run(
            make_algorithm("sumprop", num_iters=ITERS),
            checkpoint_interval=2,
        )
        res = result_dataset(man, eng.iter_dir(final)).to_pandas()
        got = {int(v): x for v, x in zip(res["vertex"], res["value"])}
        for dv, val in got.items():
            orig, is_auth = dv // 2, dv % 2 == 1
            assert (a[orig] if is_auth else h[orig]) == val, (executor, dv, val)
        # every vertex with out-edges has a hub node; with in-edges an auth node
        assert {d for d in got if d % 2 == 0} == {2 * u for u, _ in EDGES}
        assert {d for d in got if d % 2 == 1} == {2 * v + 1 for _, v in EDGES}
