"""Katz centrality (algorithms.KatzPropagation): the 8^T-scaled
integer recursion S_k = 8^k + A^T S_{k-1} must reproduce the textbook
walk-count expansion sum_k walks_k * 8^(T-k) exactly (iterates are
integers, so equality is exact). Both engine executors."""

import shutil

import numpy as np
import ray.data as rd

from distributed_graph_computing_platform_ray.algorithms import make_algorithm
from distributed_graph_computing_platform_ray.engine import BSPEngine
from distributed_graph_computing_platform_ray.pipelines.graph import result_dataset
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

TMP = "/tmp/graft_tests/katz"

# directed graph with a no-in-edge vertex (3), a sink (2), and a cycle
EDGES = [(0, 1), (1, 2), (2, 0), (3, 2), (3, 1), (0, 2)]
ITERS = 5


def numpy_katz(edges, iters):
    n = max(max(u, v) for u, v in edges) + 1
    A = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        A[u, v] += 1
    walks = np.ones(n, dtype=np.int64)  # walks_0
    s = np.zeros(n, dtype=np.int64)
    for k in range(iters + 1):
        s += walks * 8 ** (iters - k)
        walks = A.T @ walks
    return s


def test_katz_matches_walk_expansion_both_backends(use_executor):
    ds = rd.from_items([{"src_key": str(u), "dst_key": str(v)} for u, v in EDGES])
    gdir = f"{TMP}/graph"
    shutil.rmtree(TMP, ignore_errors=True)
    build_graph(ds, gdir, n_parts=2, n_buckets=4, dedup=False, symmetrize_edges=False)
    man = GraphManifest.load(gdir)

    exp = numpy_katz(EDGES, ITERS)
    for executor in ("tasks", "local"):
        use_executor(executor)
        eng = BSPEngine(man, f"{TMP}/run_{executor}")
        final = eng.run(
            make_algorithm("katz", num_iters=ITERS),
            checkpoint_interval=2,
        )
        res = result_dataset(man, eng.iter_dir(final)).to_pandas()
        got = {int(v): x for v, x in zip(res["vertex"], res["value"])}
        assert set(got) == set(range(len(exp)))
        for v, val in got.items():
            assert val == exp[v], (executor, v, val, exp[v])
