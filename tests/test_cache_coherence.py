"""Worker-process cache coherence: rebuilding a graph at the SAME path
with identical adjacency structure but DIFFERENT vertex keys must not
serve stale key arrays from the per-process caches (the build-nonce
part of GraphManifest.part_fingerprint — found by hypothesis, where
shrunk examples [(5,2),(0,0)] and [(5,2),(1,1)] collide on CSR CRCs)."""

import shutil

import ray.data as rd

from distributed_graph_computing_platform_ray.pipelines.graph import run_algorithm
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph

TMP = "/tmp/graft_tests/cache_coherence"


def _run(edges, tag):
    ds = rd.from_items([{"src_key": str(u), "dst_key": str(v)} for u, v in edges])
    gdir = f"{TMP}/graph"  # SAME path for both builds, by design
    build_graph(ds, gdir, n_parts=2, n_buckets=4, dedup=False,
                symmetrize_edges=False)
    res = run_algorithm(gdir, f"{TMP}/run_{tag}", "pagerank_dangling",
                        num_iters=3).to_pandas()
    return sorted(int(v) for v in res["vertex"])


def test_rebuild_same_structure_different_keys():
    shutil.rmtree(TMP, ignore_errors=True)
    # identical dense CSR structure (sorted keys map to the same ids,
    # edges land identically), different key strings
    assert _run([(5, 2), (0, 0)], "a") == [0, 2, 5]
    assert _run([(5, 2), (1, 1)], "b") == [1, 2, 5]  # stale cache served [0,2,5]


def test_destination_order_cached_for_the_running_graph_only():
    """A process keeps CSRShard.by_dst (12 B/edge) for the graph it runs
    now: running graph B drops graph A's orders, and a rebuild of B at
    the same path (new fingerprints) computes its orders afresh."""
    import os

    import numpy as np

    from distributed_graph_computing_platform_ray import engine
    from distributed_graph_computing_platform_ray.algorithms import PageRank
    from distributed_graph_computing_platform_ray.state import csr
    from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

    shutil.rmtree(TMP, ignore_errors=True)

    def run(name, edges):
        ds = rd.from_items([{"src_key": str(u), "dst_key": str(v)} for u, v in edges])
        gdir = f"{TMP}/{name}"
        build_graph(ds, gdir, n_parts=2, n_buckets=4, dedup=False)
        man = GraphManifest.load(gdir)
        algo = PageRank(man.n_vertices, num_iters=2)
        it = f"{TMP}/iter_{name}"
        os.makedirs(it, exist_ok=True)
        state = [engine._part_state(man, algo, it, p) for p in range(man.n_parts)]
        engine._chunk_local(man, algo, 0, 2, engine.plan_scatter_slices(man), state, it)
        return {(gdir, p, man.part_fingerprint(p)) for p in range(man.n_parts)}

    def ordered():
        return {k for k, sh in csr._SHARD_CACHE.items() if sh._by_dst is not None}

    a = run("a", [(1, 2), (2, 3), (3, 1), (4, 1)])
    assert ordered() == a
    b = run("b", [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert ordered() == b
    b2 = run("b", [(5, 1), (1, 3), (2, 4), (4, 5), (3, 3)])
    assert b2 != b and ordered() == b2
    for gdir, p, fp in b2:
        shard = next(sh for k, sh in csr._SHARD_CACHE.items() if k == (gdir, p, fp))
        rows, dst, _w = shard.by_dst()
        order = np.argsort(shard.indices, kind="stable")
        assert np.array_equal(dst, np.asarray(shard.indices)[order])
        assert np.array_equal(rows, np.repeat(np.arange(shard.n_local), np.diff(shard.indptr))[order])
