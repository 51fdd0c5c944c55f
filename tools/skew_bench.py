"""Measure hub-splitting (edge-sliced scatter) on a skewed web graph.

Builds a synthetic link graph whose hub partition dominates the edge
mass — the shape a crawl of the real web produces (a few mega-hubs) —
and times PageRank supersteps with splitting off vs on. The balanced
control graph shows the no-skew overhead of the extra tasks.

Usage: python tools/skew_bench.py [n_vertices] [hub_edges] [n_parts]
Writes one JSON line to stdout; scratch under /tmp/graft_skew.
"""

import json
import shutil
import sys
import time

import numpy as np


def build(kind: str, n: int, hub_edges: int, n_parts: int):
    import pandas as pd
    import ray.data as rd

    from distributed_graph_computing_platform_ray.pipelines.ingest import (
        build_graph_encoded,
    )

    gdir = f"/tmp/graft_skew/{kind}"
    shutil.rmtree(gdir, ignore_errors=True)
    rng = np.random.default_rng(7)
    # background ring keeps every vertex alive
    ring_src = np.arange(n, dtype=np.int64)
    ring_dst = (ring_src + 1) % n
    if kind == "hub":
        # one mega-hub: vertex 3 links to hub_edges random targets
        hs = np.full(hub_edges, 3, dtype=np.int64)
        hd = rng.integers(0, n, hub_edges, dtype=np.int64)
    else:
        # same edge count spread evenly over all vertices
        hs = rng.integers(0, n, hub_edges, dtype=np.int64)
        hd = rng.integers(0, n, hub_edges, dtype=np.int64)
    src = np.concatenate([ring_src, hs])
    dst = np.concatenate([ring_dst, hd])
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst})).repartition(64)
    return build_graph_encoded(edges, gdir, n_vertices=n, n_parts=n_parts)


def run_pr(man, tag: str, split_edges: int, iters: int = 10) -> float:
    from distributed_graph_computing_platform_ray import engine
    from distributed_graph_computing_platform_ray.algorithms import PageRank

    w = f"/tmp/graft_skew/run_{tag}"
    shutil.rmtree(w, ignore_errors=True)
    eng = engine.BSPEngine(man, w)
    engine.SCATTER_SPLIT_EDGES = split_edges
    t0 = time.time()
    eng.run(PageRank(man.n_vertices, num_iters=iters), checkpoint_interval=iters)
    return time.time() - t0


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
    hub_edges = int(sys.argv[2]) if len(sys.argv) > 2 else 30_000_000
    n_parts = int(sys.argv[3]) if len(sys.argv) > 3 else 16
    import os

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    from distributed_graph_computing_platform_ray import engine

    DataContext.get_current().enable_progress_bars = False
    split_cap = engine.SCATTER_SPLIT_EDGES

    out = {"n_vertices": n, "hub_edges": hub_edges, "n_parts": n_parts}
    for kind in ["hub", "balanced"]:
        man = build(kind, n, hub_edges, n_parts)
        ec = sorted(int(r["n_edges"]) for r in man.parts)
        out[f"{kind}_edges_minmax"] = [ec[0], ec[-1]]
        # warm the shard page cache so the off/on comparison is I/O-fair
        run_pr(man, f"{kind}_warm", 0, iters=2)
        for label, cap in [("unsplit", 0), ("split", split_cap)]:
            out[f"{kind}_{label}_sec"] = round(
                min(run_pr(man, f"{kind}_{label}_{i}", cap) for i in range(2)), 2
            )
    out["hub_speedup"] = round(out["hub_unsplit_sec"] / out["hub_split_sec"], 3)
    out["balanced_overhead"] = round(
        out["balanced_split_sec"] / out["balanced_unsplit_sec"], 3
    )
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
