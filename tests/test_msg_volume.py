"""run.json lineage must record per-chunk inbox message volume
(msg_rows), equal on both executors — the combiner-boundedness evidence
the 10x-scale runs archive (engine.py::_apply_core)."""

import json
import os
import shutil

from distributed_graph_computing_platform_ray.algorithms import PageRank, PageRankDangling
from distributed_graph_computing_platform_ray.engine import BSPEngine, _apply_core
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.sources.edge_list import read_edge_list
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

TMP = "/tmp/graft_tests/msg_volume"


def test_history_records_msg_rows(use_executor):
    shutil.rmtree(TMP, ignore_errors=True)
    gdir = f"{TMP}/graph"
    build_graph(read_edge_list("tests/fixtures/graph_small.txt"), gdir, dedup=False)
    man = GraphManifest.load(gdir)
    rows = {}
    for executor in ("tasks", "local"):
        use_executor(executor)
        eng = BSPEngine(man, f"{TMP}/pr_{executor}", keep_iters=2)
        eng.run(PageRank(man.n_vertices, num_iters=6), checkpoint_interval=3)
        run = json.load(open(f"{TMP}/pr_{executor}/run.json"))
        assert run["executor"] == executor
        hist = run["history"]
        assert len(hist) == 2  # 6 supersteps / checkpoint_interval 3
        assert all("msg_rows" in h for h in hist)
        # superstep >= 1: every vertex scatters, so the inbox wire volume
        # is positive and bounded by parts * part_size (dense combiner)
        assert hist[-1]["msg_rows"] > 0
        assert hist[-1]["msg_rows"] <= man.n_parts * man.part_size * man.n_parts
        rows[executor] = [h["msg_rows"] for h in hist]
    assert rows["local"] == rows["tasks"]


def test_chunks_wire_rows_shapes():
    """_apply_core counts an inbox's wire rows: a dense chunk's vector
    length, a sparse chunk's triples, nothing for None, and on the
    aggregator channel only the payload of each (payload, partial)."""
    import types

    import numpy as np

    man = types.SimpleNamespace(part_size=7, part_bounds=lambda p: (0, 7))
    ids, values = np.arange(7), np.zeros(7)
    dense = ("dense", np.zeros(7), np.zeros(7, bool))
    sparse = ("sparse", np.arange(3), np.ones(3), np.ones(3, int))
    plain = _apply_core(man, PageRank(7), 1, ids, values, [dense, sparse, None])[2]
    agg = _apply_core(man, PageRankDangling(7), 1, ids, values, [(dense, 1.5), (None, 0.0)])[2]
    assert (plain, agg) == (10, 7)  # 17 rows over the five cases
