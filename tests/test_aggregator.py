"""Pregel-style aggregator channel (engine chunk-attached partials):
PageRankDangling must match the dense numpy recurrence on a directed
graph with dangling vertices, identically on both executors."""

import os
import shutil

import numpy as np
import pytest

from distributed_graph_computing_platform_ray.pipelines.graph import lookup_vertex_id, run_algorithm
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.sources.edge_list import read_edge_list

TMP = "/tmp/graft_tests/aggregator"

# 2 and 4 are dangling (no out-edges); 3 has no in-edges
EDGES = [(0, 1), (0, 2), (1, 2), (3, 2), (3, 0), (1, 4)]


@pytest.fixture(scope="module")
def gdir():
    d = f"{TMP}/graph"
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP, exist_ok=True)
    path = f"{TMP}/edges.txt"
    with open(path, "w") as f:
        for a, b in EDGES:
            f.write(f"{a} {b}\n")
    build_graph(
        read_edge_list(path), d, n_parts=2, n_buckets=4,
        dedup=False, symmetrize_edges=False,
    )
    return d


def _numpy_oracle(num_iters=30, damping=0.85):
    n = 5
    out = np.zeros(n)
    A = np.zeros((n, n))
    for a, b in EDGES:
        A[a, b] += 1.0
    outdeg = A.sum(axis=1)
    x = np.zeros(n)
    for _ in range(num_iters):
        dang = x[outdeg == 0].sum()
        contrib = (x / np.maximum(outdeg, 1.0)) @ A
        x = (1 - damping) / n + damping * (contrib + dang / n)
    return x


@pytest.mark.parametrize("executor", ["tasks", "local"])
def test_pagerank_dangling_matches_numpy(gdir, executor, use_executor):
    use_executor(executor)
    res = run_algorithm(gdir, f"{TMP}/run_{executor}", "pagerank_dangling").to_pandas()
    got = dict(zip(res["vertex"].astype(int), res["value"]))
    exp = _numpy_oracle()
    assert len(got) == 5
    for v in range(5):
        assert np.isclose(got[v], exp[v], atol=1e-9), (v, got[v], exp[v])
    # dangling mass is being redistributed: from zero init the total
    # follows s_{t+1} = 0.15 + 0.85 s_t, so after 30 iters it is
    # exactly 1 - 0.85^30 (without redistribution it would be lower)
    assert abs(sum(got.values()) - (1.0 - 0.85**30)) < 1e-9
