"""The two BSP executors — one local Ray task per checkpoint chunk and
one Ray step task per partition per superstep — run the same steps in
the same order, so
every algorithm's final state must be bit-identical between them, a
checkpoint written by one must resume on the other, and degenerate
graphs must match the independent oracle on both."""

import json
import os
import shutil

import numpy as np
import pyarrow.dataset as pads
import pytest

from distributed_graph_computing_platform_ray.algorithms import (
    AbsorptionProbability,
    ConnectedComponents,
    LabelPropagation,
    PageRank,
    PageRankDangling,
    PersonalizedPageRank,
    SSSP,
)
from distributed_graph_computing_platform_ray.engine import BSPEngine
from distributed_graph_computing_platform_ray.pipelines.graph import lookup_vertex_id, run_algorithm
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.sources.edge_list import read_edge_list
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

from . import oracle

TMP = "/tmp/graft_tests/backends"


@pytest.fixture(scope="module")
def graph(fixtures_dir):
    gdir = f"{TMP}/graph"
    if not os.path.exists(os.path.join(gdir, "manifest.json")):
        shutil.rmtree(gdir, ignore_errors=True)
        build_graph(
            read_edge_list(os.path.join(fixtures_dir, "graph_small.txt")),
            gdir, n_parts=4, n_buckets=8, dedup=False,
        )
    return GraphManifest.load(gdir)


def _state(eng, k):
    t = pads.dataset(eng.iter_dir(k)).to_table().to_pandas()
    return t.sort_values("id").reset_index(drop=True)


def _final_state(man, algo, executor, tag, use_executor):
    use_executor(executor)
    w = f"{TMP}/{tag}_{executor}"
    shutil.rmtree(w, ignore_errors=True)
    eng = BSPEngine(man, w)
    final = eng.run(algo, checkpoint_interval=3)
    with open(os.path.join(w, "run.json")) as f:
        assert json.load(f)["executor"] == executor
    return _state(eng, final), final


@pytest.mark.parametrize(
    "tag,make",
    [
        ("pr", lambda man: PageRank(man.n_vertices, num_iters=7)),
        ("cc", lambda man: ConnectedComponents()),
        ("lp", lambda man: LabelPropagation(num_iters=5)),
        ("sssp", lambda man: SSSP(source_id=-1)),  # patched below
        ("ppr", lambda man: PersonalizedPageRank(seed_ids=[0], num_iters=6)),  # patched below
        # aggregator channel (chunk-attached partials)
        ("prd", lambda man: PageRankDangling(man.n_vertices, num_iters=7)),
        # wants_degrees apply extension (receiver-side degree division)
        ("absorb", lambda man: AbsorptionProbability(seed_ids=[0, 1], num_iters=6)),
    ],
)
def test_backend_equivalence(graph, tag, make, use_executor):
    algo_l = make(graph)
    algo_t = make(graph)
    if tag == "sssp":
        sid = lookup_vertex_id(graph, "1")
        algo_l.source = sid
        algo_t.source = sid
    if tag == "ppr":
        # wants_ids apply extension must behave identically on both executors
        seeds = np.array(sorted(lookup_vertex_id(graph, k) for k in ("1", "5")))
        algo_l.seeds = seeds
        algo_t.seeds = seeds
        algo_l.teleport_each = algo_t.teleport_each = 0.15 / len(seeds)
    a, fa = _final_state(graph, algo_l, "local", tag, use_executor)
    b, fb = _final_state(graph, algo_t, "tasks", tag, use_executor)
    assert fa == fb
    assert a.equals(b)


def test_cross_backend_resume(graph, use_executor):
    """A run checkpointed by either executor resumes on the other and
    ends bit-identical to an unbroken run: the checkpoint format is the
    contract, not the executor."""
    use_executor("tasks")
    ref = BSPEngine(graph, f"{TMP}/cross_ref")
    ref.run(PageRank(graph.n_vertices, num_iters=10), checkpoint_interval=2)
    for first, second in (("local", "tasks"), ("tasks", "local")):
        w = f"{TMP}/cross_{first}_{second}"
        shutil.rmtree(w, ignore_errors=True)
        eng = BSPEngine(graph, w)
        use_executor(first)
        eng.run(PageRank(graph.n_vertices, num_iters=4), checkpoint_interval=2)
        use_executor(second)
        final = eng.run(PageRank(graph.n_vertices, num_iters=10), resume=True, checkpoint_interval=2)
        assert final == 10
        assert _state(eng, 10).equals(_state(ref, 10)), (first, second)


def _write_edges(path, edges):
    with open(path, "w") as f:
        f.writelines(f"{u} {v}\n" for u, v in edges)


@pytest.mark.parametrize("executor", ["tasks", "local"])
@pytest.mark.parametrize(
    "tag,edges,n_parts",
    [
        ("one_vertex", [(7, 7)], 4),
        ("self_loops", [(1, 1), (2, 2), (3, 3), (3, 3)], 2),
        ("one_part", [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (9, 9)], 1),
    ],
)
def test_degenerate_graphs_match_oracle(tag, edges, n_parts, executor, use_executor):
    """A single vertex, only self-loops, and one partition: PageRank,
    CC, LP and SSSP equal tests/oracle.py on both executors."""
    use_executor(executor)
    root = f"{TMP}/degenerate/{tag}_{executor}"
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    _write_edges(f"{root}/edges.txt", edges)
    gdir = f"{root}/graph"
    build_graph(read_edge_list(f"{root}/edges.txt"), gdir, n_parts=n_parts, n_buckets=4, dedup=False)
    man = GraphManifest.load(gdir)
    src = edges[0][0]
    cases = [
        ("pagerank", {"num_iters": 12}, oracle.pagerank(edges, num_iters=12)),
        ("cc", {}, oracle.connected_components(edges)),
        ("lp", {"num_iters": 5}, oracle.label_propagation(edges, num_iters=5)),
        ("sssp", {"source_id": lookup_vertex_id(man, str(src))}, oracle.sssp(edges, src)),
    ]
    for name, params, exp in cases:
        res = run_algorithm(gdir, f"{root}/{name}", name, **params).to_pandas()
        with open(f"{root}/{name}/run.json") as f:
            assert json.load(f)["executor"] == executor
        got = dict(zip(res["vertex"].astype(int), res["value"]))
        assert set(got) == set(exp), name
        if name == "pagerank":
            for v, x in exp.items():
                assert np.isclose(got[v], x, rtol=0, atol=1e-12), (v, got[v], x)
        else:
            assert got == exp, name
