"""Hub splitting (edge-sliced scatter) must not change results.

The north_rule asks for "explicit skew mitigation for high-degree hubs
(vertex splitting/combiners)". Combining is the per-destination dense
combiner; splitting is edge-sliced scatter: a partition whose shard
exceeds ``engine.SCATTER_SPLIT_EDGES`` fans its scatter out over several tasks,
each taking a disjoint range of the shard's cached destination order
(engine.plan_scatter_slices / _scatter_core, CSRShard.by_dst). These
tests build a star-heavy graph — one hub whose adjacency dominates its
partition, the exact web-graph skew shape — and assert split vs unsplit
parity:

  - exact-integer algorithms (CC min-combine) are bit-identical,
  - PageRank (float sum) agrees to 1e-9 (summation-order ulps only),
  - the aggregator channel (PageRankDangling) stays exact: only slice 0
    emits the per-partition partial, so the global aggregate is not
    multiplied by the slice count.
"""

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow.dataset as pads
import pytest
import ray.data as rd

from distributed_graph_computing_platform_ray import engine
from distributed_graph_computing_platform_ray.algorithms import (
    ConnectedComponents,
    PageRank,
    PageRankDangling,
)
from distributed_graph_computing_platform_ray.engine import (
    BSPEngine,
    plan_scatter_slices,
)
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph_encoded
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

TMP = "/tmp/graft_tests/scatter_split"


def _star_graph() -> GraphManifest:
    """4000 vertices / 4 partitions; vertex 1 is a hub linked to every
    other vertex (so partition 0's shard carries ~2x any other's edge
    load), plus a ring so every vertex has degree >= 2."""
    gdir = f"{TMP}/graph"
    if os.path.exists(os.path.join(gdir, "manifest.json")):
        return GraphManifest.load(gdir)
    shutil.rmtree(gdir, ignore_errors=True)
    n = 4000
    hub_dst = np.arange(n, dtype=np.int64)
    hub_dst = hub_dst[hub_dst != 1]
    ring_src = np.arange(n, dtype=np.int64)
    src = np.concatenate([np.ones(len(hub_dst), np.int64), ring_src])
    dst = np.concatenate([hub_dst, (ring_src + 1) % n])
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst}))
    return build_graph_encoded(edges, gdir, n_vertices=n, n_parts=4)


def _run(man, algo, tag, split_edges):
    w = f"{TMP}/{tag}"
    shutil.rmtree(w, ignore_errors=True)
    eng = BSPEngine(man, w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "SCATTER_SPLIT_EDGES", split_edges)
        final = eng.run(algo, checkpoint_interval=3)
    t = pads.dataset(eng.iter_dir(final)).to_table().to_pandas()
    return t.sort_values("id").reset_index(drop=True)


def test_plan_slices_targets_only_hot_partitions(ray_session, monkeypatch):
    man = _star_graph()
    ec = {int(r["part"]): int(r["n_edges"]) for r in man.parts}
    # hub partition holds the star's out-edges: heaviest by far
    assert ec[0] > 2 * min(ec.values())
    # default cap leaves small graphs unsplit
    assert plan_scatter_slices(man) == [1] * man.n_parts
    monkeypatch.setattr(engine, "SCATTER_SPLIT_EDGES", 3000)
    assert plan_scatter_slices(man)[0] > 1
    monkeypatch.setattr(engine, "SCATTER_SPLIT_EDGES", 0)
    assert plan_scatter_slices(man) == [1] * man.n_parts


def test_cc_bit_identical_under_split(ray_session):
    man = _star_graph()
    a = _run(man, ConnectedComponents(), "cc_unsplit", 0)
    b = _run(man, ConnectedComponents(), "cc_split", 1000)
    assert (a["value"].to_numpy() == b["value"].to_numpy()).all()


def test_pagerank_allclose_under_split(ray_session):
    man = _star_graph()
    algo = lambda: PageRank(man.n_vertices, num_iters=8)  # noqa: E731
    a = _run(man, algo(), "pr_unsplit", 0)
    b = _run(man, algo(), "pr_split", 1000)
    np.testing.assert_allclose(
        a["value"].to_numpy(), b["value"].to_numpy(), rtol=0, atol=1e-9
    )
    # splitting actually happened and was recorded in lineage
    run = json.load(open(f"{TMP}/pr_split/run.json"))
    assert run["scatter_slices"] is not None and max(run["scatter_slices"]) > 1
    run0 = json.load(open(f"{TMP}/pr_unsplit/run.json"))
    assert run0["scatter_slices"] is None


@pytest.mark.parametrize("algo", ["cc", "pagerank_dangling"])
def test_split_bit_identical_across_executors(algo, use_executor):
    """A split hub's slices >= 1 scatter in tasks of their own on the
    task executor and in-process on the local one; both run the same
    order, so the same split run ends bit-identical on either, float
    sums and the aggregator channel included."""
    man = _star_graph()
    make = {
        "cc": ConnectedComponents,
        "pagerank_dangling": lambda: PageRankDangling(man.n_vertices, num_iters=6),
    }[algo]
    got = {}
    for executor in ("tasks", "local"):
        use_executor(executor)
        got[executor] = _run(man, make(), f"{algo}_split_{executor}", 1000)
        run = json.load(open(f"{TMP}/{algo}_split_{executor}/run.json"))
        assert run["executor"] == executor and max(run["scatter_slices"]) > 1
    assert got["tasks"].equals(got["local"])


def test_aggregator_not_multiplied_by_slices(ray_session):
    # PageRankDangling redistributes the global dangling mass read off
    # the aggregator channel; if every slice emitted the partition
    # partial the mass would be counted n_slices times.
    man = _star_graph()
    algo = lambda: PageRankDangling(man.n_vertices, num_iters=6)  # noqa: E731
    a = _run(man, algo(), "prd_unsplit", 0)
    b = _run(man, algo(), "prd_split", 1000)
    np.testing.assert_allclose(
        a["value"].to_numpy(), b["value"].to_numpy(), rtol=0, atol=1e-9
    )


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 39)),
        min_size=1,
        max_size=120,
    ),
    cap=st.sampled_from([1, 3, 7, 50]),
)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_property_split_parity_cc(ray_session, edges, cap):
    """Any multigraph, any split cap: CC is bit-identical split vs
    unsplit (integer min-combine is grouping-invariant)."""
    src = np.array([e[0] for e in edges], np.int64)
    dst = np.array([e[1] for e in edges], np.int64)
    n = 40
    gdir = f"{TMP}/prop_graph"
    shutil.rmtree(gdir, ignore_errors=True)
    build_graph_encoded(
        rd.from_pandas(pd.DataFrame({"src": src, "dst": dst})), gdir,
        n_vertices=n, n_parts=4,
    )
    man = GraphManifest.load(gdir)
    a = _run(man, ConnectedComponents(), "prop_unsplit", 0)
    b = _run(man, ConnectedComponents(), "prop_split", cap)
    assert (a["value"].to_numpy() == b["value"].to_numpy()).all()


def test_weighted_sssp_bit_identical_under_split(ray_session):
    """Edge weights must stay aligned with their edge slice: weighted
    SSSP (min-combine, add_edge_weight) over a weighted star graph is
    bit-identical split vs unsplit."""
    from distributed_graph_computing_platform_ray.algorithms import SSSP

    gdir = f"{TMP}/wgraph"
    shutil.rmtree(gdir, ignore_errors=True)
    n = 2000
    hub_dst = np.arange(n, dtype=np.int64)
    hub_dst = hub_dst[hub_dst != 1]
    ring = np.arange(n, dtype=np.int64)
    src = np.concatenate([np.ones(len(hub_dst), np.int64), ring])
    dst = np.concatenate([hub_dst, (ring + 1) % n])
    w = ((src * 7 + dst * 13) % 5 + 1).astype(np.float64)
    edges = rd.from_pandas(pd.DataFrame({"src": src, "dst": dst, "weight": w}))
    man = build_graph_encoded(edges, gdir, n_vertices=n, n_parts=4)
    assert man.weighted
    a = _run(man, SSSP(source_id=0), "wsssp_unsplit", 0)
    b = _run(man, SSSP(source_id=0), "wsssp_split", 500)
    assert (a["value"].to_numpy() == b["value"].to_numpy()).all()
