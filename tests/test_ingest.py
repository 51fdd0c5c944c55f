"""Ingest invariants: dictionary determinism, multiplicity, dedup,
manifest lineage."""

import json
import os
import shutil

import numpy as np
import pytest
import pyarrow.dataset as pads
import ray.data as rd

from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.sources.edge_list import read_edge_list
from distributed_graph_computing_platform_ray.state.csr import load_shard
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

TMP = "/tmp/graft_tests/ingest"


def _build(fixtures_dir, name, out, **kw):
    shutil.rmtree(out, ignore_errors=True)
    return build_graph(
        read_edge_list(os.path.join(fixtures_dir, f"{name}.txt")), out, **kw
    )


def test_manifest_counts(fixtures_dir):
    man = _build(fixtures_dir, "graph_small", f"{TMP}/g1", n_parts=4, n_buckets=8, dedup=False)
    assert man.n_vertices == 23
    assert man.n_edges_directed == 36  # 18 undirected edges symmetrized
    assert man.keys_numeric
    assert sum(p["n_local"] for p in man.parts) == 23
    # lineage rows present with checksums
    assert all("crc_indices" in p for p in man.parts)


def test_dictionary_ids_deterministic(fixtures_dir):
    m1 = _build(fixtures_dir, "graph_small", f"{TMP}/d1", n_parts=4, n_buckets=8)
    m2 = _build(fixtures_dir, "graph_small", f"{TMP}/d2", n_parts=2, n_buckets=8)
    v1 = pads.dataset(os.path.join(m1.graph_dir, "vertices")).to_table().to_pandas()
    v2 = pads.dataset(os.path.join(m2.graph_dir, "vertices")).to_table().to_pandas()
    map1 = dict(zip(v1["key"], v1["id"]))
    map2 = dict(zip(v2["key"], v2["id"]))
    assert map1 == map2  # ids independent of partitioning/parallelism
    assert sorted(map1.values()) == list(range(23))  # dense


def test_multiplicity_kept_without_dedup():
    os.makedirs(TMP, exist_ok=True)
    path = f"{TMP}/dup.txt"
    with open(path, "w") as f:
        f.write("1 2\n1 2\n2 3\n")
    out = f"{TMP}/gdup"
    shutil.rmtree(out, ignore_errors=True)
    man = build_graph(read_edge_list(path), out, n_parts=2, n_buckets=4, dedup=False)
    assert man.n_edges_directed == 6  # duplicates preserved, symmetrized
    out2 = f"{TMP}/gdedup"
    shutil.rmtree(out2, ignore_errors=True)
    man2 = build_graph(read_edge_list(path), out2, n_parts=2, n_buckets=4, dedup=True)
    assert man2.n_edges_directed == 4


def test_csr_degrees_match_adjacency(fixtures_dir):
    man = _build(fixtures_dir, "graph_tiny", f"{TMP}/g3", n_parts=2, n_buckets=4, dedup=False)
    # graph_tiny: 1-2 1-4 2-5 3-4 => degrees {1:2, 2:2, 4:2, 3:1, 5:1}
    v = pads.dataset(os.path.join(man.graph_dir, "vertices")).to_table().to_pandas()
    key_to_id = dict(zip(v["key"], v["id"]))
    degs = {}
    for p in range(man.n_parts):
        shard = load_shard(man, p)
        d = shard.degrees()
        for local, deg in enumerate(d):
            degs[shard.lo + local] = int(deg)
    expected = {"1": 2, "2": 2, "3": 1, "4": 2, "5": 1}
    for key, deg in expected.items():
        assert degs[key_to_id[key]] == deg


def test_weighted_edges_roundtrip():
    rows = [
        {"src_key": "a", "dst_key": "b", "weight": 2.5},
        {"src_key": "b", "dst_key": "c", "weight": 1.0},
    ]
    out = f"{TMP}/gw"
    shutil.rmtree(out, ignore_errors=True)
    man = build_graph(rd.from_items(rows), out, n_parts=2, n_buckets=4, dedup=False)
    assert man.weighted
    total_w = 0.0
    for p in range(man.n_parts):
        shard = load_shard(man, p)
        assert shard.weights is not None
        total_w += float(np.sum(shard.weights))
    assert total_w == 2 * (2.5 + 1.0)  # symmetrized


def test_small_graph_fast_path_bit_identical(fixtures_dir):
    """build_graph(small_graph_edges=...) must produce a BIT-IDENTICAL
    graph dir to the distributed build: same dictionary ranking, same
    partition plan, same shard checksums, same vertex files."""
    import pyarrow.dataset as pads

    from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
    from distributed_graph_computing_platform_ray.sources.edge_list import read_edge_list
    from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

    path = os.path.join(fixtures_dir, "graph_small.txt")
    d_dist = "/tmp/graft_tests/fastpath/dist"
    d_loc = "/tmp/graft_tests/fastpath/local"
    for d in (d_dist, d_loc):
        shutil.rmtree(d, ignore_errors=True)
    kw = dict(n_parts=4, n_buckets=8, dedup=True, symmetrize_edges=True)
    build_graph(read_edge_list(path), d_dist, **kw)
    build_graph(read_edge_list(path), d_loc, small_graph_edges=10**6, **kw)

    a = GraphManifest.load(d_dist)
    b = GraphManifest.load(d_loc)
    assert (a.n_vertices, a.part_size, a.n_parts, a.keys_numeric, a.weighted) == (
        b.n_vertices, b.part_size, b.n_parts, b.keys_numeric, b.weighted
    )
    assert a.n_edges_directed == b.n_edges_directed
    ra = {int(r["part"]): (r["crc_indptr"], r["crc_indices"], r["n_edges"]) for r in a.parts}
    rb = {int(r["part"]): (r["crc_indptr"], r["crc_indices"], r["n_edges"]) for r in b.parts}
    assert ra == rb
    for p in range(a.n_parts):
        ta = pads.dataset(a.vertices_path(p)).to_table().to_pandas()
        tb = pads.dataset(b.vertices_path(p)).to_table().to_pandas()
        assert ta.equals(tb), f"vertices part {p} differ"


def test_small_graph_fast_path_weighted_bit_identical():
    """Weighted variant of the fast-path bit-identity check."""
    import pandas as pd
    import pyarrow.dataset as pads

    from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
    from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

    edges = pd.DataFrame(
        {
            "src_key": ["1", "2", "3", "1", "4", "2"],
            "dst_key": ["2", "3", "4", "3", "1", "3"],
            "weight": [1.5, 2.0, 0.5, 3.0, 1.0, 2.0],  # (2,3) dup w/ same weight
        }
    )
    d_dist = "/tmp/graft_tests/fastpath/wdist"
    d_loc = "/tmp/graft_tests/fastpath/wlocal"
    for d in (d_dist, d_loc):
        shutil.rmtree(d, ignore_errors=True)
    kw = dict(n_parts=2, n_buckets=4, dedup=True, symmetrize_edges=True)
    build_graph(rd.from_pandas(edges), d_dist, **kw)
    build_graph(rd.from_pandas(edges), d_loc, small_graph_edges=10**6, **kw)
    a, b = GraphManifest.load(d_dist), GraphManifest.load(d_loc)
    assert a.weighted and b.weighted
    assert a.n_edges_directed == b.n_edges_directed == 10  # 5 distinct x2
    ra = {int(r["part"]): (r["crc_indptr"], r["crc_indices"]) for r in a.parts}
    rb = {int(r["part"]): (r["crc_indptr"], r["crc_indices"]) for r in b.parts}
    assert ra == rb
    for p in range(a.n_parts):
        wa = np.load(a.csr_path(p, "weights"))
        wb = np.load(b.csr_path(p, "weights"))
        assert (wa == wb).all()


def test_csr_dedup_fusion_selfloops_and_dups_bit_identical():
    """dedup=True with duplicate edges AND self-loops: the fused
    in-CSR global dedup must equal dedup-before-symmetrize (local
    fast path) — in particular a deduped self-loop keeps BOTH
    symmetrized copies (degree 2), matching the reference loader."""
    import pandas as pd
    import numpy as np

    from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
    from distributed_graph_computing_platform_ray.state.csr import load_shard, load_vertex_keys
    from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

    edges = pd.DataFrame(
        {
            "src_key": ["1", "1", "2", "3", "3", "3", "4", "1", "4"],
            "dst_key": ["2", "2", "3", "3", "3", "1", "4", "4", "1"],
        }
    )  # dup (1,2); self-loop 3 twice; self-loop 4; MUTUAL pair (1,4)+(4,1)
    d_dist = "/tmp/graft_tests/fastpath/sl_dist"
    d_loc = "/tmp/graft_tests/fastpath/sl_local"
    for d in (d_dist, d_loc):
        shutil.rmtree(d, ignore_errors=True)
    kw = dict(n_parts=2, n_buckets=4, dedup=True, symmetrize_edges=True)
    build_graph(rd.from_pandas(edges), d_dist, **kw)
    build_graph(rd.from_pandas(edges), d_loc, small_graph_edges=10**6, **kw)
    a, b = GraphManifest.load(d_dist), GraphManifest.load(d_loc)
    # distinct directed copies: (1,2),(2,1),(2,3),(3,2),(3,1),(1,3)
    # + self 3 x2 + self 4 x2 + mutual (1,4)/(4,1) at multiplicity 2 each
    assert a.n_edges_directed == b.n_edges_directed == 14
    ra = {int(r["part"]): (r["crc_indptr"], r["crc_indices"]) for r in a.parts}
    rb = {int(r["part"]): (r["crc_indptr"], r["crc_indices"]) for r in b.parts}
    assert ra == rb
    # self-loop vertices have degree 2 from their loop
    for man in (a, b):
        degs = {}
        for p in range(man.n_parts):
            keys = load_vertex_keys(man, p)
            sh = load_shard(man, p)
            for k, dg in zip(keys, sh.degrees()):
                degs[str(k)] = int(dg)
        assert degs["4"] == 4  # doubled self-loop + mutual (4,1) x2
        assert degs["3"] == 4  # (3,2),(3,1) + doubled self-loop


@pytest.mark.parametrize("dict_limit", [None, 0])
def test_int64_keys_build_like_string_keys(monkeypatch, dict_limit):
    """An int64-keyed edge table builds the same graph as its
    string-keyed twin, on the broadcast encode path and (with the
    broadcast limit at 0) on the join encode path."""
    import pandas as pd

    from distributed_graph_computing_platform_ray.pipelines import ingest

    if dict_limit is not None:
        monkeypatch.setattr(ingest, "BROADCAST_DICT_LIMIT", dict_limit)
    rng = np.random.default_rng(7)
    src = rng.integers(0, 40, 120) * 1_000_003
    dst = rng.integers(0, 40, 120) * 1_000_003
    ints = pd.DataFrame({"src_key": src, "dst_key": dst})
    strs = ints.astype(str)
    mans = []
    for name, df in (("int", ints), ("str", strs)):
        out = f"{TMP}/keys_{name}_{dict_limit}"
        shutil.rmtree(out, ignore_errors=True)
        mans.append(build_graph(rd.from_pandas(df), out, n_parts=3, n_buckets=4))
    a, b = mans
    assert (a.n_vertices, a.n_edges_directed, a.part_size, a.keys_numeric) == (
        b.n_vertices, b.n_edges_directed, b.part_size, b.keys_numeric
    )
    assert a.n_vertices == len(set(src) | set(dst))
    ra = {int(r["part"]): (r["crc_indptr"], r["crc_indices"], r["n_edges"]) for r in a.parts}
    rb = {int(r["part"]): (r["crc_indptr"], r["crc_indices"], r["n_edges"]) for r in b.parts}
    assert ra == rb
