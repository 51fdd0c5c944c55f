"""Ingest invariants: dictionary determinism, multiplicity, dedup,
manifest lineage."""

import json
import os
import shutil

import numpy as np
import pandas as pd
import pytest
import pyarrow.dataset as pads
import ray.data as rd

from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.sources.edge_list import read_edge_list
from distributed_graph_computing_platform_ray.state.csr import load_shard
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

from .conftest import BUILDERS

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


def _build_each(use_builder, make_edges, tag, **kw) -> list:
    """Build the same edges with every builder; each manifest must
    record the builder that wrote it."""
    mans = []
    for builder in BUILDERS:
        use_builder(builder)
        out = f"{TMP}/builders/{tag}_{builder}"
        shutil.rmtree(out, ignore_errors=True)
        man = build_graph(make_edges(), out, **kw)
        assert man.build == GraphManifest.load(out).build == builder
        mans.append(man)
    return mans


def _assert_same_graph(a, b):
    """Bit-identical graph dirs: same plan, shard CRCs, weights and
    vertex files."""
    assert (a.n_vertices, a.n_edges_directed, a.part_size, a.n_parts, a.keys_numeric, a.weighted) == (
        b.n_vertices, b.n_edges_directed, b.part_size, b.n_parts, b.keys_numeric, b.weighted
    )
    assert a.parts == b.parts
    for p in range(a.n_parts):
        assert pads.dataset(a.vertices_path(p)).to_table().equals(
            pads.dataset(b.vertices_path(p)).to_table()
        ), f"vertices part {p} differ"
        if a.weighted:
            assert (np.load(a.csr_path(p, "weights")) == np.load(b.csr_path(p, "weights"))).all()


def test_small_graph_fast_path_bit_identical(fixtures_dir, use_builder):
    """Every builder writes a BIT-IDENTICAL graph dir: same dictionary
    ranking, same partition plan, same shard checksums, same vertex
    files."""
    path = os.path.join(fixtures_dir, "graph_small.txt")
    kw = dict(n_parts=4, n_buckets=8, dedup=True, symmetrize_edges=True)
    first, *rest = _build_each(use_builder, lambda: read_edge_list(path), "small", **kw)
    for man in rest:
        _assert_same_graph(first, man)


def test_small_graph_fast_path_weighted_bit_identical(use_builder):
    """Weighted variant of the builder bit-identity check."""
    edges = pd.DataFrame(
        {
            "src_key": ["1", "2", "3", "1", "4", "2"],
            "dst_key": ["2", "3", "4", "3", "1", "3"],
            "weight": [1.5, 2.0, 0.5, 3.0, 1.0, 2.0],  # (2,3) dup w/ same weight
        }
    )
    kw = dict(n_parts=2, n_buckets=4, dedup=True, symmetrize_edges=True)
    first, *rest = _build_each(use_builder, lambda: rd.from_pandas(edges), "weighted", **kw)
    assert first.weighted
    assert first.n_edges_directed == 10  # 5 distinct x2
    for man in rest:
        _assert_same_graph(first, man)


def test_csr_dedup_fusion_selfloops_and_dups_bit_identical(use_builder):
    """dedup=True with duplicate edges AND self-loops: the broadcast
    builder's fused in-CSR global dedup must equal dedup-before-
    symmetrize (the other builders) — in particular a deduped self-loop
    keeps BOTH symmetrized copies (degree 2), matching the reference
    loader."""
    from distributed_graph_computing_platform_ray.state.csr import load_vertex_keys

    edges = pd.DataFrame(
        {
            "src_key": ["1", "1", "2", "3", "3", "3", "4", "1", "4"],
            "dst_key": ["2", "2", "3", "3", "3", "1", "4", "4", "1"],
        }
    )  # dup (1,2); self-loop 3 twice; self-loop 4; MUTUAL pair (1,4)+(4,1)
    kw = dict(n_parts=2, n_buckets=4, dedup=True, symmetrize_edges=True)
    mans = _build_each(use_builder, lambda: rd.from_pandas(edges), "selfloops", **kw)
    # distinct directed copies: (1,2),(2,1),(2,3),(3,2),(3,1),(1,3)
    # + self 3 x2 + self 4 x2 + mutual (1,4)/(4,1) at multiplicity 2 each
    assert mans[0].n_edges_directed == 14
    for man in mans[1:]:
        _assert_same_graph(mans[0], man)
    # self-loop vertices have degree 2 from their loop
    for man in mans:
        degs = {}
        for p in range(man.n_parts):
            keys = load_vertex_keys(man, p)
            sh = load_shard(man, p)
            for k, dg in zip(keys, sh.degrees()):
                degs[str(k)] = int(dg)
        assert degs["4"] == 4  # doubled self-loop + mutual (4,1) x2
        assert degs["3"] == 4  # (3,2),(3,1) + doubled self-loop

    # weighted: the weight is part of the dedup key
    weighted = pd.DataFrame(
        {
            "src_key": ["1", "1", "2", "2", "3"],
            "dst_key": ["2", "2", "3", "3", "3"],
            "weight": [1.0, 2.0, 0.5, 0.5, 4.0],
        }
    )  # (1,2) at two weights; (2,3,0.5) twice; weighted self-loop 3
    mans = _build_each(use_builder, lambda: rd.from_pandas(weighted), "selfloops_w", **kw)
    # distinct rows (1,2,1.0),(1,2,2.0),(2,3,0.5),(3,3,4.0), symmetrized
    assert mans[0].n_edges_directed == 8
    for man in mans[1:]:
        _assert_same_graph(mans[0], man)
    # a NaN weight dedups like any other value
    nan = pd.DataFrame({"src_key": ["5", "5"], "dst_key": ["6", "6"], "weight": [np.nan, np.nan]})
    for man in _build_each(use_builder, lambda: rd.from_pandas(nan), "nan_w", **kw):
        assert man.n_edges_directed == 2


@pytest.mark.parametrize("builder", BUILDERS)
def test_int64_keys_build_like_string_keys(use_builder, builder):
    """An int64-keyed edge table builds the same graph as its
    string-keyed twin on every builder."""
    use_builder(builder)
    rng = np.random.default_rng(7)
    src = rng.integers(0, 40, 120) * 1_000_003
    dst = rng.integers(0, 40, 120) * 1_000_003
    ints = pd.DataFrame({"src_key": src, "dst_key": dst})
    strs = ints.astype(str)
    mans = []
    for name, df in (("int", ints), ("str", strs)):
        out = f"{TMP}/keys_{name}_{builder}"
        shutil.rmtree(out, ignore_errors=True)
        mans.append(build_graph(rd.from_pandas(df), out, n_parts=3, n_buckets=4))
    a, b = mans
    assert a.build == b.build == builder
    assert a.n_vertices == len(set(src) | set(dst))
    _assert_same_graph(a, b)


@pytest.mark.parametrize("builder", BUILDERS)
def test_empty_edge_table_raises(use_builder, builder):
    """An edge table with no rows raises the named error on every
    builder — with its columns, and with no blocks at all (what a
    read of a comment-only edge file gives)."""
    use_builder(builder)
    typed = pd.DataFrame({"src_key": pd.Series([], dtype=str), "dst_key": pd.Series([], dtype=str)})
    for tag, edges in (("typed", rd.from_pandas(typed)), ("blockless", rd.from_items([]))):
        with pytest.raises(ValueError, match="empty edge input — no vertices"):
            build_graph(edges, f"{TMP}/empty_{tag}_{builder}")


def test_broadcast_lookup_keeps_one_index_per_worker():
    """broadcast_lookup caches its lookup in every worker that maps a
    batch; a worker keeps only the newest, so four broadcast builds do
    not pin four key indexes (each may be ingest.BROADCAST_DICT_LIMIT
    keys) for the worker's lifetime."""
    import pyarrow as pa

    from distributed_graph_computing_platform_ray.stages.join import broadcast_lookup

    def cached(t, index):
        from distributed_graph_computing_platform_ray.stages.taskify import _CACHE

        n = sum(isinstance(k, tuple) and k[0] == "broadcast_lookup" for k in _CACHE)
        return pa.table({"pid": [os.getpid()], "n": [n], "key": [index[0]]})

    seen = []
    for i in range(4):
        ds = broadcast_lookup(rd.from_items([{"x": i}]), pd.Index([f"k{i}"]), cached)
        seen += ds.to_pandas().to_dict("records")
    assert [r["key"] for r in seen] == ["k0", "k1", "k2", "k3"]
    assert max(r["n"] for r in seen) == 1, seen
