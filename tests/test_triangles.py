"""Triangle counting vs brute-force oracle, both closure strategies."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

import distributed_graph_computing_platform_ray.pipelines.triangles as TR

from . import oracle


def _rand_edges(n_v, n_e, seed):
    rng = np.random.default_rng(seed)
    return [(int(a), int(b)) for a, b in rng.integers(0, n_v, (n_e, 2)) if a != b]


@pytest.mark.parametrize("seed", [0, 1])
def test_triangle_count_matches_bruteforce(seed):
    E = _rand_edges(40, 200, seed)
    exp_total, exp_per = oracle.triangle_count(E)
    ds = rd.from_items([{"src": a, "dst": b} for a, b in E])
    total, per = TR.triangle_count(ds, n_buckets=8, per_vertex=True)
    assert total == exp_total
    got = {r["vertex"]: r["triangles"] for r in per.take_all()}
    assert got == exp_per


def test_triangle_count_k5():
    edges = [{"src": i, "dst": j} for i in range(5) for j in range(5) if i < j]
    total, per = TR.triangle_count(rd.from_items(edges), n_buckets=4, per_vertex=True)
    assert total == 10
    assert all(r["triangles"] == 6 for r in per.take_all())


def test_triangle_shuffle_join_path(monkeypatch):
    """Force the hash-join closure (the >5M-edge path) and compare."""
    monkeypatch.setattr(TR, "BROADCAST_EDGE_LIMIT", 0)
    E = _rand_edges(30, 150, 2)
    exp_total, _ = oracle.triangle_count(E)
    total, _ = TR.triangle_count(rd.from_items([{"src": a, "dst": b} for a, b in E]), n_buckets=8)
    assert total == exp_total


def test_no_triangles_in_bipartite():
    edges = [{"src": i, "dst": 100 + (i * 7) % 13} for i in range(50)]
    total, per = TR.triangle_count(rd.from_items(edges), n_buckets=8, per_vertex=True)
    assert total == 0
    assert per.count() == 0


def _count(E):
    ds = rd.from_items([{"src": a, "dst": b} for a, b in E])
    total, per = TR.triangle_count(ds, n_buckets=8, per_vertex=True)
    return total, {r["vertex"]: r["triangles"] for r in per.take_all()}


def _star_plus_clique():
    """A hub on every vertex plus a 7-clique: ordering by id alone would
    give the hub all C(60, 2) wedges; by degree it gives it none."""
    star = [(0, v) for v in range(1, 60)]
    clique = [(a, b) for a in range(1, 8) for b in range(a + 1, 8)]
    return star + clique + [(59, 58)]


def test_star_plus_clique_matches_oracle():
    E = _star_plus_clique()
    assert _count(E) == oracle.triangle_count(E)


def test_sparse_ids_up_to_int32_max():
    big = (1 << 31) - 1
    ids = [7, 1_000_003, 123_456_789, big - 5, big]
    E = [(ids[a], ids[b]) for a, b in _rand_edges(5, 12, 3)] + [(big, 7), (7, big - 5), (big - 5, big)]
    exp = oracle.triangle_count(E)
    assert exp[0] > 0
    assert _count(E) == exp


def test_self_loops_only_and_empty_edge_set():
    assert _count([(1, 1), (2, 2), (2, 2)]) == (0, {})
    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}))
    total, per = TR.triangle_count(empty, n_buckets=4, per_vertex=True)
    assert total == 0 and per.count() == 0
    assert TR.triangle_count(empty, n_buckets=4) == (0, None)


def test_wedge_chunks_smaller_than_one_row(monkeypatch):
    """Chunks of 3 wedges split rows across chunks and sources across
    all n_buckets tasks."""
    monkeypatch.setattr(TR, "_WEDGE_CHUNK", 3)
    for E in (_rand_edges(40, 300, 4), _star_plus_clique()):
        assert _count(E) == oracle.triangle_count(E)


@pytest.mark.parametrize("deg_limit", [TR.BROADCAST_DEG_LIMIT, 0])
def test_shuffle_path_per_vertex(monkeypatch, deg_limit):
    """Forced shuffle path, orienting by the broadcast degree lookup
    and (deg_limit 0) by the two degree joins."""
    monkeypatch.setattr(TR, "BROADCAST_EDGE_LIMIT", 0)
    monkeypatch.setattr(TR, "BROADCAST_DEG_LIMIT", deg_limit)
    for E in (_rand_edges(30, 150, 5), _star_plus_clique()):
        assert _count(E) == oracle.triangle_count(E)


@pytest.mark.parametrize("limit", [TR.BROADCAST_EDGE_LIMIT, 0])
def test_ids_beyond_int32_raise(monkeypatch, limit):
    monkeypatch.setattr(TR, "BROADCAST_EDGE_LIMIT", limit)
    E = [(1, 2), (2, 1 << 31), (1, 1 << 31)]
    with pytest.raises(ValueError, match=r">= 2\^31"):
        _count(E)
