"""Incremental ingest: a graph built from a base batch then patched
with the remaining edges must be indistinguishable (per vertex KEY)
from the graph built from everything at once — including when the
increment introduces brand-new vertices — while rebuilding only the
touched partitions (untouched shards are hardlinks of the old build).
Every case runs on both encode paths: the broadcast encode (old
dictionary within ``BROADCAST_DICT_LIMIT``) and the bucket-join one.
"""

import os
import shutil
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from distributed_graph_computing_platform_ray.pipelines.graph import (
    lookup_vertex_id,
    run_algorithm,
)
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.pipelines.patch import patch_graph
from distributed_graph_computing_platform_ray.sources.edge_list import read_edge_list
from distributed_graph_computing_platform_ray.state.csr import load_shard, load_vertex_keys
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

from .conftest import force_builder

TMP = "/tmp/graft_test_patch"
ENCODES = ("broadcast", "join")


@contextmanager
def encode_path(name):
    """Builds, patches and deletes inside run on encode path ``name``."""
    with pytest.MonkeyPatch.context() as mp:
        force_builder(mp, name)
        yield


def result_map(ds):
    return {r["vertex"]: r["value"] for r in ds.iter_rows()}


@pytest.fixture(scope="module")
def dirs(fixtures_dir):
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP, exist_ok=True)

    lines = [
        ln
        for ln in open(os.path.join(fixtures_dir, "graph_small.txt"))
        if ln.strip() and not ln.strip().startswith("#")
    ]
    # split so the increment definitely introduces vertices the base
    # has never seen: put every edge touching the two largest keys in
    # the increment
    keys = sorted({int(t) for ln in lines for t in ln.split()[:2]})
    newcomers = set(keys[-2:])
    base = [ln for ln in lines if not (set(map(int, ln.split()[:2])) & newcomers)]
    inc = [ln for ln in lines if set(map(int, ln.split()[:2])) & newcomers]
    assert base and inc
    with open(f"{TMP}/base.txt", "w") as f:
        f.writelines(base)
    with open(f"{TMP}/inc.txt", "w") as f:
        f.writelines(inc)

    out = {}
    for enc in ENCODES:
        d = f"{TMP}/{enc}"
        with encode_path(enc):
            build_graph(read_edge_list(f"{TMP}/base.txt"), f"{d}/g_base", dedup=False)
            build_graph(
                read_edge_list(os.path.join(fixtures_dir, "graph_small.txt")),
                f"{d}/g_full",
                dedup=False,
            )
            patch_graph(f"{d}/g_base", read_edge_list(f"{TMP}/inc.txt"), f"{d}/g_patch", dedup=False)
        out[enc] = f"{d}/g_full", f"{d}/g_patch"
    return out


def test_patch_preserves_edge_count_and_keys(dirs):
    for enc, (full, patch) in dirs.items():
        mf, mp = GraphManifest.load(full), GraphManifest.load(patch)
        assert mp.build == enc
        assert mp.n_vertices == mf.n_vertices
        assert mp.n_edges_directed == mf.n_edges_directed
        assert mp.source["patched_from"].endswith("g_base")
        assert mp.source["new_keys"] >= 2
    a, b = (GraphManifest.load(patch) for _, patch in dirs.values())
    assert a.parts == b.parts  # both encodes patch the same bytes


def test_patch_pagerank_matches_full_build(dirs):
    for enc, (full, patch) in dirs.items():
        got_f = result_map(run_algorithm(full, f"{TMP}/{enc}/w_prf", "pagerank"))
        got_p = result_map(run_algorithm(patch, f"{TMP}/{enc}/w_prp", "pagerank"))
        assert set(got_f) == set(got_p)
        for k in got_f:
            assert got_f[k] == pytest.approx(got_p[k], abs=1e-12), (enc, k)


def test_patch_sssp_matches_full_build(dirs):
    src = "1"
    for enc, (full, patch) in dirs.items():
        got_f = result_map(
            run_algorithm(
                full, f"{TMP}/{enc}/w_ssf", "sssp",
                source_id=lookup_vertex_id(GraphManifest.load(full), src),
            )
        )
        got_p = result_map(
            run_algorithm(
                patch, f"{TMP}/{enc}/w_ssp", "sssp",
                source_id=lookup_vertex_id(GraphManifest.load(patch), src),
            )
        )
        assert got_f == got_p, enc


def test_patch_hardlinks_untouched_shards(dirs):
    for _, patch in dirs.values():
        mp = GraphManifest.load(patch)
        old = GraphManifest.load(mp.source["patched_from"])
        linked = sum(
            1
            for p in range(min(old.n_parts, mp.n_parts))
            if os.path.exists(mp.csr_path(p, "indices"))
            and os.path.exists(old.csr_path(p, "indices"))
            and os.path.samefile(mp.csr_path(p, "indices"), old.csr_path(p, "indices"))
        )
        assert linked > 0  # some partitions were genuinely untouched


def test_patch_weighted_with_new_vertices():
    shutil.rmtree(f"{TMP}/wt", ignore_errors=True)
    base = pd.DataFrame(
        {
            "src_key": ["a", "b", "c"],
            "dst_key": ["b", "c", "a"],
            "weight": [1.0, 2.0, 3.0],
        }
    )
    inc = pd.DataFrame(
        {
            "src_key": ["c", "d", "e"],
            "dst_key": ["d", "e", "a"],
            "weight": [4.0, 5.0, 0.5],
        }
    )
    both = pd.concat([base, inc], ignore_index=True)
    for enc in ENCODES:
        d = f"{TMP}/wt/{enc}"
        with encode_path(enc):
            build_graph(rd.from_pandas(base), f"{d}/g_base", dedup=False)
            build_graph(rd.from_pandas(both), f"{d}/g_full", dedup=False)
            patch_graph(f"{d}/g_base", rd.from_pandas(inc), f"{d}/g_patch", dedup=False)
        got_f = result_map(run_algorithm(f"{d}/g_full", f"{d}/w_f", "pagerank_weighted"))
        got_p = result_map(run_algorithm(f"{d}/g_patch", f"{d}/w_p", "pagerank_weighted"))
        assert set(got_f) == set(got_p)
        for k in got_f:
            assert got_f[k] == pytest.approx(got_p[k], abs=1e-12), (enc, k)


def adjacency(graph_dir: str) -> dict:
    """vertex key -> sorted neighbour keys (with multiplicity)."""
    man = GraphManifest.load(graph_dir)
    keys = np.concatenate([load_vertex_keys(man, p) for p in range(man.n_parts)])
    adj = {}
    for p in range(man.n_parts):
        shard = load_shard(man, p)
        for local in range(shard.hi - shard.lo):
            nbrs = shard.indices[shard.indptr[local]:shard.indptr[local + 1]]
            adj[str(keys[shard.lo + local])] = sorted(str(k) for k in keys[nbrs])
    return adj


def test_patch_dedup_within_increment():
    """``dedup=True`` dedups the increment's own rows only: the patched
    graph equals a multigraph build of base plus the increment's
    distinct rows — a repeated row collapses, a mutual pair keeps both
    directions, a self-loop listed twice keeps one loop, and a row the
    base already holds stays doubled."""
    base = pd.DataFrame({"src_key": ["a", "b", "c"], "dst_key": ["b", "c", "d"]})
    inc = pd.DataFrame(
        {
            "src_key": ["d", "d", "e", "f", "g", "g", "a"],
            "dst_key": ["e", "e", "f", "e", "g", "g", "b"],
        }
    )  # dup (d,e); mutual (e,f)+(f,e); self-loop g twice; (a,b) also in base
    both = pd.concat([base, inc.drop_duplicates()], ignore_index=True)
    for enc in ENCODES:
        d = f"{TMP}/dedup/{enc}"
        shutil.rmtree(d, ignore_errors=True)
        with encode_path(enc):
            build_graph(rd.from_pandas(base), f"{d}/g_base", dedup=False)
            build_graph(rd.from_pandas(both), f"{d}/g_want", dedup=False)
            man = patch_graph(f"{d}/g_base", rd.from_pandas(inc), f"{d}/g_patch", dedup=True)
        assert man.build == enc
        assert man.n_edges_directed == 2 * len(both) == 16
        want = adjacency(f"{d}/g_want")
        assert adjacency(f"{d}/g_patch") == want, enc
        assert want["g"] == ["g", "g"] and want["e"] == ["d", "f", "f"]


def test_delete_roundtrip_restores_shard_bytes(dirs):
    """delete(patch(G, inc), inc) must equal G at the BYTE level for
    every partition in G's range: CSR rows re-lexsort, so removing the
    exact multiset a patch added restores the pre-patch arrays (CRCs
    from the manifests prove it without loading)."""
    from distributed_graph_computing_platform_ray.pipelines.patch import delete_edges

    for enc, (_, patch) in dirs.items():
        mp = GraphManifest.load(patch)
        base = GraphManifest.load(mp.source["patched_from"])
        with encode_path(enc):
            undo = delete_edges(patch, read_edge_list(f"{TMP}/inc.txt"), f"{TMP}/{enc}/g_undo")
        assert undo.build == enc
        assert undo.n_vertices == mp.n_vertices  # vertices never drop
        bc = {int(r["part"]): r for r in base.parts}
        uc = {int(r["part"]): r for r in undo.parts}
        for p, row in bc.items():
            assert uc[p]["crc_indices"] == row["crc_indices"], (enc, p)
            assert uc[p]["n_edges"] == row["n_edges"], (enc, p)
        # partitions beyond the base range hold only patch-added vertices:
        # all their edges came from the increment, so they must be empty
        for p, row in uc.items():
            if p not in bc:
                assert row["n_edges"] == 0, (enc, p)


def test_delete_unknown_key_raises(dirs):
    """A delete naming a key the graph does not have raises KeyError,
    also when the same call names known keys."""
    from distributed_graph_computing_platform_ray.pipelines.patch import delete_edges

    for enc, (full, _) in dirs.items():
        for src, dst in ((["no-such-vertex"], ["1"]), (["1", "2"], ["2", "no-such-vertex"])):
            bogus = rd.from_pandas(pd.DataFrame({"src_key": src, "dst_key": dst}))
            with encode_path(enc), pytest.raises(KeyError, match="no-such-vertex"):
                delete_edges(full, bogus, f"{TMP}/{enc}/g_bogus")


def test_patch_rerun_over_partial_output(dirs):
    """A patch re-run over a crashed previous attempt (manifest never
    written, stray shard files present) must produce the same build
    bit-for-bit: every write is atomic and unconditional, the manifest
    lands last."""
    for enc, (_, patch) in dirs.items():
        want = {int(r["part"]): r["crc_indices"] for r in GraphManifest.load(patch).parts}
        base = GraphManifest.load(patch).source["patched_from"]
        out = f"{TMP}/{enc}/g_partial"
        shutil.rmtree(out, ignore_errors=True)
        with encode_path(enc):
            patch_graph(base, read_edge_list(f"{TMP}/inc.txt"), out, dedup=False)
            # simulate a crash: drop the manifest and corrupt one shard
            os.remove(os.path.join(out, "manifest.json"))
            victim = GraphManifest.load(patch).csr_path(0, "indices").replace(patch, out)
            os.remove(victim)  # break any hardlink BEFORE corrupting
            np.save(victim, np.array([999999], dtype=np.int64))
            patch_graph(base, read_edge_list(f"{TMP}/inc.txt"), out, dedup=False)
        got = {int(r["part"]): r["crc_indices"] for r in GraphManifest.load(out).parts}
        assert got == want, enc


def test_fsck_green_on_patched_graph(dirs):
    """A patch-built graph (hardlinked untouched shards + rebuilt
    touched ones) must verify cleanly against its manifest lineage —
    the CRC entries a patch carries forward have to match the
    hardlinked bytes."""
    from distributed_graph_computing_platform_ray.pipelines.ingest import fsck_graph

    for _full, patched in dirs.values():
        df = fsck_graph(patched)
        assert (df["crc_ok"] & df["vertices_ok"]).all(), df.to_string()
