"""Edge-table ingest: string-keyed edges -> dictionary-encoded CSR graph.

Replaces the reference's load path (every worker downloads the ENTIRE
input file and filters to its partition, /root/reference/worker/worker.go:240,
149-151 — the exact anti-pattern Ray Data's block-partitioned reads
remove) with:

  1. exact dedup of (src_key, dst_key) [optional; the reference keeps
     duplicates — multigraph — so conformance ingest sets dedup=False]
  2. url/key dictionary: distinct keys get dense ids deterministically —
     keys are hash-bucketed, sorted + ranked within their bucket, and
     bucket offsets (a tiny driver-side cumsum over n_buckets counts)
     turn local ranks into global dense ids. Fully parallel, one
     shuffle, independent of partition count and batch boundaries.
  3. edge encoding: two hash-partitioned joins against the dictionary
     (SURVEY.md §7 'Shuffles and their keys').
  4. symmetrization: emit both directions per input edge, matching the
     reference's load-time undirected expansion
     (/root/reference/worker/worker.go:164-199).
  5. per-partition CSR shard build + manifest with lineage.

Scale: steps 1-3 are one shuffle each with per-group memory bounded by
n_buckets; step 5's groupby("part") is the single all-to-all that
co-locates each vertex range's adjacency. At 10^12 documents raise
n_buckets / n_parts so groups stay ~10^6 rows; nothing here
materializes the full dataset on the driver (the only driver-side data
is the n_buckets-row count table).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..stages.join import add_bucket, bucket_join, distinct, _BUCKET
from ..state.csr import build_shard_arrays, write_shard
from ..state.manifest import GraphManifest
from ..utils import atomic_write_parquet


def _keys_of_edges(edges: rd.Dataset, src_col: str, dst_col: str) -> rd.Dataset:
    def both(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = t[src_col].combine_chunks().cast(pa.large_string())
        d = t[dst_col].combine_chunks().cast(pa.large_string())
        # per-batch distinct BEFORE the shuffle (combiner): endpoint
        # keys repeat heavily (hubs), so this cuts the dictionary
        # shuffle from 2x|edges| rows to near the unique-key count
        u = pc.unique(pa.chunked_array([s, d]))
        return pa.table({"key": u})

    return edges.map_batches(both, batch_format="pyarrow")


def build_dictionary(edges: rd.Dataset, src_col: str, dst_col: str, n_buckets: int):
    """Distinct endpoint keys -> (key, id) with dense deterministic ids.

    Returns (dict_ds materialized, n_vertices). Ids are: sort keys
    within their hash bucket, then offset by the cumulative count of
    lower-numbered buckets. Deterministic for any parallelism.

    Key-universe fast path: when the (per-batch-deduped) key stream
    fits ``BROADCAST_DICT_LIMIT`` the ranking happens ON THE DRIVER in
    one pandas sort — the dictionary is about to be ray.put-broadcast
    anyway, so if it fits the object store it fits the driver; this
    replaces a sort-shuffle + stats pass + assign map (~2.5 s of fixed
    orchestration at ANY size) with milliseconds. The distributed
    rank-in-bucket path (identical ordering) remains for key universes
    beyond the broadcast budget.

    Returns (dict_ds, n_vertices, keys_numeric, driver_keys) where
    ``driver_keys`` is the id-ordered key array when the driver fast
    path ran (callers can then also write vertices files driver-side,
    saving the vertices shuffle), else None.
    """
    from ..utils import stable_hash_array

    keys_ds = _keys_of_edges(edges, src_col, dst_col).materialize()
    if keys_ds.count() <= BROADCAST_DICT_LIMIT:
        kpdf = keys_ds.to_pandas()
        # an empty dataset has no blocks and so no 'key' column at all
        u = pd.unique(kpdf["key"].astype(str)) if "key" in kpdf.columns else np.array([], dtype=object)
        if len(u) == 0:
            return (
                rd.from_arrow(
                    pa.table({"key": pa.array([], pa.large_string()), "id": pa.array([], pa.int64())})
                ).materialize(),
                0,
                True,
                np.array([], dtype=object),
            )
        kb = (stable_hash_array(u) % np.uint64(n_buckets)).astype(np.int64)
        sdf = pd.DataFrame({"key": u, "b": kb}).sort_values(["b", "key"], kind="stable")
        keys_numeric = bool(pd.Series(u).astype(str).str.fullmatch(r"[+-]?\d+").all())
        keys_sorted = sdf["key"].to_numpy()
        dict_ds = rd.from_arrow(
            pa.table(
                {
                    "key": pa.array(keys_sorted, pa.large_string()),
                    "id": pa.array(np.arange(len(u), dtype=np.int64)),
                }
            )
        ).materialize()
        return dict_ds, len(u), keys_numeric, keys_sorted

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        u = np.sort(g["key"].unique())
        return pd.DataFrame(
            {
                "key": u,
                _BUCKET: np.full(len(u), g[_BUCKET].iloc[0], dtype=np.int64),
                "local_rank": np.arange(len(u), dtype=np.int64),
            }
        )

    keys = keys_ds
    ranked = (
        add_bucket(keys, ["key"], n_buckets)
        .groupby(_BUCKET)
        .map_groups(rank_group, batch_format="pandas")
        .materialize()
    )

    # one cheap pass over the (materialized) ranked keys gathers bucket
    # counts AND the all-keys-integral flag — no extra groupby
    def stats(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(_BUCKET, as_index=False).size()
        g["n_nonnum"] = 0
        nonnum = int((~df["key"].astype(str).str.fullmatch(r"[+-]?\d+")).sum())
        if len(g):
            g.loc[g.index[0], "n_nonnum"] = nonnum
        return g[[_BUCKET, "size", "n_nonnum"]]

    rows = ranked.map_batches(stats, batch_format="pandas").take_all()
    offsets = np.zeros(n_buckets + 1, dtype=np.int64)
    n_nonnum = 0
    for row in rows:
        offsets[int(row[_BUCKET]) + 1] += int(row["size"])
        n_nonnum += int(row["n_nonnum"])
    np.cumsum(offsets, out=offsets)
    n_vertices = int(offsets[-1])

    def assign_id(t: pa.Table) -> pa.Table:
        b = t[_BUCKET].to_numpy()
        ids = offsets[b] + t["local_rank"].to_numpy()
        return pa.table({"key": t["key"], "id": pa.array(ids, pa.int64())})

    dict_ds = ranked.map_batches(assign_id, batch_format="pyarrow").materialize()
    return dict_ds, n_vertices, n_nonnum == 0, None


BROADCAST_DICT_LIMIT = 2_000_000  # keys; ~150 MB as a pandas index


def _string_keys(t: pa.Table, cols: list[str]) -> pa.Table:
    """Key columns as strings, the dictionary's key type
    (_keys_of_edges casts them): int64 keys would miss every lookup."""
    for c in cols:
        if not (pa.types.is_string(t[c].type) or pa.types.is_large_string(t[c].type)):
            t = t.set_column(t.schema.get_field_index(c), c, t[c].cast(pa.string()))
    return t


def encode_edges_broadcast(
    edges: rd.Dataset,
    dict_ds: rd.Dataset,
    src_col: str,
    dst_col: str,
    weighted: bool = False,
    dedup_pairs: bool = False,
    global_dedup: bool = True,
) -> rd.Dataset:
    """Small-dictionary fast path: put the url->id mapping in the
    object store ONCE (ray.put) and encode each batch with two pandas
    map lookups — zero shuffles (vs two hash joins). Used when the
    dictionary fits comfortably in memory; the shuffle join remains
    the >BROADCAST_DICT_LIMIT path.

    ``global_dedup=False`` keeps only the per-batch dedup combiner and
    leaves the GLOBAL distinct to a downstream stage that already
    shuffles by src (build_graph fuses it into the CSR partition
    write — same result, one less all-to-all)."""
    import ray

    mapping = dict_ds.to_pandas().set_index("key")["id"]
    ref = ray.put(mapping)

    class Encode:
        def __init__(self):
            self.mapping = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            df = _string_keys(t, [src_col, dst_col]).to_pandas()
            if dedup_pairs:
                # in-batch combiner only; GLOBAL dedup happens on the
                # encoded int pairs below (one cheap int shuffle vs two
                # string joins)
                cols = [src_col, dst_col] + (["weight"] if weighted else [])
                df = df.drop_duplicates(cols)
            out = {
                "src": self.mapping.reindex(df[src_col]).to_numpy(dtype=np.int64),
                "dst": self.mapping.reindex(df[dst_col]).to_numpy(dtype=np.int64),
            }
            if weighted:
                out["weight"] = df["weight"].to_numpy(dtype=np.float64)
            return pa.table({k: pa.array(v) for k, v in out.items()})

    # stateless task + per-worker cache: no actor-pool ramp-up
    _ekey = ("encode", ref.hex())

    def encode_batch(t: pa.Table) -> pa.Table:
        from ..stages.taskify import worker_cached

        return worker_cached(_ekey, Encode)(t)

    encoded = edges.map_batches(encode_batch, batch_format="pyarrow")
    if dedup_pairs and global_dedup:
        from ..stages.join import distinct

        cols = ["src", "dst"] + (["weight"] if weighted else [])
        encoded = distinct(encoded, cols, n_buckets=64)
    return encoded


def encode_edges(
    edges: rd.Dataset,
    dict_ds: rd.Dataset,
    src_col: str,
    dst_col: str,
    n_buckets: int,
    weighted: bool = False,
    dedup_pairs: bool = False,
) -> rd.Dataset:
    """(src_key, dst_key[, weight]) -> (src, dst[, weight]) via two hash
    joins. ``dedup_pairs`` fuses exact edge dedup into the first join
    (pairs sharing src_key share a bucket), saving a whole shuffle.
    Explicit schemas are threaded so no lazy shuffle is executed just
    for column discovery."""
    src_dict = dict_ds.map_batches(
        lambda t: pa.table({"key": t["key"], "src": t["id"]}), batch_format="pyarrow"
    )
    dst_dict = dict_ds.map_batches(
        lambda t: pa.table({"key": t["key"], "dst": t["id"]}), batch_format="pyarrow"
    )
    edges = edges.map_batches(lambda t: _string_keys(t, [src_col, dst_col]), batch_format="pyarrow")
    wcols = [("weight", pa.float64())] if weighted else []
    edges_schema = pa.schema(
        [(src_col, pa.string()), (dst_col, pa.string()), *wcols]
    )
    dict_schema = lambda out: pa.schema([("key", pa.large_string()), (out, pa.int64())])  # noqa: E731
    step1 = bucket_join(
        edges, src_dict, left_on=src_col, right_on="key", n_buckets=n_buckets,
        left_schema=edges_schema, right_schema=dict_schema("src"),
        left_dedup_cols=[src_col, dst_col, *("weight",) * weighted] if dedup_pairs else None,
    )
    step1_schema = pa.schema(
        [(src_col, pa.string()), (dst_col, pa.string()), *wcols, ("src", pa.int64())]
    )
    step2 = bucket_join(
        step1, dst_dict, left_on=dst_col, right_on="key", n_buckets=n_buckets,
        left_schema=step1_schema, right_schema=dict_schema("dst"),
    )

    def normalize(t: pa.Table) -> pa.Table:
        # null-padded union columns come back as float64; restore int64
        cols = {
            "src": t["src"].cast(pa.int64()),
            "dst": t["dst"].cast(pa.int64()),
        }
        if weighted:
            cols["weight"] = t["weight"].cast(pa.float64())
        return pa.table(cols)

    return step2.map_batches(normalize, batch_format="pyarrow")


def symmetrize(edges: rd.Dataset) -> rd.Dataset:
    """Emit (u,v) and (v,u) per input edge — reference load semantics."""

    def both(t: pa.Table) -> pa.Table:
        s, d = t["src"].combine_chunks(), t["dst"].combine_chunks()
        cols = {
            "src": pa.chunked_array([s, d]),
            "dst": pa.chunked_array([d, s]),
        }
        if "weight" in t.column_names:
            w = t["weight"].combine_chunks()
            cols["weight"] = pa.chunked_array([w, w])
        return pa.table(cols)

    return edges.map_batches(both, batch_format="pyarrow")


def build_graph_encoded(
    edges: rd.Dataset,
    graph_dir: str,
    n_vertices: int,
    *,
    n_parts: int = 32,
    symmetrize_edges: bool = True,
    source_info: dict | None = None,
) -> GraphManifest:
    """Fast path for edges ALREADY dense-id encoded: (src,dst) int64 in
    [0, n_vertices). Skips dedup/dictionary/joins — one partition
    shuffle straight to CSR shards; vertex key = str(id).

    This is the API for graphs that arrive pre-encoded (re-runs,
    exports from other systems, synthetic benchmarks).
    """
    os.makedirs(os.path.join(graph_dir, "vertices"), exist_ok=True)
    os.makedirs(os.path.join(graph_dir, "csr"), exist_ok=True)
    weighted = "weight" in edges.schema().names
    part_size, n_parts = GraphManifest.plan(graph_dir, n_vertices, n_parts)
    manifest = GraphManifest(
        graph_dir=graph_dir,
        n_vertices=n_vertices,
        n_edges_directed=0,
        part_size=part_size,
        n_parts=n_parts,
        weighted=weighted,
        symmetrized=symmetrize_edges,
        keys_numeric=True,
        source=source_info or {},
    )
    if symmetrize_edges:
        edges = symmetrize(edges)

    def write_part(part: int, t: pa.Table):
        import numpy as _np

        lo, hi = manifest.part_bounds(part)
        w = t["weight"].to_numpy() if weighted else None
        indptr, indices, ww = build_shard_arrays(
            t["src"].to_numpy().astype(_np.int64), t["dst"].to_numpy().astype(_np.int64), w, lo, hi
        )
        row = write_shard(manifest, part, indptr, indices, ww)
        ids = _np.arange(lo, hi, dtype=_np.int64)
        atomic_write_parquet(
            manifest.vertices_path(part),
            pa.table({"id": pa.array(ids), "key": pa.array(ids.astype(str), pa.string())}),
        )
        return row

    from ..stages.exchange import exchange_reduce

    # no-sort split/reduce exchange instead of groupby("part") — see
    # stages/exchange.py (same CSR bytes: build_shard_arrays lexsorts)
    part_rows = exchange_reduce(
        edges,
        n_parts,
        lambda t: t["src"].to_numpy() // part_size,
        write_part,
    )
    seen = {r["part"] for r in part_rows}
    for p in range(n_parts):
        if p not in seen:
            n_local = manifest.part_n_local(p)
            row = write_shard(
                manifest, p, np.zeros(n_local + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0) if weighted else None,
            )
            lo, hi = manifest.part_bounds(p)
            ids = np.arange(lo, hi, dtype=np.int64)
            atomic_write_parquet(
                manifest.vertices_path(p),
                pa.table({"id": pa.array(ids), "key": pa.array(ids.astype(str), pa.string())}),
            )
            part_rows.append(row)
    manifest.parts = sorted(part_rows, key=lambda r: int(r["part"]))
    manifest.n_edges_directed = int(sum(r["n_edges"] for r in manifest.parts))
    manifest.save()
    return manifest


def build_graph_local(
    edges_df: pd.DataFrame,
    graph_dir: str,
    *,
    src_col: str = "src_key",
    dst_col: str = "dst_key",
    n_parts: int = 32,
    n_buckets: int = 64,
    dedup: bool = True,
    symmetrize_edges: bool = True,
    source_info: dict | None = None,
) -> GraphManifest:
    """Driver-side replica of ``build_graph`` for SMALL edge sets.

    Produces a BIT-IDENTICAL graph dir (same hash-bucket dictionary
    ranking, partition plan, shard bytes — asserted by
    tests/test_ingest.py::test_small_graph_fast_path): every chained
    Dataset execution costs ~1 s of fixed orchestration, so building a
    few-hundred-edge pair graph distributed pays ~5 s to move kBs.
    Opt in via ``build_graph(small_graph_edges=...)``; the distributed
    path remains the default and the only path above the threshold.
    """
    from ..utils import stable_hash_array

    os.makedirs(os.path.join(graph_dir, "vertices"), exist_ok=True)
    os.makedirs(os.path.join(graph_dir, "csr"), exist_ok=True)
    weighted = "weight" in edges_df.columns

    sk = edges_df[src_col].astype(str)
    dk = edges_df[dst_col].astype(str)
    keys = pd.unique(pd.concat([sk, dk], ignore_index=True))
    if len(keys) == 0:
        raise ValueError("empty edge input — no vertices")
    # dictionary: EXACT replica of build_dictionary's ranking — sort
    # within hash bucket, offset by cumulative lower-bucket counts
    kb = (stable_hash_array(keys) % np.uint64(n_buckets)).astype(np.int64)
    kdf = pd.DataFrame({"key": keys, "b": kb}).sort_values(
        ["b", "key"], kind="stable"
    )  # bucket-major, key-sorted within = the distributed dense-id order
    keys_sorted = kdf["key"].to_numpy()
    ids = np.arange(len(keys), dtype=np.int64)
    mapping = pd.Series(ids, index=keys_sorted)
    n_vertices = len(keys)
    keys_numeric = bool(
        pd.Series(keys).astype(str).str.fullmatch(r"[+-]?\d+").all()
    )

    cols = [src_col, dst_col] + (["weight"] if weighted else [])
    df = edges_df[cols]
    if dedup:
        df = df.drop_duplicates(cols)
    src = mapping.reindex(sk.loc[df.index]).to_numpy(dtype=np.int64)
    dst = mapping.reindex(dk.loc[df.index]).to_numpy(dtype=np.int64)
    w = df["weight"].to_numpy(dtype=np.float64) if weighted else None
    if symmetrize_edges:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        if weighted:
            w = np.concatenate([w, w])

    part_size, n_parts = GraphManifest.plan(graph_dir, n_vertices, n_parts)
    manifest = GraphManifest(
        graph_dir=graph_dir,
        n_vertices=n_vertices,
        n_edges_directed=0,
        part_size=part_size,
        n_parts=n_parts,
        weighted=weighted,
        n_buckets=n_buckets,
        symmetrized=symmetrize_edges,
        keys_numeric=keys_numeric,
        source=source_info or {},
    )
    part_of = src // part_size
    part_rows = []
    for p in range(n_parts):
        lo, hi = manifest.part_bounds(p)
        m = part_of == p
        indptr, indices, ww = build_shard_arrays(
            src[m], dst[m], (w[m] if weighted else None), lo, hi
        )
        part_rows.append(write_shard(manifest, p, indptr, indices, ww))
        vt = pa.table(
            {
                "id": pa.array(np.arange(lo, min(hi, n_vertices), dtype=np.int64)),
                "key": pa.array(keys_sorted[lo : min(hi, n_vertices)].astype(str), pa.string()),
            }
        )
        atomic_write_parquet(manifest.vertices_path(p), vt)
    manifest.parts = sorted(part_rows, key=lambda r: int(r["part"]))
    manifest.n_edges_directed = int(sum(r["n_edges"] for r in manifest.parts))
    manifest.save()
    return manifest


def build_graph(
    edges_keys: rd.Dataset,
    graph_dir: str,
    *,
    src_col: str = "src_key",
    dst_col: str = "dst_key",
    n_parts: int = 32,
    n_buckets: int = 64,
    dedup: bool = True,
    symmetrize_edges: bool = True,
    source_info: dict | None = None,
    small_graph_edges: int = 0,
) -> GraphManifest:
    """Full ingest: string-keyed edge Dataset -> on-disk CSR graph.

    ``dedup=False`` preserves input multiplicity (multigraph), matching
    the reference loader; the pages pipeline dedups extracted links
    first (SURVEY.md §2.7).
    """
    os.makedirs(os.path.join(graph_dir, "vertices"), exist_ok=True)
    os.makedirs(os.path.join(graph_dir, "csr"), exist_ok=True)

    # materialize the key-edges once: they feed both the dictionary and
    # the encode joins (a lazy chain would re-run extraction per consumer)
    edges_keys = edges_keys.materialize()
    if small_graph_edges and edges_keys.count() <= small_graph_edges:
        return build_graph_local(
            edges_keys.to_pandas(),
            graph_dir,
            src_col=src_col,
            dst_col=dst_col,
            n_parts=n_parts,
            n_buckets=n_buckets,
            dedup=dedup,
            symmetrize_edges=symmetrize_edges,
            source_info=source_info,
        )
    weighted = "weight" in edges_keys.schema().names

    # dedup note: exact (src,dst[,weight]) dedup is FUSED into the
    # first encode join (same src_key => same bucket) — no extra
    # shuffle. Duplicate keys don't affect the dictionary (it ranks
    # distinct keys regardless). keys_numeric: CC/LP propagate original
    # ids as labels when every key is integral ("component id = min
    # original vertex id").
    dict_ds, n_vertices, keys_numeric, driver_keys = build_dictionary(
        edges_keys, src_col, dst_col, n_buckets
    )
    if n_vertices == 0:
        raise ValueError("empty edge input — no vertices")

    part_size, n_parts = GraphManifest.plan(graph_dir, n_vertices, n_parts)
    manifest = GraphManifest(
        graph_dir=graph_dir,
        n_vertices=n_vertices,
        n_edges_directed=0,
        part_size=part_size,
        n_parts=n_parts,
        weighted=weighted,
        n_buckets=n_buckets,
        symmetrized=symmetrize_edges,
        keys_numeric=keys_numeric,
        source=source_info or {},
    )

    # The broadcast-encode path defers the GLOBAL pair dedup into the
    # CSR partition write below: the CSR shuffle keys on src, so every
    # duplicate of a pair lands in one group — one less all-to-all.
    # (The join-encode path fuses dedup into its first join already.)
    csr_dedup = dedup and n_vertices <= BROADCAST_DICT_LIMIT
    if n_vertices <= BROADCAST_DICT_LIMIT:
        edges = encode_edges_broadcast(
            edges_keys, dict_ds, src_col, dst_col,
            weighted=weighted, dedup_pairs=dedup, global_dedup=False,
        )
    else:
        edges = encode_edges(
            edges_keys, dict_ds, src_col, dst_col, n_buckets,
            weighted=weighted, dedup_pairs=dedup,
        )
    if symmetrize_edges:
        if csr_dedup:
            # tag each copy with its ORIGIN direction: the fused
            # dedup must equal dedup-BEFORE-symmetrize, and only the
            # flag distinguishes "mutual input links (u,v)+(v,u)"
            # (each direction legitimately at multiplicity 2 after
            # symmetrize — the reference loader's behavior) from
            # "duplicate input rows" (collapse). Self-loops fall out
            # naturally: (u,u) dedupes to one forward + one mirror.
            def symmetrize_tag(t: pa.Table) -> pa.Table:
                s_, d_ = t["src"].combine_chunks(), t["dst"].combine_chunks()
                n = len(s_)
                cols = {
                    "src": pa.chunked_array([s_, d_]),
                    "dst": pa.chunked_array([d_, s_]),
                    "fwd": pa.array(
                        np.concatenate(
                            [np.ones(n, dtype=np.int8), np.zeros(n, dtype=np.int8)]
                        )
                    ),
                }
                if "weight" in t.column_names:
                    w_ = t["weight"].combine_chunks()
                    cols["weight"] = pa.chunked_array([w_, w_])
                return pa.table(cols)

            edges = edges.map_batches(symmetrize_tag, batch_format="pyarrow")
        else:
            edges = symmetrize(edges)

    # ---- CSR shards: ONE range-partition exchange, side-write per part ----
    # raw split/reduce tasks (stages/exchange.py), NOT groupby("part"):
    # the partition id is pure arithmetic, and the Dataset groupby's
    # sort-based all-to-all pays a serial sample/sort stage the
    # exchange avoids (same rationale as the engine's superstep path,
    # engine.py:255-268). Shard bytes are identical either way —
    # build_shard_arrays lexsorts its rows (asserted by
    # tests/test_ingest.py's local-fast-path equality).
    def write_csr_part(part: int, t: pa.Table):
        lo, hi = manifest.part_bounds(part)
        s = t["src"].to_numpy()
        d = t["dst"].to_numpy()
        w = t["weight"].to_numpy() if weighted else None
        if csr_dedup:
            # fused global dedup on (src, dst, origin-direction[,w]) —
            # every duplicate of a directed copy shares this group
            # (the shuffle keys on src)
            f = (
                t["fwd"].to_numpy()
                if "fwd" in t.column_names
                else np.ones(len(s), dtype=np.int8)
            )
            keys = [d, f] if not weighted else [w, d, f]
            order = np.lexsort((*keys, s))
            ss, dd, ff = s[order], d[order], f[order]
            keep = np.concatenate(
                [[True], (ss[1:] != ss[:-1]) | (dd[1:] != dd[:-1]) | (ff[1:] != ff[:-1])]
            )
            if weighted:
                ws_ = w[order]
                keep[1:] |= ws_[1:] != ws_[:-1]
            s, d = ss[keep], dd[keep]
            w = ws_[keep] if weighted else None
        indptr, indices, ww = build_shard_arrays(s, d, w, lo, hi)
        return write_shard(manifest, part, indptr, indices, ww)

    from ..stages.exchange import exchange_reduce

    part_rows = exchange_reduce(
        edges,
        n_parts,
        lambda t: t["src"].to_numpy() // part_size,
        write_csr_part,
    )

    # Parts whose id range got no out-edges (possible only when
    # symmetrize_edges=False) still need an (empty) shard file.
    seen = {r["part"] for r in part_rows}
    for p in range(n_parts):
        if p not in seen:
            n_local = manifest.part_n_local(p)
            row = write_shard(
                manifest, p, np.zeros(n_local + 1, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0) if weighted else None,
            )
            part_rows.append(row)

    # ---- vertices/part-*.parquet: (id, key) sorted by id ----------------
    if driver_keys is not None:
        # the dictionary was ranked on the driver — the id-ordered key
        # array is in hand, so the 64 small vertices files are plain
        # writes (saves the vertices shuffle, ~1 s fixed)
        for p in range(n_parts):
            lo, hi = manifest.part_bounds(p)
            hi = min(hi, n_vertices)
            t = pa.table(
                {
                    "id": pa.array(np.arange(lo, hi, dtype=np.int64)),
                    "key": pa.array(driver_keys[lo:hi].astype(str), pa.string()),
                }
            )
            atomic_write_parquet(manifest.vertices_path(p), t)
    else:

        def write_vertices_part(part: int, t: pa.Table):
            g = t.to_pandas().sort_values("id", kind="stable")
            vt = pa.table({"id": g["id"].to_numpy(), "key": g["key"].astype(str).to_numpy()})
            atomic_write_parquet(manifest.vertices_path(part), vt)
            return {"part": int(part), "n_rows": len(g)}

        from ..stages.exchange import exchange_reduce as _xr

        _xr(dict_ds, n_parts, lambda t: t["id"].to_numpy() // part_size, write_vertices_part)

    manifest.parts = sorted(part_rows, key=lambda r: int(r["part"]))
    manifest.n_edges_directed = int(sum(r["n_edges"] for r in manifest.parts))
    manifest.save()
    return manifest


def fsck_graph(graph_dir: str) -> "pd.DataFrame":
    """Integrity check of a built graph against its manifest — the
    SDFS REPAIR/checksum role (reference sdfs/sdfs.go quorum metadata,
    subsumed here by immutable files + CRC lineage, SURVEY §2.1 S4):
    per partition, recompute the CSR shards' CRC32s and the vertices
    file's row count and compare with the manifest. One Ray task per
    partition (rd.range fan-out), so a 10^12-vertex graph checks at
    full cluster parallelism. Returns one row per partition with ok
    flags; callers (CLI `fsck`) exit nonzero if any flag is false."""
    import pyarrow.parquet as _pq

    from ..state.manifest import GraphManifest
    from ..utils import crc32_of as _crc

    man = GraphManifest.load(graph_dir)
    expect = {int(r["part"]): r for r in man.parts}

    def check(t: pa.Table) -> pa.Table:
        rows = []
        for p in t["id"].to_numpy():
            p = int(p)
            e = expect.get(p, {})
            row = {"part": p, "n_local": -1, "n_edges": -1,
                   "crc_ok": False, "vertices_ok": False}
            try:
                indptr = np.load(man.csr_path(p, "indptr"))
                indices = np.load(man.csr_path(p, "indices"))
                row["n_local"] = len(indptr) - 1
                row["n_edges"] = len(indices)
                row["crc_ok"] = (
                    _crc(indptr) == int(e.get("crc_indptr", -1))
                    and _crc(indices) == int(e.get("crc_indices", -1))
                    and len(indptr) - 1 == int(e.get("n_local", -1))
                    and len(indices) == int(e.get("n_edges", -1))
                )
                vt = _pq.read_table(man.vertices_path(p), columns=["id"])
                lo, hi = man.part_bounds(p)
                ids = np.sort(vt["id"].to_numpy())
                row["vertices_ok"] = bool(
                    len(ids) == hi - lo and (ids == np.arange(lo, hi)).all()
                )
            except Exception:
                pass  # missing/corrupt file: flags stay False
            rows.append(row)
        out = pd.DataFrame(rows)
        return pa.Table.from_pandas(out, preserve_index=False)

    res = (
        rd.range(man.n_parts)
        .map_batches(check, batch_format="pyarrow")
        .to_pandas()
        .sort_values("part")
        .reset_index(drop=True)
    )
    return res
