"""Edge-table ingest: string-keyed edges -> dictionary-encoded CSR graph.

The reference loader has every worker read the whole edge file and keep
its own partition (reference worker/worker.go:149-151, 164-199, 240).
``build_graph`` keeps the output of that loader (the symmetrized
multigraph, one CSR shard per vertex-id range). Every graph writer here
and in patch.py runs the same three batch functions:

  1. ``encode_keys``: look both key columns up in a ``pd.Index`` of the
     id-ordered keys ``rank_keys`` returns; a key missing from it raises
     ``KeyError``. Distinct keys get dense ids in one fixed order — hash
     bucket major, key order within a bucket — so ids never depend on
     partition count or batch boundaries.
  2. ``symmetrize``: emit both directions per input edge, matching the
     reference's load-time undirected expansion, and tag each row with
     its origin direction (``fwd``).
  3. ``write_edges``: one partition's rows -> its CSR shard. With
     ``dedup`` it first keeps one row per (src, dst, fwd[, weight])
     (``dedup_edges``), which equals an exact dedup of the input edges
     before symmetrize. [optional; the reference keeps duplicates —
     multigraph — so conformance ingest sets dedup=False]

``build_graph`` picks one of three builders from the edge table's row
count, which the materialized table already holds. All three write
bit-identical graph dirs; the manifest records which one ran
(``build``):

- ``local``: at most ``LOCAL_BUILD_MAX_ROWS`` rows. The driver reads the
  table once and applies the three functions to the whole of it. Below
  this size the distributed steps' fixed cost, not the data, sets the
  time.
- ``broadcast``: more rows, at most ``BROADCAST_DICT_LIMIT`` distinct
  keys. The keys are ranked on the driver and their index broadcast;
  steps 1-2 map over the edge batches and step 3 runs per part after
  one range-partition exchange. The edge table never leaves the
  cluster.
- ``join``: more keys. The dictionary is ranked in hash buckets and
  step 1 is two hash-partitioned joins against it (SURVEY.md §7
  'Shuffles and their keys'); steps 2-3 as in ``broadcast``.

Scale: on the ``join`` builder the dictionary and each encode join are
one bucketed exchange each with per-group memory bounded by n_buckets,
and the CSR write is one range-partition exchange; the driver holds
only the n_buckets-row count table. At 10^12 documents raise n_buckets /
n_parts so groups stay ~10^6 rows. The ``broadcast`` builder also holds
the dictionary on the driver, and the ``local`` builder the whole
(small) edge table.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..stages.exchange import exchange_reduce
from ..stages.join import add_bucket, broadcast_lookup, bucket_join, bucket_map_groups, _BUCKET
from ..state.csr import build_shard_arrays, write_shard
from ..state.manifest import GraphManifest
from ..utils import atomic_write_parquet, bucket_of

# build_graph's driver-side builder takes edge tables up to this many
# rows. From a sweep of perfbench/gen.py inputs (README "Two
# builders"): the driver build was faster at every size on 1 CPU and up
# to ~350 k rows at num_cpus=4; the cut keeps a margin below that, as
# the crossover falls when the distributed builders get more CPUs.
LOCAL_BUILD_MAX_ROWS = 250_000
BROADCAST_DICT_LIMIT = 2_000_000  # keys; ~150 MB as a pandas index
_INT_KEY = r"[+-]?\d+"  # keys_numeric: every key parses as an integer


def _edge_keys(t: pa.Table, src_col: str, dst_col: str) -> pa.Table:
    """One batch's distinct endpoint keys, as strings (the dictionary's
    key type)."""
    s = t[src_col].combine_chunks().cast(pa.large_string())
    d = t[dst_col].combine_chunks().cast(pa.large_string())
    return pa.table({"key": pc.unique(pa.chunked_array([s, d]))})


def _keys_of_edges(edges: rd.Dataset, src_col: str, dst_col: str) -> rd.Dataset:
    # per-batch distinct BEFORE the shuffle (combiner): endpoint keys
    # repeat heavily (hubs), so this cuts the dictionary shuffle from
    # 2x|edges| rows to near the unique-key count
    return edges.map_batches(lambda t: _edge_keys(t, src_col, dst_col), batch_format="pyarrow")


def collect_keys(keys_ds: rd.Dataset) -> np.ndarray:
    """The distinct keys of a ``_keys_of_edges`` Dataset, on the driver."""
    kpdf = keys_ds.to_pandas()
    # an empty dataset has no blocks and so no 'key' column at all
    return pd.unique(kpdf["key"].astype(str)) if "key" in kpdf.columns else np.array([], dtype=object)


def rank_keys(keys: np.ndarray, n_buckets: int) -> tuple[np.ndarray, bool]:
    """Distinct string keys -> (the keys in dense-id order, whether
    every key is an integer). The order is hash bucket major, sorted
    within a bucket: the order the distributed rank-in-bucket pass of
    ``build_dictionary`` gives, so every builder assigns the same ids."""
    kb = bucket_of(keys, n_buckets)
    ranked = pd.DataFrame({"key": keys, "b": kb}).sort_values(["b", "key"], kind="stable")
    numeric = bool(pd.Series(keys, dtype=object).astype(str).str.fullmatch(_INT_KEY).all())
    return ranked["key"].to_numpy(), numeric


def build_dictionary(edges: rd.Dataset, src_col: str, dst_col: str, n_buckets: int):
    """Distinct endpoint keys -> dense deterministic ids.

    Returns (keys, n_vertices, keys_numeric, dict_ds). Ids follow
    ``rank_keys``: keys sorted within their hash bucket, then offset by
    the cumulative count of lower-numbered buckets. Deterministic for
    any parallelism.

    When the (per-batch-deduped) key stream fits
    ``BROADCAST_DICT_LIMIT`` the ranking happens on the driver: ``keys``
    is the id-ordered key array (callers encode against it and write
    the vertex files from it) and ``dict_ds`` is None. Above the limit
    a distributed rank-in-bucket pass gives the same ids as a
    materialized (key, id) Dataset ``dict_ds``, and ``keys`` is None.
    """
    keys_ds = _keys_of_edges(edges, src_col, dst_col).materialize()
    if keys_ds.count() <= BROADCAST_DICT_LIMIT:
        keys, keys_numeric = rank_keys(collect_keys(keys_ds), n_buckets)
        return keys, len(keys), keys_numeric, None

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        u = np.sort(g["key"].unique())
        return pd.DataFrame(
            {
                "key": u,
                _BUCKET: np.full(len(u), g[_BUCKET].iloc[0], dtype=np.int64),
                "local_rank": np.arange(len(u), dtype=np.int64),
            }
        )

    ranked = bucket_map_groups(add_bucket(keys_ds, ["key"], n_buckets), n_buckets, rank_group)

    # one cheap pass over the (materialized) ranked keys gathers bucket
    # counts AND the all-keys-integral flag — no extra groupby
    def stats(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(_BUCKET, as_index=False).size()
        g["n_nonnum"] = 0
        nonnum = int((~df["key"].astype(str).str.fullmatch(_INT_KEY)).sum())
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
    return None, n_vertices, n_nonnum == 0, dict_ds


def _unknown_key(key) -> KeyError:
    return KeyError(f"edge key {key!r} is not a vertex of the graph")


def _raise_as_is(ds: rd.Dataset) -> rd.Dataset:
    """Make ``ds``'s maps raise their own exception (an unknown key's
    ``KeyError``), not Ray Data's ``UserCodeException`` wrapper. The
    setting lives on the Dataset's context, which every Dataset mapped
    from the same materialized root shares: call this only on Datasets
    whose root the ingest code made itself."""
    ds.context.raise_original_map_exception = True
    return ds


def encode_keys(t: pa.Table, index: pd.Index, src_col: str, dst_col: str) -> pa.Table:
    """(src_key, dst_key[, weight]) -> (src, dst[, weight]): each key's
    position in ``index``, the id-ordered keys ``rank_keys`` returns.
    Keys are looked up as strings (int64 keys would otherwise miss
    every lookup); one missing from ``index`` raises ``KeyError``."""
    cols = {}
    for out, c in (("src", src_col), ("dst", dst_col)):
        keys = t[c].cast(pa.large_string()).to_numpy()
        ids = index.get_indexer(keys)
        if (ids < 0).any():
            raise _unknown_key(keys[ids < 0][0])
        cols[out] = pa.array(ids, pa.int64())
    if "weight" in t.column_names:
        cols["weight"] = t["weight"].cast(pa.float64())
    return pa.table(cols)


def encode_edges_broadcast(edges: rd.Dataset, keys: np.ndarray, src_col: str, dst_col: str) -> rd.Dataset:
    """Encode against driver-held id-ordered ``keys``: their index goes
    to the object store ONCE and every batch runs ``encode_keys`` —
    zero shuffles (vs two hash joins). Callers pass a Dataset they
    materialized, as the encode marks its context ``_raise_as_is``."""
    return _raise_as_is(
        broadcast_lookup(edges, pd.Index(keys), lambda t, index: encode_keys(t, index, src_col, dst_col))
    )


def encode_edges(
    edges: rd.Dataset,
    dict_ds: rd.Dataset,
    src_col: str,
    dst_col: str,
    n_buckets: int,
    weighted: bool = False,
) -> rd.Dataset:
    """(src_key, dst_key[, weight]) -> (src, dst[, weight]) via two hash
    joins against a (key, id) ``dict_ds`` — the encode for dictionaries
    over ``BROADCAST_DICT_LIMIT``. Both are left joins, so a key missing
    from the dictionary raises ``KeyError`` instead of dropping its
    row. Keys join as strings on both sides. Explicit schemas are
    threaded so no lazy shuffle is executed just for column discovery."""

    def side(out: str) -> rd.Dataset:
        return dict_ds.map_batches(
            lambda t: pa.table({"key": t["key"].cast(pa.string()), out: t["id"].cast(pa.int64())}),
            batch_format="pyarrow",
        )

    wcols = [("weight", pa.float64())] if weighted else []
    schema = pa.schema([(src_col, pa.string()), (dst_col, pa.string()), *wcols])

    def as_schema(t: pa.Table) -> pa.Table:
        return pa.table({f.name: t[f.name].cast(f.type) for f in schema})

    def found(col: str, key_col: str, t: pa.Table) -> pa.Table:
        # a left-join row with no dictionary match comes back null
        # (NaN through pandas); its int ids come back float64
        missing = pc.is_null(t[col], nan_is_null=True)
        if pc.any(missing).as_py():
            raise _unknown_key(t[key_col].filter(missing)[0].as_py())
        return t.set_column(t.schema.get_field_index(col), col, t[col].cast(pa.int64()))

    dict_schema = lambda out: pa.schema([("key", pa.string()), (out, pa.int64())])  # noqa: E731
    step1 = _raise_as_is(bucket_join(
        edges.map_batches(as_schema, batch_format="pyarrow"), side("src"),
        left_on=src_col, right_on="key", n_buckets=n_buckets, how="left",
        left_schema=schema, right_schema=dict_schema("src"),
    ).map_batches(lambda t: found("src", src_col, t), batch_format="pyarrow"))
    step2 = bucket_join(
        step1, side("dst"), left_on=dst_col, right_on="key", n_buckets=n_buckets, how="left",
        left_schema=schema.append(pa.field("src", pa.int64())), right_schema=dict_schema("dst"),
    )

    def normalize(t: pa.Table) -> pa.Table:
        t = found("dst", dst_col, t)
        return t.select(["src", "dst", *("weight",) * weighted])

    return _raise_as_is(step2.map_batches(normalize, batch_format="pyarrow"))


def symmetrize(t: pa.Table) -> pa.Table:
    """Emit (u,v) and (v,u) per encoded edge — reference load semantics —
    tagging each row's origin direction: ``fwd`` is 1 on the input row,
    0 on its mirror."""
    s, d = t["src"].combine_chunks(), t["dst"].combine_chunks()
    cols = {
        "src": pa.chunked_array([s, d]),
        "dst": pa.chunked_array([d, s]),
        "fwd": pa.array(np.repeat(np.array([1, 0], dtype=np.int8), len(s))),
    }
    if "weight" in t.column_names:
        w = t["weight"].combine_chunks()
        cols["weight"] = pa.chunked_array([w, w])
    return pa.table(cols)


def dedup_edges(t: pa.Table) -> pa.Table:
    """One row per distinct (src, dst, fwd[, weight]) of ``t``.

    Applied to a partition's rows it is a global dedup: every copy of a
    row shares its src, so its partition. After ``symmetrize`` it
    equals deduping the input edges first: only ``fwd`` tells a
    repeated input row (collapses) from a mutual input pair
    (u,v)+(v,u), whose directions each stay at multiplicity 2 — the
    reference loader's behavior; a deduped self-loop keeps its row and
    its mirror."""
    cols = [t[c].to_numpy() for c in ("src", "dst", "fwd") if c in t.column_names]
    if "weight" in t.column_names:
        # weights compare as in pandas: all NaNs equal, -0.0 == 0.0
        w = t["weight"].to_numpy()
        cols.append(np.where(np.isnan(w), np.nan, w + 0.0).view(np.int64))
    order = np.lexsort(cols)
    keep = np.ones(len(order), dtype=bool)
    if len(order):
        keep[1:] = np.any([c[1:] != c[:-1] for c in (c[order] for c in cols)], axis=0)
    return t.take(pa.array(order[keep]))


def _write_csr(manifest: GraphManifest, part: int, src, dst, w) -> dict:
    """Write one part's CSR shard from its edge rows; returns its lineage row."""
    lo, hi = manifest.part_bounds(part)
    return write_shard(manifest, part, *build_shard_arrays(src, dst, w, lo, hi))


def write_edges(manifest: GraphManifest, part: int, t: pa.Table, dedup: bool = False) -> dict:
    """Write one part's CSR shard from its encoded rows (``dedup_edges``
    first with ``dedup``); returns its lineage row."""
    if dedup:
        t = dedup_edges(t)
    w = t["weight"].to_numpy() if manifest.weighted else None
    return _write_csr(manifest, part, t["src"].to_numpy(), t["dst"].to_numpy(), w)


def write_vertices(manifest: GraphManifest, part: int, keys) -> None:
    """vertices/part-NNNNN.parquet: the part's (id, key) rows in id
    order; ``keys`` holds the part's keys in id order."""
    lo, hi = manifest.part_bounds(part)
    atomic_write_parquet(
        manifest.vertices_path(part),
        pa.table(
            {
                "id": pa.array(np.arange(lo, hi, dtype=np.int64)),
                "key": pa.array(np.asarray(keys).astype(str), pa.string()),
            }
        ),
    )


def no_edges(weighted: bool) -> pa.Table:
    """An empty encoded edge table, for writing a part that got no rows."""
    cols = {"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())}
    if weighted:
        cols["weight"] = pa.array([], pa.float64())
    return pa.table(cols)


def finish_manifest(manifest: GraphManifest, part_rows: list, fill=None) -> GraphManifest:
    """Save a build's manifest once its shards are written.

    ``fill(part)`` writes each part missing from ``part_rows`` and
    returns its lineage row. The default writes an empty shard: an
    exchange skips a part that got no out-edges, which happens only
    without symmetrize."""
    if fill is None:
        fill = lambda p: write_edges(manifest, p, no_edges(manifest.weighted))  # noqa: E731
    have = {int(r["part"]) for r in part_rows}
    rows = list(part_rows) + [fill(p) for p in range(manifest.n_parts) if p not in have]
    manifest.parts = sorted(rows, key=lambda r: int(r["part"]))
    manifest.n_edges_directed = int(sum(r["n_edges"] for r in manifest.parts))
    manifest.save()
    return manifest


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
        build="encoded",
    )
    if symmetrize_edges:
        edges = edges.map_batches(symmetrize, batch_format="pyarrow")

    def write_part(part: int, t: pa.Table) -> dict:
        write_vertices(manifest, part, np.arange(*manifest.part_bounds(part)))
        return write_edges(manifest, part, t)

    # no-sort split/reduce exchange instead of groupby("part") — see
    # stages/exchange.py (same CSR bytes: build_shard_arrays lexsorts)
    part_rows = exchange_reduce(
        edges,
        n_parts,
        lambda t: t["src"].to_numpy() // part_size,
        write_part,
    )
    return finish_manifest(manifest, part_rows, lambda p: write_part(p, no_edges(weighted)))


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
) -> GraphManifest:
    """Full ingest: string-keyed edge Dataset -> on-disk CSR graph.

    ``dedup=False`` preserves input multiplicity (multigraph), matching
    the reference loader; the pages pipeline dedups extracted links
    first (SURVEY.md §2.7). The builder follows from the row count and
    the key count (module docstring); each writes the same graph dir.
    """
    os.makedirs(os.path.join(graph_dir, "vertices"), exist_ok=True)
    os.makedirs(os.path.join(graph_dir, "csr"), exist_ok=True)

    # materialize the key-edges once: they feed both the dictionary and
    # the encode (a lazy chain would re-run extraction per consumer)
    edges_keys = edges_keys.materialize()
    n_rows = edges_keys.count()
    if n_rows == 0:
        raise ValueError("empty edge input — no vertices")
    weighted = "weight" in edges_keys.schema().names

    if n_rows <= LOCAL_BUILD_MAX_ROWS:
        # driver-side builder: each Dataset execution it skips costs
        # 0.02-0.09 s of fixed orchestration on a 1-CPU host, more than
        # the work at this size
        build = "local"
        # to_arrow_refs passes pandas blocks through when the first
        # block is Arrow; a table can mix both (and empty column-less ones)
        table = pa.concat_tables(
            [
                b if isinstance(b, pa.Table) else pa.Table.from_pandas(b, preserve_index=False)
                for b in ray.get(edges_keys.to_arrow_refs())
                if len(b)
            ],
            promote_options="permissive",
        )
        keys, keys_numeric = rank_keys(
            _edge_keys(table, src_col, dst_col)["key"].to_numpy(), n_buckets
        )
        n_vertices = len(keys)
    else:
        # keys_numeric: CC/LP propagate original ids as labels when
        # every key is integral ("component id = min original vertex id").
        keys, n_vertices, keys_numeric, dict_ds = build_dictionary(
            edges_keys, src_col, dst_col, n_buckets
        )
        build = "broadcast" if keys is not None else "join"

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
        build=build,
    )

    if build == "local":
        edges = encode_keys(table, pd.Index(keys), src_col, dst_col)
        if symmetrize_edges:
            edges = symmetrize(edges)
        part_of = edges["src"].to_numpy() // part_size
        part_rows = [
            write_edges(manifest, p, edges.filter(pa.array(part_of == p)), dedup) for p in range(n_parts)
        ]
    else:
        if build == "broadcast":
            edges = encode_edges_broadcast(edges_keys, keys, src_col, dst_col)
        else:
            edges = encode_edges(edges_keys, dict_ds, src_col, dst_col, n_buckets, weighted=weighted)
        if symmetrize_edges:
            edges = edges.map_batches(symmetrize, batch_format="pyarrow")

        # ---- CSR shards: ONE range-partition exchange, side-write per part ----
        # raw split/reduce tasks (stages/exchange.py), NOT groupby("part"):
        # the partition id is pure arithmetic, and the Dataset groupby's
        # sort-based all-to-all pays a serial sample/sort stage the
        # exchange avoids (same rationale as the engine's superstep path).
        # The shuffle keys on src, so every copy of a row meets in one
        # write_edges call and its dedup is global. Shard bytes do not
        # depend on row order — build_shard_arrays lexsorts its rows
        # (asserted by tests/test_ingest.py's builder equality).
        part_rows = exchange_reduce(
            edges,
            n_parts,
            lambda t: t["src"].to_numpy() // part_size,
            lambda p, t: write_edges(manifest, p, t, dedup),
        )

    # ---- vertices/part-*.parquet: (id, key) sorted by id ----------------
    if keys is not None:
        # the dictionary was ranked on the driver: the id-ordered key
        # array is in hand, so the vertex files are plain writes
        for p in range(n_parts):
            lo, hi = manifest.part_bounds(p)
            write_vertices(manifest, p, keys[lo:hi])
    else:

        def write_vertices_part(part: int, t: pa.Table):
            write_vertices(manifest, part, t.to_pandas().sort_values("id", kind="stable")["key"])

        exchange_reduce(dict_ds, n_parts, lambda t: t["id"].to_numpy() // part_size, write_vertices_part)

    return finish_manifest(manifest, part_rows)


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
