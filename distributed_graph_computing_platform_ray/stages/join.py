"""Hash-partitioned relational building blocks on top of Ray Data.

The reference has no relational joins (SURVEY.md §2.4) — the target
engine needs two: exact distinct (link/url dedup, §2.7) and a
large-large equi-join (url->id edge encoding, §7 step 3). Both are
expressed as ONE bucketed exchange each: add a deterministic hash-bucket
column, route rows by bucket (``bucket_map_groups``), and finish the
work per bucket with vectorized pandas/numpy.

Scale notes (100 TB): ``n_buckets`` bounds per-group memory — size it
so (input_rows / n_buckets) rows fit a worker heap; because the bucket
is a pure function of the key, both distinct and join touch each row
exactly once per shuffle. Small-side joins should instead broadcast
(``ray.put`` the lookup once) — see ``broadcast_lookup``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..utils import bucket_of, stable_hash_rows
from .exchange import exchange_map_groups

_BUCKET = "__bucket"
_SIDE = "__side"

def bucket_map_groups(
    keyed: rd.Dataset, n_buckets: int, fn, batch_format: str = "pandas"
) -> rd.Dataset:
    """``keyed.groupby(_BUCKET).map_groups(fn)`` on the no-sort
    split/reduce exchange (stages/exchange.py): the bucket id is already
    a pure hash of the key, so a sort-based all-to-all (and its serial
    sample stage) would buy nothing. Every bucketed kernel runs through
    this; kernels are order-insensitive or sort inside ``fn``."""
    return exchange_map_groups(
        keyed,
        n_buckets,
        lambda t: t[_BUCKET].to_numpy(),
        fn,
        batch_format=batch_format,
    )


def _add_bucket_batch(t: pa.Table, cols: list[str], n_buckets: int) -> pa.Table:
    if len(cols) == 1:
        b = bucket_of(t[cols[0]], n_buckets)
    else:
        df = pd.DataFrame({c: t[c].to_pandas() for c in cols})
        b = (stable_hash_rows(df) % np.uint64(n_buckets)).astype(np.int64)
    return t.append_column(_BUCKET, pa.array(b, pa.int64()))


def add_bucket(ds: rd.Dataset, cols: list[str], n_buckets: int) -> rd.Dataset:
    return ds.map_batches(
        lambda t: _add_bucket_batch(t, cols, n_buckets), batch_format="pyarrow"
    )


def bucket_sum(
    ds: rd.Dataset, key_cols: list[str], sum_cols: list[str], n_buckets: int = 64
) -> rd.Dataset:
    """Exact distributed groupby-sum via hash buckets + ONE vectorized
    pandas reduction per bucket.

    Ray's sort-based ``groupby().aggregate(Sum)`` pays per-GROUP Python
    overhead (~7 ms/group measured on Ray 2.49: a 5,000-group int-keyed
    sum over 160 k rows took 37 s); this pays per BUCKET instead and
    the same reduction runs in ~2 s. Use it whenever the group count is
    more than a few hundred. Exact for any key skew: a key's rows all
    share a bucket; per-bucket memory is bounded by ``n_buckets``
    sizing, not by group count."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(key_cols, as_index=False, sort=False)[sum_cols].sum()
        return out

    return bucket_map_groups(
        add_bucket(ds, key_cols, n_buckets), n_buckets, per_bucket, "pandas"
    )


def distinct(ds: rd.Dataset, cols: list[str], n_buckets: int = 64) -> rd.Dataset:
    """Exact global distinct over ``cols`` (drops other columns).

    One shuffle: bucket by key hash, per-bucket ``drop_duplicates``.
    Distinctness is global because the bucket is a function of the key.
    """

    def predrop(df: pd.DataFrame) -> pd.DataFrame:
        # per-batch dedup BEFORE the shuffle (combiner): repeated keys
        # are collapsed where they are produced, so the one all-to-all
        # moves near-unique rows only
        return df[cols].drop_duplicates()

    def dedup(g: pd.DataFrame) -> pd.DataFrame:
        out = g[cols].drop_duplicates()
        return out.sort_values(cols).reset_index(drop=True)

    return bucket_map_groups(
        add_bucket(
            ds.select_columns(cols).map_batches(predrop, batch_format="pandas"),
            cols,
            n_buckets,
        ),
        n_buckets,
        dedup,
        "pandas",
    )


def distinct_keep_first(
    ds: rd.Dataset, key_cols: list[str], order_col: str, n_buckets: int = 64
) -> rd.Dataset:
    """Exact dedup keeping, per key group, the row minimizing ``order_col``.

    The workhorse of exact document dedup: key on a content hash, keep
    the lowest doc id (deterministic winner).
    """

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([*key_cols, order_col], kind="stable")
        out = g.drop_duplicates(subset=key_cols, keep="first")
        return out.drop(columns=[_BUCKET]).reset_index(drop=True)

    return bucket_map_groups(
        add_bucket(ds, key_cols, n_buckets), n_buckets, keep_first, "pandas"
    )


def bucket_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_on: str,
    right_on: str,
    n_buckets: int = 64,
    how: str = "inner",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    left_dedup_cols: list[str] | None = None,
) -> rd.Dataset:
    """Partitioned hash equi-join of two Datasets in one shuffle.

    Tags each side, unions them (schemas are aligned with null columns),
    buckets on the join key, and runs a pandas merge per bucket.
    Correct because matching keys always share a bucket. For skewed
    keys, raise ``n_buckets`` (hot key cost is bounded by its own group,
    not the whole shuffle).

    Pass ``left_schema``/``right_schema`` when the side is a lazy
    shuffle output: ``Dataset.schema()`` would otherwise EXECUTE that
    plan just to learn column names (a full extra shuffle).
    ``left_dedup_cols`` drops duplicate left rows on those columns per
    bucket — a free global dedup when the columns include the join key
    (same key => same bucket), fusing what would be a separate
    distinct() shuffle into this one.
    """
    def _arrow_type(t) -> pa.DataType:
        # Dataset.schema() may report numpy dtypes for pandas-block
        # datasets; normalize everything to an Arrow type for padding.
        if isinstance(t, pa.DataType):
            return t
        t = np.dtype(t)
        if t == np.dtype("O"):
            return pa.string()
        return pa.from_numpy_dtype(t)

    lschema = left_schema if left_schema is not None else left.schema()
    rschema = right_schema if right_schema is not None else right.schema()
    lcols = [c for c in lschema.names]
    rcols = [c for c in rschema.names if c != right_on]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"bucket_join column overlap: {overlap}")

    all_cols = lcols + rcols  # join key travels in the left_on slot

    def tag(side: int, key_col: str):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols, names = [], []
            for c in all_cols:
                names.append(c)
                src = c
                if side == 1 and c == left_on:
                    src = right_on
                if src in t.column_names:
                    cols.append(t[src])
                else:
                    cols.append(pa.nulls(n, _SCHEMA_TYPES[c]))
            names.append(_SIDE)
            cols.append(pa.array(np.full(n, side, dtype=np.int8)))
            return pa.table(dict(zip(names, cols)))

        return fn

    # Resolve column types up-front so null padding has a concrete type.
    _SCHEMA_TYPES = {}
    for name, typ in zip(lschema.names, lschema.types):
        _SCHEMA_TYPES[name] = _arrow_type(typ)
    for name, typ in zip(rschema.names, rschema.types):
        if name != right_on:
            _SCHEMA_TYPES[name] = _arrow_type(typ)

    tagged = left.map_batches(tag(0, left_on), batch_format="pyarrow").union(
        right.map_batches(tag(1, right_on), batch_format="pyarrow")
    )

    def _restore_types(tbl: pa.Table) -> pa.Table:
        # pa.Table.from_pandas re-infers object columns as string/
        # binary, silently dropping a declared large_string/large_binary
        # — downstream exchanges then fail to concat joined blocks with
        # schema-padded empty blocks. Cast those families back.
        for idx, c in enumerate(tbl.column_names):
            want = _SCHEMA_TYPES.get(c)
            got = tbl.column(idx).type
            if want is None or got == want:
                continue
            if (
                pa.types.is_string(got)
                or pa.types.is_large_string(got)
                or pa.types.is_binary(got)
                or pa.types.is_large_binary(got)
            ):
                tbl = tbl.set_column(idx, c, tbl.column(idx).cast(want))
        return tbl

    def join_bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # Split sides IN ARROW first: each side's own columns are
        # null-free, so pandas keeps exact dtypes (a mixed frame would
        # float-cast int columns through the null padding and silently
        # break hash agreement downstream).
        side = t[_SIDE]
        l = t.filter(pc.equal(side, 0)).select(lcols).to_pandas()
        if left_dedup_cols:
            l = l.drop_duplicates(left_dedup_cols)
        r = (
            t.filter(pc.equal(side, 1))
            .select([left_on, *rcols])
            .to_pandas()
            .rename(columns={left_on: right_on})
        )
        if how == "anti":
            # left rows whose key has NO match on the right — the
            # hash-partitioned form of the broadcast np.isin filter
            # (exact for any scale: a key's rows all share a bucket)
            keep = ~l[left_on].isin(r[right_on].drop_duplicates())
            out = l[keep]
            return _restore_types(
                pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)
            )
        out = l.merge(r, left_on=left_on, right_on=right_on, how=how)
        if right_on != left_on and right_on in out.columns:
            out = out.drop(columns=[right_on])
        return _restore_types(
            pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)
        )

    return bucket_map_groups(
        add_bucket(tagged, [left_on], n_buckets), n_buckets, join_bucket, "pyarrow"
    )


def broadcast_lookup(
    ds: rd.Dataset, mapping: dict | pd.DataFrame, fn: Callable[[pa.Table, object], pa.Table]
) -> rd.Dataset:
    """Small-side join: put the lookup in the object store ONCE and map.

    ``fn(batch, lookup)`` does the per-batch work. This is the 100 TB
    pattern for dimension tables / vocabularies / query matrices — no
    shuffle, no per-batch reserialization of the small side. A worker
    keeps only the newest lookup: a finished call's would otherwise stay
    cached (up to ``ingest.BROADCAST_DICT_LIMIT`` keys) until the worker
    exits.
    """
    ref = ray.put(mapping)
    key = ("broadcast_lookup", ref.hex())

    def lookup_batch(t: pa.Table) -> pa.Table:
        from .taskify import _CACHE, worker_cached

        if key not in _CACHE:
            for k in [k for k in _CACHE if isinstance(k, tuple) and k[0] == key[0]]:
                del _CACHE[k]
        return fn(t, worker_cached(key, lambda: ray.get(ref)))

    return ds.map_batches(lookup_batch, batch_format="pyarrow")
