"""No-sort arithmetic partition exchange over a Dataset's blocks.

``Dataset.groupby(part)`` is a sort-based all-to-all whose plan runs a
serial sample/sort stage (measured at ~30 s per superstep at 22 M rows
— the reason the BSP engine's per-superstep exchange dropped to raw Ray
tasks, see engine.py:255-268). When the partition id is pure arithmetic
over a KNOWN bounded range [0, n_parts), the exchange is expressible
without any sort: per-input-block SPLIT tasks return one chunk per
destination partition (``num_returns=n_parts``) and one REDUCE task per
partition consumes exactly its chunks. This module generalizes the
engine's pattern to any Dataset consumer (CSR shard build, vertices
write, partitioned sinks).

Scale assumptions (same as the engine's): n_parts is O(cluster cores),
not O(rows) — a split creates n_parts small objects per input block, so
B blocks produce B*n_parts objects; size blocks so B stays O(10^4)
(DataContext.target_max_block_size). Reducers must be given a
deterministic-order chunk list (block order, which this preserves) or
sort internally — every caller here sorts (build_shard_arrays lexsorts,
vertices sort by id), so results do not depend on block order (the
driver-side builder writes the same bytes — tests/test_ingest.py).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd


def exchange_reduce(
    ds: rd.Dataset,
    n_parts: int,
    part_of: Callable[[pa.Table], np.ndarray],
    reduce_fn: Callable[[int, pa.Table], Any],
) -> list:
    """Route every row of ``ds`` to ``part_of(batch)`` ∈ [0, n_parts)
    and run ``reduce_fn(part, table)`` once per non-empty partition.

    Returns the list of non-None ``reduce_fn`` results (order: by
    partition id). No sort-shuffle: one pass of split tasks + one
    reduce task per partition, exactly the engine's superstep exchange
    shape. ``reduce_fn`` sees its partition's rows concatenated in
    upstream block order (deterministic for a deterministic plan).
    """

    @ray.remote
    def reduce_task(part, *chunks):
        tabs = [c for c in chunks if c is not None]
        if not tabs:
            return None
        return reduce_fn(part, pa.concat_tables(tabs, promote_options="default"))

    per_part = _launch_splits(ds, n_parts, part_of)
    pending = [
        reduce_task.remote(p, *per_part[p])
        for p in range(n_parts)
        if per_part[p]
    ]
    return [r for r in ray.get(pending) if r is not None]


# Object-count governor: a split makes n_parts returns, so B input
# blocks create B*n_parts objects. Past this many split tasks the
# launcher starts grouping input blocks (group size doubles each time
# the cap is re-hit), bounding total objects at ~cap*log(B)*n_parts
# regardless of input block count — the knob that keeps a 100 TB input
# (10^5-10^6 blocks) from flooding the object directory.
_MAX_SPLIT_TASKS = 2048


def _make_split_task(n_parts: int, part_of):
    @ray.remote
    def split_task(*blocks):
        tabs = [
            b if isinstance(b, pa.Table) else pa.Table.from_pandas(b, preserve_index=False)
            for b in blocks
        ]
        t = tabs[0] if len(tabs) == 1 else pa.concat_tables(tabs, promote_options="default")
        if t.num_rows == 0:
            return [None] * n_parts if n_parts > 1 else None
        parts = np.asarray(part_of(t), dtype=np.int64)
        if parts.size and (parts.min() < 0 or parts.max() >= n_parts):
            # a negative id would silently wrap via Python indexing
            # (out[-1] misroutes rows to the last partition); fail loud
            raise ValueError(
                f"part_of produced partition ids in [{parts.min()}, "
                f"{parts.max()}] outside [0, {n_parts})"
            )
        order = np.argsort(parts, kind="stable")
        ts = t.take(pa.array(order))
        ps = parts[order]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(ps)) + 1, [len(ps)]])
        out: list = [None] * n_parts
        for i in range(len(starts) - 1):
            a, b = int(starts[i]), int(starts[i + 1])
            if a < b:
                out[int(ps[a])] = ts.slice(a, b - a)
        # with num_returns == 1 Ray passes the return list through
        # verbatim (same quirk the engine's scatter_task unwraps)
        return out[0] if n_parts == 1 else out

    return split_task.options(num_returns=n_parts)


def _launch_splits(ds, n_parts: int, part_of) -> list[list]:
    """Stream the upstream plan's blocks into split tasks (launched as
    blocks arrive), grouping blocks adaptively past _MAX_SPLIT_TASKS.
    Block order is preserved through grouping, so reducers still see
    their rows in deterministic upstream order."""
    split_task = _make_split_task(n_parts, part_of)
    per_part: list[list] = [[] for _ in range(n_parts)]
    buf: list = []
    group_size = 1
    launched = 0

    def flush():
        nonlocal launched, group_size
        if not buf:
            return
        refs = split_task.remote(*buf)
        buf.clear()
        if n_parts == 1:
            refs = [refs]
        for p, r in enumerate(refs):
            per_part[p].append(r)
        launched += 1
        if launched % _MAX_SPLIT_TASKS == 0:
            group_size *= 2

    for bundle in ds.iter_internal_ref_bundles():
        for bref in bundle.block_refs:
            buf.append(bref)
            if len(buf) >= group_size:
                flush()
    flush()
    return per_part


def exchange_map_groups(
    ds: rd.Dataset,
    n_parts: int,
    part_of: Callable[[pa.Table], np.ndarray],
    fn: Callable,
    *,
    batch_format: str = "pandas",
) -> rd.Dataset:
    """``groupby(part).map_groups(fn)`` without the sort shuffle.

    Same split/reduce shape as :func:`exchange_reduce`, but each
    reduce's output table becomes a block of the RETURNED Dataset
    (``from_arrow_refs`` — the tables never visit the driver). ``fn``
    sees one partition's rows concatenated in upstream block order, as
    a pandas DataFrame (``batch_format="pandas"``) or pyarrow Table;
    callers whose kernels are order-sensitive must sort inside ``fn``
    (the bucket kernels in stages/join.py all do, or are reductions).

    EAGER, unlike the groupby chain: the upstream plan executes inside
    this call and the result is a materialized-in-object-store Dataset.
    Downstream chaining works normally; re-consumption is free (no
    plan re-execution).
    """

    @ray.remote(num_returns=2)
    def reduce_task(part, *chunks):
        tabs = [c for c in chunks if c is not None]
        if not tabs:
            return None, -1  # -1: no rows even reached this partition
        t = pa.concat_tables(tabs, promote_options="default")
        if batch_format == "pandas":
            out = fn(t.to_pandas())
        else:
            out = fn(t)
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out.reset_index(drop=True), preserve_index=False)
        # blocks without pandas' schema metadata: Ray cannot hash that
        # dict when it unifies the returned blocks' schemas
        out = out.replace_schema_metadata(None)
        return out, out.num_rows

    per_part = _launch_splits(ds, n_parts, part_of)
    tab_refs, n_refs = [], []
    for p in range(n_parts):
        if per_part[p]:
            tr, nr = reduce_task.remote(p, *per_part[p])
            tab_refs.append(tr)
            n_refs.append(nr)
    if not tab_refs:
        return rd.from_items([])
    ns = ray.get(n_refs)
    keep = [r for r, n in zip(tab_refs, ns) if n > 0]
    if not keep:
        # keep one (empty) fn output so the schema survives — empty
        # Datasets created blockless lose their schema (NOTES.md)
        empties = [r for r, n in zip(tab_refs, ns) if n == 0]
        if not empties:
            return rd.from_items([])
        keep = [empties[0]]
    return rd.from_arrow_refs(keep)
