"""The BSP superstep engine: scatter, one message exchange, apply.

Reference control flow (SURVEY.md §3.1): a master broadcasts RUN each
superstep, 7 workers run per-vertex Compute over their partition,
exchange messages over an N x N TCP mesh, and ACK back
(/root/reference/master/master.go:391-453, worker/worker.go:248-318) —
with sleeps papering over an async flush race (§2.9). Here vertex ids
are range-partitioned into P parts, and a partition's superstep s is
one step (``_step_core``), the reference worker's own loop:

  apply: reduce its P inbox chunks (sum/min/vote/or) and apply the
      vectorized update (``_apply_core``);
  scatter: expand the active vertices' CSR rows, in the shard's cached
      destination order, into the messages of s + 1, ALREADY combined
      per destination (a true combiner; the reference's "combiner"
      only batches, never aggregates, worker/worker.go:397-421), one
      chunk per destination partition (``_scatter_core``). A
      hub-heavy partition cuts that order into edge slices, and its
      slices >= 1 scatter on their own.
      At a checkpoint chunk's last superstep the step writes the
      partition's checkpoint file instead.

Two executors run the same steps in the same order (``_run_chunk``),
with bit-identical results; ``BSPEngine.run`` picks one per run from
the graph's size and records the choice in ``run.json``:

  local   graphs up to ``LOCAL_MAX_EDGES`` directed edges: each
          checkpoint chunk of supersteps is ONE Ray task. Below the
          crossover the task executor's P tasks per superstep cost
          more than the kernels they run (McSherry et al.,
          "Scalability! But at what COST?", HotOS 2015).
  tasks   bigger graphs: each step is a Ray task returning its state,
          stats and P message chunks, so the exchange is an exact
          barrier through the object store. A chunk of k supersteps is
          P(k + 1) tasks (a scatter per partition opens it), plus one
          scatter per extra hub slice per superstep.

Checkpoint/resume: ``state/iter=K`` dirs are immutable, one
``part-NNNNN.parquet`` per partition, completed by a ``_DONE.json``
marker ``BSPEngine.run`` writes; ``resume=True`` restarts from the
newest complete one, whichever executor wrote it, and fails with
``CheckpointError`` if that iter is missing a part or holds a short
one (the reference restarts the whole job from superstep 0 on any
failure, master/master.go:431-445 — this engine loses at most
``checkpoint_interval - 1`` supersteps).

Scale: per chunk, ``run`` receives only P small stats; state and
combined messages move through the object store (spill-backed); CSR
shards are mmap'd per worker process (state/csr.py). Each shard a
worker scatters also keeps its edges in destination order, 12 B per
edge (20 B weighted), for the graph the worker runs now only. At 10^12
vertices raise n_parts so each partition's state (~16 B/vertex), CSR
shard and that order fit a worker heap.
"""

from __future__ import annotations

import os
import re
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .algorithms import Algorithm
from .state.csr import load_shard, load_vertex_keys, load_vertex_keys_numeric
from .state.manifest import GraphManifest
from .utils import atomic_write_json, atomic_write_parquet


def _combine_at(algo, superstep: int) -> str:
    """The combiner for one superstep: algorithms may vary it by phase
    via an optional ``combine_for(superstep)`` (e.g. graph coloring's
    min-priority phase A / bitwise-OR color-mask phase B); plain
    algorithms just expose the ``combine`` attribute."""
    fn = getattr(algo, "combine_for", None)
    return fn(superstep) if fn is not None else algo.combine


def _vote_key(d: np.ndarray, v: np.ndarray):
    """(destination, label) rows packed into ONE int64 sort key
    ``(d - d0) << 32 | v`` whose order is the (d, v) order, returned with
    d0 = d.min(); None unless every label is an integer in [0, 2^32)
    other than -0.0 and d spans less than 2^31 (negative, fractional,
    NaN or wide labels keep ``np.lexsort((v, d))``). Rows with equal
    keys are equal, so even an unstable sort of the key orders them as
    the lexsort does."""
    if len(d) == 0:
        return None
    d0 = d.min()
    if (
        d.max() - d0 >= 1 << 31
        or not ((v >= 0) & (v < 1 << 32) & (v == np.floor(v))).all()
        or np.signbit(v).any()
    ):
        return None
    return ((d - d0).astype(np.int64) << 32) | v.astype(np.int64), d0


def _combine_block(combine: str, dst: np.ndarray, val: np.ndarray):
    """In-block message combiner over messages already in stable
    destination order (``_scatter_core`` emits them so) — deterministic.
    Returns (dst, value, count)."""
    if len(dst) == 0:
        return dst, val, np.zeros(0, dtype=np.int64)
    if combine == "vote":
        packed = _vote_key(dst, val)
        if packed is None:
            order = np.lexsort((val, dst))
            d, v = dst[order], val[order]
        else:
            key = np.sort(packed[0])
            d, v = (key >> 32) + packed[1], (key & 0xFFFFFFFF).astype(np.float64)
        boundary = np.ones(len(d), dtype=bool)
        boundary[1:] = (d[1:] != d[:-1]) | (v[1:] != v[:-1])
        starts = np.flatnonzero(boundary)
        cnt = np.add.reduceat(np.ones(len(d), dtype=np.int64), starts)
        return d[starts], v[starts], cnt
    boundary = np.ones(len(dst), dtype=bool)
    boundary[1:] = dst[1:] != dst[:-1]
    starts = np.flatnonzero(boundary)
    if combine == "bor":
        # bitwise OR over integer-valued payloads (< 2^53, exact)
        red = np.bitwise_or.reduceat(val.astype(np.int64), starts).astype(np.float64)
        return dst[starts], red, np.zeros(len(starts), dtype=np.int64)
    if combine == "sum":
        red = np.add.reduceat(val, starts)
    else:
        red = np.minimum.reduceat(val, starts)
        # which of 0.0 / -0.0 ``minimum.reduceat`` keeps depends on the
        # run's length (its SIMD lanes): as in ``_reduce_messages``, a
        # zero minimum is -0.0 if any -0.0 arrived
        if np.signbit(val).any():
            red[(red == 0) & np.logical_or.reduceat((val == 0) & np.signbit(val), starts)] = -0.0
    return dst[starts], red, np.zeros(len(starts), dtype=np.int64)


def _reduce_messages(combine: str, n_local: int, lo: int, dst, val, cnt):
    """Cross-block final reduction of the sparse triples into dense
    per-local-vertex arrays, whatever the triples' arrival order: ``min``
    and ``bor`` fold them in place (``ufunc.at``), and ``sum`` sorts
    them by (destination, value) first, so its float sums do not depend
    on that order either.
    A vote picks, per destination, the label with the highest summed
    count, ties to the lowest label. Dense chunks are added by
    ``_apply_core``, in arrival order."""
    dst = dst - lo
    has = np.zeros(n_local, dtype=bool)
    if combine == "vote":
        if len(dst) == 0:
            return np.zeros(n_local), has
        packed = _vote_key(dst, val)
        # the inbox is P chunks, each sorted by (d, v): a stable sort
        # merges those runs
        order = (
            np.lexsort((val, dst)) if packed is None else np.argsort(packed[0], kind="stable")
        )
        d, v, c = dst[order], val[order], cnt[order]
        boundary = np.ones(len(d), dtype=bool)
        boundary[1:] = (d[1:] != d[:-1]) | (v[1:] != v[:-1])
        starts = np.flatnonzero(boundary)
        d, v = d[starts], v[starts]
        c = np.add.reduceat(c, starts)
        # rows are in (d, v) order: each d's winner is its FIRST row
        # holding the d's highest count
        first = np.ones(len(d), dtype=bool)
        first[1:] = d[1:] != d[:-1]
        gs = np.flatnonzero(first)
        top = np.repeat(np.maximum.reduceat(c, gs), np.diff(np.append(gs, len(d))))
        win = np.flatnonzero(c == top)
        keep = np.ones(len(win), dtype=bool)
        keep[1:] = d[win[1:]] != d[win[:-1]]
        win = win[keep]
        agg = np.zeros(n_local)
        agg[d[win]] = v[win]
        has[d[win]] = True
        return agg, has
    if combine == "min":
        agg = np.full(n_local, np.inf)
        np.minimum.at(agg, dst, val)
        # a zero minimum is -0.0 if any -0.0 arrived (IEEE 754
        # ``minimum``), whichever zero ``minimum.at`` kept last
        z = dst[(val == 0) & np.signbit(val)]
        agg[z[agg[z] == 0]] = -0.0
    elif combine == "bor":
        # bitwise OR over integer-valued payloads (< 2^53, exact)
        acc = np.zeros(n_local, dtype=np.int64)
        np.bitwise_or.at(acc, dst, val.astype(np.int64))
        agg = acc.astype(np.float64)
    else:
        agg = np.zeros(n_local)
        order = np.lexsort((val, dst))
        d, v = dst[order], val[order]
        boundary = np.ones(len(d), dtype=bool)
        boundary[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(boundary)
        agg[d[starts]] = np.add.reduceat(v, starts)
    has[dst] = True
    return agg, has


# ---------------------------------------------------------------------------
# The exchange. WHY not a Dataset groupby (measured, see BASELINE.md):
# the partition function is pure arithmetic (dst // part_size) over a
# KNOWN part count, but groupby can only express it as a sort-based
# all-to-all — which ran a serial sample/sort stage of ~30s per
# superstep at 22M message rows and did not speed up 8->32 CPUs. So
# scatter returns one pre-combined message chunk PER DESTINATION
# PARTITION and apply consumes exactly its partition's chunks.
# Partitioning assumption: contiguous id ranges, n_parts fixed for the
# graph's lifetime; at P partitions a superstep creates P^2 small
# objects on the task executor — size P to O(cluster cores), not
# O(vertices).


# Hub/skew mitigation (the north_rule's "vertex splitting"): a
# partition whose CSR shard holds more than this many directed edges
# scatters as ceil(n_edges / SCATTER_SPLIT_EDGES) tasks (capped at 16),
# each taking a disjoint range of the shard's cached destination order
# (``CSRShard.by_dst``), no copy and no sort — so one web-scale hub
# whose adjacency dominates its partition no longer serializes the
# superstep behind a single straggler task. Apply-side reduction is
# chunk-shape-agnostic (it already sums chunks from P source
# partitions), so slicing is invisible to results up to float summation
# order: exact-integer-valued algorithms (CC, LP, BFS, counts) are
# bit-identical; float algorithms (PageRank) agree to ~1 ulp per merge
# (tests/test_scatter_split.py asserts both). The reference has no
# counterpart — each worker loops its full vertex set in one goroutine
# batch per superstep (worker/worker.go:248-318), so a hub pins one
# worker for the whole superstep.
SCATTER_SPLIT_EDGES = 8_000_000
MAX_SCATTER_SLICES = 16

# Executor crossover: a graph with at most this many directed edges
# runs each checkpoint chunk as ONE Ray task (``_chunk_local``); above
# it every superstep fans out as P step tasks. Measured with the
# sort-free scatter, PageRank-10 and LP-10 on perfbench/gen.py powerlaw
# graphs (4 parts, num_cpus=4, tasks / local): at 377k edges PR 0.13 /
# 0.08 s and LP 0.27 / 0.28 (local faster on the pair), at 468k local
# was 4% faster on the pair in one sweep and 5% slower in another, at
# 559k it was slower (LP 0.27 / 0.37) — so
# the limit is the largest size where local is no slower, not the
# 1-CPU crossover, which lies above 1.09M (README "Two executors").
LOCAL_MAX_EDGES = 375_000


def plan_scatter_slices(manifest) -> list[int]:
    """Per-partition scatter-task counts from the manifest's per-part
    edge counts (no shard I/O). 1 everywhere unless a partition's edge
    count exceeds SCATTER_SPLIT_EDGES; a cap of 0 disables splitting."""
    if SCATTER_SPLIT_EDGES <= 0:
        return [1] * manifest.n_parts
    ec = {int(r["part"]): int(r.get("n_edges", 0)) for r in manifest.parts}
    return [
        min(MAX_SCATTER_SLICES, max(1, -(-ec.get(p, 0) // SCATTER_SPLIT_EDGES)))
        for p in range(manifest.n_parts)
    ]


def _scatter_core(manifest, algo, superstep, ids, values, active, slice_idx=0, n_slices=1):
    """One partition's outgoing messages, pre-combined and split per
    destination partition; ``ids`` is the partition's whole id range.
    The messages follow the shard's cached destination order
    (``CSRShard.by_dst``), so no superstep sorts. This call takes
    entries [slice_idx*E//n_slices, (slice_idx+1)*E//n_slices) of that
    order, the whole of it when unsplit (hub splitting; see
    SCATTER_SPLIT_EDGES), and only slice 0 carries the aggregator
    partial.

    Returns a list with one entry per destination partition:
      None                    no messages for that partition
      ("dense", vec, has)     sum-combined DENSE vector over that ONE
                              destination partition's local id range
                              (one bincount, no sorts) plus an exact
                              bool received-a-message mask; chosen
                              per destination when this task's message
                              count into that partition justifies it.
                              Memory is O(part_size) per task — never
                              O(N); at 10^9 vertices / 1024 parts a
                              dense chunk is ~9 MB, not 8 GB.
      ("sparse", d, v, c)     combined sparse triples (sorted by dst)
    """
    part_size = manifest.part_size
    n_parts = manifest.n_parts
    out = [None] * n_parts
    p = int(ids[0]) // part_size if len(ids) else 0
    shard = load_shard(manifest, p)

    def _wrap(chunks):
        # Pregel-style aggregator: attach this partition's SUM-mergeable
        # partial (over ALL local vertices) to every destination chunk;
        # apply sums the P partials — exact global value, no extra sync.
        # With edge-sliced scatter only slice 0 carries the partial
        # (the partial is a per-PARTITION vertex statistic; emitting it
        # from every slice would multiply it by n_slices).
        if getattr(algo, "scatter_aggregate", None) is None:
            return chunks
        if slice_idx != 0:
            return [(c, 0.0) for c in chunks]
        loc_all = ids - shard.lo
        deg_all = (shard.indptr[loc_all + 1] - shard.indptr[loc_all]).astype(
            np.int64
        )
        gp = float(algo.scatter_aggregate(ids, values, deg_all, superstep))
        return [(c, gp) for c in chunks]

    # scatter_all: active flags drive HALTING only — every vertex keeps
    # sending (tolerance-halted fixed-recurrence algorithms, where
    # freezing a sender would corrupt the sum)
    sel = np.ones(len(ids), dtype=bool) if getattr(algo, "scatter_all", False) else active
    if not sel.any():
        return _wrap(out)
    sel_ids = ids[sel]
    local = sel_ids - shard.lo
    if getattr(algo, "use_weighted_degrees", False):
        degs = shard.weighted_degrees()[local]
    else:
        degs = (shard.indptr[local + 1] - shard.indptr[local]).astype(np.int64)
    if getattr(algo, "wants_keys", False):
        keys = load_vertex_keys_numeric(manifest, p)[local]
        so = algo.message_base(sel_ids, values[sel], degs, superstep, keys=keys)
    else:
        so = algo.message_base(sel_ids, values[sel], degs, superstep)
    # slice ``slice_idx`` of the shard's cached destination order
    # (state/csr.py): destination partitions are contiguous runs, each
    # destination's messages in (source row, edge) order, sorted once
    # per graph, not per superstep
    rows, dst, w = shard.by_dst()
    e_lo, e_hi = slice_idx * len(dst) // n_slices, (slice_idx + 1) * len(dst) // n_slices
    row_per_edge, ds = rows[e_lo:e_hi], dst[e_lo:e_hi]
    w = w[e_lo:e_hi] if w is not None else None
    if len(local) < shard.n_local:
        keep = sel[row_per_edge]
        row_per_edge, ds = row_per_edge[keep], ds[keep]
        w = w[keep] if w is not None else None
        # local row -> its index among the senders (so.base's rows)
        row_per_edge = (np.cumsum(sel) - 1)[row_per_edge]
    if len(ds) == 0:
        return _wrap(out)
    vs = np.asarray(so.base, dtype=np.float64)[row_per_edge]
    if so.add_edge_weight:
        vs = vs + (w if w is not None else 1.0)
    elif so.mul_edge_weight and w is not None:
        vs = vs * w
    elif so.max_edge_weight and w is not None:
        vs = np.maximum(vs, w)
    elif so.max_neg_edge_weight and w is not None:
        vs = np.maximum(vs, -w)

    # each destination partition's run independently picks dense vs
    # sparse based on ITS density, so a task allocates at most
    # O(part_size) per touched destination instead of O(N) for the
    # whole vertex space.
    bounds = np.searchsorted(ds, np.arange(n_parts + 1, dtype=np.int64) * part_size)
    for q in range(n_parts):
        lo_i, hi_i = int(bounds[q]), int(bounds[q + 1])
        if hi_i <= lo_i:
            continue
        qlo, qhi = manifest.part_bounds(q)
        seg_d, seg_v = ds[lo_i:hi_i], vs[lo_i:hi_i]
        if _combine_at(algo, superstep) == "sum" and (hi_i - lo_i) >= (qhi - qlo) // 4:
            local = seg_d - qlo
            dense = np.bincount(local, weights=seg_v, minlength=qhi - qlo)
            has = np.bincount(local, minlength=qhi - qlo) > 0
            out[q] = ("dense", dense, has)
        else:
            dd, vv, cc = _combine_block(_combine_at(algo, superstep), seg_d, seg_v)
            out[q] = ("sparse", dd, vv, cc)
    return _wrap(out)


def _apply_core(manifest, algo, superstep, ids, values, msg_chunks):
    """Reduce this partition's inbox chunks (dense and/or sparse) and
    apply the update. Dense chunks carry an exact received-a-message
    mask, so has_msg is exact for every combiner (a sum that cancels
    to 0 still counts as a message — the engine contract). Also returns
    the inbox's wire rows (run.json history.msg_rows: vector length per
    dense chunk, triples per sparse one), which show the combiner keeping
    message volume at O(parts x part_size), not O(edges)."""
    p = int(ids[0]) // manifest.part_size
    lo, hi = manifest.part_bounds(p)
    n_local = hi - lo
    gsum = 0.0
    if getattr(algo, "scatter_aggregate", None) is not None:
        # aggregator channel: each chunk is (payload, partial); the sum
        # of the P partials is the exact global aggregate this superstep
        gsum = float(sum(g for (_c, g) in msg_chunks))
        msg_chunks = [c for (c, _g) in msg_chunks]
    dense_acc = None
    dense_has = None
    sp_d, sp_v, sp_c = [], [], []
    wire_rows = 0
    for m in msg_chunks:
        if m is None:
            continue
        wire_rows += len(m[1])
        if m[0] == "dense":
            vec = m[1][:n_local]
            hv = m[2][:n_local]
            if dense_acc is None:
                dense_acc = vec.astype(np.float64, copy=True)
                dense_has = hv.copy()
            else:
                dense_acc += vec
                dense_has |= hv
        else:
            sp_d.append(m[1])
            sp_v.append(m[2])
            sp_c.append(m[3])
    if sp_d:
        dst = np.concatenate(sp_d)
        val = np.concatenate(sp_v)
        cnt = np.concatenate(sp_c)
    else:
        dst = np.empty(0, dtype=np.int64)
        val = np.empty(0)
        cnt = np.empty(0, dtype=np.int64)
    agg, has_msg = _reduce_messages(_combine_at(algo, superstep), n_local, lo, dst, val, cnt)
    if dense_acc is not None:  # only possible for 'sum'
        agg = agg + dense_acc
        has_msg = has_msg | dense_has
    kw = {}
    if getattr(algo, "wants_ids", False):
        kw["ids"] = ids
    if getattr(algo, "wants_keys", False):
        kw["keys"] = load_vertex_keys_numeric(manifest, p)[ids - lo]
    if getattr(algo, "wants_degrees", False):
        kw["degrees"] = np.diff(load_shard(manifest, p).indptr)[ids - lo]
    if getattr(algo, "wants_aggregate", False):
        kw["global_agg"] = gsum
    new_values, new_active, _ = algo.apply(values, agg, has_msg, superstep, **kw)
    return new_values, new_active.astype(bool), wire_rows


class CheckpointError(RuntimeError):
    """A checkpoint marked complete whose part file is missing, unreadable
    or holds the wrong number of rows."""


def _part_path(iter_dir: str, part: int) -> str:
    return os.path.join(iter_dir, f"part-{part:05d}.parquet")


def _write_part(man, iter_dir, part, values, active) -> None:
    lo, hi = man.part_bounds(part)
    atomic_write_parquet(
        _part_path(iter_dir, part),
        pa.table(
            {
                "id": pa.array(np.arange(lo, hi, dtype=np.int64)),
                "value": pa.array(values, pa.float64()),
                "active": pa.array(active, pa.bool_()),
            }
        ),
    )


def _part_state(man, algo, iter_dir, part):
    """One partition's (values, active): ``algo.init`` written to
    ``iter_dir`` when ``algo`` is given, else read back from it."""
    if algo is not None:
        lo, hi = man.part_bounds(part)
        values, active = algo.init(
            np.arange(lo, hi, dtype=np.int64),
            man.n_vertices,
            keys=load_vertex_keys(man, part),
            keys_numeric=man.keys_numeric,
        )
        values = np.asarray(values, dtype=np.float64)
        active = np.asarray(active, dtype=bool)
        _write_part(man, iter_dir, part, values, active)
        return values, active
    t = pq.read_table(_part_path(iter_dir, part))
    order = np.argsort(t["id"].to_numpy(), kind="stable")
    return (
        t["value"].to_numpy()[order].astype(np.float64),
        t["active"].to_numpy(zero_copy_only=False)[order].astype(bool),
    )


def _step_core(man, algo, s, part, state, inbox, n_slices, iter_dir):
    """Partition ``part``'s superstep ``s``: reduce its inbox and apply,
    then scatter slice 0 of superstep ``s + 1`` from the new state — or,
    with ``iter_dir`` given (the chunk's last superstep), write the
    partition's checkpoint file there instead. Returns ``((values,
    active), (n_active, inbox wire rows), *chunks)``: P outgoing chunks,
    none after a checkpoint."""
    ids = np.arange(*man.part_bounds(part), dtype=np.int64)
    values, active, rows = _apply_core(man, algo, s, ids, state[0], inbox)
    stats = (int(active.sum()), rows)
    if iter_dir is not None:
        _write_part(man, iter_dir, part, values, active)
        return (values, active), stats
    out = _scatter_core(man, algo, s + 1, ids, values, active, 0, n_slices)
    return (values, active), stats, *out


def _run_chunk(slices, s0, k_steps, state, scatter, step):
    """The one superstep order of both executors (``scatter`` and ``step``
    return values on ``local``, object refs on ``tasks``): a scatter per
    (partition, slice) of superstep ``s0``, then per superstep a step per
    partition q over every chunk for q in (partition, slice) order. A
    step's slice-0 chunks feed the next superstep; slices >= 1 scatter
    again. Returns the new states and the chunk-final steps' stats."""
    P = len(slices)
    outs = [scatter(p, j, s0, state[p]) for p in range(P) for j in range(slices[p])]
    for s in range(s0, s0 + k_steps):
        last = s == s0 + k_steps - 1
        steps = [step(q, s, state[q], [o[q] for o in outs], last) for q in range(P)]
        state = [r[0] for r in steps]
        if not last:
            outs = [
                steps[p][2:] if j == 0 else scatter(p, j, s + 1, state[p])
                for p in range(P)
                for j in range(slices[p])
            ]
    return state, [r[1] for r in steps]


def _chunk_local(man, algo, superstep, k_steps, slices, state, iter_dir):
    """``k_steps`` supersteps over all P partitions in this process, their
    checkpoint written into ``iter_dir``; returns a list of P ``(values,
    active)`` and one of P ``(n_active, wire rows)``."""
    ids = [np.arange(*man.part_bounds(p), dtype=np.int64) for p in range(man.n_parts)]
    return _run_chunk(
        slices, superstep, k_steps, state,
        lambda p, j, s, st: _scatter_core(man, algo, s, ids[p], *st, j, slices[p]),
        lambda q, s, st, inbox, last: _step_core(
            man, algo, s, q, st, inbox, slices[q], iter_dir if last else None
        ),
    )


def _core_tasks():
    """Lazily-defined Ray remote wrappers (module import must not
    require an initialized Ray)."""
    import ray

    global _TASKS
    try:
        return _TASKS
    except NameError:
        pass

    @ray.remote
    def scatter_task(man, algo, superstep, part, state, slice_idx, n_slices):
        ids = np.arange(*man.part_bounds(part), dtype=np.int64)
        out = _scatter_core(man, algo, superstep, ids, *state, slice_idx, n_slices)
        # num_returns == n_parts: with ONE partition Ray hands the single
        # return through verbatim, so unwrap — otherwise the step would
        # see the list instead of the chunk (caught by a hypothesis test
        # on a single-vertex graph)
        return out[0] if len(out) == 1 else out

    @ray.remote
    def step_task(man, algo, superstep, part, state, n_slices, iter_dir, *inbox):
        # num_returns: 2 with ``iter_dir`` (the checkpoint step), else P + 2
        return _step_core(man, algo, superstep, part, state, inbox, n_slices, iter_dir)

    @ray.remote(num_returns=2)
    def state_task(man, algo, iter_dir, part):
        """Init (``algo`` given) or load one partition's state, or with
        ``part=None`` all P as a list; the second return is a small ack
        ``run`` waits on before marking an init complete."""
        if part is None:
            return [_part_state(man, algo, iter_dir, p) for p in range(man.n_parts)], True
        return _part_state(man, algo, iter_dir, part), True

    chunk_task = ray.remote(num_returns=2)(_chunk_local)

    _TASKS = scatter_task, step_task, state_task, chunk_task
    return _TASKS


class BSPEngine:
    """Driver-side superstep loop — the reference master's role
    (master/master.go:391-453) with the barrier provided by the
    exchange instead of ACK counting + sleeps.

    Per run it picks one of two executors with IDENTICAL kernels and
    bit-identical results (see the module docstring):
      "local"  ``n_edges_directed <= LOCAL_MAX_EDGES``: one Ray task per
               checkpoint chunk runs every partition's steps
      "tasks"  bigger graphs: one step task per partition per superstep,
               plus a scatter task per (partition, slice) opening each
               chunk and per extra hub slice each superstep
    In both, the chunk-final steps write the chunk's checkpoint files.
    ``run`` itself keeps the rest for both: ``_DONE.json`` markers,
    ``keep_iters`` pruning, convergence, history and ``run.json``.
    """

    def __init__(self, manifest: GraphManifest, work_dir: str, keep_iters: int | None = None):
        self.manifest = manifest
        self.work_dir = work_dir
        self.state_root = os.path.join(work_dir, "state")
        self.keep_iters = keep_iters  # None = keep every checkpoint

    def iter_dir(self, k: int) -> str:
        return os.path.join(self.state_root, f"iter={k:04d}")

    def _complete_iters(self) -> list[int]:
        if not os.path.isdir(self.state_root):
            return []
        out = []
        for name in os.listdir(self.state_root):
            m = re.fullmatch(r"iter=(\d+)", name)
            if m and os.path.exists(os.path.join(self.state_root, name, "_DONE.json")):
                out.append(int(m.group(1)))
        return sorted(out)

    def _check_checkpoint(self, k: int) -> None:
        """Every part file of iter ``k`` exists, reads as Parquet, and
        holds one row per vertex of its partition — else CheckpointError."""
        man = self.manifest
        for p in range(man.n_parts):
            path = _part_path(self.iter_dir(k), p)
            try:
                rows = pq.ParquetFile(path).metadata.num_rows
            except (OSError, pa.ArrowException) as e:
                raise CheckpointError(f"checkpoint part {path} is unreadable: {e}") from e
            if rows != man.part_n_local(p):
                raise CheckpointError(
                    f"checkpoint part {path} holds {rows} rows, expected {man.part_n_local(p)}"
                )

    def run(
        self,
        algo: Algorithm,
        resume: bool = False,
        checkpoint_interval: int = 1,
    ) -> int:
        """Run to termination; returns the final iteration index.

        ``checkpoint_interval`` supersteps run per execution chunk;
        convergence (for halting algorithms) is evaluated at chunk
        boundaries — sound because a converged state is a fixpoint
        (extra supersteps emit no messages and change nothing).
        ``resume=True`` continues from the newest complete checkpoint.
        """
        import ray

        _scatter_t, _step_t, state_t, chunk_t = _core_tasks()
        man = self.manifest
        P = man.n_parts
        slices = plan_scatter_slices(man)
        local = man.n_edges_directed <= LOCAL_MAX_EDGES

        done = self._complete_iters() if resume else []
        if done:
            s = done[-1]
            self._check_checkpoint(s)
        else:
            if os.path.isdir(self.state_root):
                shutil.rmtree(self.state_root)
            os.makedirs(self.iter_dir(0))
            s = 0

        man_ref = ray.put(man)
        algo_ref = ray.put(algo)
        # local: one ref holding all P (values, active); tasks: P refs
        pending = [
            state_t.remote(man_ref, None if done else algo_ref, self.iter_dir(s), p)
            for p in ([None] if local else range(P))
        ]
        state_refs = [st for st, _ack in pending]
        if not done:
            ray.get([ack for _st, ack in pending])
            atomic_write_json(
                os.path.join(self.iter_dir(0), "_DONE.json"),
                {"superstep": -1, "algo": algo.name, "n_active": int(man.n_vertices)},
            )

        max_s = algo.max_supersteps()
        history = []
        while True:
            if max_s is not None and s >= max_s:
                break
            t_chunk = time.time()
            k_steps = checkpoint_interval
            if max_s is not None:
                k_steps = min(k_steps, max_s - s)
            d = self.iter_dir(s + k_steps)
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
            if local:
                st, stats_ref = chunk_t.remote(
                    man_ref, algo_ref, s, k_steps, slices, state_refs[0], d
                )
                state_refs = [st]
                stats = ray.get(stats_ref)
            else:
                state_refs, stats = self._chunk_tasks(
                    man_ref, algo_ref, s, k_steps, slices, state_refs, d
                )
            s += k_steps
            nact = [int(a) for a, _m in stats]
            msg_rows = int(sum(m for _a, m in stats))
            n_active = int(sum(nact))
            atomic_write_json(
                os.path.join(d, "_DONE.json"),
                {"superstep": s - 1, "algo": algo.name, "n_active": n_active},
            )
            if self.keep_iters is not None:
                for old in self._complete_iters():
                    if 0 < old <= s - self.keep_iters:
                        shutil.rmtree(self.iter_dir(old), ignore_errors=True)
            history.append(
                {"superstep": s, "n_active": n_active,
                 "sec": round(time.time() - t_chunk, 3),
                 # inbox wire rows at the chunk-final superstep (see
                 # _apply_core): combiner-boundedness evidence
                 "msg_rows": msg_rows,
                 # per-PARTITION lineage metric: where the frontier lives
                 "active_per_part": nact if len(nact) <= 256 else None}
            )
            if algo.halt_on_no_change() and n_active == 0:
                break
        atomic_write_json(
            os.path.join(self.work_dir, "run.json"),
            {
                "algo": algo.name,
                "final_iter": s,
                "history": history[-50:],
                "executor": "local" if local else "tasks",
                "local_max_edges": LOCAL_MAX_EDGES,
                # hub-splitting lineage: scatter calls per partition
                # (recorded only when any partition actually split)
                "scatter_slices": slices if max(slices) > 1 else None,
            },
        )
        return s

    def _chunk_tasks(self, man_ref, algo_ref, s, k_steps, slices, state_refs, d):
        """``_run_chunk`` with every scatter and step a Ray task; returns
        the new state refs and the fetched per-partition stats."""
        import ray

        scatter_t, step_t, _state_t, _chunk_t = _core_tasks()
        P = self.manifest.n_parts

        def scatter(p, j, superstep, state):
            o = scatter_t.options(num_returns=P).remote(
                man_ref, algo_ref, superstep, p, state, j, slices[p]
            )
            return [o] if P == 1 else o

        def step(q, superstep, state, inbox, last):
            return step_t.options(num_returns=2 if last else P + 2).remote(
                man_ref, algo_ref, superstep, q, state, slices[q], d if last else None, *inbox
            )

        state_refs, stat_refs = _run_chunk(slices, s, k_steps, state_refs, scatter, step)
        return state_refs, ray.get(stat_refs)
