"""Triangle counting — the non-iterative join pipeline (SURVEY.md §7).

Both paths start from the simple undirected graph: distinct (a<b)
pairs, self-loops dropped (one distributed dedup shuffle). Each edge
is then oriented from the endpoint with smaller (degree, id) to the
larger. That counts every triangle exactly once, at the corner whose
two out-edges form it, and bounds every out-degree by O(sqrt(E)) —
the hub-skew mitigation: a web-scale hub lists wedges proportional to
sqrt(E), not deg^2.

In-memory path (simple edge set <= BROADCAST_EDGE_LIMIT):
  1. the deduplicated edge set is pulled into the calling process
     once; dense ranks (np.unique) give degrees (np.bincount) and the
     orientation, and the oriented edges become a forward CSR with
     sorted neighbour lists;
  2. the CSR and the sorted undirected edge-key array are put in the
     object store once;
  3. about ``n_buckets`` plain Ray tasks each take a range of sources
     cut on the cumulative wedge count sum C(d+, 2). A task lists its
     wedges with np.repeat over CSR ranges, in fixed-size chunks, and
     closes them with searchsorted against the key array (sorted-set
     intersection as in HERO, SIGMOD 2024). No wedge leaves its task.

Shuffle path (larger edge sets): degrees by bucket_sum, orientation by
a broadcast degree lookup or two hash joins, wedges listed per source
bucket by the same vectorized kernel, and closed by a hash semi-join
of wedge (v,w) keys against the edge keys — every match is one
triangle. Wedge endpoints are packed into one int64 key there, valid
for ids < 2^31; both paths raise a named error beyond that.

Totals are orientation-invariant and match the brute-force oracle
exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..stages.join import add_bucket, bucket_join, bucket_map_groups, bucket_sum, distinct

_SHIFT = np.int64(1) << np.int64(32)


def canonical_edges(edges: rd.Dataset, n_buckets: int = 64) -> rd.Dataset:
    """(src,dst) int64 -> distinct (a<b), self-loops removed."""

    def canon(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy()
        d = t["dst"].to_numpy()
        keep = s != d
        s, d = s[keep], d[keep]
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        return pa.table({"src": pa.array(a, pa.int64()), "dst": pa.array(b, pa.int64())})

    return distinct(edges.map_batches(canon, batch_format="pyarrow"), ["src", "dst"], n_buckets)


BROADCAST_EDGE_LIMIT = 5_000_000  # simple edges oriented in the calling process (~0.5 GB of int64 temporaries)
BROADCAST_DEG_LIMIT = 5_000_000  # shuffle path: vertices; 2 int64 arrays ~80 MB
_WEDGE_CHUNK = 1 << 20  # wedges listed and closed per step of a count task


def _check_ids(max_id: int) -> None:
    if max_id >= (1 << 31):
        raise ValueError(
            f"triangle_count packs vertex-id pairs into int64 keys; max id "
            f"{max_id} >= 2^31 would overflow — re-encode ids densely or "
            f"use a wider key"
        )


def _partners(indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position of the CSR slice ``indptr`` spans, and how many
    later positions share its row: the wedges whose first neighbour
    sits there."""
    pos = np.arange(indptr[0], indptr[-1])
    return pos, np.repeat(indptr[1:], np.diff(indptr)) - pos - 1


def _wedge_pairs(pos: np.ndarray, cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour positions (i, j), i < j in one row, of every wedge
    whose first neighbour is in ``pos`` — np.repeat, no per-row loop."""
    i = np.repeat(pos, cnt)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return i, j


@ray.remote
def _count_rows(csr, r0: int, r1: int, chunk: int, per_vertex: bool):
    """Triangles closed by the wedges of forward-CSR rows [r0, r1):
    (count, None), or (count, (ranks, corner counts)) with
    ``per_vertex``. At most about ``chunk`` wedges exist at a time."""
    indptr, nbr, keys, n = csr
    ip = indptr[r0 : r1 + 1]
    pos, cnt = _partners(ip)
    before = np.cumsum(cnt) - cnt  # wedges listed before each position
    total, corners = 0, []
    start = 0
    while start < len(pos):
        stop = max(int(np.searchsorted(before, before[start] + chunk)), start + 1)
        i, j = _wedge_pairs(pos[start:stop], cnt[start:stop])
        start = stop
        k = nbr[i] * n + nbr[j]
        hit = keys[np.minimum(np.searchsorted(keys, k), len(keys) - 1)] == k
        total += int(hit.sum())
        if per_vertex:
            i, j = i[hit], j[hit]
            corners += [r0 + np.searchsorted(ip, i, side="right") - 1, nbr[i], nbr[j]]
    if not per_vertex:
        return total, None
    return total, np.unique(np.concatenate(corners or [np.empty(0, np.int64)]), return_counts=True)


def _count_in_memory(simple: rd.Dataset, n_buckets: int, per_vertex: bool):
    # an empty edge set can come back as blocks without columns
    tabs = [t for t in ray.get(simple.to_arrow_refs()) if t.num_rows]
    a = np.concatenate([np.empty(0, np.int64)] + [t["src"].to_numpy() for t in tabs])
    b = np.concatenate([np.empty(0, np.int64)] + [t["dst"].to_numpy() for t in tabs])
    _check_ids(int(b.max()) if len(b) else 0)

    # dense ranks keep id order, so canonical a < b gives ra < rb and
    # the (degree, id) orientation reduces to deg[ra] <= deg[rb]
    verts, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    n, m = len(verts), len(a)
    ra, rb = inv[:m], inv[m:]
    deg = np.bincount(inv, minlength=n)
    a_first = deg[ra] <= deg[rb]
    fwd = np.sort(np.where(a_first, ra, rb) * n + np.where(a_first, rb, ra))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(fwd // n, minlength=n))])
    dplus = np.diff(indptr)
    cum_w = np.cumsum(dplus * (dplus - 1) // 2)
    total_w = int(cum_w[-1]) if n else 0

    def per_ds(tri: np.ndarray) -> rd.Dataset:
        nz = np.flatnonzero(tri)
        return rd.from_arrow(
            pa.table({"vertex": pa.array(verts[nz], pa.int64()), "triangles": pa.array(tri[nz], pa.int64())})
        )

    if total_w == 0:
        return 0, (per_ds(np.zeros(n, np.int64)) if per_vertex else None)

    # source ranges of about equal wedge counts, one task each
    n_tasks = min(n_buckets, -(-total_w // _WEDGE_CHUNK))
    cuts = np.searchsorted(cum_w, np.arange(1, n_tasks) * total_w // n_tasks) + 1
    bounds = np.unique(np.concatenate([[0], cuts, [n]]))
    csr = ray.put((indptr, fwd % n, np.sort(ra * n + rb), n))
    refs = [
        _count_rows.remote(csr, int(lo), int(hi), _WEDGE_CHUNK, per_vertex)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    ray.wait(refs, num_returns=len(refs))  # every task has ended, failed or not
    parts = ray.get(refs)
    total = sum(c for c, _ in parts)
    if not per_vertex:
        return total, None
    tri = np.zeros(n, np.int64)
    for _, (r, c) in parts:
        tri[r] += c  # ranks are unique within one task's output
    return total, per_ds(tri)


def triangle_count(
    edges: rd.Dataset, n_buckets: int = 64, per_vertex: bool = False
) -> tuple[int, rd.Dataset | None]:
    """edges: (src,dst) int64, any orientation/multiplicity.

    Returns (total, per_vertex_ds|None) where per_vertex_ds is
    (vertex:int64, triangles:int64) for vertices in >=1 triangle.

    A simple edge set of at most BROADCAST_EDGE_LIMIT edges is counted
    over one broadcast forward CSR by plain Ray tasks — no shuffle
    after the dedup. Larger ones take the hash-partitioned semi-join.
    """
    simple = canonical_edges(edges, n_buckets).materialize()
    if simple.count() <= BROADCAST_EDGE_LIMIT:
        return _count_in_memory(simple, n_buckets, per_vertex)

    # the canonical set's max endpoint is always in the `dst` column
    _check_ids(simple.max("dst") or 0)

    # degrees on the simple graph
    def endpoints(t: pa.Table) -> pa.Table:
        v = pa.chunked_array([t["src"].combine_chunks(), t["dst"].combine_chunks()])
        return pa.table({"v": v, "deg": pa.array(np.ones(len(v), np.int64))})

    deg = bucket_sum(
        simple.map_batches(endpoints, batch_format="pyarrow"), ["v"], ["deg"], n_buckets
    ).materialize()

    # attach both degrees. Small-side fast path: the degree table is
    # |V| rows — when it fits BROADCAST_DEG_LIMIT it ships once via
    # ray.put (two sorted int64 arrays, searchsorted lookup per batch)
    # instead of TWO partitioned hash joins; larger vertex sets fall
    # back to the shuffle joins.
    ii = pa.int64()
    if deg.count() <= BROADCAST_DEG_LIMIT:
        dp = deg.to_pandas()
        order = np.argsort(dp["v"].to_numpy())
        ref = ray.put((dp["v"].to_numpy()[order], dp["deg"].to_numpy()[order]))

        class OrientB:
            def __init__(self):
                self.vs, self.ds = ray.get(ref)

            def __call__(self, t: pa.Table) -> pa.Table:
                a = t["src"].to_numpy().astype(np.int64)
                b = t["dst"].to_numpy().astype(np.int64)
                da_ = self.ds[np.searchsorted(self.vs, a)]
                db_ = self.ds[np.searchsorted(self.vs, b)]
                a_first = (da_ < db_) | ((da_ == db_) & (a < b))
                return pa.table(
                    {"u": pa.array(np.where(a_first, a, b)), "v": pa.array(np.where(a_first, b, a))}
                )

        _okey = ("orient", ref.hex())

        def orient_batch(t: pa.Table) -> pa.Table:
            from ..stages.taskify import worker_cached

            return worker_cached(_okey, OrientB)(t)

        oriented = simple.map_batches(orient_batch, batch_format="pyarrow").materialize()
    else:
        da = deg.map_batches(lambda t: pa.table({"v": t["v"], "deg_a": t["deg"]}), batch_format="pyarrow")
        db = deg.map_batches(lambda t: pa.table({"v": t["v"], "deg_b": t["deg"]}), batch_format="pyarrow")
        e1 = bucket_join(
            simple, da, left_on="src", right_on="v", n_buckets=n_buckets,
            left_schema=pa.schema([("src", ii), ("dst", ii)]),
            right_schema=pa.schema([("v", ii), ("deg_a", ii)]),
        )
        e2 = bucket_join(
            e1, db, left_on="dst", right_on="v", n_buckets=n_buckets,
            left_schema=pa.schema([("src", ii), ("dst", ii), ("deg_a", ii)]),
            right_schema=pa.schema([("v", ii), ("deg_b", ii)]),
        )

        def orient(t: pa.Table) -> pa.Table:
            a = t["src"].to_numpy().astype(np.int64)
            b = t["dst"].to_numpy().astype(np.int64)
            da_ = t["deg_a"].to_numpy().astype(np.int64)
            db_ = t["deg_b"].to_numpy().astype(np.int64)
            a_first = (da_ < db_) | ((da_ == db_) & (a < b))
            u = np.where(a_first, a, b)
            v = np.where(a_first, b, a)
            return pa.table({"u": pa.array(u), "v": pa.array(v)})

        oriented = e2.map_batches(orient, batch_format="pyarrow").materialize()

    # wedges per oriented source bucket as rows, hash-join closure
    # against the edge keys. Wedge endpoints are emitted sorted; edges
    # may be oriented either way, so edge keys use sorted ids.
    def edge_keys(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy()
        v = t["v"].to_numpy()
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        return pa.table({"k": pa.array(lo * _SHIFT + hi), "hit": pa.array(np.ones(len(u), np.int8))})

    def wedge_group(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy()
        v = t["v"].to_numpy()
        o = np.lexsort((v, u))
        u, v = u[o], v[o]
        row_starts = np.flatnonzero(np.diff(u)) + 1
        i, j = _wedge_pairs(*_partners(np.concatenate([[0], row_starts, [len(u)]])))
        return pa.table({"k": pa.array(v[i] * _SHIFT + v[j], pa.int64()), "w_u": pa.array(u[i], pa.int64())})

    wedges = bucket_map_groups(add_bucket(oriented, ["u"], n_buckets), n_buckets, wedge_group, "pyarrow")
    ek = oriented.map_batches(edge_keys, batch_format="pyarrow")
    matches = bucket_join(
        wedges, ek, left_on="k", right_on="k", n_buckets=n_buckets,
        left_schema=pa.schema([("k", pa.int64()), ("w_u", pa.int64())]),
        right_schema=pa.schema([("k", pa.int64()), ("hit", pa.int8())]),
    )
    matches = matches.materialize() if per_vertex else matches
    total = matches.count()

    if not per_vertex:
        return int(total), None

    def corners(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy().astype(np.int64)
        wu = t["w_u"].to_numpy().astype(np.int64)
        vs = np.concatenate([wu, k // _SHIFT, k % _SHIFT])
        return pa.table({"vertex": pa.array(vs), "triangles": pa.array(np.ones(len(vs), np.int64))})

    per = bucket_sum(matches.map_batches(corners, batch_format="pyarrow"), ["vertex"], ["triangles"], n_buckets)
    return int(total), per
