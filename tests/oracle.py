"""NumPy reference oracle implementing the exact reference recurrences
(SURVEY.md §2.11, FIXTURES.md §3.4) on a small edge multiset.

Everything operates on the undirected MULTIGRAPH: each input line (u,v)
contributes adjacency entries in BOTH directions and duplicates are
kept, matching the reference loader
(/root/reference/worker/worker.go:164-199).
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np


def parse_edge_file(path: str) -> list[tuple[int, int]]:
    edges = []
    with open(path) as f:
        for line in f:
            toks = line.split()
            if len(toks) < 2:
                continue
            try:
                u = int(toks[0])
            except ValueError:
                continue
            try:
                v = int(toks[1])
            except ValueError:
                continue
            edges.append((u, v))
    return edges


def adjacency(edges: list[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = defaultdict(list)
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return dict(adj)


def pagerank(edges, num_iters: int = 30, damping: float = 0.85) -> dict[int, float]:
    """x <- (1-d)/N + d * sum_{u in nbrs(v)} x_u / deg(u), from x=0,
    degrees counting multiplicity; exactly num_iters updates."""
    adj = adjacency(edges)
    vs = sorted(adj)
    n = len(vs)
    x = {v: 0.0 for v in vs}
    for _ in range(num_iters):
        msgs = {v: 0.0 for v in vs}
        for u in vs:
            out = x[u] / len(adj[u])
            for nb in adj[u]:
                msgs[nb] += out
        x = {v: (1.0 - damping) / n + damping * msgs[v] for v in vs}
    return x


def personalized_pagerank(
    edges, seeds, num_iters: int = 30, damping: float = 0.85
) -> dict[int, float]:
    """x <- (1-d)·1_{v∈S}/|S| + d * sum x_u/deg(u), from x=0."""
    adj = adjacency(edges)
    vs = sorted(adj)
    seeds = set(seeds)
    tele = (1.0 - damping) / len(seeds)
    x = {v: 0.0 for v in vs}
    for _ in range(num_iters):
        msgs = {v: 0.0 for v in vs}
        for u in vs:
            out = x[u] / len(adj[u])
            for nb in adj[u]:
                msgs[nb] += out
        x = {v: (tele if v in seeds else 0.0) + damping * msgs[v] for v in vs}
    return x


def sssp(edges, source: int) -> dict[int, float]:
    """Hop-count BFS (intended Pregel semantics); unreachable = +inf."""
    adj = adjacency(edges)
    dist = {v: np.inf for v in adj}
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for nb in adj[u]:
            if dist[nb] == np.inf:
                dist[nb] = dist[u] + 1
                q.append(nb)
    return dist


def connected_components(edges) -> dict[int, int]:
    """component id = min vertex id in the component."""
    adj = adjacency(edges)
    comp: dict[int, int] = {}
    for start in sorted(adj):
        if start in comp:
            continue
        members = []
        q = deque([start])
        seen = {start}
        while q:
            u = q.popleft()
            members.append(u)
            for nb in adj[u]:
                if nb not in seen:
                    seen.add(nb)
                    q.append(nb)
        m = min(members)
        for v in members:
            comp[v] = m
    return comp


def label_propagation(edges, num_iters: int = 10) -> dict[int, int]:
    """Synchronous majority label; counts weighted by edge multiplicity;
    tie -> lowest label; init label = vertex id; fixed iterations."""
    adj = adjacency(edges)
    labels = {v: v for v in adj}
    for _ in range(num_iters):
        new = {}
        for v in adj:
            counts: dict[int, int] = defaultdict(int)
            for nb in adj[v]:
                counts[labels[nb]] += 1
            if counts:
                best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
                new[v] = best
            else:
                new[v] = labels[v]
        labels = new
    return labels


def triangle_count(edges) -> tuple[int, dict[int, int]]:
    """Exact triangle count on the SIMPLE undirected graph (dedup,
    no self-loops): global count + per-vertex counts, brute force."""
    simple = set()
    for u, v in edges:
        if u != v:
            simple.add((min(u, v), max(u, v)))
    adj = defaultdict(set)
    for u, v in simple:
        adj[u].add(v)
        adj[v].add(u)
    per = defaultdict(int)
    total = 0
    vs = sorted(adj)
    for u in vs:
        for v in adj[u]:
            if v <= u:
                continue
            common = adj[u] & adj[v]
            for w in common:
                if w > v:
                    total += 1
                    per[u] += 1
                    per[v] += 1
                    per[w] += 1
    return total, dict(per)


# Per-doc sketch references: the batched kernels in
# functions/hashing.py must equal these one document at a time
# (tests/test_analyze.py).
M61 = np.uint64((1 << 61) - 1)


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """uint64[n_perm] MinHash signature of a shingle-hash set."""
    n_perm = len(a)
    if len(shingles) == 0:
        return np.full(n_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    x = shingles.astype(np.uint64) % M61
    with np.errstate(over="ignore"):
        # (n_perm, n_shingles) — fine for per-doc shingle counts
        h = (a[:, None] * x[None, :] + b[:, None]) % M61
    return h.min(axis=1)


def band_hashes(sig: np.ndarray, n_bands: int) -> np.ndarray:
    """Collapse a signature into n_bands band-hashes (LSH buckets)."""
    rows = len(sig) // n_bands
    view = sig[: rows * n_bands].reshape(n_bands, rows)
    out = np.zeros(n_bands, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for r in range(rows):
            out = out * np.uint64(0x100000001B3) ^ view[:, r]
    return out


def simhash64(feature_hashes: np.ndarray, weights: np.ndarray | None = None) -> int:
    """64-bit SimHash of (hashed) features."""
    if len(feature_hashes) == 0:
        return 0
    bits = ((feature_hashes[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.float64
    )
    w = weights if weights is not None else np.ones(len(feature_hashes))
    acc = ((bits * 2 - 1) * w[:, None]).sum(axis=0)
    out = np.uint64(0)
    for j in range(64):
        if acc[j] > 0:
            out |= np.uint64(1) << np.uint64(j)
    return int(out)


# Message-kernel references: the engine's sort-free scatter
# (engine._scatter_core over CSRShard.by_dst), its presorted
# _combine_block, its packed-key vote reduction and its in-place min/bor
# reductions must equal these gather + stable-argsort and lexsort
# kernels exactly (tests/test_scatter_kernels.py).


def combine_block(combine: str, dst: np.ndarray, val: np.ndarray):
    """Sort-then-combine one block of messages: (dst, value, count)."""
    if len(dst) == 0:
        return dst, val, np.zeros(0, dtype=np.int64)
    if combine == "vote":
        order = np.lexsort((val, dst))
        d, v = dst[order], val[order]
        boundary = np.ones(len(d), dtype=bool)
        boundary[1:] = (d[1:] != d[:-1]) | (v[1:] != v[:-1])
        starts = np.flatnonzero(boundary)
        cnt = np.add.reduceat(np.ones(len(d), dtype=np.int64), starts)
        return d[starts], v[starts], cnt
    order = np.argsort(dst, kind="stable")
    d, v = dst[order], val[order]
    boundary = np.ones(len(d), dtype=bool)
    boundary[1:] = d[1:] != d[:-1]
    starts = np.flatnonzero(boundary)
    if combine == "bor":
        red = np.bitwise_or.reduceat(v.astype(np.int64), starts).astype(np.float64)
        return d[starts], red, np.zeros(len(starts), dtype=np.int64)
    red = np.add.reduceat if combine == "sum" else np.minimum.reduceat
    return d[starts], red(v, starts), np.zeros(len(starts), dtype=np.int64)


def reduce_messages(combine: str, n_local: int, lo: int, dst, val, cnt):
    """Final inbox reduction; a vote sorts by (d, v), sums the counts,
    then lexsorts by (d, -count, v) and takes each d's first row."""
    dst = dst - lo
    has = np.zeros(n_local, dtype=bool)
    if combine == "vote":
        if len(dst) == 0:
            return np.zeros(n_local), has
        order = np.lexsort((val, dst))
        d, v, c = dst[order], val[order], cnt[order]
        boundary = np.ones(len(d), dtype=bool)
        boundary[1:] = (d[1:] != d[:-1]) | (v[1:] != v[:-1])
        starts = np.flatnonzero(boundary)
        d, v = d[starts], v[starts]
        c = np.add.reduceat(c, starts)
        order2 = np.lexsort((v, -c, d))
        d2, v2 = d[order2], v[order2]
        first = np.ones(len(d2), dtype=bool)
        first[1:] = d2[1:] != d2[:-1]
        agg = np.zeros(n_local)
        agg[d2[first]] = v2[first]
        has[d2[first]] = True
        return agg, has
    agg = np.zeros(n_local) if combine in ("sum", "bor") else np.full(n_local, np.inf)
    if len(dst) == 0:
        return agg, has
    order = np.lexsort((val, dst))
    d, v = dst[order], val[order]
    boundary = np.ones(len(d), dtype=bool)
    boundary[1:] = d[1:] != d[:-1]
    starts = np.flatnonzero(boundary)
    if combine == "bor":
        agg[d[starts]] = np.bitwise_or.reduceat(v.astype(np.int64), starts).astype(np.float64)
    elif combine == "min":
        r = np.minimum.reduceat(v, starts)
        # which of 0.0 / -0.0 minimum.reduceat keeps depends on its SIMD
        # lanes: a zero minimum is -0.0 if the run holds one
        neg0 = np.logical_or.reduceat((v == 0) & np.signbit(v), starts)
        r[(r == 0) & neg0] = -0.0
        agg[d[starts]] = r
    else:
        agg[d[starts]] = np.add.reduceat(v, starts)
    has[d[starts]] = True
    return agg, has


def scatter_chunks(manifest, part: int, combine: str, sel: np.ndarray, so) -> list:
    """One partition's unsplit scatter by gathering the senders' CSR rows
    and stable-sorting the messages by destination: per destination
    partition None, ("dense", vec, has) or ("sparse", d, v, c). ``sel``
    marks the senders among the partition's vertices, ``so`` is their
    ScatterOut."""
    from distributed_graph_computing_platform_ray.state.csr import load_shard

    out = [None] * manifest.n_parts
    shard = load_shard(manifest, part)
    ip = np.asarray(shard.indptr)
    senders = np.flatnonzero(sel)
    row_per_edge = np.repeat(np.arange(len(senders)), ip[senders + 1] - ip[senders])
    slots = np.concatenate([np.arange(ip[r], ip[r + 1]) for r in senders] + [np.zeros(0, int)])
    dst = np.asarray(shard.indices)[slots]
    w = None if shard.weights is None else np.asarray(shard.weights)[slots]
    if len(dst) == 0:
        return out
    val = np.asarray(so.base, dtype=np.float64)[row_per_edge]
    if so.add_edge_weight:
        val = val + (w if w is not None else 1.0)
    elif so.mul_edge_weight and w is not None:
        val = val * w
    elif so.max_edge_weight and w is not None:
        val = np.maximum(val, w)
    elif so.max_neg_edge_weight and w is not None:
        val = np.maximum(val, -w)
    order = np.argsort(dst, kind="stable")
    ds, vs = dst[order], val[order]
    ps = manifest.part_size
    bounds = np.searchsorted(ds, np.arange(manifest.n_parts + 1, dtype=np.int64) * ps)
    for q in range(manifest.n_parts):
        a, b = int(bounds[q]), int(bounds[q + 1])
        if b <= a:
            continue
        qlo, qhi = manifest.part_bounds(q)
        seg_d, seg_v = ds[a:b], vs[a:b]
        if combine == "sum" and (b - a) >= (qhi - qlo) // 4:
            loc = seg_d - qlo
            out[q] = (
                "dense",
                np.bincount(loc, weights=seg_v, minlength=qhi - qlo),
                np.bincount(loc, minlength=qhi - qlo) > 0,
            )
        else:
            out[q] = ("sparse", *combine_block(combine, seg_d, seg_v))
    return out
