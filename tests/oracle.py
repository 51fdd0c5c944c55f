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
