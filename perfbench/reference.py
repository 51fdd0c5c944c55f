"""Reference computations the benchmark checks the program against.

Each function works on plain numpy arrays made from the generator's
record, never from the program's graph files, and imports nothing from
the package under test. The graph semantics are the program's
documented ones: every distinct directed link (s, d) adds the adjacency
entries s->d and d->s, so the graph is an undirected multigraph in
which mutual links and self-loops count twice.

The ``check_*`` helpers return a list of problems (empty when the
program's output agrees); tests/test_reference.py shows that each one
rejects a perturbed output.
"""

from __future__ import annotations

import numpy as np


class Graph:
    """Undirected multigraph over vertex keys, from distinct directed pairs."""

    def __init__(self, keys: np.ndarray, src: np.ndarray, dst: np.ndarray):
        self.keys = keys  # index -> key
        self.n = len(keys)
        # adjacency entries: both directions of every distinct pair
        self.src = np.concatenate([src, dst]).astype(np.int64)
        self.dst = np.concatenate([dst, src]).astype(np.int64)
        self.deg = np.bincount(self.src, minlength=self.n)

    @classmethod
    def from_pairs(cls, src_keys, dst_keys) -> "Graph":
        """Distinct (src_key, dst_key) pairs -> graph; vertices exist via edges."""
        s = np.asarray(src_keys)
        d = np.asarray(dst_keys)
        keys, inv = np.unique(np.concatenate([s, d]), return_inverse=True)
        si, di = inv[: len(s)], inv[len(s) :]
        pair = np.unique(si.astype(np.int64) * len(keys) + di)
        return cls(keys, pair // len(keys), pair % len(keys))

    @property
    def n_pairs(self) -> int:
        return len(self.src) // 2

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.src, kind="stable")
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.deg, out=indptr[1:])
        return indptr, self.dst[order]


def pagerank(g: Graph, num_iters: int, damping: float = 0.85) -> np.ndarray:
    """x_{k+1}(v) = (1-d)/N + d * sum_{u->v} x_k(u)/deg(u), from x_0 = 0."""
    x = np.zeros(g.n)
    inv_deg = 1.0 / np.maximum(g.deg, 1)
    for _ in range(num_iters):
        x = (1.0 - damping) / g.n + damping * np.bincount(
            g.dst, weights=(x * inv_deg)[g.src], minlength=g.n
        )
    return x


def components(g: Graph) -> np.ndarray:
    """Union-find (path halving, union by smaller root); returns the
    root of every vertex, where the root is the smallest vertex index
    of its component."""
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    half = g.n_pairs
    for a, b in zip(g.src[:half].tolist(), g.dst[:half].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    return np.array([find(a) for a in range(g.n)], dtype=np.int64)


def label_propagation(g: Graph, init: np.ndarray, num_iters: int) -> np.ndarray:
    """Synchronous majority vote over adjacency entries (multiplicity
    counts), ties to the lowest label; a vertex with no messages keeps
    its label."""
    lab = np.asarray(init, dtype=np.float64).copy()
    for _ in range(num_iters):
        msg = lab[g.src]
        order = np.lexsort((msg, g.dst))
        v, m = g.dst[order], msg[order]
        start = np.flatnonzero(np.r_[True, (v[1:] != v[:-1]) | (m[1:] != m[:-1])])
        cnt = np.diff(np.r_[start, len(v)])
        rv, rm = v[start], m[start]
        # per vertex: highest count, then lowest label
        best = np.lexsort((rm, -cnt, rv))
        first = best[np.r_[True, rv[best][1:] != rv[best][:-1]]]
        new = lab.copy()
        new[rv[first]] = rm[first]
        lab = new
    return lab


def bfs_hops(g: Graph, source: int) -> np.ndarray:
    """Hop counts from ``source``; unreachable vertices are +inf."""
    indptr, nbr = g.csr()
    dist = np.full(g.n, np.inf)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    hop = 0
    while len(frontier):
        hop += 1
        starts = indptr[frontier]
        lens = indptr[frontier + 1] - starts
        idx = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        cand = np.unique(nbr[idx])
        cand = cand[np.isinf(dist[cand])]
        dist[cand] = hop
        frontier = cand
    return dist


def triangles(g: Graph) -> int:
    """Triangles of the simple graph (self-loops and multiplicity dropped),
    by intersecting sorted forward adjacency: each triangle is counted
    once, at its lowest-ranked vertex under (degree, index) order."""
    a, b = g.src, g.dst
    keep = a < b
    pair = np.unique(a[keep] * g.n + b[keep])  # mutual links give one edge
    a, b = pair // g.n, pair % g.n
    simple_deg = np.bincount(np.concatenate([a, b]), minlength=g.n)
    rank = np.lexsort((np.arange(g.n), simple_deg))
    pos = np.empty(g.n, dtype=np.int64)
    pos[rank] = np.arange(g.n)
    lo = np.where(pos[a] < pos[b], a, b)
    hi = np.where(pos[a] < pos[b], b, a)
    order = np.lexsort((pos[hi], lo))
    lo, hi = lo[order], hi[order]
    fwd: dict[int, np.ndarray] = {}
    bounds = np.flatnonzero(np.r_[True, lo[1:] != lo[:-1], True])
    for s, e in zip(bounds[:-1], bounds[1:]):
        fwd[int(lo[s])] = hi[s:e]
    total = 0
    for u, nu in fwd.items():
        for v in nu.tolist():
            nv = fwd.get(v)
            if nv is not None:
                total += len(np.intersect1d(nu, nv, assume_unique=True))
    return total


# ---------------------------------------------------------------------------
# checks: program output vs reference -> list of problems


def _aligned(g: Graph, keys, values) -> tuple[np.ndarray, list[str]]:
    """Program (key, value) rows -> values in the reference's key order."""
    keys = np.asarray(keys)
    problems = []
    if len(keys) != g.n or len(np.unique(keys)) != len(keys):
        problems.append(f"{len(keys)} result rows for {g.n} vertices")
        return np.empty(0), problems
    pos = np.searchsorted(g.keys, keys)
    pos = np.minimum(pos, g.n - 1)
    if not np.array_equal(g.keys[pos], keys):
        problems.append("result keys differ from the reference vertex set")
        return np.empty(0), problems
    out = np.empty(g.n)
    out[pos] = np.asarray(values, dtype=np.float64)
    return out, problems


def check_close(name: str, g: Graph, keys, values, ref: np.ndarray, rtol: float = 1e-6) -> list[str]:
    got, problems = _aligned(g, keys, values)
    if problems:
        return [f"{name}: {p}" for p in problems]
    bad = ~np.isclose(got, ref, rtol=rtol, atol=1e-12)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{name}: {int(bad.sum())} vertices off, e.g. {g.keys[i]!r} {got[i]!r} vs {ref[i]!r}"]
    return []


def check_equal(name: str, g: Graph, keys, values, ref: np.ndarray) -> list[str]:
    got, problems = _aligned(g, keys, values)
    if problems:
        return [f"{name}: {p}" for p in problems]
    bad = got != ref
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{name}: {int(bad.sum())} vertices differ, e.g. {g.keys[i]!r} {got[i]!r} vs {ref[i]!r}"]
    return []


def check_components(g: Graph, keys, labels, label_of_vertex: np.ndarray) -> list[str]:
    """The program's labels must induce the reference partition, and each
    label must be the smallest ``label_of_vertex`` in its component
    (the dense id on url graphs, the numeric key on numeric ones)."""
    got, problems = _aligned(g, keys, labels)
    if problems:
        return [f"cc: {p}" for p in problems]
    root = components(g)
    expect = np.full(g.n, np.inf)
    np.minimum.at(expect, root, label_of_vertex.astype(np.float64))
    expect = expect[root]
    bad = got != expect
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"cc: {int(bad.sum())} labels differ, e.g. {g.keys[i]!r} {got[i]!r} vs {expect[i]!r}"]
    return []
