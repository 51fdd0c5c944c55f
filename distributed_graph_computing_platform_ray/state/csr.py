"""Per-partition CSR adjacency shards + a process-level shard cache.

The reference holds adjacency as a per-worker Go map
(``neighborMap map[int][]edgeT``, /root/reference/worker/worker.go:45-67),
built once at job start and kept hot for every superstep. The Ray-native
equivalent is an immutable CSR shard per id-range partition, stored as
raw ``.npy`` arrays and loaded with ``mmap_mode='r'`` — the OS page
cache then shares one read-only mapping across every Ray worker process
on the node, and repeated supersteps touch warm pages instead of
re-deserializing.

Why a module-level cache instead of an actor pool: Ray Data creates a
fresh actor pool per ``map_batches`` *execution*, and a BSP run executes
one small pipeline per superstep — 30+ pool spin-ups would dominate
runtime. Plain stateless tasks run in Ray's long-lived default worker
processes, so a module-level dict keyed by (graph_dir, part) stays warm
across supersteps for free. (Stages that hold *per-execution* state —
extraction, ANN — do use callable-class actor pools.)

Each cached shard also keeps its edges in stable destination order
(``CSRShard.by_dst``), built on the first unsplit scatter, so no
superstep sorts its messages (engine._scatter_core). That costs 12 B
per edge (int32 source row + int64 destination; weighted graphs add
8 B for the weight), and a process keeps it for ONE graph only: the
first ``load_shard`` of another graph drops every other graph's
orders, as does a rebuild of the same part at the same path.
"""

from __future__ import annotations

import numpy as np

from ..utils import atomic_save_npy, crc32_of
from .manifest import GraphManifest


class CSRShard:
    """Immutable adjacency for one id-range partition.

    ``indptr`` is indexed by local id (``global_id - lo``); ``indices``
    holds *global* destination ids; ``weights`` is None for the
    unweighted (all-1.0) case, matching the reference where every edge
    weight is the constant 1 (/root/reference/worker/worker.go:165,199).
    """

    __slots__ = ("part", "lo", "hi", "indptr", "indices", "weights", "_wdeg", "_by_dst")

    def __init__(self, part, lo, hi, indptr, indices, weights=None):
        self.part = part
        self.lo = lo
        self.hi = hi
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._wdeg = None
        self._by_dst = None

    @property
    def n_local(self) -> int:
        return self.hi - self.lo

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def weighted_degrees(self) -> np.ndarray:
        """Per-local-vertex sum of incident edge weights (== degrees()
        when unweighted). Computed once per shard and cached — shards
        are immutable."""
        if self._wdeg is None:
            if self.weights is None:
                self._wdeg = np.diff(self.indptr).astype(np.float64)
            else:
                ind = np.asarray(self.indptr)
                out = np.zeros(self.n_local, dtype=np.float64)
                nonempty = np.flatnonzero(np.diff(ind) > 0)
                if len(nonempty):
                    sums = np.add.reduceat(np.asarray(self.weights), ind[nonempty])
                    out[nonempty] = sums
                self._wdeg = out
        return self._wdeg

    def by_dst(self):
        """The shard's edges in STABLE destination order: ``(rows, dst,
        weights|None)``, per edge its source's local row, its global
        destination id and its weight. Equal destinations keep CSR order,
        (source row, edge), the order a stable sort of a ``gather`` gives,
        and masking the edges by their rows keeps it. Computed once per
        shard and cached (see the module docstring for its memory)."""
        if self._by_dst is None:
            ind = np.asarray(self.indices)
            order = np.argsort(ind, kind="stable")
            rows = np.repeat(
                np.arange(self.n_local, dtype=np.int32 if self.n_local < 1 << 31 else np.int64),
                np.diff(self.indptr),
            )
            w = None if self.weights is None else np.asarray(self.weights)[order]
            self._by_dst = (rows[order], ind[order], w)
        return self._by_dst

    def gather(self, local_ids: np.ndarray, elo: int | None = None, ehi: int | None = None):
        """Vectorized neighbor expansion for a set of local ids.

        Returns (row_index_per_edge, dst_global, weight_per_edge|None):
        one entry per adjacency slot of the requested rows, with no
        Python-level per-row loop.

        ``elo``/``ehi`` optionally restrict the expansion to the CSR
        edge-index range [elo, ehi): each row's slice is clipped to the
        range, so a caller can split one partition's scatter across
        several tasks by edge count — the hub/skew mitigation path
        (engine._scatter_core). A vertex whose adjacency straddles a
        boundary contributes its edges to BOTH slices, disjointly.
        """
        starts = self.indptr[local_ids]
        if elo is not None:
            ends = np.clip(self.indptr[local_ids + 1], elo, ehi)
            starts = np.clip(starts, elo, ehi)
            lens = (ends - starts).astype(np.int64)
        else:
            lens = (self.indptr[local_ids + 1] - starts).astype(np.int64)
        total = int(lens.sum())
        if total == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, (np.empty(0) if self.weights is not None else None)
        # offs[j] walks each row's slice [start, start+len) consecutively
        row_per_edge = np.repeat(np.arange(len(local_ids), dtype=np.int64), lens)
        cum = np.cumsum(lens) - lens
        offs = np.repeat(starts, lens) + (np.arange(total, dtype=np.int64) - np.repeat(cum, lens))
        w = self.weights[offs] if self.weights is not None else None
        return row_per_edge, self.indices[offs], w


def build_shard_arrays(src: np.ndarray, dst: np.ndarray, weight, lo: int, hi: int):
    """Deterministic CSR arrays for one partition from its edge rows.

    Rows are ordered by (src, dst[, weight]) so the build is independent
    of upstream block order/parallelism. Duplicate (src, dst) rows are
    KEPT — multigraph semantics, exactly like the reference's plain
    ``append`` adjacency (/root/reference/worker/worker.go:164-199).
    """
    if weight is not None:
        order = np.lexsort((weight, dst, src))
    else:
        order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    w = weight[order] if weight is not None else None
    n_local = hi - lo
    counts = np.bincount(src - lo, minlength=n_local)
    indptr = np.zeros(n_local + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst.astype(np.int64), w


def write_shard(manifest: GraphManifest, part: int, indptr, indices, weights=None) -> dict:
    atomic_save_npy(manifest.csr_path(part, "indptr"), indptr)
    atomic_save_npy(manifest.csr_path(part, "indices"), indices)
    if weights is not None:
        atomic_save_npy(manifest.csr_path(part, "weights"), np.asarray(weights, dtype=np.float64))
    return {
        "part": int(part),
        "n_local": int(len(indptr) - 1),
        "n_edges": int(len(indices)),
        "crc_indptr": crc32_of(indptr),
        "crc_indices": crc32_of(indices),
    }


# ---------------------------------------------------------------------------
# process-level shard cache (see module docstring for why not actors)

_SHARD_CACHE: dict[tuple[str, int, int], CSRShard] = {}
_ORDERED_GRAPH = None  # the graph_dir whose CSRShard.by_dst orders are kept
_VERTEX_KEY_CACHE: dict[tuple[str, int, int], "np.ndarray"] = {}


def load_shard(manifest: GraphManifest, part: int) -> CSRShard:
    # keyed by the manifest's content checksum too: a graph rebuilt at
    # the SAME path within one Ray session (e.g. minhash_dedup's
    # rmtree+rebuild of its pair graph) must never be served stale from
    # a long-lived worker's cache.
    global _ORDERED_GRAPH
    key = (manifest.graph_dir, part, manifest.part_fingerprint(part))
    shard = _SHARD_CACHE.get(key)
    if shard is None or key[0] != _ORDERED_GRAPH:
        # keep destination orders for this graph only: drop those of
        # every other graph and of this part's older builds
        for k, sh in _SHARD_CACHE.items():
            if k[0] != key[0] or (k[1] == part and k != key):
                sh._by_dst = None
        _ORDERED_GRAPH = key[0]
    if shard is None:
        lo, hi = manifest.part_bounds(part)
        indptr = np.load(manifest.csr_path(part, "indptr"), mmap_mode="r")
        indices = np.load(manifest.csr_path(part, "indices"), mmap_mode="r")
        weights = None
        if manifest.weighted:
            weights = np.load(manifest.csr_path(part, "weights"), mmap_mode="r")
        shard = CSRShard(part, lo, hi, indptr, indices, weights)
        _SHARD_CACHE[key] = shard
    return shard


def load_vertex_keys(manifest: GraphManifest, part: int) -> np.ndarray:
    """Keys (urls / original ids as strings) for one partition, by local id."""
    import pyarrow.parquet as pq

    key = (manifest.graph_dir, part, manifest.part_fingerprint(part))
    arr = _VERTEX_KEY_CACHE.get(key)
    if arr is None:
        t = pq.read_table(manifest.vertices_path(part))
        order = np.argsort(t["id"].to_numpy(), kind="stable")
        arr = t["key"].to_numpy(zero_copy_only=False)[order]
        _VERTEX_KEY_CACHE[key] = arr
    return arr


_NUMERIC_KEY_CACHE: dict[tuple[str, int, int], "np.ndarray"] = {}


def load_vertex_keys_numeric(manifest: GraphManifest, part: int) -> np.ndarray:
    """Original vertex keys as int64, by local id (cached per process —
    the string->int conversion runs once per (graph, partition), not
    once per superstep). For algorithms whose semantics depend on the
    ORIGINAL ids (e.g. MIS priorities) rather than the dense
    dictionary ranks, which order by (key-hash bucket, string sort)."""
    key = (manifest.graph_dir, part, manifest.part_fingerprint(part))
    arr = _NUMERIC_KEY_CACHE.get(key)
    if arr is None:
        keys = load_vertex_keys(manifest, part)
        try:
            arr = keys.astype(np.int64)
        except (ValueError, TypeError) as e:
            raise ValueError(
                "algorithm requires a numeric vertex-key universe; this "
                "graph's keys are not all integers"
            ) from e
        _NUMERIC_KEY_CACHE[key] = arr
    return arr
