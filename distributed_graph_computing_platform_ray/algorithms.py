"""Vertex programs as vectorized numpy kernels.

The reference's user surface is the ``api.Vertex`` interface — one
``Compute(msgs)`` per vertex per superstep
(/root/reference/api/api.go:4-22, dispatched at worker/worker.go:261-264).
Here an algorithm is three **whole-partition vectorized hooks** instead
of a per-vertex callback:

  init(ids)                  -> (values, active)        [superstep -1]
  message_base(...)          -> per-vertex outgoing value (scatter)
  apply(...)                 -> (new_values, new_active, changed)

plus a declarative ``combine`` ('sum' | 'min' | 'vote') naming the
message reduction — the reference's MessageIterator loop
(worker/pagerank.go:52-66) becomes a groupby-aggregate.

All vertex values are float64, like the reference (the only value type
in the whole system, worker/pagerank.go:10-15). Labels (CC/LP) are
integers <= N stored in float64 — exact below 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INF = np.inf


@dataclass
class ScatterOut:
    """Per-vertex outgoing message base values for the active frontier."""

    base: np.ndarray  # one value per ACTIVE vertex row passed in
    add_edge_weight: bool = False  # msg = base[row] (+ weight per edge)
    mul_edge_weight: bool = False  # msg = base[row] (* weight per edge)
    max_edge_weight: bool = False  # msg = max(base[row], weight per edge)
    max_neg_edge_weight: bool = False  # msg = max(base[row], -weight per edge)


class Algorithm:
    name: str = "base"
    combine: str = "sum"  # 'sum' | 'min' | 'vote'

    def init(
        self,
        ids: np.ndarray,
        n_vertices: int,
        keys: np.ndarray | None = None,
        keys_numeric: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """ids are dense; ``keys`` are the original vertex keys for the
        same rows (urls / original ids as strings) when available."""
        raise NotImplementedError

    def message_base(
        self, ids: np.ndarray, values: np.ndarray, degrees: np.ndarray, superstep: int
    ) -> ScatterOut:
        raise NotImplementedError

    def apply(
        self,
        old_values: np.ndarray,
        agg: np.ndarray,
        has_msg: np.ndarray,
        superstep: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """-> (new_values, new_active, changed)."""
        raise NotImplementedError

    def max_supersteps(self) -> int | None:
        return None

    def halt_on_no_change(self) -> bool:
        return True


class PageRank(Algorithm):
    """Exact reference recurrence (SURVEY.md §2.11; worker/pagerank.go:19-49).

    30 synchronous applications of  x <- 0.15/N + 0.85 * A^T_deg x  on
    the undirected multigraph, starting from x = 0 (reference inits
    Value=0, worker/worker.go:171). Degrees count edge multiplicity.
    No dangling handling (every vertex exists via an edge, so deg >= 1).
    Scores intentionally do NOT sum to 1 — conformance is
    allclose(1e-6) against this exact recurrence, not "textbook"
    PageRank.
    """

    combine = "sum"

    def __init__(self, n_vertices: int, num_iters: int = 30, damping: float = 0.85):
        self.name = "pagerank"
        self.n = n_vertices
        self.num_iters = num_iters
        self.damping = damping
        self.teleport = (1.0 - damping) / n_vertices

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        return np.zeros(len(ids)), np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep):
        # reference: SendMessageTo(nbr, Value/len(edges)) — pagerank.go:36-43
        return ScatterOut(base=values / np.maximum(degrees, 1))

    def apply(self, old_values, agg, has_msg, superstep):
        new = self.teleport + self.damping * agg
        n = len(new)
        return new, np.ones(n, dtype=bool), np.ones(n, dtype=bool)

    def max_supersteps(self):
        return self.num_iters

    def halt_on_no_change(self):
        return False


class PageRankTol(PageRank):
    """TOLERANCE-HALTED PageRank: the exact standard recurrence, but
    the run stops at the first checkpoint boundary whose last
    superstep moved no vertex by more than ``theta`` — the engine's
    global halt detection (A3) driving a numeric fixpoint instead of
    a fixed iteration count. ``scatter_all`` keeps every vertex
    sending regardless of its active flag (freezing a sender would
    corrupt the sum); the per-vertex |new-old| > theta votes are ONLY
    the halting signal, so the iterates are bit-identical to plain
    PageRank's at every step."""

    scatter_all = True

    def __init__(
        self,
        n_vertices: int,
        theta: float = 3e-7,
        max_iters: int = 60,
        damping: float = 0.85,
    ):
        super().__init__(n_vertices, num_iters=max_iters, damping=damping)
        self.name = "pagerank_tol"
        self.theta = theta

    def apply(self, old_values, agg, has_msg, superstep):
        new, _a, third = super().apply(old_values, agg, has_msg, superstep)
        return new, np.abs(new - old_values) > self.theta, third

    def halt_on_no_change(self):
        return True


class PageRankDangling(PageRank):
    """True web PageRank on a DIRECTED graph with dangling-mass
    redistribution:  x <- (1-d)/N + d * (A^T_deg x + D/N)  where
    D = sum of x over zero-outdegree vertices (offsite/uncrawled urls).
    The reference cannot express this (it symmetrizes so nothing
    dangles); the per-iteration global scalar D runs on the engine's
    Pregel-style AGGREGATOR channel (Malewicz et al. 2010 §3.3):
    ``scatter_aggregate`` emits each partition's SUM-mergeable partial,
    the exchange carries it alongside the messages (a float attached
    to every message chunk), and ``apply`` receives the exact global
    sum as ``global_agg`` — no extra synchronization."""

    wants_aggregate = True

    def __init__(self, n_vertices: int, num_iters: int = 30, damping: float = 0.85):
        super().__init__(n_vertices, num_iters, damping)
        self.name = "pagerank_dangling"

    def scatter_aggregate(self, ids, values, degrees, superstep):
        return float(values[degrees == 0].sum())

    def apply(self, old_values, agg, has_msg, superstep, global_agg=0.0):
        new = self.teleport + self.damping * (agg + global_agg / self.n)
        n = len(new)
        return new, np.ones(n, dtype=bool), np.ones(n, dtype=bool)


class OPIC(PageRankDangling):
    """OPIC crawl-priority history (Abiteboul, Preda & Cobena, WWW 2003
    §2-3), synchronous batch variant: every page starts with cash
    c0 = 1/N; each round ALL cash flows along outlinks (dangling cash
    re-enters uniformly — the paper's virtual page); the crawl
    priority is the cash history H_K = sum_{t=0..K} M^t c0. H obeys
    the damping-free dangling recurrence  H <- 1/N + (A^T_deg H + D/N)
    — i.e. the PageRankDangling loop with teleport = 1/N and
    damping = 1 — so starting from the engine's zero init, iterate
    K+1 times and the vertex value IS H_K (x_1 = c0 = H_0). Reuses the
    aggregator channel for the dangling mass D unchanged."""

    def __init__(self, n_vertices: int, num_rounds: int = 10):
        super().__init__(n_vertices, num_iters=num_rounds + 1, damping=1.0)
        self.name = "opic"
        self.teleport = 1.0 / n_vertices


class PersonalizedPageRank(PageRank):
    """Random-walk-with-restart scores toward a seed set: the teleport
    mass lands only on the seeds instead of uniformly —
    x <- (1-d)·1_{v∈S}/|S| + d·A^T_deg x, zero init, fixed iteration
    count, same multigraph scatter as PageRank. Beyond the reference
    (whose teleport is always uniform, worker/pagerank.go:29); the
    per-vertex teleport needs the partition's dense ids, so this is
    the first consumer of the engine's opt-in ``wants_ids`` apply
    extension (works identically on both executors).
    """

    wants_ids = True

    def __init__(
        self,
        seed_ids,
        n_vertices: int | None = None,
        num_iters: int = 30,
        damping: float = 0.85,
    ):
        seeds = np.asarray(sorted({int(s) for s in seed_ids}), dtype=np.int64)
        if len(seeds) == 0:
            raise ValueError("personalized pagerank needs a non-empty seed set")
        super().__init__(n_vertices=max(int(n_vertices or 1), 1), num_iters=num_iters, damping=damping)
        self.name = "ppr"
        self.seeds = seeds
        self.teleport_each = (1.0 - damping) / len(seeds)

    def apply(self, old_values, agg, has_msg, superstep, ids=None):
        tele = np.where(np.isin(ids, self.seeds), self.teleport_each, 0.0)
        new = tele + self.damping * agg
        n = len(new)
        return new, np.ones(n, dtype=bool), np.ones(n, dtype=bool)


class PageRankWarmStart(PageRank):
    """Incremental PageRank: re-rank after a crawl delta, seeded from a
    prior run's scores instead of zero. Unlike CC (where the warm
    fixpoint provably equals the cold one), a fixed-iteration warm PR
    is its own well-defined recurrence — x_0 = prior scores (0 for
    vertices new to the graph), then num_iters applications of
    x <- 0.15/N + 0.85·A'^T x on the NEW graph — and converges toward
    the stationary point far faster than a cold start because the
    prior is already near-converged wherever the graph didn't change.
    The prior map rides the pickled algorithm at test scale; at 10^12
    vertices it becomes a state-table join at init (same range
    partitioning as CC warm start, no shuffle). Keys arrive via the
    engine's unconditional ``init(keys=...)`` contract; message/apply
    are inherited PageRank, so ``wants_keys`` stays False."""

    def __init__(self, prior_keys, prior_values, n_vertices: int, num_iters: int = 10, damping: float = 0.85):
        super().__init__(n_vertices, num_iters=num_iters, damping=damping)
        self.name = "pagerank_warm"
        pk = np.asarray(prior_keys, dtype=np.int64)
        pv = np.asarray(prior_values, dtype=np.float64)
        order = np.argsort(pk)
        self.pk, self.pv = pk[order], pv[order]

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        if keys is not None and keys_numeric:
            k = np.asarray(keys, dtype=np.int64)
        else:
            k = ids.astype(np.int64)
        if len(self.pk):
            idx = np.clip(np.searchsorted(self.pk, k), 0, len(self.pk) - 1)
            val = np.where(self.pk[idx] == k, self.pv[idx], 0.0)
        else:
            val = np.zeros(len(k))
        return val.astype(np.float64), np.ones(len(ids), dtype=bool)


class TrustRank(PersonalizedPageRank):
    """TrustRank (Gyongyi et al., VLDB 2004): personalized restart onto
    a trusted seed set COMBINED with edge-weight-proportional rank
    flow — x <- (1-d)·1_{v∈S}/|S| + d·W^T_wdeg x over the weighted
    domain graph. A pure mixin of the two PageRank extensions: the
    engine sees ``wants_ids`` (seed teleport, inherited) plus
    ``use_weighted_degrees`` (weighted scatter), so both executors work
    unchanged."""

    use_weighted_degrees = True

    def __init__(self, seed_ids, n_vertices=None, num_iters: int = 30, damping: float = 0.85):
        super().__init__(
            seed_ids, n_vertices=n_vertices, num_iters=num_iters, damping=damping
        )
        self.name = "trustrank"

    def message_base(self, ids, values, degrees, superstep):
        # degrees here are WEIGHTED sums (floats, >= smallest weight)
        return ScatterOut(
            base=values / np.where(degrees > 0, degrees, 1.0), mul_edge_weight=True
        )


class PageRankWeighted(PageRank):
    """PageRank with edge-weight-proportional rank distribution:
    vertex v sends value(v) * w_e / wdeg(v) along each edge, where
    wdeg(v) = sum of v's incident edge weights (multiplicity counted).
    Beyond the reference (which has only unit weights); degenerates to
    exact reference PageRank on an all-1.0 graph. The engine supplies
    WEIGHTED degrees to message_base when use_weighted_degrees is set,
    and multiplies each per-edge message by its weight."""

    use_weighted_degrees = True

    def __init__(self, n_vertices: int, num_iters: int = 30, damping: float = 0.85):
        super().__init__(n_vertices, num_iters=num_iters, damping=damping)
        self.name = "pagerank_weighted"

    def message_base(self, ids, values, degrees, superstep):
        # degrees here are WEIGHTED sums (floats, >= smallest weight)
        return ScatterOut(
            base=values / np.where(degrees > 0, degrees, 1.0), mul_edge_weight=True
        )


class SSSP(Algorithm):
    """Intended Pregel SSSP (the as-written reference is inert: its
    zero-init bug means no vertex ever relaxes, worker/sssp.go:36 +
    worker/worker.go:174, and it never votes to halt, worker/sssp.go:43
    — documented deviation, SURVEY.md §2.11).

    init: dist = 0 at source else +inf; active = {source}.
    scatter: active vertices send dist + edge_weight (weight is
    constant 1 in the reference -> hop-count BFS).
    apply: dist' = min(dist, min inbox); active iff improved.
    Halts when no distance changed. Unreachable stays +inf.
    """

    combine = "min"

    def __init__(self, source_id: int):
        self.name = "sssp"
        self.source = source_id

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        values = np.where(ids == self.source, 0.0, INF)
        return values, ids == self.source

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=values, add_edge_weight=True)

    def apply(self, old_values, agg, has_msg, superstep):
        new = np.minimum(old_values, agg)
        changed = new < old_values
        return new, changed.copy(), changed


class MultiSourceSSSP(SSSP):
    """Distance to the NEAREST of a seed set (multi-source BFS /
    Dijkstra): init dist = 0 on every seed, the same min-combiner
    relaxation thereafter. Target-side extension (seed-distance
    features, e.g. hops-from-trusted-sites in web curation)."""

    def __init__(self, source_ids):
        srcs = np.asarray(sorted({int(s) for s in source_ids}), dtype=np.int64)
        if len(srcs) == 0:
            raise ValueError("multi-source sssp needs a non-empty seed set")
        super().__init__(source_id=int(srcs[0]))
        self.name = "sssp_multi"
        self.sources = srcs

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        seed = np.isin(ids, self.sources)
        return np.where(seed, 0.0, INF), seed


class EarliestArrival(SSSP):
    """Temporal earliest-availability propagation (time-respecting
    reachability): each edge carries an availability time t (the edge
    exists from t onward — e.g. a link first observed in a crawl at
    time t), and arr(v) = min over in-edges (u,v,t) of
    max(t, arr(u)) — you can leave u no earlier than you arrived AND
    no earlier than the edge exists. Monotone min-fixpoint, so the
    same BSP relaxation as SSSP with the per-edge '+ weight' swapped
    for 'max(base, weight)' (the engine's max_edge_weight scatter
    mode). Target-side extension (the reference has no temporal
    semantics; its edge value is the constant 1.0,
    worker/worker.go:165)."""

    def __init__(self, source_id: int):
        super().__init__(source_id=source_id)
        self.name = "earliest"

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=values, max_edge_weight=True)


class WidestPath(SSSP):
    """Maximin bottleneck capacity from a source over a weighted graph:
    width(v) = max over in-edges (u,v,w) of min(width(u), w) — the
    widest-path / maximum-capacity-path problem (link-strength routing:
    the strongest chain of endorsement between domains). Runs on the
    UNCHANGED min-combiner engine via negation duality: store
    m = -width, then m(v) = min over edges of max(m(u), -w), which is
    EarliestArrival's recurrence with the edge weight negated (the
    'max_neg_edge_weight' scatter mode). init: m = -inf at the source,
    +inf elsewhere; monotone min-fixpoint, halts on no change.
    Unreachable vertices stay +inf (width -inf); consumers decode
    width = -value. Target-side extension (the reference ships no
    weighted-path semantics beyond SSSP's constant 1.0)."""

    def __init__(self, source_id: int):
        super().__init__(source_id=source_id)
        self.name = "widest"

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        values = np.where(ids == self.source, -INF, INF)
        return values, ids == self.source

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=values, max_neg_edge_weight=True)


class ConnectedComponents(Algorithm):
    """Min-label propagation to fixpoint => component id = min vertex id
    in the component (exact on the undirected graph). Target-side
    extension (the reference ships only PageRank+SSSP); runs on the
    same BSP engine with a 'min' combiner.
    """

    combine = "min"

    def __init__(self):
        self.name = "cc"

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        # Labels propagate ORIGINAL numeric ids when the whole key
        # universe is integral (conformance: component id / label =
        # min original vertex id). URL graphs fall back to dense ids;
        # decode with pipelines.graph.decode_label_values.
        if keys is not None and keys_numeric:
            return np.asarray(keys, dtype=np.float64), np.ones(len(ids), dtype=bool)
        return ids.astype(np.float64), np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=values)

    def apply(self, old_values, agg, has_msg, superstep):
        new = np.minimum(old_values, agg)
        changed = new < old_values
        return new, changed.copy(), changed


class ConnectedComponentsWarmStart(ConnectedComponents):
    """Incremental CC: recompute after edge ADDITIONS, seeded from a
    prior run's labels. Min-label propagation converges to the
    per-component minimum of the INITIAL values; every prior label is
    the key of a vertex inside the same (grown) component, and the
    grown component's true minimum vertex seeds with its own key (it
    was already its old component's minimum), so the warm fixpoint
    equals a cold run's — in far fewer supersteps, because labels
    start pre-converged inside every old component. Edge DELETIONS
    invalidate this (labels can only shrink under a min combiner) and
    require a cold run. The prior map rides the pickled algorithm at
    test scale; at 10^12 vertices it becomes a state-table join at
    init (same range partitioning, no shuffle)."""

    def __init__(self, prior_keys, prior_labels):
        super().__init__()
        self.name = "cc_warm"
        pk = np.asarray(prior_keys, dtype=np.int64)
        pl = np.asarray(prior_labels, dtype=np.int64)
        order = np.argsort(pk)
        self.pk, self.pl = pk[order], pl[order]

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        if keys is not None and keys_numeric:
            k = np.asarray(keys, dtype=np.int64)
        else:
            k = ids.astype(np.int64)
        if len(self.pk):
            idx = np.clip(np.searchsorted(self.pk, k), 0, len(self.pk) - 1)
            lab = np.where(self.pk[idx] == k, self.pl[idx], k)
        else:
            lab = k
        return lab.astype(np.float64), np.ones(len(ids), dtype=bool)


class LabelPropagation(Algorithm):
    """Synchronous majority-label propagation, fixed iteration count.

    init label = vertex id; each superstep every vertex adopts the
    label with the highest multiplicity-weighted count among its
    neighbors' labels, ties broken by LOWEST label (FIXTURES.md §3.4).
    Vertices receiving no messages keep their label. Community
    detection extension — 'vote' combiner exercises the non-fold
    message reduction path.
    """

    combine = "vote"

    def __init__(self, num_iters: int = 10):
        self.name = "lp"
        self.num_iters = num_iters

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        # Labels propagate ORIGINAL numeric ids when the whole key
        # universe is integral (conformance: component id / label =
        # min original vertex id). URL graphs fall back to dense ids;
        # decode with pipelines.graph.decode_label_values.
        if keys is not None and keys_numeric:
            return np.asarray(keys, dtype=np.float64), np.ones(len(ids), dtype=bool)
        return ids.astype(np.float64), np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=values)

    def apply(self, old_values, agg, has_msg, superstep):
        new = np.where(has_msg, agg, old_values)
        changed = new != old_values
        n = len(new)
        return new, np.ones(n, dtype=bool), changed

    def max_supersteps(self):
        return self.num_iters

    def halt_on_no_change(self):
        return False


class SumPropagation(Algorithm):
    """Identity-scatter sum propagation for a fixed superstep count:
    x_t(v) = sum over in-edges (u,v) of x_{t-1}(u), x_0 = 1; vertices
    with an empty inbox drop to 0.

    This is the building block for HITS hubs/authorities (Kleinberg
    1999) on the DOUBLED bipartite graph: each original edge (u,v)
    becomes hub-node(u) -> auth-node(v) and auth-node(v) -> hub-node(u),
    so one superstep simultaneously advances hub <- A·auth and
    auth <- Aᵀ·hub (power iteration on [[0,A],[Aᵀ,0]], whose square is
    block-diag(AAᵀ, AᵀA) — the HITS operators). Values are left
    UNNORMALIZED so every iterate is an exact integer; below 2^53 both
    float64 bincount sums and a SQL recursive CTE reproduce them
    bit-equal regardless of summation order. Normalize once at the end.
    """

    combine = "sum"

    def __init__(self, num_iters: int = 6):
        self.name = "sumprop"
        self.num_iters = num_iters

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        return np.ones(len(ids)), np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=values)

    def apply(self, old_values, agg, has_msg, superstep):
        new = np.where(has_msg, agg, 0.0)
        n = len(new)
        return new, np.ones(n, dtype=bool), np.ones(n, dtype=bool)

    def max_supersteps(self):
        return self.num_iters

    def halt_on_no_change(self):
        return False


class WeightedSumPropagation(SumPropagation):
    """Weighted identity-scatter sum propagation:
    x_t(v) = sum over in-edges (u,v) of w_uv * x_{t-1}(u), x_0 = 1 —
    the building block for WEIGHTED HITS on a doubled weighted
    bipartite graph (parallel page links carry citation weight).
    Iterates stay exact integers for integer weights while below 2^53,
    so a SQL recursive CTE reproduces them bit-equal."""

    def __init__(self, num_iters: int = 4):
        super().__init__(num_iters=num_iters)
        self.name = "sumprop_weighted"

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=values, mul_edge_weight=True)


class KatzPropagation(Algorithm):
    """INTEGER-EXACT Katz centrality, attenuation beta = 1/8: after T
    supersteps value(v) = 8^T * Katz_T(v) = sum_{k=0..T} walks_k(v) *
    8^(T-k), where walks_k(v) is the number of directed walks of
    length k ending at v. Recurrence (one sum-combined superstep per
    step): S_k(v) = 8^k + sum over in-edges (u,v) of S_{k-1}(u),
    S_0 = 1. Every iterate is an exact integer, so float64 bincount
    sums and a HUGEINT SQL recursion reproduce it bit-for-bit in any
    summation order — the same exactness contract as SumPropagation
    (HITS). Bound: S_T <= (T+1) * max(maxindeg, 8)^T must stay below
    2^53; with the 200-id test graph (indeg <= 199) and T = 6 the peak
    is ~4e14. The fixed 1/8 is a dyadic attenuation chosen for
    exactness; classic float Katz is the same loop with beta * agg.
    """

    combine = "sum"

    def __init__(self, num_iters: int = 6):
        self.name = "katz"
        self.num_iters = num_iters

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        return np.ones(len(ids)), np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=values)

    def apply(self, old_values, agg, has_msg, superstep):
        # first apply call has superstep == 0 and produces S_1
        new = np.where(has_msg, agg, 0.0) + float(8 ** (superstep + 1))
        n = len(new)
        return new, np.ones(n, dtype=bool), np.ones(n, dtype=bool)

    def max_supersteps(self):
        return self.num_iters

    def halt_on_no_change(self):
        return False


class ANFPropagation(Algorithm):
    """Approximate neighborhood function (ANF, Palmer/Gibbons/
    Faloutsos 2002 — HyperBall's ancestor): every vertex carries an
    OR-mergeable Flajolet-Martin bitmap seeded from its own hashed
    key; each superstep ORs neighbor bitmaps together, so after T
    rounds mask(v) sketches the ball N(v, <=T) and the lowest UNSET
    bit estimates its size (|ball| ~ 2^b / 0.77351). One 40-bit
    bitmap per vertex rides the engine's 'bor' combiner as an exact
    float64 integer payload; production accuracy stacks k bitmaps
    (or HLL registers) per vertex — the propagation structure is
    identical. Deterministic: the bitmap depends only on the
    ORIGINAL vertex key (splitmix64 of key+seed, low 40 bits, lowest
    set bit), never on partitioning or parallelism. Monotone (masks
    only grow), so only changed vertices re-scatter — unchanged
    masks were already absorbed by every neighbor."""

    combine = "bor"
    wants_keys = True

    def __init__(self, seed: int = 11, num_rounds: int = 4):
        self.name = "anf"
        self.seed = seed
        self.num_rounds = num_rounds

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        from .utils import splitmix64

        if keys is not None and keys_numeric:
            k = np.asarray(keys, dtype=np.int64).astype(np.uint64)
        else:
            k = ids.astype(np.uint64)
        with np.errstate(over="ignore"):
            z = splitmix64(k + np.uint64(self.seed))
        zl = (z & np.uint64((1 << 40) - 1)).astype(np.int64)
        mask = np.where(zl == 0, np.int64(1) << 39, zl & -zl)
        return mask.astype(np.float64), np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep, keys=None):
        return ScatterOut(base=values)

    def apply(self, old_values, agg, has_msg, superstep, keys=None):
        o = old_values.astype(np.int64)
        new = (o | agg.astype(np.int64)).astype(np.float64)
        changed = new != old_values
        return new, changed.copy(), changed

    def max_supersteps(self):
        return self.num_rounds


class BFSSigma(Algorithm):
    """Level-synchronous BFS with shortest-path COUNTING (the forward
    pass of Brandes' betweenness, Brandes 2001) as a sum-combined
    vertex program — the distributed fallback for the broadcast-CSR
    ``q_sssp_paths`` when the graph exceeds the object-store cap.

    Value packs two exact integers into one float64:
      bits 48..52   dist + 1  (0 = unvisited; needs max_depth <= 30)
      bits  0..47   sigma = number of distinct shortest paths

    At superstep s exactly the frontier (vertices first reached at
    dist s) scatters sigma; a vertex still unvisited that receives
    messages at superstep s is at dist s+1 and its sigma is the SUM of
    its DAG-parents' sigmas — precisely the message aggregate, since
    every neighbor of a fresh vertex that scattered this round is at
    dist s (level-synchronous BFS invariant). Exactness contract (same
    as Katz/HITS): sigma < 2^48 and the packed value < 2^53, asserted,
    so float64 sums are exact in any summation order and a SQL
    recursive CTE reproduces the run bit-for-bit. Multigraph: parallel
    edges multiply path counts, matching the exact broadcast kernel
    (np.add.at per edge).
    """

    combine = "sum"
    _SIGMA_BITS = 48
    _SIGMA_MASK = (1 << 48) - 1

    def __init__(self, source_id: int, max_depth: int = 8):
        if max_depth > 30:
            raise ValueError("bfs_sigma packs dist+1 in bits 48..52: max_depth <= 30")
        self.name = "bfs_sigma"
        self.source = source_id
        self.max_depth = max_depth

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        src = ids == self.source
        # source: dist 0, sigma 1 -> (0+1) << 48 | 1
        return np.where(src, float((1 << 48) + 1), 0.0), src

    def message_base(self, ids, values, degrees, superstep):
        iv = values.astype(np.int64)
        return ScatterOut(base=(iv & self._SIGMA_MASK).astype(np.float64))

    def apply(self, old_values, agg, has_msg, superstep):
        iv = old_values.astype(np.int64)
        fresh = (iv == 0) & has_msg
        if bool(np.any(fresh)):
            sig = agg[fresh]
            if float(sig.max()) >= float(1 << 48):
                raise ValueError("bfs_sigma: sigma >= 2^48; exactness bound exceeded")
        newv = np.where(
            fresh, float((superstep + 2) << 48) + agg, old_values
        )
        return newv, fresh, fresh

    def max_supersteps(self):
        return self.max_depth

    @classmethod
    def unpack(cls, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dist, sigma) per vertex; dist = -1 for unvisited."""
        iv = np.asarray(values).astype(np.int64)
        return (iv >> cls._SIGMA_BITS) - 1, iv & cls._SIGMA_MASK


class BrandesStress(Algorithm):
    """One-run forward+backward stress-centrality pass per source
    (Brandes 2008's all-integer variant of betweenness): after
    2*max_depth supersteps every vertex v reached from the source
    carries (dist, sigma, t) where sigma = shortest-path count and
    t = number of shortest-path-DAG paths STARTING at v, so
    stress contribution = sigma * t. Distributed fallback for the
    broadcast-CSR ``q_stress_centrality`` above the object-store cap.

    Value packs three exact integers into one float64:
      bits 48..52   dist + 1  (0 = unvisited)
      bits 24..47   t         (< 2^24, asserted)
      bits  0..23   sigma     (< 2^24, asserted)

    Schedule with M = max_depth (fixed; BFS must finish within M,
    matching the exact kernel's assert):
      supersteps 0..M-1   forward: frontier at dist s scatters sigma;
                          fresh vertices set dist s+1, sigma = agg.
      supersteps M..2M-1  backward, level-synchronous from the deepest
                          possible level: at superstep s the vertices
                          at dist L(s) = 2M - s scatter 1 + t along
                          ALL their edges; only vertices at dist
                          L(s)-1 accept (sum = exactly the DAG-edge
                          sum, since every neighbor-at-L of a vertex
                          at L-1 is a DAG successor). Activity is
                          recomputed from dist levels each apply, so
                          an early-emptied forward frontier cannot
                          halt the run (halt_on_no_change is False).
    """

    combine = "sum"
    _F24 = (1 << 24) - 1

    def __init__(self, source_id: int, max_depth: int = 8):
        if max_depth > 30:
            raise ValueError("stress packs dist+1 in bits 48..52: max_depth <= 30")
        self.name = "stress"
        self.source = source_id
        self.max_depth = max_depth

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        src = ids == self.source
        return np.where(src, float((1 << 48) + 1), 0.0), src

    def _unpack(self, values: np.ndarray):
        iv = np.asarray(values).astype(np.int64)
        return iv, iv & self._F24, (iv >> 24) & self._F24, iv >> 48

    def message_base(self, ids, values, degrees, superstep):
        _, sigma, t, _ = self._unpack(values)
        if superstep < self.max_depth:
            return ScatterOut(base=sigma.astype(np.float64))
        return ScatterOut(base=(1 + t).astype(np.float64))

    def apply(self, old_values, agg, has_msg, superstep):
        iv, sigma, t, dplus1 = self._unpack(old_values)
        M = self.max_depth
        if superstep < M:  # forward BFS + sigma
            fresh = (dplus1 == 0) & has_msg
            if bool(np.any(fresh)) and float(agg[fresh].max()) > float(self._F24):
                raise ValueError("stress: sigma >= 2^24; exactness bound exceeded")
            newv = np.where(fresh, float((superstep + 2) << 48) + agg, old_values)
            # next superstep's senders: the fresh frontier (forward) or,
            # entering the backward phase, the dist == M level — which
            # is exactly the frontier apply(M-1) just set.
            return newv, fresh, fresh
        # backward: senders this superstep were at L = 2M - s;
        # receivers at L - 1 accept the (1 + t) sum.
        recv_level = 2 * M - superstep - 1
        is_recv = (dplus1 == recv_level + 1) & has_msg
        if bool(np.any(is_recv)) and float(agg[is_recv].max()) > float(self._F24):
            raise ValueError("stress: t >= 2^24; exactness bound exceeded")
        t_new = np.where(is_recv, agg.astype(np.int64), t)
        newv = ((dplus1 << 48) + (t_new << 24) + sigma).astype(np.float64)
        # senders at superstep s+1 are the level L(s+1) = recv_level
        # vertices — ALL of them (t = 0 vertices still send the bare 1).
        nxt = dplus1 == recv_level + 1
        return newv, nxt, is_recv

    def max_supersteps(self):
        return 2 * self.max_depth

    def halt_on_no_change(self):
        return False

    @classmethod
    def unpack_result(cls, values: np.ndarray):
        """(dist, sigma, t); dist = -1 for unreached."""
        iv = np.asarray(values).astype(np.int64)
        return (iv >> 48) - 1, iv & cls._F24, (iv >> 24) & cls._F24


class MaximalIndependentSet(Algorithm):
    """Luby's maximal independent set (Luby 1986), two supersteps per
    round on the undirected graph. Values encode vertex state:
    0 = undecided, 1 = in the MIS, 2 = out (a neighbor joined).

    Round r (phase A = superstep 2r, phase B = superstep 2r+1):
      A: every undecided vertex sends its 53-bit priority
         p(v, r) = mix64(seed + r, key(v)) >> 11 (exact in float64),
         computed from the ORIGINAL numeric vertex key (via the
         engine's wants_keys extension) so the result is independent
         of the dictionary's dense-id assignment; an undecided vertex
         joins iff p(v) < min over undecided-neighbor priorities — or
         it has no undecided neighbors at all.
      B: just-joined vertices notify neighbors with a -1 sentinel;
         undecided vertices also send (+inf, a no-op under the min
         combiner) so the active set only empties when every vertex is
         decided — a rare all-ties round then simply retries with
         fresh priorities instead of halting early. An undecided
         vertex whose aggregate is negative goes out.

    Deterministic for a given seed (counter-based priorities, strict
    comparisons) and independent of partitioning/parallelism; the
    per-round priority reshuffle is what bounds rounds to O(log n)
    w.h.p. Self-loops are rejected by q_mis's edge derivations (a
    self-adjacent vertex could never join and would livelock).
    Target-side extension (the reference has no set algorithms);
    exercises the engine's multi-phase superstep pattern.
    """

    combine = "min"
    wants_keys = True

    def __init__(self, seed: int = 7, max_rounds: int = 64):
        self.name = "mis"
        self.seed = seed
        self.max_rounds = max_rounds

    def _priority(self, round_idx: int, keys: np.ndarray) -> np.ndarray:
        from .utils import mix64

        return (
            mix64(np.uint64(self.seed + round_idx), keys.astype(np.uint64))
            >> np.uint64(11)
        ).astype(np.float64)

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        return np.zeros(len(ids)), np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep, keys=None):
        if superstep % 2 == 0:  # phase A: undecided send priorities
            return ScatterOut(base=self._priority(superstep // 2, keys))
        # phase B: just-joined send the -1 sentinel; undecided send +inf
        return ScatterOut(base=np.where(values == 1.0, -1.0, INF))

    def apply(self, old_values, agg, has_msg, superstep, keys=None):
        und = old_values == 0.0
        if superstep % 2 == 0:
            p = self._priority(superstep // 2, keys)
            joined = und & (~has_msg | (p < agg))
            new = np.where(joined, 1.0, old_values)
            # joined must notify in phase B; undecided stay active so
            # the run only halts when everyone is decided
            active = joined | (new == 0.0)
            return new, active, joined
        out = und & has_msg & (agg < 0.0)
        new = np.where(out, 2.0, old_values)
        still = new == 0.0
        return new, still, out

    def max_supersteps(self):
        return 2 * self.max_rounds


class LongestPathDAG(Algorithm):
    """Longest path ENDING at each vertex of a DAG (critical-path
    depth), by monotone relaxation: depth(v) = max over in-edges of
    depth(u) + 1, sources stay 0. Runs on the 'min' combiner via
    negation (message = -(depth+1), depth = -min agg) — the standard
    max-as-min trick; converges in (DAG depth) supersteps because only
    changed vertices re-scatter. Exact integers. The caller must
    supply an acyclic orientation (e.g. least->greatest); a cycle
    would diverge, bounded by max_supersteps."""

    combine = "min"

    def __init__(self, max_rounds: int = 200):
        self.name = "dag_longest"
        self.max_rounds = max_rounds

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        return np.zeros(len(ids)), np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=-(values + 1.0))

    def apply(self, old_values, agg, has_msg, superstep):
        cand = np.where(has_msg, -agg, old_values)
        new = np.maximum(old_values, cand)
        changed = new != old_values
        return new, changed, changed

    def max_supersteps(self):
        return self.max_rounds


class GreedyColoring(Algorithm):
    """Parallel greedy graph coloring (Jones-Plassmann 1993 with
    per-round Luby reshuffled priorities), two supersteps per round —
    the first consumer of the engine's per-superstep combiner
    extension (``combine_for``): phase A combines with 'min', phase B
    with 'bor' (bitwise OR).

    State packs into one exact float64 integer (< 2^48):
      bits 0..39   accumulated neighbor-color mask (colors < 40)
      bits 41..46  own color + 1 (0 = uncolored)
      bit  47      'fresh' — colored this round, must broadcast

    Round r (A = superstep 2r, B = 2r+1):
      A ('min'): uncolored v scatters p(v, r) = mix64(seed+r, key)>>11
         (53-bit, original keys — partition-independent). v wins iff
         p(v) < the strict min over uncolored-neighbor priorities (or
         no uncolored neighbor scattered at all); a winner colors
         itself mex(mask) immediately — its mask already holds every
         neighbor color broadcast in earlier rounds.
      B ('bor'): fresh winners scatter 2^color, everyone else 0 (the
         OR identity); uncolored vertices OR the aggregate into their
         mask; fresh bits clear. Colored vertices go inactive after
         broadcasting, so the run halts when every vertex is colored.

    Adjacent winners are impossible (strict total order per round), so
    the coloring is proper; mex over all already-colored neighbors is
    exactly sequential greedy in priority order, bounding colors by
    maxdeg+1 (asserted < 40 for the packed encoding).
    """

    combine = "min"
    wants_keys = True

    _MASK = (1 << 40) - 1
    _COLOR_SHIFT = 41
    _FRESH = 1 << 47

    def __init__(self, seed: int = 7, max_rounds: int = 96):
        self.name = "coloring"
        self.seed = seed
        # Backstop only — the run halts at fixpoint. Expected rounds
        # scale with average degree (each round colors the ~n/(d+1)
        # local priority minima): measured 11 @ deg~5, 17 @ deg~12,
        # 56 @ deg~50 on the planted-block graph. The SQL oracle's
        # fixed 40 rounds covers the correctness-gate scales.
        self.max_rounds = max_rounds

    def combine_for(self, superstep: int) -> str:
        return "min" if superstep % 2 == 0 else "bor"

    def _priority(self, round_idx: int, keys: np.ndarray) -> np.ndarray:
        from .utils import mix64

        return (
            mix64(np.uint64(self.seed + round_idx), keys.astype(np.uint64))
            >> np.uint64(11)
        ).astype(np.float64)

    @classmethod
    def _unpack(cls, values: np.ndarray):
        iv = values.astype(np.int64)
        mask = iv & cls._MASK
        cplus1 = (iv >> cls._COLOR_SHIFT) & 63
        fresh = (iv & cls._FRESH) != 0
        return iv, mask, cplus1, fresh

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        return np.zeros(len(ids)), np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep, keys=None):
        _, mask, cplus1, fresh = self._unpack(values)
        if superstep % 2 == 0:  # A: uncolored senders -> priorities
            return ScatterOut(base=self._priority(superstep // 2, keys))
        # B: fresh winners -> their color bit; uncolored -> OR-identity 0
        return ScatterOut(
            base=np.where(fresh, (1 << (cplus1 - 1).clip(0)).astype(np.float64), 0.0)
        )

    def apply(self, old_values, agg, has_msg, superstep, keys=None):
        iv, mask, cplus1, fresh = self._unpack(old_values)
        uncolored = cplus1 == 0
        if superstep % 2 == 0:
            p = self._priority(superstep // 2, keys)
            win = uncolored & (~has_msg | (p < agg))
            lzb = (~mask) & (mask + 1)  # lowest zero bit = mex
            mex = np.round(np.log2(np.maximum(lzb, 1))).astype(np.int64)
            if bool(np.any(win & (mex >= 40))):
                raise ValueError("coloring: >40 colors; widen the mask encoding")
            new = np.where(win, mask + ((mex + 1) << self._COLOR_SHIFT) + self._FRESH, iv)
            return new.astype(np.float64), uncolored, win
        add = np.where(uncolored & has_msg, agg.astype(np.int64), 0)
        new = (mask | add) + (cplus1 << self._COLOR_SHIFT)  # fresh cleared
        return new.astype(np.float64), (cplus1 == 0), fresh

    def max_supersteps(self):
        return 2 * self.max_rounds


class AbsorptionProbability(Algorithm):
    """P(a simple random walk from v hits the absorbing set within
    ``num_iters`` steps) — the discrete Dirichlet / harmonic-measure
    problem on the symmetrized multigraph:

        h_0 = 1_T;  h_{t+1}(v) = 1 if v in T else (1/deg v) * sum_{u~v} h_t(u)

    The division happens at APPLY by the receiver's OWN degree — the
    first consumer of the engine's ``wants_degrees`` apply extension
    (PageRank divides at scatter by the SENDER's degree, which cannot
    express this recurrence). Fixed recurrence: ``scatter_all`` keeps
    every vertex sending; runs exactly ``num_iters`` supersteps. No
    reference counterpart (target-side walk operator)."""

    combine = "sum"
    wants_ids = True
    wants_degrees = True
    scatter_all = True

    def __init__(self, seed_ids, num_iters: int = 20):
        self.name = "absorption"
        self.seeds = np.asarray(sorted({int(s) for s in seed_ids}), dtype=np.int64)
        self.num_iters = num_iters

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        vals = np.isin(ids, self.seeds).astype(np.float64)
        return vals, np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=values)

    def apply(self, old_values, agg, has_msg, superstep, ids=None, degrees=None):
        seed = np.isin(ids, self.seeds)
        new = np.where(
            seed, 1.0, agg / np.maximum(degrees.astype(np.float64), 1.0)
        )
        n = len(new)
        return new, np.ones(n, dtype=bool), np.ones(n, dtype=bool)

    def max_supersteps(self):
        return self.num_iters

    def halt_on_no_change(self):
        return False


def make_algorithm(name: str, **params) -> Algorithm:
    name = name.lower()
    if name == "pagerank":
        return PageRank(**params)
    if name == "pagerank_weighted":
        return PageRankWeighted(**params)
    if name == "pagerank_dangling":
        return PageRankDangling(**params)
    if name == "pagerank_tol":
        return PageRankTol(**params)
    if name == "opic":
        return OPIC(**params)
    if name in ("ppr", "personalized_pagerank"):
        return PersonalizedPageRank(**params)
    if name == "trustrank":
        return TrustRank(**params)
    if name == "pagerank_warm":
        return PageRankWarmStart(**params)
    if name == "absorption":
        return AbsorptionProbability(**params)
    if name == "sssp":
        return SSSP(**params)
    if name in ("sssp_multi", "multi_source_sssp"):
        return MultiSourceSSSP(**params)
    if name in ("earliest", "earliest_arrival"):
        return EarliestArrival(**params)
    if name in ("widest", "widest_path"):
        return WidestPath(**params)
    if name in ("cc", "connected_components"):
        return ConnectedComponents(**params)
    if name == "cc_warm":
        return ConnectedComponentsWarmStart(**params)
    if name in ("lp", "label_propagation"):
        return LabelPropagation(**params)
    if name in ("sumprop", "sum_propagation"):
        return SumPropagation(**params)
    if name in ("sumprop_weighted", "weighted_sum_propagation"):
        return WeightedSumPropagation(**params)
    if name == "katz":
        return KatzPropagation(**params)
    if name == "anf":
        return ANFPropagation(**params)
    if name == "bfs_sigma":
        return BFSSigma(**params)
    if name == "stress":
        return BrandesStress(**params)
    if name in ("mis", "maximal_independent_set"):
        return MaximalIndependentSet(**params)
    if name in ("coloring", "greedy_coloring"):
        return GreedyColoring(**params)
    if name in ("dag_longest", "longest_path"):
        return LongestPathDAG(**params)
    raise ValueError(f"unknown algorithm {name!r}")
