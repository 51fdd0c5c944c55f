"""Driver-facing queries over the /root/testdata tables.

Each public ``q_*`` function takes ``sf_dir`` and returns a Dataset /
DataFrame whose column names and types match the corresponding
oracle SQL in ``__ray_entry__.oracle_sql`` exactly (the driver's
compare hashes values by sorted column name).

Graph queries run the FULL engine (ingest -> dictionary -> CSR -> BSP)
over edge tables derived deterministically from the TPC-H-ish tables:

  lineitem graph (bipartite):  a = l_orderkey % 2000,
                               b = 2000 + l_partkey % 2000
  orders graph (triangle-rich): least/greatest of
                               (o_custkey % 500, o_orderkey % 500), a != b

Both derivations are pure arithmetic so DuckDB reproduces them
verbatim. Float-valued outputs are integer-scaled (``*_e8`` columns)
so value hashes compare exactly across engines.

Built graphs and finished algorithm runs are cached under /tmp keyed
by sf_dir — inputs are immutable, builds are deterministic, and the
driver calls each query separately.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..state.csr import load_shard, load_vertex_keys
from ..state.manifest import GraphManifest
from .graph import run_algorithm, top_k
from .ingest import build_graph
from .triangles import triangle_count
from ..stages.join import bucket_map_groups as _BMG

CACHE_ROOT = os.environ.get("GRAFT_CACHE", "/tmp/graft_cache")


def _cache(sf_dir: str, *parts: str) -> str:
    h = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    return os.path.join(CACHE_ROOT, h, *parts)


def _table(sf_dir: str, name: str, columns=None) -> rd.Dataset:
    return rd.read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


def _scaled_buckets(sf_dir: str, name: str, rows_per_bucket: int = 250_000, floor: int = 32) -> int:
    """Hash-partition bucket count scaled to the input size (parquet
    metadata row count — no data read), so one map_groups group stays
    bounded at any scale instead of 1/32 of the whole table."""
    import pyarrow.dataset as pads

    n = pads.dataset(os.path.join(sf_dir, f"{name}.parquet")).count_rows()
    return max(floor, -(-n // rows_per_bucket))


def _build_domain_graph(n: int, gdir: str, kind: str, n_buckets: int) -> "GraphManifest":
    """pages -> extracted links -> host-contracted edge table -> CSR
    graph at gdir — the shared scaffold of the domain-graph queries
    (domain_pagerank, trustrank, spam_mass, widest_path, rank corr).
    Returns the manifest."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_links
    from .pages import contract_link_graph

    links = extract_links(generate_pages(n))
    dom_edges = contract_link_graph(links, n_buckets)
    return build_graph(
        dom_edges,
        gdir,
        n_parts=8,
        n_buckets=16,
        dedup=False,
        symmetrize_edges=True,
        source_info={"kind": kind, "n": n},
    )


def _dim_table(sf_dir: str, name: str, columns=None) -> pd.DataFrame:
    """Driver-side pyarrow read of a SMALL dimension table (region /
    nation / supplier / customer-at-test-scale): no Ray execution —
    each Dataset execution costs ~1 s of fixed orchestration, which
    dwarfs reading a kB..MB parquet in-process. Big tables must go
    through ``_table`` (distributed, streaming)."""
    import pyarrow.parquet as pq

    return pq.read_table(
        os.path.join(sf_dir, f"{name}.parquet"), columns=columns
    ).to_pandas()


def _ts_us(s: pd.Series) -> np.ndarray:
    """Epoch microseconds from a timestamp column with the unit made
    EXPLICIT (astype('int64') on a datetime series yields whatever the
    storage unit happens to be — ns under pandas<2 coercion — which
    would silently skew gap/window arithmetic by 1000x)."""
    if getattr(s.dtype, "tz", None) is not None:
        s = s.dt.tz_convert("UTC").dt.tz_localize(None)
    return s.to_numpy().astype("datetime64[us]").astype(np.int64)


# ---------------------------------------------------------------------------
# derived edge tables (must mirror the SQL in __ray_entry__ exactly)


def edges_lineitem(sf_dir: str) -> rd.Dataset:
    """Distinct bipartite (src,dst): order-node -> 2000+part-node."""

    def derive(t: pa.Table) -> pa.Table:
        a = t["l_orderkey"].to_numpy().astype(np.int64) % 2000
        b = 2000 + t["l_partkey"].to_numpy().astype(np.int64) % 2000
        return pa.table({"src": pa.array(a), "dst": pa.array(b)})

    from ..stages.join import distinct

    ds = _table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return distinct(ds.map_batches(derive, batch_format="pyarrow"), ["src", "dst"])


def edges_orders(sf_dir: str) -> rd.Dataset:
    """Distinct same-universe pairs (least, greatest), no self-loops."""

    def derive(t: pa.Table) -> pa.Table:
        x = t["o_custkey"].to_numpy().astype(np.int64) % 500
        y = t["o_orderkey"].to_numpy().astype(np.int64) % 500
        keep = x != y
        x, y = x[keep], y[keep]
        return pa.table(
            {"src": pa.array(np.minimum(x, y)), "dst": pa.array(np.maximum(x, y))}
        )

    from ..stages.join import distinct

    ds = _table(sf_dir, "orders", ["o_custkey", "o_orderkey"])
    return distinct(ds.map_batches(derive, batch_format="pyarrow"), ["src", "dst"])


def edges_lineitem_directed(sf_dir: str) -> rd.Dataset:
    """Distinct DIRECTED pairs in a 200-id universe (src -> dst kept
    as-is, so the graph has dangling and source-only vertices)."""

    def derive(t: pa.Table) -> pa.Table:
        x = t["l_orderkey"].to_numpy().astype(np.int64) % 200
        y = t["l_partkey"].to_numpy().astype(np.int64) % 200
        keep = x != y
        return pa.table({"src": pa.array(x[keep]), "dst": pa.array(y[keep])})

    from ..stages.join import distinct

    ds = _table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return distinct(ds.map_batches(derive, batch_format="pyarrow"), ["src", "dst"])


def edges_lineitem_directed_rev(sf_dir: str) -> rd.Dataset:
    """The directed lineitem graph with every edge reversed — CheiRank
    runs ordinary PageRank over this transpose, ranking SPREADERS
    (pages whose outlinks reach important sinks) instead of
    authorities (Chepelianskii 2010)."""

    def flip(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["dst"], "dst": t["src"]})

    return edges_lineitem_directed(sf_dir).map_batches(flip, batch_format="pyarrow")


def edges_lineitem_hits(sf_dir: str) -> rd.Dataset:
    """Doubled bipartite HITS graph over the directed lineitem edges:
    edge (u,v) becomes hub-node 2u -> auth-node 2v+1 AND 2v+1 -> 2u, so
    one identity-scatter sum superstep advances hub and auth together
    (see algorithms.SumPropagation). Input is distinct and the doubling
    is injective per direction, so no dedup is needed."""

    def double(t: pa.Table) -> pa.Table:
        x = t["src"].to_numpy().astype(np.int64)
        y = t["dst"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([2 * x, 2 * y + 1])),
                "dst": pa.array(np.concatenate([2 * y + 1, 2 * x])),
            }
        )

    return edges_lineitem_directed(sf_dir).map_batches(double, batch_format="pyarrow")


def edges_sparse_directed(sf_dir: str) -> rd.Dataset:
    """A SPARSE directed graph (2000-id universe, rows thinned by a
    deterministic orderkey predicate) whose SCC structure is
    non-degenerate at every test sf — many non-trivial SCCs plus
    IN/OUT periphery — unlike the dense mod-200 graph, which collapses
    into one giant SCC (a vacuous check for scc/bowtie)."""

    def derive(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy().astype(np.int64)
        x = ok % 2000
        y = t["l_partkey"].to_numpy().astype(np.int64) % 2000
        keep = (x != y) & ((ok // 2000) % 29 == 0)
        return pa.table({"src": pa.array(x[keep]), "dst": pa.array(y[keep])})

    from ..stages.join import distinct

    ds = _table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return distinct(ds.map_batches(derive, batch_format="pyarrow"), ["src", "dst"])


def edges_sparse_directed_rev(sf_dir: str) -> rd.Dataset:
    """The sparse directed graph with every edge reversed (backward
    reachability runs — bow-tie IN side)."""

    def flip(t: pa.Table) -> pa.Table:
        return pa.table({"src": t["dst"], "dst": t["src"]})

    return edges_sparse_directed(sf_dir).map_batches(flip, batch_format="pyarrow")


def edges_lineitem_sub5(sf_dir: str) -> rd.Dataset:
    """The 'previous snapshot' of the lineitem graph: the distinct
    bipartite pairs whose endpoint sum % 5 != 0 (~80% of edges) —
    feeds the incremental-CC warm start."""

    def derive(t: pa.Table) -> pa.Table:
        a = t["l_orderkey"].to_numpy().astype(np.int64) % 2000
        b = 2000 + t["l_partkey"].to_numpy().astype(np.int64) % 2000
        keep = (a + b) % 5 != 0
        return pa.table({"src": pa.array(a[keep]), "dst": pa.array(b[keep])})

    from ..stages.join import distinct

    ds = _table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return distinct(ds.map_batches(derive, batch_format="pyarrow"), ["src", "dst"])


_DERIVATIONS = {
    "lineitem": (edges_lineitem, True),
    "lineitem_sub5": (edges_lineitem_sub5, True),
    "orders": (edges_orders, True),
    "lineitem_directed": (edges_lineitem_directed, False),
    "lineitem_directed_rev": (edges_lineitem_directed_rev, False),
    "sparse_directed": (edges_sparse_directed, False),
    "sparse_directed_rev": (edges_sparse_directed_rev, False),
    "lineitem_hits": (edges_lineitem_hits, False),
}


def _graph_for(sf_dir: str, kind: str) -> str:
    """Build (once) the dictionary-encoded CSR graph for a derivation."""
    gdir = _cache(sf_dir, kind, "graph")
    if not os.path.exists(os.path.join(gdir, "manifest.json")):
        derive_fn, _sym = _DERIVATIONS[kind]
        edges = derive_fn(sf_dir)

        def stringify(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src_key": t["src"].cast(pa.string()),
                    "dst_key": t["dst"].cast(pa.string()),
                }
            )

        build_graph(
            edges.map_batches(stringify, batch_format="pyarrow"),
            gdir,
            n_parts=16,
            n_buckets=32,
            dedup=False,  # already distinct
            symmetrize_edges=_sym,
            source_info={"kind": kind, "sf_dir": os.path.abspath(sf_dir)},
        )
    return gdir


def _run_cached(sf_dir: str, kind: str, algo: str, **params) -> rd.Dataset:
    """run_algorithm with result reuse across queries in one driver run."""
    import json

    gdir = _graph_for(sf_dir, kind)
    suffix = ""
    if params:
        suffix = "_" + hashlib.md5(repr(sorted(params.items())).encode()).hexdigest()[:8]
    wdir = _cache(sf_dir, kind, f"run_{algo}{suffix}")
    man = GraphManifest.load(gdir)
    run_json = os.path.join(wdir, "run.json")
    if os.path.exists(run_json):
        from .graph import result_dataset

        with open(run_json) as f:
            final = json.load(f)["final_iter"]
        return result_dataset(man, os.path.join(wdir, "state", f"iter={final:04d}"))
    return run_algorithm(gdir, wdir, algo, **params)


def _as_int_vertex(ds: rd.Dataset, value_name: str, value_cast=None) -> rd.Dataset:
    def conv(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64())
        val = t["value"]
        if value_cast is not None:
            val = value_cast(val)
        return pa.table({"vertex": v, value_name: val})

    return ds.map_batches(conv, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# graph queries


def q_edges_lineitem(sf_dir: str):
    return edges_lineitem(sf_dir)


def q_degrees(sf_dir: str):
    """Symmetrized-graph degree per vertex, straight off the CSR shards."""
    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)

    def shard_degrees(t: pa.Table) -> pa.Table:
        outs_v, outs_d = [], []
        for p in t["id"].to_numpy():
            shard = load_shard(man, int(p))
            keys = load_vertex_keys(man, int(p))
            outs_v.append(keys.astype(np.int64))
            outs_d.append(shard.degrees().astype(np.int64))
        return pa.table(
            {"vertex": pa.array(np.concatenate(outs_v)), "degree": pa.array(np.concatenate(outs_d))}
        )

    return rd.range(man.n_parts).map_batches(shard_degrees, batch_format="pyarrow")


def _score_e8(val: pa.ChunkedArray) -> pa.ChunkedArray:
    return pc.round(pc.multiply(val, 1e8)).cast(pa.int64())


def q_pagerank(sf_dir: str):
    res = _run_cached(sf_dir, "lineitem", "pagerank")
    return _as_int_vertex(res, "score_e8", _score_e8)


def q_absorption(sf_dir: str, num_iters: int = 20):
    """Harmonic-measure / absorption probability (discrete Dirichlet
    problem): P(a simple random walk hits the absorbing seed set —
    the 3 lowest-id vertices — within 20 steps). Unlike PageRank
    (sender-degree division at scatter), the recurrence divides by
    the RECEIVER's degree at apply — the engine's ``wants_degrees``
    extension (algorithms.AbsorptionProbability is its first
    consumer). e8-scaled like the PageRank family."""
    from .graph import lookup_vertex_id

    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)
    # seed selection stays distributed: numeric-key sort().limit(3)
    # (the q_sssp_multi convention), then 3 key->id lookups
    low = (
        rd.read_parquet(os.path.join(gdir, "vertices"))
        .map_batches(
            lambda t: pa.table({"k": pc.cast(t["key"], pa.int64())}),
            batch_format="pyarrow",
        )
        .sort("k")
        .limit(3)
        .to_pandas()["k"]
    )
    seeds = [lookup_vertex_id(man, str(int(k))) for k in low]
    res = _run_cached(
        sf_dir, "lineitem", "absorption", seed_ids=seeds, num_iters=num_iters
    )
    return _as_int_vertex(res, "absorb_e8", _score_e8)


def q_pagerank_directed(sf_dir: str):
    """Directed-graph PageRank (beyond the reference, which always
    symmetrizes): dangling vertices send nothing; vertices without
    in-edges hold the bare teleport term. No dangling-mass
    redistribution, matching the reference recurrence's shape."""
    res = _run_cached(sf_dir, "lineitem_directed", "pagerank")
    return _as_int_vertex(res, "score_e8", _score_e8)


def q_pagerank_trace(sf_dir: str, stride: int = 5, num_iters: int = 30):
    """Convergence trace of the PageRank run read straight off the
    ENGINE'S OWN checkpoint lineage (ST2 parity: the reference master
    logs per-superstep progress, master/master.go:391-453; here the
    checkpointed iteration state IS the log): for every checkpoint
    iteration k, the L1 movement sum(|e8(v_k) - e8(v_{k-stride})|)
    over all vertices, integer-exact at e8 scaling. The engine's
    checkpoint at iter k is bit-aligned with the oracle recurrence's
    iteration k (verified per-vertex exact), so a recursive-CTE oracle
    reproduces the trace. Per-partition partials are computed by
    reading each partition's two state files (no shuffle — states are
    range-partitioned identically); the driver reduces
    n_parts * n_checkpoints small ints."""
    import pyarrow.parquet as _pq

    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)
    work = _cache(sf_dir, "pr_trace")
    final_done = os.path.join(
        work, "state", f"iter={num_iters:04d}", "_DONE.json"
    )
    if not os.path.exists(final_done):
        shutil.rmtree(work, ignore_errors=True)
        run_algorithm(gdir, work, "pagerank", checkpoint_interval=stride)

    state_root = os.path.join(work, "state")
    ks = list(range(stride, num_iters + 1, stride))

    def part_l1(t: pa.Table) -> pa.Table:
        out_it, out_l1 = [], []
        for p in t["id"].to_numpy():
            fname = f"part-{int(p):05d}.parquet"
            vals = {}
            for k in [0] + ks:
                tb = _pq.read_table(
                    os.path.join(state_root, f"iter={k:04d}", fname),
                    columns=["value"],
                )
                vals[k] = np.round(tb["value"].to_numpy() * 1e8).astype(np.int64)
            for k in ks:
                out_it.append(k)
                out_l1.append(int(np.abs(vals[k] - vals[k - stride]).sum()))
        return pa.table(
            {"it": pa.array(out_it, pa.int64()), "l1_e8": pa.array(out_l1, pa.int64())}
        )

    parts = (
        rd.range(man.n_parts)
        .map_batches(part_l1, batch_format="pyarrow")
        .take_all()
    )
    agg: dict[int, int] = {k: 0 for k in ks}
    for r in parts:
        agg[int(r["it"])] += int(r["l1_e8"])
    return pd.DataFrame(
        {"it": list(agg.keys()), "l1_e8": [agg[k] for k in agg]}
    )


def q_hits(sf_dir: str, num_iters: int = 6):
    """HITS hubs & authorities (Kleinberg 1999) on the directed
    lineitem graph: ``num_iters`` supersteps of simultaneous
    hub <- A·auth / auth <- Aᵀ·hub power iteration (run as identity-sum
    propagation on the doubled bipartite graph — see
    algorithms.SumPropagation), then ONE final normalization of each
    score family by its sum. Iterates stay exact integers (< 2^53 for
    this 200-vertex universe at any sf: max in-degree 199, 199^6 ≈
    6e13), so engine and SQL agree bit-for-bit and the half-up integer
    scaling is exact. Vertices missing a role (no out-edges -> hub 0,
    no in-edges -> auth 0) report 0."""
    from ..stages.join import bucket_sum

    res = _run_cached(sf_dir, "lineitem_hits", "sumprop", num_iters=num_iters)

    def pivot(t: pa.Table) -> pa.Table:
        dv = t["vertex"].cast(pa.int64()).to_numpy()
        val = t["value"].to_numpy()
        is_hub = dv % 2 == 0
        return pa.table(
            {
                "vertex": pa.array(dv // 2),
                "hub": pa.array(np.where(is_hub, val, 0.0)),
                "auth": pa.array(np.where(is_hub, 0.0, val)),
            }
        )

    piv = bucket_sum(
        res.map_batches(pivot, batch_format="pyarrow"), ["vertex"], ["hub", "auth"],
        n_buckets=16,
    ).materialize()
    totals = piv.sum(["hub", "auth"])
    hub_tot = int(totals["sum(hub)"])
    auth_tot = int(totals["sum(auth)"])

    def scale(t: pa.Table) -> pa.Table:
        # bounded final reporting stage (one row per vertex): exact
        # half-up needs > int64 intermediates, so Python ints per row
        hub = t["hub"].to_numpy()
        auth = t["auth"].to_numpy()
        s = 100_000_000
        hub_e8 = [(2 * int(h) * s + hub_tot) // (2 * hub_tot) for h in hub]
        auth_e8 = [(2 * int(a) * s + auth_tot) // (2 * auth_tot) for a in auth]
        return pa.table(
            {
                "vertex": t["vertex"],
                "hub_e8": pa.array(hub_e8, pa.int64()),
                "auth_e8": pa.array(auth_e8, pa.int64()),
            }
        )

    return piv.map_batches(scale, batch_format="pyarrow")


def q_pagerank_top25(sf_dir: str):
    # rank on the integer-scaled score so tie-breaks match the oracle
    # exactly (K1 parity: reference prints top-25, master.go:307-341)
    ds = q_pagerank(sf_dir)
    return ds.sort(["score_e8", "vertex"], descending=[True, False]).limit(25)


def _seed_vertices(sf_dir: str, n_seeds: int) -> np.ndarray:
    """The n_seeds smallest vertex ids of the lineitem graph via a
    distributed sort + limit — only n_seeds rows ever reach the driver
    (the old full-table ``to_pandas`` was O(|V|) driver memory)."""
    picked = q_degrees(sf_dir).sort("vertex").limit(n_seeds).to_pandas()
    return picked["vertex"].to_numpy().astype(np.int64)


def _min_vertex(sf_dir: str, kind: str) -> int:
    edges = edges_lineitem(sf_dir) if kind == "lineitem" else edges_orders(sf_dir)
    return int(edges.min("src"))


def q_sssp(sf_dir: str):
    from .graph import lookup_vertex_id

    src = _min_vertex(sf_dir, "lineitem")
    gdir = _graph_for(sf_dir, "lineitem")
    sid = lookup_vertex_id(GraphManifest.load(gdir), str(src))
    res = _run_cached(sf_dir, "lineitem", "sssp", source_id=sid)

    def conv(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64())
        val = t["value"].to_numpy()
        dist = pa.array(
            [None if not np.isfinite(x) else int(x) for x in val], pa.int64()
        )
        return pa.table({"vertex": v, "dist": dist})

    return res.map_batches(conv, batch_format="pyarrow")


def q_sssp_multi(sf_dir: str, n_seeds: int = 3):
    """Multi-source BFS: hop distance to the NEAREST of the n_seeds
    smallest vertices (seed-distance features — e.g. hops from trusted
    seed sites in web curation). Same min-combiner engine run, seeds
    all start at 0."""
    from .graph import lookup_vertex_id

    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)
    seeds_orig = _seed_vertices(sf_dir, n_seeds)
    sids = tuple(sorted(lookup_vertex_id(man, str(int(s))) for s in seeds_orig))
    res = _run_cached(sf_dir, "lineitem", "sssp_multi", source_ids=sids)

    def conv(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64())
        val = t["value"].to_numpy()
        dist = pa.array(
            [None if not np.isfinite(x) else int(x) for x in val], pa.int64()
        )
        return pa.table({"vertex": v, "dist": dist})

    return res.map_batches(conv, batch_format="pyarrow")


def _far_vertex(res: rd.Dataset) -> tuple[int, int]:
    """(argmax-dist vertex, max finite dist) of an SSSP result —
    bounded driver reduce of one (vertex, dist) candidate per block."""

    def partial(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64()).to_numpy()
        d = t["value"].to_numpy()
        fin = np.isfinite(d)
        if not fin.any():
            return pa.table(
                {"vertex": pa.array([], pa.int64()), "dist": pa.array([], pa.int64())}
            )
        dd = d[fin].astype(np.int64)
        vv = v[fin]
        mx = int(dd.max())
        return pa.table(
            {
                "vertex": pa.array([int(vv[dd == mx].min())], pa.int64()),
                "dist": pa.array([mx], pa.int64()),
            }
        )

    rows = res.map_batches(partial, batch_format="pyarrow").take_all()
    mx = max(r["dist"] for r in rows)
    return min(r["vertex"] for r in rows if r["dist"] == mx), mx


def q_scc(sf_dir: str):
    """Strongly connected components of the DIRECTED lineitem graph
    (scc_id = min vertex id in the component) — the web bow-tie
    building block. Iterated forward/backward min-label intersection,
    each round one engine CC run on the doubled two-plane graph; see
    pipelines/scc.py."""
    from .scc import strongly_connected_components

    res = strongly_connected_components(
        edges_sparse_directed(sf_dir), _cache(sf_dir, "scc_work")
    )
    return res


def q_bowtie(sf_dir: str):
    """Web bow-tie decomposition (Broder et al. 2000) of the directed
    lineitem graph: cls 0 = CORE (largest SCC, ties -> min scc_id),
    1 = IN (reaches the core), 2 = OUT (reached from the core),
    3 = OTHER (tendrils/disconnected).

    Because scc_id = min member id, the single vertex c = core's
    scc_id stands in for the whole core: v reaches the core iff v
    reaches c, so IN/OUT need just TWO single-source BFS runs (forward
    + reversed graph) instead of a giant-seed multi-source broadcast.
    Class merge is a tagged union + one bucket_sum — per-vertex rows
    never sit on the driver; only the per-block argmax candidates do."""
    from ..stages.join import bucket_sum
    from .graph import lookup_vertex_id

    scc_ds = q_scc(sf_dir).materialize()

    def size_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {"scc_id": t["scc_id"], "n": pa.array(np.ones(len(t), np.int64))}
        )

    sizes = bucket_sum(
        scc_ds.map_batches(size_rows, batch_format="pyarrow"), ["scc_id"], ["n"], 16
    )

    def best(t: pa.Table) -> pa.Table:
        sid = t["scc_id"].to_numpy()
        n = t["n"].to_numpy()
        if len(n) == 0:
            return pa.table(
                {"scc_id": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        mx = n.max()
        return pa.table(
            {
                "scc_id": pa.array([int(sid[n == mx].min())], pa.int64()),
                "n": pa.array([int(mx)], pa.int64()),
            }
        )

    cands = sizes.map_batches(best, batch_format="pyarrow").take_all()
    mx = max(r["n"] for r in cands)
    core_id = min(r["scc_id"] for r in cands if r["n"] == mx)

    man_f = GraphManifest.load(_graph_for(sf_dir, "sparse_directed"))
    fwd = _run_cached(
        sf_dir, "sparse_directed", "sssp",
        source_id=lookup_vertex_id(man_f, str(core_id)),
    )
    man_r = GraphManifest.load(_graph_for(sf_dir, "sparse_directed_rev"))
    rev = _run_cached(
        sf_dir, "sparse_directed_rev", "sssp",
        source_id=lookup_vertex_id(man_r, str(core_id)),
    )

    def tag_scc(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64()).to_numpy()
        z = np.zeros(len(v), np.int64)
        return pa.table(
            {
                "vertex": pa.array(v),
                "is_core": pa.array(
                    (t["scc_id"].to_numpy() == core_id).astype(np.int64)
                ),
                "fin_fwd": pa.array(z),
                "fin_rev": pa.array(z),
            }
        )

    def tag_bfs(col: str):
        def f(t: pa.Table) -> pa.Table:
            v = t["vertex"].cast(pa.int64()).to_numpy()
            fin = np.isfinite(t["value"].to_numpy()).astype(np.int64)
            z = np.zeros(len(v), np.int64)
            return pa.table(
                {
                    "vertex": pa.array(v),
                    "is_core": pa.array(z),
                    "fin_fwd": pa.array(fin if col == "fin_fwd" else z),
                    "fin_rev": pa.array(fin if col == "fin_rev" else z),
                }
            )

        return f

    tagged = (
        scc_ds.map_batches(tag_scc, batch_format="pyarrow")
        .union(fwd.map_batches(tag_bfs("fin_fwd"), batch_format="pyarrow"))
        .union(rev.map_batches(tag_bfs("fin_rev"), batch_format="pyarrow"))
    )
    merged = bucket_sum(tagged, ["vertex"], ["is_core", "fin_fwd", "fin_rev"], 16)

    def classify(t: pa.Table) -> pa.Table:
        core = t["is_core"].to_numpy() > 0
        fin_f = t["fin_fwd"].to_numpy() > 0
        fin_r = t["fin_rev"].to_numpy() > 0
        cls = np.where(core, 0, np.where(fin_r, 1, np.where(fin_f, 2, 3)))
        return pa.table(
            {"vertex": t["vertex"], "cls": pa.array(cls.astype(np.int64))}
        )

    return merged.map_batches(classify, batch_format="pyarrow")


def q_graph_diameter(sf_dir: str):
    """Double-sweep BFS diameter lower bound (Magnien-Latapy-Habib):
    BFS from the minimum vertex, re-BFS from its farthest reachable
    vertex (ties -> lowest id), report that sweep's eccentricity —
    within the first BFS's component this equals the diameter on trees
    and is a strong lower bound generally. Two engine SSSP runs (the
    first shared with q_sssp's cache) + bounded per-block argmax
    reduces; nothing large touches the driver."""
    from .graph import lookup_vertex_id

    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)
    s0 = _min_vertex(sf_dir, "lineitem")
    res1 = _run_cached(
        sf_dir, "lineitem", "sssp", source_id=lookup_vertex_id(man, str(s0))
    )
    far1, ecc1 = _far_vertex(res1)
    res2 = _run_cached(
        sf_dir, "lineitem", "sssp", source_id=lookup_vertex_id(man, str(far1))
    )
    far2, diam = _far_vertex(res2)
    return pd.DataFrame(
        {
            "start_vertex": [s0],
            "sweep1_vertex": [far1],
            "sweep2_vertex": [far2],
            "ecc1": [ecc1],
            "diameter_lb": [diam],
        }
    )


def q_ecc_bounds(sf_dir: str, n_buckets: int = 16):
    """Per-vertex ECCENTRICITY LOWER BOUNDS from the double sweep:
    ecc(v) >= max(d(s0, v), d(far1, v)) — both BFS runs are already
    cached by q_sssp / q_graph_diameter, so this is one tagged union
    + one vertex-bucket max-merge over the two distance tables.
    Vertices outside the sweep component drop (both distances
    infinite)."""
    from ..stages.join import _BUCKET, add_bucket
    from .graph import lookup_vertex_id

    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)
    s0 = _min_vertex(sf_dir, "lineitem")
    res1 = _run_cached(
        sf_dir, "lineitem", "sssp", source_id=lookup_vertex_id(man, str(s0))
    )
    far1, _ecc1 = _far_vertex(res1)
    res2 = _run_cached(
        sf_dir, "lineitem", "sssp", source_id=lookup_vertex_id(man, str(far1))
    )

    def tag(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64())
        return pa.table({"vertex": v, "d": t["value"]})

    both = res1.map_batches(tag, batch_format="pyarrow").union(
        res2.map_batches(tag, batch_format="pyarrow")
    )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("vertex")["d"].agg(["max", "count"])
        keep = g[(g["count"] == 2) & np.isfinite(g["max"])]
        return pd.DataFrame(
            {"vertex": keep.index.to_numpy().astype("int64"),
             "ecc_lb": keep["max"].to_numpy().astype("int64")}
        )

    return (
        _BMG(add_bucket(both, ["vertex"], n_buckets), n_buckets, merge, "pandas")
    )


def q_sssp_paths(sf_dir: str, max_depth: int = 8, max_edges: int | None = None):
    """Single-source shortest-path COUNTS (Brandes' sigma): per
    vertex within max_depth hops of the min vertex, its hop distance
    and the NUMBER of distinct shortest paths — the forward pass of
    betweenness. Two paths, auto-selected on the doubled edge count:
    below the object-store cap, one vectorized task over the
    broadcast CSR; above it, the engine's level-synchronous BSP run
    (``algorithms.BFSSigma``, dist+sigma packed exactly in one
    float64) — same integers either way (parity-tested)."""
    from ..stages.walks import MAX_BROADCAST_EDGES

    if max_edges is None:
        max_edges = MAX_BROADCAST_EDGES
    edges = edges_orders(sf_dir).materialize()
    if 2 * edges.count() > max_edges:
        return _sssp_paths_bsp(sf_dir, max_depth)
    adj = edges.to_pandas()
    a = adj["src"].to_numpy().astype(np.int64)
    b = adj["dst"].to_numpy().astype(np.int64)
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    o = np.lexsort((dst, src))
    src, dst = src[o], dst[o]
    verts, starts = np.unique(src, return_index=True)
    cnts = np.diff(np.concatenate([starts, [len(src)]]))
    vmax = int(verts.max()) + 1
    deg = np.zeros(vmax, np.int64)
    ptr = np.zeros(vmax, np.int64)
    deg[verts] = cnts
    ptr[verts] = starts
    state = ray.put((ptr, deg, dst, vmax))
    s0 = int(verts.min())

    def forward(t: pa.Table) -> pa.Table:
        p, d, nb, n = ray.get(state)
        dist = np.full(n, -1, np.int64)
        sigma = np.zeros(n, np.int64)
        s = int(t["s"][0].as_py())
        dist[s] = 0
        sigma[s] = 1
        frontier = np.array([s], np.int64)
        lev = 0
        while len(frontier) and lev < max_depth:
            c = d[frontier]
            starts_ = p[frontier]
            tot = int(c.sum())
            eidx = np.repeat(starts_, c) + np.arange(tot) - np.repeat(
                np.cumsum(c) - c, c
            )
            es = np.repeat(frontier, c)
            en = nb[eidx]
            fresh = dist[en] == -1
            if fresh.any():
                dist[en[fresh]] = lev + 1
            dag = dist[en] == lev + 1
            np.add.at(sigma, en[dag], sigma[es[dag]])
            frontier = np.unique(en[fresh])
            lev += 1
        got = np.flatnonzero(dist >= 0)
        return pa.table(
            {"vertex": pa.array(got), "dist": pa.array(dist[got]),
             "n_paths": pa.array(sigma[got])}
        )

    return rd.from_items([{"s": s0}]).map_batches(forward, batch_format="pyarrow")


def _sssp_paths_bsp(sf_dir: str, max_depth: int):
    """Distributed q_sssp_paths: BFSSigma on the engine over the
    symmetrized orders CSR — O(depth) supersteps, never materializes
    the adjacency anywhere. Bit-identical to the broadcast kernel
    (tests/test_graph_conformance.py parity test)."""
    from ..algorithms import BFSSigma
    from .graph import lookup_vertex_id

    gdir = _graph_for(sf_dir, "orders")
    man = GraphManifest.load(gdir)
    s0 = _min_vertex(sf_dir, "orders")
    sid = lookup_vertex_id(man, str(s0))
    res = _run_cached(sf_dir, "orders", "bfs_sigma", source_id=sid, max_depth=max_depth)

    def conv(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64()).to_numpy()
        dist, sigma = BFSSigma.unpack(t["value"].to_numpy())
        got = dist >= 0
        return pa.table(
            {
                "vertex": pa.array(v[got]),
                "dist": pa.array(dist[got]),
                "n_paths": pa.array(sigma[got]),
            }
        )

    return res.map_batches(conv, batch_format="pyarrow")


def q_graph_robustness(sf_dir: str, ks=(0, 20, 50)):
    """Attack-tolerance curve (Albert-Jeong-Barabasi style): remove
    the top-k highest-degree hubs (ties -> lowest id) and measure the
    fragmentation — surviving vertices, component count, largest
    component. Degrees reduce from edge partials; the hub set is a
    top-k sort (k rows on the driver); each k's CC runs the engine on
    the hub-filtered edges (broadcast removal set). The classic
    robustness analysis for web graphs, one engine run per k."""
    import shutil as _shutil

    from ..stages.join import bucket_sum

    edges = edges_lineitem(sf_dir).materialize()

    def deg_partial(t: pa.Table) -> pa.Table:
        v = np.concatenate([t["src"].to_numpy(), t["dst"].to_numpy()])
        u, c = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(u), "d": pa.array(c.astype(np.int64))})

    deg = bucket_sum(
        edges.map_batches(deg_partial, batch_format="pyarrow"), ["v"], ["d"], n_buckets=8
    )
    top = (
        deg.sort(["d", "v"], descending=[True, False])
        .limit(max(ks))
        .to_pandas()["v"]
        .to_numpy()
        .astype(np.int64)
    )

    rows = []
    for k in ks:
        removed = ray.put(np.sort(top[:k]))

        def filt(t: pa.Table) -> pa.Table:
            bad = ray.get(removed)
            a = t["src"].to_numpy()
            b = t["dst"].to_numpy()
            keep = ~(np.isin(a, bad) | np.isin(b, bad))
            return pa.table(
                {"src_key": pa.array(a[keep].astype(str)),
                 "dst_key": pa.array(b[keep].astype(str))}
            )

        root = _cache(sf_dir, "robustness", f"k{k}")
        _shutil.rmtree(root, ignore_errors=True)
        build_graph(
            edges.map_batches(filt, batch_format="pyarrow"),
            f"{root}/graph", n_parts=8, n_buckets=16, dedup=False,
        )
        cc = run_algorithm(f"{root}/graph", f"{root}/cc", "cc")

        def label_partial(t: pa.Table) -> pa.Table:
            lab = t["value"].to_numpy().astype(np.int64)
            u, c = np.unique(lab, return_counts=True)
            return pa.table({"lab": pa.array(u), "n": pa.array(c.astype(np.int64))})

        sizes = bucket_sum(
            cc.map_batches(label_partial, batch_format="pyarrow"), ["lab"], ["n"], n_buckets=4
        ).to_pandas()
        rows.append(
            (k, int(sizes["n"].sum()), len(sizes), int(sizes["n"].max()))
        )
    return pd.DataFrame(
        {
            "k_removed": pd.Series([r[0] for r in rows], dtype="int64"),
            "n_vertices": pd.Series([r[1] for r in rows], dtype="int64"),
            "n_components": pd.Series([r[2] for r in rows], dtype="int64"),
            "largest_cc": pd.Series([r[3] for r in rows], dtype="int64"),
        }
    )


def q_random_failure(sf_dir: str, mods=(0, 8, 4, 2)):
    """RANDOM-FAILURE tolerance curve — the Albert-Jeong-Barabási
    contrast to q_graph_robustness's targeted attack: scale-free
    graphs shrug off uniform random node loss but shatter under hub
    removal. 'Random' is the deterministic splitmix64(id) % mod == 0
    set (expected 1/mod of vertices; mod 0 = baseline), evaluated
    INSIDE the edge filter — no removal set is ever collected or
    broadcast. One engine CC per level; same fragmentation stats as
    the attack curve so the two tables compare row-for-row."""
    import shutil as _shutil

    from ..stages.join import bucket_sum
    from ..utils import splitmix64

    edges = edges_lineitem(sf_dir).materialize()

    rows = []
    for mod in mods:

        def filt(t: pa.Table, mod=mod) -> pa.Table:
            a = t["src"].to_numpy()
            b = t["dst"].to_numpy()
            if mod > 0:
                bad_a = splitmix64(a.astype(np.uint64)) % np.uint64(mod) == 0
                bad_b = splitmix64(b.astype(np.uint64)) % np.uint64(mod) == 0
                keep = ~(bad_a | bad_b)
                a, b = a[keep], b[keep]
            return pa.table(
                {"src_key": pa.array(a.astype(str)), "dst_key": pa.array(b.astype(str))}
            )

        root = _cache(sf_dir, "randfail", f"m{mod}")
        _shutil.rmtree(root, ignore_errors=True)
        build_graph(
            edges.map_batches(filt, batch_format="pyarrow"),
            f"{root}/graph", n_parts=8, n_buckets=16, dedup=False,
        )
        cc = run_algorithm(f"{root}/graph", f"{root}/cc", "cc")

        def label_partial(t: pa.Table) -> pa.Table:
            lab = t["value"].to_numpy().astype(np.int64)
            u, c = np.unique(lab, return_counts=True)
            return pa.table({"lab": pa.array(u), "n": pa.array(c.astype(np.int64))})

        sizes = bucket_sum(
            cc.map_batches(label_partial, batch_format="pyarrow"),
            ["lab"], ["n"], n_buckets=4,
        ).to_pandas()
        rows.append((mod, int(sizes["n"].sum()), len(sizes), int(sizes["n"].max())))
    return pd.DataFrame(
        {
            "mod": pd.Series([r[0] for r in rows], dtype="int64"),
            "n_vertices": pd.Series([r[1] for r in rows], dtype="int64"),
            "n_components": pd.Series([r[2] for r in rows], dtype="int64"),
            "largest_cc": pd.Series([r[3] for r in rows], dtype="int64"),
        }
    )


def q_reciprocity(sf_dir: str, n_buckets: int = 16):
    """Link reciprocity of the DIRECTED lineitem graph: the fraction
    of directed edges whose reverse edge also exists (a standard web
    link-graph statistic). Edges bucket by their UNDIRECTED pair key,
    so both directions land in one bucket and the mutual test is a
    per-bucket merge; global counts driver-reduce from per-bucket
    partials; exact half-up e6 ratio."""
    from ..stages.join import _BUCKET, add_bucket

    eb = edges_lineitem_directed(sf_dir)

    def pair_key(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy()
        d = t["dst"].to_numpy()
        lo = np.minimum(s, d).astype(np.int64)
        hi = np.maximum(s, d).astype(np.int64)
        return pa.table(
            {"src": t["src"], "dst": t["dst"], "pk": pa.array(lo * 200 + hi)}
        )

    keyed = eb.map_batches(pair_key, batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        fwd = set(zip(g["src"].to_numpy(), g["dst"].to_numpy()))
        n_mut = sum((b, a) in fwd for a, b in fwd)
        return pd.DataFrame({"n_edges": [len(fwd)], "n_mutual": [n_mut]})

    parts = (
        _BMG(add_bucket(keyed, ["pk"], n_buckets), n_buckets, per_bucket, "pandas")
        .take_all()
    )
    n = sum(r["n_edges"] for r in parts)
    m = sum(r["n_mutual"] for r in parts)
    return pd.DataFrame(
        {
            "n_edges": [int(n)],
            "n_mutual": [int(m)],
            "reciprocity_e6": [(2 * m * 1_000_000 + n) // (2 * n)],
        }
    )


def q_degree_assortativity(sf_dir: str, n_buckets: int = 16):
    """Degree assortativity coefficient (Newman 2002) of the
    undirected orders graph — the classic web-graph "do hubs link to
    hubs" statistic. On the SYMMETRIZED edge list the x- and y-moment
    sums coincide (every edge appears in both orientations), so
    Pearson r collapses to the exact rational
        r = (n*Sxy - Sx^2) / (n*Sxx - Sx^2)
    — no square root — emitted as exact signed half-up e6 alongside
    the raw integer moments. Degrees come from one bucket_sum over
    the symmetrized endpoints, broadcast once (bounded 500-vertex
    universe; above the broadcast limit this becomes two bucket joins
    of deg onto the edge endpoints and the same moment partials).
    Per-batch int64 moment partials driver-reduce as Python ints, so
    the n*Sxy products can never overflow."""
    import ray

    from ..stages.join import bucket_sum

    simple = edges_orders(sf_dir).materialize()

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy()
        b = t["dst"].to_numpy()
        return pa.table(
            {
                "s": pa.array(np.concatenate([a, b]).astype(np.int64)),
                "d": pa.array(np.concatenate([b, a]).astype(np.int64)),
            }
        )

    es2 = simple.map_batches(both_dirs, batch_format="pyarrow").materialize()
    dp = (
        bucket_sum(
            es2.map_batches(
                lambda t: pa.table(
                    {"v": t["s"], "one": pa.array(np.ones(t.num_rows, np.int64))}
                ),
                batch_format="pyarrow",
            ),
            ["v"],
            ["one"],
            n_buckets=n_buckets,
        )
        .to_pandas()
        .sort_values("v")
    )
    deg_ref = ray.put(
        (dp["v"].to_numpy().astype(np.int64), dp["one"].to_numpy().astype(np.int64))
    )

    def moments(t: pa.Table) -> pa.Table:
        vs, ds = ray.get(deg_ref)
        x = ds[np.searchsorted(vs, t["s"].to_numpy())]
        y = ds[np.searchsorted(vs, t["d"].to_numpy())]
        return pa.table(
            {
                "n": pa.array([np.int64(len(x))]),
                "sx": pa.array([x.sum(dtype=np.int64)]),
                "sxx": pa.array([np.dot(x, x).astype(np.int64)]),
                "sxy": pa.array([np.dot(x, y).astype(np.int64)]),
            }
        )

    parts = es2.map_batches(moments, batch_format="pyarrow").take_all()
    n = sum(int(r["n"]) for r in parts)
    sx = sum(int(r["sx"]) for r in parts)
    sxx = sum(int(r["sxx"]) for r in parts)
    sxy = sum(int(r["sxy"]) for r in parts)
    num = n * sxy - sx * sx
    den = n * sxx - sx * sx
    if den == 0:
        r_e6 = 0
    else:
        sign = 1 if num >= 0 else -1
        r_e6 = sign * ((2 * abs(num) * 1_000_000 + den) // (2 * den))
    return pd.DataFrame(
        {
            "n_pairs": [n],
            "sum_deg": [sx],
            "sum_deg2": [sxx],
            "sum_xy": [sxy],
            "r_e6": [r_e6],
        }
    )


def q_community_stats(sf_dir: str, num_iters: int = 10, n_buckets: int = 16):
    """Community-quality statistics for the label-propagation
    communities (shared cached LP run): per community its size, degree
    mass, internal-edge count and the exact integer modularity
    contribution  q_num = 2m * 2*e_c - d_c^2  (global modularity
    Q = sum(q_num) / (2m)^2 — left rational so everything is
    hash-exact). Labels broadcast under the dictionary limit
    (ray.put once, read per batch); above it this becomes two bucket
    joins on the endpoints."""
    import ray

    from ..stages.join import bucket_sum

    lab_df = q_label_propagation(sf_dir).to_pandas()
    n_vertices = len(lab_df)
    lab_map = pd.Series(
        lab_df["label"].to_numpy(), index=lab_df["vertex"].to_numpy()
    )
    lab_ref = ray.put(lab_map)
    eb = edges_lineitem(sf_dir)
    m_edges = eb.count()

    def edge_stats(t: pa.Table) -> pa.Table:
        lm = ray.get(lab_ref)
        s = lm.loc[t["src"].to_numpy()].to_numpy()
        d = lm.loc[t["dst"].to_numpy()].to_numpy()
        lab = np.concatenate([s, d])
        # one degree unit per endpoint; internal edge iff labels agree
        internal = np.concatenate([(s == d).astype(np.int64), np.zeros(len(d), np.int64)])
        return pa.table(
            {
                "label": pa.array(lab.astype(np.int64)),
                "degree_sum": pa.array(np.ones(len(lab), dtype=np.int64)),
                "internal_edges": pa.array(internal),
            }
        )

    per = bucket_sum(
        eb.map_batches(edge_stats, batch_format="pyarrow"),
        ["label"],
        ["degree_sum", "internal_edges"],
        n_buckets,
    )
    sizes = (
        lab_df.groupby("label", as_index=False)
        .size()
        .rename(columns={"size": "n_members"})
    )
    sz_ref = ray.put(pd.Series(sizes["n_members"].to_numpy(), index=sizes["label"].to_numpy()))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        sz = ray.get(sz_ref)
        lab = df["label"].astype("int64")
        d_c = df["degree_sum"].astype("int64")
        e_c = df["internal_edges"].astype("int64")
        return pd.DataFrame(
            {
                "label": lab,
                "n_members": sz.loc[lab.to_numpy()].to_numpy().astype(np.int64),
                "degree_sum": d_c,
                "internal_edges": e_c,
                "q_num": 2 * int(m_edges) * 2 * e_c - d_c * d_c,
            }
        )

    return per.map_batches(finish, batch_format="pandas")


def q_closeness_sampled(sf_dir: str, n_seeds: int = 4):
    """Sampled harmonic closeness centrality: score(v) = sum over the
    n_seeds smallest seed vertices of 1e6 // (1 + hops(seed, v))
    (integer-exact harmonic kernel; unreachable contributes 0). The
    standard landmark approximation — per-seed BFS on the engine, the
    per-seed distance tables union-ed and reduced by one bucket_sum,
    never joined driver-side."""
    from ..stages.join import bucket_sum
    from .graph import lookup_vertex_id

    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)
    seeds_orig = _seed_vertices(sf_dir, n_seeds)

    parts = []
    for s in seeds_orig:
        sid = lookup_vertex_id(man, str(int(s)))
        res = _run_cached(sf_dir, "lineitem", "sssp", source_id=sid)

        def contrib(t: pa.Table) -> pa.Table:
            v = t["vertex"].cast(pa.int64())
            d = t["value"].to_numpy()
            fin = np.isfinite(d)
            sc = np.zeros(len(d), dtype=np.int64)
            sc[fin] = 1_000_000 // (1 + d[fin].astype(np.int64))
            return pa.table({"vertex": v, "closeness_e6": pa.array(sc)})

        parts.append(res.map_batches(contrib, batch_format="pyarrow"))

    uni = parts[0]
    for p in parts[1:]:
        uni = uni.union(p)
    agg = bucket_sum(uni, ["vertex"], ["closeness_e6"], n_buckets=16)
    return agg.map_batches(
        lambda df: df.astype({"vertex": "int64", "closeness_e6": "int64"}),
        batch_format="pandas",
    )


def q_connected_components(sf_dir: str):
    res = _run_cached(sf_dir, "lineitem", "cc")
    return _as_int_vertex(res, "component", lambda v: v.cast(pa.int64()))


def q_cc_incremental(sf_dir: str):
    """Incremental connected components: labels from the 'previous
    snapshot' graph (80% of edges) warm-start CC on the full graph —
    the recompute-after-crawl-delta pattern. The warm fixpoint is
    provably the cold fixpoint (algorithms.ConnectedComponentsWarmStart)
    so the oracle is simply full CC; what this entry checks is the
    warm path's exactness. Measured: the warm run converges in a
    fraction of the cold run's supersteps (only merged components
    re-propagate)."""
    from ..algorithms import ConnectedComponentsWarmStart

    prior = _run_cached(sf_dir, "lineitem_sub5", "cc").to_pandas()
    algo = ConnectedComponentsWarmStart(
        prior["vertex"].astype(np.int64).to_numpy(),
        prior["value"].astype(np.int64).to_numpy(),
    )
    gdir = _graph_for(sf_dir, "lineitem")
    import json

    wdir = _cache(sf_dir, "lineitem", "run_cc_warm")
    run_json = os.path.join(wdir, "run.json")
    if os.path.exists(run_json):
        from .graph import result_dataset

        with open(run_json) as f:
            final = json.load(f)["final_iter"]
        res = result_dataset(
            GraphManifest.load(gdir), os.path.join(wdir, "state", f"iter={final:04d}")
        )
    else:
        res = run_algorithm(gdir, wdir, algo)
    return _as_int_vertex(res, "component", lambda v: v.cast(pa.int64()))


def q_label_propagation(sf_dir: str):
    res = _run_cached(sf_dir, "lineitem", "lp", num_iters=10)
    return _as_int_vertex(res, "label", lambda v: v.cast(pa.int64()))


def q_mis(sf_dir: str, seed: int = 7):
    """Luby maximal independent set on the (self-loop-free, bipartite)
    lineitem graph — see algorithms.MaximalIndependentSet. Output is
    every vertex with an in_mis 0/1 flag; deterministic for the seed,
    so the DuckDB recursive-CTE oracle (same mirror-window trick as
    kcore) reproduces it exactly."""
    res = _run_cached(sf_dir, "lineitem", "mis", seed=seed)

    def conv(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64())
        st = t["value"].to_numpy()
        return pa.table(
            {"vertex": v, "in_mis": pa.array((st == 1.0).astype(np.int64))}
        )

    return res.map_batches(conv, batch_format="pyarrow")


def q_triangle_count(sf_dir: str):
    total, _ = triangle_count(edges_orders(sf_dir), n_buckets=32)
    return pd.DataFrame({"n_triangles": [int(total)]})


def q_triangles_per_vertex(sf_dir: str):
    _, per = triangle_count(edges_orders(sf_dir), n_buckets=32, per_vertex=True)
    return per


# ---------------------------------------------------------------------------
# documents: text analysis / dedup / fingerprinting


def q_doc_stats(sf_dir: str):
    """Per-doc text statistics (quality-score raw features)."""

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].astype(str)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_chars_text": text.str.len().astype("int64"),
                "n_tokens": text.str.split().str.len().fillna(0).astype("int64"),
                "n_upper": text.str.count(r"[A-Z]").astype("int64"),
                "n_digits": text.str.count(r"[0-9]").astype("int64"),
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        stats, batch_format="pandas"
    )


def q_doc_exact_dedup(sf_dir: str):
    """Exact dedup by full text: keep min doc_id per text group.
    Delegates to the one implementation in stages.dedup.exact_dedup
    (hash-partitioned on the content digest, never the wide text),
    with bucket count scaled to the input size."""
    from ..stages.dedup import exact_dedup

    ds = _table(sf_dir, "documents", ["doc_id", "text"])
    dd = exact_dedup(ds, n_buckets=_scaled_buckets(sf_dir, "documents"))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["winner_id"].astype("int64"),
                "n_copies": df["n_copies"].astype("int64"),
            }
        )

    return dd.map_batches(finish, batch_format="pandas")


def q_doc_fingerprint(sf_dir: str):
    """Deterministic document fingerprint (md5 of the text bytes)."""

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "fp": [hashlib.md5(t.encode()).hexdigest() for t in df["text"].astype(str)],
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(fp, batch_format="pandas")


def q_top_terms(sf_dir: str):
    """Top-100 whitespace terms: per-batch partial counts (combiner)
    before the one groupby — the pre-aggregation pattern."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df["text"].astype(str).str.split().explode().value_counts()
        return pd.DataFrame({"term": c.index.astype(str), "cnt": c.to_numpy().astype("int64")})

    from ray.data.aggregate import Sum

    ds = _table(sf_dir, "documents", ["text"]).map_batches(partial, batch_format="pandas")
    agg = ds.groupby("term").aggregate(Sum("cnt", alias_name="cnt"))
    top = agg.sort(["cnt", "term"], descending=[True, False]).limit(100)
    return top


def q_inverted_index(sf_dir: str, block_size: int | None = None):
    """Search-index build: the full posting list (sorted doc ids) per
    term. The (doc_id, term) pairs a batch emits are already globally
    distinct — a document lives in exactly one row — so ONE
    term-bucket shuffle assembles every posting list (a term's whole
    list lands in one group). Postings serialize as a comma-joined
    string, the hash-comparable stand-in for a list<int64> column.

    ``block_size`` set = the web-scale HOT-TERM path (q_inverted
    _index_blocked registry row): a term whose df exceeds the cap
    emits FIXED-SIZE posting blocks (term, block_id, df, postings)
    instead of one unbounded string row — the block/skip-pointer
    split of a production index. block_id orders doc-id ranges, df is
    the term's TOTAL df on every block row (the skip metadata), and
    concatenating a term's blocks in block_id order reproduces the
    unblocked postings bit-for-bit (parity-tested)."""
    from ..stages.join import _BUCKET, add_bucket

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        t = df.set_index("doc_id")["text"].astype(str).str.split().explode().dropna()
        return pd.DataFrame(
            {"doc_id": t.index.to_numpy(), "term": t.to_numpy()}
        ).drop_duplicates()

    def build(dfb: pd.DataFrame) -> pd.DataFrame:
        s = dfb.sort_values(["term", "doc_id"])
        g = s.groupby("term", sort=False)["doc_id"]
        return pd.DataFrame(
            {
                "term": g.size().index,
                "df": g.size().to_numpy().astype("int64"),
                "postings": g.agg(lambda ids: ",".join(map(str, ids))).to_numpy(),
            }
        )

    def build_blocked(dfb: pd.DataFrame) -> pd.DataFrame:
        s = dfb.sort_values(["term", "doc_id"])
        s = s.assign(
            block_id=(s.groupby("term", sort=False).cumcount() // block_size).astype(
                "int64"
            ),
            df=s.groupby("term", sort=False)["doc_id"].transform("size").astype(
                "int64"
            ),
        )
        g = s.groupby(["term", "block_id"], sort=False)
        out = g.agg(
            df=("df", "first"),
            postings=("doc_id", lambda ids: ",".join(map(str, ids))),
        ).reset_index()
        return out[["term", "block_id", "df", "postings"]]

    src = _table(sf_dir, "documents", ["doc_id", "text"])
    nb = _scaled_buckets(sf_dir, "documents", rows_per_bucket=50_000, floor=16)
    keyed = add_bucket(src.map_batches(pairs, batch_format="pandas"), ["term"], nb)
    return _BMG(keyed, nb, build_blocked if block_size else build, "pandas")


def q_inverted_index_blocked(sf_dir: str, block_size: int = 8):
    """Hot-term posting-list split (SURVEY §2 "block/skip split
    documented as the web-scale path" — now implemented): fixed
    ``block_size`` posting blocks per term; see q_inverted_index."""
    return q_inverted_index(sf_dir, block_size=block_size)


def q_doc_repetition(sf_dir: str):
    """Intra-document repetition signal (Gopher/C4-style quality
    heuristic): per doc, total vs duplicate word trigrams — a high
    duplicate fraction marks boilerplate/spam. Pure per-row map
    (no shuffle); tokenization matches top_terms (whitespace runs),
    trigrams join on a single space (tokens cannot contain
    whitespace, so the join is unambiguous cross-engine)."""

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        ids, n_tris, dups = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"].astype(str)):
            toks = text.split()
            if len(toks) < 3:
                continue
            s = pd.Series(toks)
            tri = s[:-2].reset_index(drop=True).str.cat(
                [s[1:-1].reset_index(drop=True), s[2:].reset_index(drop=True)], sep=" "
            )
            n = len(tri)
            ids.append(doc_id)
            n_tris.append(n)
            dups.append(n - tri.nunique())
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_trigrams": pd.Series(n_tris, dtype="int64"),
                "dup_trigrams": pd.Series(dups, dtype="int64"),
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        stats, batch_format="pandas"
    )


def q_dedup_report(sf_dir: str):
    """Dedup observability: per source, total docs vs distinct
    contents (md5) and the duplicate rate — the report a dedup stage
    publishes per snapshot. Totals are per-batch partials; distinct
    contents count via ONE hash-bucket distinct on (source, md5) —
    the hash, never the text, is what shuffles. Rate is exact
    integer (dups * 1e6) // n_docs."""
    import hashlib as _hl

    from ..stages.join import bucket_sum, distinct

    def with_hash(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": df["source"],
                "fp": [
                    _hl.md5(t.encode("utf-8")).hexdigest()
                    for t in df["text"].astype(str)
                ],
                "n": np.ones(len(df), dtype=np.int64),
            }
        )

    src = _table(sf_dir, "documents", ["source", "text"]).map_batches(
        with_hash, batch_format="pandas"
    ).materialize()
    totals = (
        bucket_sum(src, ["source"], ["n"], n_buckets=4)
        .to_pandas()
        .set_index("source")["n"]
    )
    uniq = (
        distinct(src, ["source", "fp"])
        .map_batches(
            lambda df: df.groupby("source", as_index=False).size(), batch_format="pandas"
        )
        .to_pandas()
        .groupby("source")["size"]
        .sum()
    )
    out = pd.DataFrame({"n_docs": totals, "n_unique": uniq}).reset_index()
    dups = out["n_docs"] - out["n_unique"]
    return pd.DataFrame(
        {
            "source": out["source"],
            "n_docs": out["n_docs"].astype("int64"),
            "n_unique": out["n_unique"].astype("int64"),
            "dup_rate_e6": (dups * 1_000_000 // out["n_docs"]).astype("int64"),
        }
    )


def q_source_overlap(sf_dir: str, prefix_len: int = 8, n_buckets: int = 16):
    """Cross-source duplicate PROVENANCE matrix: for every unordered
    source pair, how many distinct boilerplate PREFIXES (first
    ``prefix_len`` tokens) and how many distinct exact CONTENTS (md5 of
    the trimmed text) appear in BOTH — the report that tells a corpus
    curator which feeds mirror each other before mixing weights are
    chosen. Only fingerprints shuffle, never text; (source, kind, fp)
    is globally deduped first, then pair expansion runs inside
    fp-bucketed kernels (a fingerprint's whole source set shares a
    bucket), so a fingerprint shared by s sources costs s^2 only
    within its bucket. Empty docs are excluded from both fingerprint
    families, so content pairs are a subset of prefix pairs."""
    import hashlib as _hl

    from ..stages.join import add_bucket, bucket_map_groups, bucket_sum, distinct

    def fps(df: pd.DataFrame) -> pd.DataFrame:
        tx = df["text"].astype(str).str.strip()
        keep = tx != ""
        src = df["source"].astype(str)[keep]
        tx = tx[keep]
        pre = tx.str.split().str[:prefix_len].str.join(" ")
        md5 = [_hl.md5(t.encode("utf-8")).hexdigest() for t in tx]
        return pd.DataFrame(
            {
                "source": pd.concat([src, src], ignore_index=True),
                "kind": np.repeat(
                    np.array([0, 1], dtype=np.int64), len(tx)
                ),
                "fp": pd.concat(
                    [pre, pd.Series(md5, index=tx.index)], ignore_index=True
                ),
            }
        )

    sf = distinct(
        _table(sf_dir, "documents", ["source", "text"]).map_batches(
            fps, batch_format="pandas"
        ),
        ["source", "kind", "fp"],
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on=["kind", "fp"])
        m = m[m["source_x"] < m["source_y"]]
        out = m.groupby(
            ["source_x", "source_y", "kind"], as_index=False, sort=False
        ).size()
        return pd.DataFrame(
            {
                "source_a": out["source_x"].astype(str),
                "source_b": out["source_y"].astype(str),
                "kind": out["kind"].astype("int64"),
                "n": out["size"].astype("int64"),
            }
        )

    per_bucket = bucket_map_groups(
        add_bucket(sf, ["kind", "fp"], n_buckets), n_buckets, pairs, "pandas"
    )
    # exact per bucket (an fp lives in one bucket); several buckets can
    # emit the same (pair, kind) — sum, then pivot the tiny result
    flat = bucket_sum(
        per_bucket, ["source_a", "source_b", "kind"], ["n"], 4
    ).to_pandas()
    pre = flat[flat["kind"] == 0].set_index(["source_a", "source_b"])["n"]
    con = flat[flat["kind"] == 1].set_index(["source_a", "source_b"])["n"]
    out = pre.to_frame("shared_prefixes")
    out["shared_contents"] = con.reindex(out.index, fill_value=0)
    out = out.reset_index()
    return pd.DataFrame(
        {
            "source_a": out["source_a"].astype(str),
            "source_b": out["source_b"].astype(str),
            "shared_prefixes": out["shared_prefixes"].astype("int64"),
            "shared_contents": out["shared_contents"].astype("int64"),
        }
    )


def q_term_burstiness(sf_dir: str, top_k: int = 50, n_buckets: int = 16):
    """Church-Gale term burstiness for the top-k corpus terms: a
    bursty term concentrates its occurrences in few documents (high
    mean-per-containing-doc), a function word spreads evenly — the
    signal separating topical from structural vocabulary when picking
    dedup shingle filters. Per-batch (doc, term) counts collapse to
    SUM-mergeable per-term partials (total, doc_freq, sum of squared
    per-doc counts — each doc lives in exactly one batch), so one
    bucket_sum finishes the corpus; burst = total/doc_freq exact
    integer e6."""
    from ..stages.join import bucket_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df.set_index("doc_id")["text"].astype(str).str.split().explode().dropna()
        c = (
            pd.DataFrame({"doc_id": t.index.to_numpy(), "term": t.to_numpy()})
            .groupby(["doc_id", "term"], sort=False)
            .size()
            .reset_index(name="c")
        )
        g = c.groupby("term", sort=False)["c"]
        out = pd.DataFrame(
            {
                "total_cnt": g.sum().astype("int64"),
                "doc_freq": g.size().astype("int64"),
                "sumsq_cnt": g.apply(lambda s: int((s * s).sum())).astype("int64"),
            }
        ).reset_index()
        return out

    agg = bucket_sum(
        _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["term"],
        ["total_cnt", "doc_freq", "sumsq_cnt"],
        n_buckets,
    )
    top = (
        agg.sort(["total_cnt", "term"], descending=[True, False])
        .limit(top_k)
        .to_pandas()
    )
    top["burst_e6"] = (
        top["total_cnt"].astype("int64") * 1_000_000 // top["doc_freq"]
    ).astype("int64")
    return top[["term", "total_cnt", "doc_freq", "sumsq_cnt", "burst_e6"]]


def q_zipf_heaps(sf_dir: str, n_buckets: int = 16):
    """Zipf/Heaps corpus profile per source: total tokens, vocabulary
    size (distinct terms), hapax legomena (terms occurring once — the
    Heaps-law growth frontier), and the top term's count (the Zipf
    intercept). Two bucketed shuffles: per-batch (source, term) count
    partials -> bucket_sum to final per-(source, term) counts ->
    per-source rollup inside source-bucketed kernels (hapax/distinct
    need final counts, so they can't merge from batch partials)."""
    from ..stages.join import add_bucket, bucket_map_groups, bucket_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df.set_index("source")["text"].astype(str).str.split().explode().dropna()
        c = (
            pd.DataFrame({"source": t.index.to_numpy(), "term": t.to_numpy()})
            .groupby(["source", "term"], sort=False)
            .size()
            .reset_index(name="c")
        )
        c["c"] = c["c"].astype("int64")
        return c

    counts = bucket_sum(
        _table(sf_dir, "documents", ["source", "text"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["source", "term"],
        ["c"],
        n_buckets,
    )

    def rollup(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby("source", sort=False)["c"]
        return pd.DataFrame(
            {
                "source": gg.sum().index.astype(str),
                "total_tokens": gg.sum().to_numpy().astype("int64"),
                "distinct_terms": gg.size().to_numpy().astype("int64"),
                "hapax_terms": gg.apply(lambda s: int((s == 1).sum()))
                .to_numpy()
                .astype("int64"),
                "top_term_cnt": gg.max().to_numpy().astype("int64"),
            }
        )

    return bucket_map_groups(
        add_bucket(counts, ["source"], 4), 4, rollup, "pandas"
    )


def q_lang_term_jaccard(sf_dir: str, top_k: int = 100, n_buckets: int = 16):
    """Cross-language VOCABULARY CONFUSION: Jaccard overlap of the
    top-k term sets between every language pair — high overlap means
    n-gram language ID will confuse the pair (the check run before
    trusting a langid split). Per-batch (lang, term) count partials ->
    one bucket_sum -> per-lang top-k inside lang-grouped kernels
    (cnt desc, term ties) -> tiny driver pair expansion (L^2 * k)."""
    from ..stages.join import add_bucket, bucket_map_groups, bucket_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = df.set_index("lang")["text"].astype(str).str.split().explode().dropna()
        c = (
            pd.DataFrame({"lang": t.index.to_numpy(), "term": t.to_numpy()})
            .groupby(["lang", "term"], sort=False)
            .size()
            .reset_index(name="c")
        )
        c["c"] = c["c"].astype("int64")
        return c

    counts = bucket_sum(
        _table(sf_dir, "documents", ["lang", "text"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["lang", "term"],
        ["c"],
        n_buckets,
    )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for lang, gg in g.groupby("lang", sort=False):
            out.append(
                gg.sort_values(["c", "term"], ascending=[False, True], kind="stable")
                .head(top_k)[["lang", "term"]]
            )
        return pd.concat(out, ignore_index=True)

    tops = bucket_map_groups(
        add_bucket(counts, ["lang"], 4), 4, topk, "pandas"
    ).to_pandas()
    sets = tops.groupby("lang")["term"].apply(set)
    langs = sorted(sets.index)
    rows = []
    for i, a in enumerate(langs):
        for b in langs[i + 1 :]:
            inter = len(sets[a] & sets[b])
            rows.append((a, b, inter, len(sets[a]) + len(sets[b]) - inter))
    return pd.DataFrame(
        {
            "lang_a": [r[0] for r in rows],
            "lang_b": [r[1] for r in rows],
            "shared_terms": pd.Series([r[2] for r in rows], dtype="int64"),
            "union_terms": pd.Series([r[3] for r in rows], dtype="int64"),
        }
    )


def _bpe_train(sf_dir: str, n_merges: int = 6, n_buckets: int = 8):
    """DISTRIBUTED BPE TOKENIZER TRAINING (Sennrich et al. 2016): learn
    the first ``n_merges`` byte-pair merge rules over the corpus
    vocabulary. Per round: (1) adjacent symbol-pair counts weighted by
    word frequency — vectorized shifted-array pairs per batch, pre-
    reduced (combiner), one bucket_sum; (2) global argmax pair (count
    desc, then lexicographic — the Sennrich tie convention made
    deterministic); (3) broadcast the rule and REWRITE symbol strings
    with one vectorized non-regex replace. Words are held as
    double-delimited symbol strings ('|a||b||c|') so back-to-back
    merge sites never share delimiter characters and Python
    str.replace == DuckDB replace == BPE's greedy left-to-right merge.
    Pair counts are zip-adjacent (overlapping runs count each pair),
    exactly the reference implementation's counting. The vocabulary
    (distinct word + count) is the only state that iterates — at
    100 TB it stays a distributed table; only the k-th rule (2 strings)
    ever touches the driver."""
    from ..stages.join import bucket_sum

    def tok_partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df["text"].astype(str).str.split().explode().dropna().value_counts()
        return pd.DataFrame(
            {"term": c.index.astype(str), "c": c.to_numpy().astype("int64")}
        )

    vocab = bucket_sum(
        _table(sf_dir, "documents", ["text"]).map_batches(
            tok_partial, batch_format="pandas"
        ),
        ["term"],
        ["c"],
        n_buckets,
    )

    def init_syms(df: pd.DataFrame) -> pd.DataFrame:
        s = "|" + df["term"].astype(str).map(lambda w: "||".join(w)) + "|"
        return pd.DataFrame({"s": s, "c": df["c"].astype("int64")})

    words = vocab.map_batches(init_syms, batch_format="pandas").materialize()

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        # regex=False: pandas treats a multi-char pat as a REGEX by
        # default, and '||' as regex is an empty alternation
        syms = df["s"].astype(str).str.strip("|").str.split("||", regex=False)
        cnt = df["c"].to_numpy()
        e = syms.explode()
        idx = e.index.to_numpy()
        vals = e.to_numpy()
        if len(vals) < 2:
            return pd.DataFrame(
                {"lft": pd.Series(dtype=str), "rgt": pd.Series(dtype=str),
                 "w": pd.Series(dtype="int64")}
            )
        same = idx[1:] == idx[:-1]
        out = pd.DataFrame(
            {
                "lft": vals[:-1][same],
                "rgt": vals[1:][same],
                "w": cnt[df.index.get_indexer(idx[:-1][same])],
            }
        )
        return out.groupby(["lft", "rgt"], as_index=False, sort=False)["w"].sum()

    def corpus_tokens(w_ds) -> int:
        # weighted symbol count: one pass of bounded per-block partials
        def cnt(df: pd.DataFrame) -> pd.DataFrame:
            n = (
                df["s"].astype(str).str.strip("|").str.split("||", regex=False).str.len()
                * df["c"]
            ).sum()
            return pd.DataFrame({"n": pd.Series([int(n)], dtype="int64")})

        rows = w_ds.map_batches(cnt, batch_format="pandas").take_all()
        return int(sum(r["n"] for r in rows))

    rules = []
    tokens = [(0, corpus_tokens(words))]
    for step in range(1, n_merges + 1):
        pairs = bucket_sum(
            words.map_batches(pair_partial, batch_format="pandas"),
            ["lft", "rgt"],
            ["w"],
            n_buckets,
        )
        top = (
            pairs.sort(["w", "lft", "rgt"], descending=[True, False, False])
            .limit(1)
            .to_pandas()
        )
        lft, rgt, w = str(top["lft"][0]), str(top["rgt"][0]), int(top["w"][0])
        rules.append((step, lft, rgt, w))
        pat, repl = f"|{lft}||{rgt}|", f"|{lft}{rgt}|"

        def apply_rule(df: pd.DataFrame, pat=pat, repl=repl) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "s": df["s"].astype(str).str.replace(pat, repl, regex=False),
                    "c": df["c"].astype("int64"),
                }
            )

        words = words.map_batches(apply_rule, batch_format="pandas").materialize()
        tokens.append((step, corpus_tokens(words)))

    rules_df = pd.DataFrame(
        {
            "step": pd.Series([r[0] for r in rules], dtype="int64"),
            "sym_left": [r[1] for r in rules],
            "sym_right": [r[2] for r in rules],
            "pair_cnt": pd.Series([r[3] for r in rules], dtype="int64"),
        }
    )
    tokens_df = pd.DataFrame(
        {
            "step": pd.Series([t[0] for t in tokens], dtype="int64"),
            "corpus_symbols": pd.Series([t[1] for t in tokens], dtype="int64"),
        }
    )
    return rules_df, tokens_df


def q_bpe_merges(sf_dir: str, n_merges: int = 6, n_buckets: int = 8):
    """The learned merge-rule table — see _bpe_train."""
    return _bpe_train(sf_dir, n_merges, n_buckets)[0]


def q_bpe_apply(sf_dir: str, n_merges: int = 6, n_buckets: int = 8):
    """TOKENIZER COMPRESSION CURVE: the frequency-weighted corpus
    symbol count after each learned BPE merge (step 0 = characters) —
    the bytes-per-token trade a tokenizer buys, measured on the same
    distributed trainer as q_bpe_merges (each point is one bounded
    per-block counting pass over the evolving vocabulary)."""
    return _bpe_train(sf_dir, n_merges, n_buckets)[1]


def q_skipgram_counts(sf_dir: str, window: int = 2):
    """Skip-gram co-occurrence counts (the word2vec / GloVe
    preprocessing pass): ordered token pairs within +-window
    positions inside a document, counted corpus-wide. Per-batch the
    pairs come from VECTORIZED array shifts (one slice per offset,
    never a per-position loop), pre-reduced per batch (combiner),
    then one bucket_sum — the co-occurrence matrix build that feeds
    embedding training at 100 TB."""
    from ..stages.join import bucket_sum

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ctr, ctx = [], []
        for text in df["text"].astype(str):
            toks = np.array(text.split(), dtype=object)
            for d in range(1, window + 1):
                if len(toks) <= d:
                    continue
                ctr.append(toks[:-d])
                ctx.append(toks[d:])
                ctr.append(toks[d:])
                ctx.append(toks[:-d])
        if not ctr:
            return pd.DataFrame(
                {"center": pd.Series([], dtype=str), "context": pd.Series([], dtype=str),
                 "cnt": pd.Series([], dtype="int64")}
            )
        g = pd.DataFrame(
            {"center": np.concatenate(ctr), "context": np.concatenate(ctx),
             "cnt": np.int64(1)}
        )
        return g.groupby(["center", "context"], as_index=False, sort=False).sum()

    src = _table(sf_dir, "documents", ["text"])
    return bucket_sum(
        src.map_batches(pairs, batch_format="pandas"),
        ["center", "context"], ["cnt"], n_buckets=8,
    )


def q_charclass_stats(sf_dir: str):
    """Character-class audit per language (tokenizer/vocab design
    input): corpus totals of letters / digits / whitespace / other.
    Vectorized per batch with numpy byte-class masks over the
    concatenated text (ASCII corpus); bounded per-batch partials
    (<= |langs| rows) driver-reduce — O(langs) state at any scale."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lang, g in df.groupby("lang"):
            s = "".join(g["text"].astype(str).tolist())
            b = np.frombuffer(s.encode("utf-8"), dtype=np.uint8)
            letters = int((((b >= 65) & (b <= 90)) | ((b >= 97) & (b <= 122))).sum())
            digits = int(((b >= 48) & (b <= 57)).sum())
            spaces = int(((b == 32) | (b == 9) | (b == 10) | (b == 13)).sum())
            rows.append((lang, len(b), letters, digits, spaces))
        return pd.DataFrame(
            rows, columns=["lang", "n_bytes", "letters", "digits", "spaces"]
        )

    src = _table(sf_dir, "documents", ["lang", "text"])
    s = (
        src.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("lang", as_index=False)
        .sum()
    )
    out = pd.DataFrame(
        {
            "lang": s["lang"],
            "n_bytes": s["n_bytes"].astype("int64"),
            "letters": s["letters"].astype("int64"),
            "digits": s["digits"].astype("int64"),
            "spaces": s["spaces"].astype("int64"),
            "other": (s["n_bytes"] - s["letters"] - s["digits"] - s["spaces"]).astype(
                "int64"
            ),
        }
    )
    return out


def q_collocation_lift(sf_dir: str):
    """Collocation mining: integer LIFT (the exact-arithmetic stand-in
    for PMI) per co-occurring pair — lift_e6 = cnt_ab * N_tokens *
    1e6 // (cnt_a * cnt_b), composing the skip-gram co-occurrence
    reduction with unigram counts. Both reductions are distributed
    (bucket_sum); the final join is O(vocab^2) driver rows on this
    31-term corpus — at web scale the unigram table broadcasts and
    the division runs inside the pair reduction."""
    from ..stages.join import bucket_sum

    pairs = q_skipgram_counts(sf_dir).to_pandas()

    def uni(df: pd.DataFrame) -> pd.DataFrame:
        c = df["text"].astype(str).str.split().explode().value_counts()
        return pd.DataFrame({"term": c.index.astype(str), "n": c.to_numpy().astype("int64")})

    u = (
        bucket_sum(
            _table(sf_dir, "documents", ["text"]).map_batches(uni, batch_format="pandas"),
            ["term"], ["n"], n_buckets=4,
        )
        .to_pandas()
        .set_index("term")["n"]
    )
    N = int(u.sum())
    ca = u.reindex(pairs["center"]).to_numpy().astype(object)
    cb = u.reindex(pairs["context"]).to_numpy().astype(object)
    cnt = pairs["cnt"].to_numpy().astype(object)
    lift = [int(c * N * 1_000_000 // (a * b)) for c, a, b in zip(cnt, ca, cb)]
    return pd.DataFrame(
        {
            "center": pairs["center"],
            "context": pairs["context"],
            "cnt": pairs["cnt"].astype("int64"),
            "lift_e6": pd.Series(lift, dtype="int64"),
        }
    )


_HLL_P = 8  # 2^8 = 256 registers


def _hll_reg_rho(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(register, rho) per 64-bit hash — the shared HLL partial kernel
    (user/host/window HLL queries). Exact bit length via vectorized
    binary search (log2 on float64 is wrong above 2^53); rho follows
    the standard HLL rank-of-leading-zeros-plus-one over the low
    64-_HLL_P bits. SQL oracles reproduce the same formula."""
    reg = (h >> np.uint64(64 - _HLL_P)).astype(np.int64)
    rem = h & np.uint64((1 << (64 - _HLL_P)) - 1)
    bl = np.zeros(len(rem), dtype=np.uint64)
    for s in (32, 16, 8, 4, 2, 1):
        m = rem >= np.left_shift(np.uint64(1), bl + np.uint64(s))
        bl[m] += np.uint64(s)
    bitlen = np.where(rem == 0, 0, bl + 1).astype(np.int64)
    rho = np.where(rem == 0, 64 - _HLL_P + 1, 64 - _HLL_P - bitlen + 1)
    return reg, rho


def q_user_hll(sf_dir: str):
    """HyperLogLog registers for distinct-user counting: FNV-1a hash of
    the decimal user_id, top-8 bits pick the register, rho = leading
    zeros of the remaining 56 bits + 1, register = max rho. Per-batch
    partial registers (<= 256 rows/block — the mergeable-sketch
    combiner) before one tiny groupby-max. The checked output is the
    REGISTER TABLE (integers, hash-exact vs SQL); the cardinality
    estimate derived from it is sketch-standard and tested against the
    exact distinct count in pytest."""
    from ray.data.aggregate import Max

    from ..functions.hashing import fnv1a64

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from ..utils import splitmix64

        ids = df["user_id"].astype("int64").unique()
        # splitmix64 finalizer: FNV-1a alone has weak avalanche into
        # the TOP bits on short strings (register selection would
        # collapse); the mix is reproduced in SQL too
        h = splitmix64(fnv1a64([str(i) for i in ids]))
        reg, rho = _hll_reg_rho(h)
        g = pd.DataFrame({"reg": reg, "rho": rho}).groupby("reg", as_index=False).max()
        return g.astype("int64")

    ds = _table(sf_dir, "events", ["user_id"]).map_batches(partial, batch_format="pandas")
    agg = ds.groupby("reg").aggregate(Max("rho", alias_name="rho"))
    return agg.map_batches(
        lambda t: pa.table({"reg": t["reg"].cast(pa.int64()), "rho": t["rho"].cast(pa.int64())}),
        batch_format="pyarrow",
    )


def q_kcore(sf_dir: str, k: int = 20):
    """k-core decomposition by iterative peeling: repeatedly delete
    edges incident to a vertex of degree < k until fixpoint; emit the
    surviving vertex set. Driver loop = the peeling rounds; each round
    is one single-key degree groupby + a broadcast filter of the
    round's PEELED vertex set (ray.put — the frontier is the small
    side; at web scale with a huge frontier, swap the broadcast for a
    hash semi-join on u and v). Runs on the simple undirected lineitem
    graph held as symmetric directed rows."""
    import ray as _ray

    edges = edges_lineitem(sf_dir)

    sym = _sym_uv

    from ..stages.join import bucket_sum as _bsum

    def _ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {"u": t["u"], "one": pa.array(np.ones(t.num_rows, np.int64))}
        )

    cur = edges.map_batches(sym, batch_format="pyarrow").materialize()
    while True:
        # bucket_sum, not Dataset aggregate: the per-GROUP cost of the
        # sort-aggregate (~7 ms/group, NOTES.md) made each peel round
        # O(universe) driver-visible seconds
        deg_rows = _bsum(
            cur.map_batches(_ones, batch_format="pyarrow"), ["u"], ["one"], 16
        ).take_all()
        bad_ids = np.sort(
            np.array([r["u"] for r in deg_rows if r["one"] < k], dtype=np.int64)
        )
        if len(bad_ids) == 0:
            break
        ref = _ray.put(bad_ids)

        class Peel:
            def __init__(self):
                self.bad = _ray.get(ref)

            def __call__(self, t: pa.Table) -> pa.Table:
                u = t["u"].to_numpy()
                v = t["v"].to_numpy()
                drop = np.isin(u, self.bad) | np.isin(v, self.bad)
                return t.filter(pa.array(~drop))

        _pkey = ("kcore_peel", ref.hex())

        def peel_batch(t: pa.Table) -> pa.Table:
            from ..stages.taskify import worker_cached

            return worker_cached(_pkey, Peel)(t)

        cur = cur.map_batches(peel_batch, batch_format="pyarrow").materialize()
        if cur.count() == 0:
            break

    if cur.count() == 0:
        # empty core: hand back a typed pandas frame — an empty Ray
        # Dataset loses its schema through to_pandas()
        return pd.DataFrame({"vertex": pd.Series([], dtype="int64")})

    def verts(t: pa.Table) -> pa.Table:
        return pa.table({"vertex": t["u"]})

    from ..stages.join import distinct

    return distinct(cur.map_batches(verts, batch_format="pyarrow"), ["vertex"])


def _sym_uv(t: pa.Table) -> pa.Table:
    """Symmetrize a directed (src, dst) batch into (u, v) rows with
    both orientations — the shared peel/coreness/densest input shape
    (ADVICE r4 item #8: one kernel, no drift)."""
    s = t["src"].combine_chunks()
    d = t["dst"].combine_chunks()
    return pa.table({"u": pa.chunked_array([s, d]), "v": pa.chunked_array([d, s])})


def q_kcore_rounds(
    sf_dir: str, k: int = 20, max_rounds: int = 60, max_broadcast=None
):
    """Peeling-round observability for the k-core (onion-style): per
    vertex, the round its last incident edge vanished (``peel_round``;
    0 = still in the core at fixpoint) plus the ``in_core`` flag.
    Same peel rule as q_kcore (drop edges incident to a
    degree-<k vertex, rounds to fixpoint); presence per round is read
    off the round's degree table, which is bounded by the vertex
    universe (the same broadcast-budget family as the peel frontier;
    at web scale both become hash semi-joins). The oracle replays the
    identical rounds with the mirror-window recursive CTE and takes
    max(it) per vertex."""
    import ray as _ray

    edges = edges_lineitem(sf_dir)

    sym = _sym_uv

    from ..stages.join import bucket_sum as _bsum

    def _ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {"u": t["u"], "one": pa.array(np.ones(t.num_rows, np.int64))}
        )

    cur = edges.map_batches(sym, batch_format="pyarrow").materialize()
    if max_broadcast is None:
        from ..stages.coreness import MAX_BROADCAST_VERTICES as max_broadcast
    if cur.count() and int(cur.max("u")) + 1 > max_broadcast:
        # web scale: per-round anti-join peel, no O(V) driver dict or
        # broadcast removal set (stages/peel.py; bit-equal, parity-tested)
        from ..stages.peel import kcore_rounds_distributed

        return kcore_rounds_distributed(cur, k, max_rounds)
    last_seen: dict[int, int] = {}
    in_core: set[int] = set()
    r = 0
    while r < max_rounds:
        deg_rows = _bsum(
            cur.map_batches(_ones, batch_format="pyarrow"), ["u"], ["one"], 16
        ).take_all()
        present = np.array([row["u"] for row in deg_rows], dtype=np.int64)
        for u in present:
            last_seen[int(u)] = r
        bad_ids = np.sort(
            np.array([row["u"] for row in deg_rows if row["one"] < k], dtype=np.int64)
        )
        if len(bad_ids) == 0:
            in_core = set(int(u) for u in present)
            break
        ref = _ray.put(bad_ids)
        _pkey = ("kcore_rounds_peel", ref.hex())

        class Peel:
            def __init__(self):
                self.bad = _ray.get(ref)

            def __call__(self, t: pa.Table) -> pa.Table:
                u = t["u"].to_numpy()
                v = t["v"].to_numpy()
                drop = np.isin(u, self.bad) | np.isin(v, self.bad)
                return t.filter(pa.array(~drop))

        def peel_batch(t: pa.Table) -> pa.Table:
            from ..stages.taskify import worker_cached

            return worker_cached(_pkey, Peel)(t)

        cur = cur.map_batches(peel_batch, batch_format="pyarrow").materialize()
        r += 1
        if cur.count() == 0:
            break
    if r >= max_rounds and not in_core and cur.count() > 0:
        # round cap hit before fixpoint: mirror the oracle's capped
        # recursion (last_it == max_rounds), which reports vertices
        # still present at the cap as in-core (peel_round=0/in_core=1)
        deg_rows = _bsum(
            cur.map_batches(_ones, batch_format="pyarrow"), ["u"], ["one"], 16
        ).take_all()
        in_core = set(int(row["u"]) for row in deg_rows)
    verts = sorted(last_seen)
    return pd.DataFrame(
        {
            "vertex": pd.Series(verts, dtype="int64"),
            "peel_round": pd.Series(
                [0 if v in in_core else last_seen[v] + 1 for v in verts],
                dtype="int64",
            ),
            "in_core": pd.Series(
                [1 if v in in_core else 0 for v in verts], dtype="int64"
            ),
        }
    )


def _onion_layers_from(edges: rd.Dataset, max_rounds: int = 200, max_edges=None):
    """Shared onion-peel kernel over an undirected pair
    Dataset[(src, dst)] — see q_onion_layers. Under ``max_edges``
    (default stages/walks.py's broadcast cap) the inherently
    layer-sequential peel runs as ONE vectorized task over the
    ray.put edge arrays; above it, the per-wave distributed anti-join
    peel (stages/peel.py, bit-equal, parity-tested) runs instead."""
    import ray as _ray

    if max_edges is None:
        from ..stages.walks import MAX_BROADCAST_EDGES as max_edges
    if edges.count() > max_edges:
        from ..stages.peel import onion_layers_distributed

        return rd.from_pandas(onion_layers_distributed(edges, max_rounds))
    adj = edges.to_pandas()  # bounded pair universe under the cap
    a = adj["src"].to_numpy().astype(np.int64)
    b = adj["dst"].to_numpy().astype(np.int64)
    state = _ray.put((a, b))

    def peel(t: pa.Table) -> pa.Table:
        aa, bb = _ray.get(state)
        n = int(max(aa.max(), bb.max())) + 1 if len(aa) else 0
        src = np.concatenate([aa, bb])
        dst = np.concatenate([bb, aa])
        alive = np.ones(len(src), dtype=bool)
        last_seen = np.full(n, -1, np.int64)
        r = 0
        while alive.any() and r <= max_rounds:
            du = np.bincount(src[alive], minlength=n)
            present = du > 0
            last_seen[present] = r
            if r == max_rounds:
                break
            kmin = du[present].min()
            good = du > kmin
            alive &= good[src] & good[dst]
            r += 1
        got = np.flatnonzero(last_seen >= 0)
        return pa.table(
            {
                "vertex": pa.array(got),
                "layer": pa.array(last_seen[got] + 1),
            }
        )

    return rd.from_items([{"go": 1}]).map_batches(peel, batch_format="pyarrow")


def q_onion_layers(sf_dir: str, max_rounds: int = 200, max_edges=None):
    """ONION DECOMPOSITION (Hébert-Dufresne et al. 2016): the layer
    index refines coreness — each wave removes the current
    minimum-degree class, and a vertex's layer is the wave at which it
    loses its last incident edge (+1). Exposes WHERE in its core a
    vertex sits (early layer = periphery, late = nucleus).

    The edges_orders universe is bounded by construction (ids mod 500,
    distinct pairs), so the inherently layer-sequential peel runs as
    ONE vectorized task over the ray.put edge arrays — the
    partition-local exact-kernel pattern (site_centrality). On an
    unbounded graph, each wave is the q_kcore distributed round
    (degree bucket_sum + broadcast removal set) with the SAME wave
    semantics; the layer loop is sequential in either shape. The
    oracle runs the identical recurrence as a recursive CTE capped at
    ``max_rounds`` (both sides mirror the cap: survivors at the cap
    report layer cap+1)."""
    return _onion_layers_from(
        edges_orders(sf_dir).materialize(), max_rounds, max_edges
    )


def q_web_onion_layers(
    sf_dir: str, n_pages: int = 2000, max_rounds: int = 200, max_edges=None
):
    """Onion layers of the onsite web link graph (same canonical page
    index mapping as q_web_coreness; distinct undirected pairs are
    bounded by the generator's page universe). Periphery pages = early
    layers, the link nucleus = late layers — combined with
    web_coreness this localizes every page within its core shell."""
    links = _pages_links(n_pages)

    def to_pairs(t: pa.Table) -> pa.Table:
        sa = t["src_key"].to_pandas().astype(str)
        sb = t["dst_key"].to_pandas().astype(str)
        pat = r"https://site-(\d+)\.example/p/(\d+)"
        ma = sa.str.extract(pat)
        mb = sb.str.extract(pat)
        keep = (ma[0].notna() & mb[0].notna()).to_numpy()
        u = (
            ma[0][keep].astype(np.int64) * 16 + ma[1][keep].astype(np.int64)
        ).to_numpy()
        v = (
            mb[0][keep].astype(np.int64) * 16 + mb[1][keep].astype(np.int64)
        ).to_numpy()
        drop = u == v  # self-links: zero-length peel edges, exclude
        u, v = u[~drop], v[~drop]
        return pa.table(
            {"src": pa.array(np.minimum(u, v)), "dst": pa.array(np.maximum(u, v))}
        )

    from ..stages.join import distinct

    pairs = distinct(
        links.map_batches(to_pairs, batch_format="pyarrow"), ["src", "dst"]
    ).materialize()
    return _onion_layers_from(pairs, max_rounds, max_edges)


def _hindex_coreness(
    es: rd.Dataset, n_buckets: int = 8, max_rounds: int = 40, max_broadcast=None
):
    """Shared h-index-fixpoint coreness kernel over a symmetric
    directed edge Dataset[(u:int64, v:int64)] — delegates to
    stages/coreness.py, which auto-selects the broadcast value-vector
    path (id universe under the cap) or the per-round dst-bucket
    value-join path (web scale; no O(V) broadcast). See q_coreness
    for the algorithm and oracle-parity notes."""
    from ..stages.coreness import MAX_BROADCAST_VERTICES, hindex_coreness

    if max_broadcast is None:
        max_broadcast = MAX_BROADCAST_VERTICES
    return hindex_coreness(es, n_buckets, max_rounds, max_broadcast)


def q_coreness(
    sf_dir: str, n_buckets: int = 8, max_rounds: int = 40, max_broadcast=None
):
    """FULL k-core decomposition — every vertex's core number in one
    job — via the iterated neighborhood h-index (Lü et al. 2016,
    Nature Communications 7:10168): h0 = degree, h_{t+1}(v) =
    H({h_t(u) : u ~ v}), which converges monotonically to coreness.
    Unlike peeling (q_kcore: inherently sequential in k), EVERY round
    here is one embarrassingly parallel exchange — the web-scale
    shape. The symmetrized edge table is bucketed by src once and
    pinned across rounds (the kmeans input-pinning pattern); each
    round either broadcasts the O(V) value vector (ray.put once, read
    per task — under the id-universe cap) or, above the cap, runs the
    per-round dst-bucket value join (stages/coreness.py, bit-equal,
    parity-tested); exact per-vertex h-indexes come out of one
    vectorized lexsort + reduceat per bucket either way. Early exit at the fixpoint is
    oracle-safe: the SQL recursion runs a fixed ``max_rounds`` and a
    fixpoint is invariant under extra rounds; if the cap is hit
    unconverged, both sides have applied exactly ``max_rounds``
    identical updates and still agree."""
    edges = edges_orders(sf_dir)

    sym = _sym_uv

    return _hindex_coreness(
        edges.map_batches(sym, batch_format="pyarrow"),
        n_buckets,
        max_rounds,
        max_broadcast,
    )


def q_web_coreness(
    sf_dir: str, n_pages: int = 2000, n_buckets: int = 8, max_broadcast=None
):
    """Coreness of the WEB LINK GRAPH (onsite pages only): the same
    h-index fixpoint (q_coreness) over the generator's distinct
    page-level links, symmetrized, with endpoints mapped to the
    canonical page index i = site*16 + page parsed from the url —
    the integer universe both engine and oracle can derive without
    the (SipHash-ranked, non-SQL-reproducible) dictionary ids.
    Offsite link targets are excluded on both sides."""
    links = _pages_links(n_pages)

    def to_ids(t: pa.Table) -> pa.Table:
        out = []
        for a, b in (("src_key", "dst_key"), ("dst_key", "src_key")):
            sa = t[a].to_pandas().astype(str)
            sb = t[b].to_pandas().astype(str)
            pat = r"https://site-(\d+)\.example/p/(\d+)"
            ma = sa.str.extract(pat)
            mb = sb.str.extract(pat)
            keep = ma[0].notna() & mb[0].notna()
            u = (
                ma[0][keep].astype(np.int64) * 16 + ma[1][keep].astype(np.int64)
            ).to_numpy()
            v = (
                mb[0][keep].astype(np.int64) * 16 + mb[1][keep].astype(np.int64)
            ).to_numpy()
            out.append(pa.table({"u": pa.array(u), "v": pa.array(v)}))
        return pa.concat_tables(out)

    return _hindex_coreness(
        links.map_batches(to_ids, batch_format="pyarrow"),
        n_buckets,
        max_broadcast=max_broadcast,
    )


BROADCAST_DIM_ROWS = 2_000_000  # same threshold family as the dictionary encode


def q_revenue_by_nation(sf_dir: str):
    """Relational pipeline: orders JOIN customer JOIN nation ->
    groupby nation -> Sum/Count (TPC-H-style multi-table aggregation).

    The customer->nation mapping is a DIMENSION lookup: when customer
    fits the broadcast budget (<= 2M keys) it is shipped ONCE via
    ray.put and the whole query is a single map_batches + a ~25-row
    groupby — zero shuffles. Above the budget it falls back to the
    hash-partitioned bucket_join (one shuffle)."""
    import pyarrow.dataset as pads
    from ray.data.aggregate import Sum

    from ..stages.join import bucket_join

    orders = _table(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    nat_df = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    nation = dict(zip(nat_df["n_nationkey"].astype(int), nat_df["n_name"]))
    nation_ref = ray.put(nation)

    n_cust = pads.dataset(os.path.join(sf_dir, "customer.parquet")).count_rows()
    if n_cust <= BROADCAST_DIM_ROWS:
        cust_df = _dim_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
        c2n = pd.Series(
            cust_df["c_nationkey"].to_numpy(), index=cust_df["c_custkey"].to_numpy()
        )
        c2n_ref = ray.put(c2n)

        def broadcast_join_partial(t: pa.Table) -> pa.Table:
            """custkey -> nationkey lookup + per-batch pre-aggregation
            in one pass: each block emits <= 25 rows. Stateless task
            (no actor-pool startup for a sub-second stage); the
            lookups come from the object store via the captured refs
            — fetched zero-copy per task, never re-shipped per row."""
            c2n = ray.get(c2n_ref)
            nation_l = ray.get(nation_ref)
            ck = t["o_custkey"].to_numpy()
            nk = c2n.reindex(ck).to_numpy()
            keep = ~pd.isna(nk)
            nk = nk[keep].astype(np.int64)
            tp = t["o_totalprice"].to_numpy()[keep]
            order = np.argsort(nk, kind="stable")
            nks, tps = nk[order], tp[order]
            starts = np.flatnonzero(np.concatenate([[True], nks[1:] != nks[:-1]]))
            cnts = np.diff(np.concatenate([starts, [len(nks)]]))
            sums = np.add.reduceat(tps, starts) if len(starts) else np.empty(0)
            return pa.table(
                {
                    "nation": pa.array(
                        [nation_l[int(k)] for k in nks[starts]], pa.string()
                    ),
                    "n": pa.array(cnts.astype(np.int64)),
                    "rev": pa.array(sums, pa.float64()),
                }
            )

        partial = orders.map_batches(broadcast_join_partial, batch_format="pyarrow")
        # final reduce on the driver: each block emits <= 25 rows, so
        # the collected partials are (n_blocks x 25) — bounded at any
        # scale, and a Dataset sort-aggregate costs seconds of fixed
        # orchestration to reduce what pandas does in microseconds
        pdf = partial.to_pandas()
        agg = pdf.groupby("nation", as_index=False).agg(
            n_orders=("n", "sum"), revenue=("rev", "sum")
        )
        return pd.DataFrame(
            {
                "nation": agg["nation"],
                "n_orders": agg["n_orders"].astype("int64"),
                "revenue_e2": (agg["revenue"] * 100).round().astype("int64"),
            }
        )

    cust = _table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    ii = pa.int64()
    joined = bucket_join(
        orders, cust, left_on="o_custkey", right_on="c_custkey", n_buckets=32,
        left_schema=pa.schema([("o_custkey", ii), ("o_totalprice", pa.float64())]),
        right_schema=pa.schema([("c_custkey", ii), ("c_nationkey", ii)]),
    )

    class AttachNationPartial:
        """Attach the broadcast nation name AND pre-aggregate per batch
        (combiner): the global groupby then reduces ~25 rows per block
        instead of every joined order row."""

        def __init__(self):
            self.nation = ray.get(nation_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            nk = t["c_nationkey"].to_numpy()
            tp = t["o_totalprice"].to_numpy()
            order = np.argsort(nk, kind="stable")
            nks, tps = nk[order], tp[order]
            starts = np.flatnonzero(np.concatenate([[True], nks[1:] != nks[:-1]]))
            cnts = np.diff(np.concatenate([starts, [len(nks)]]))
            sums = np.add.reduceat(tps, starts) if len(starts) else np.empty(0)
            return pa.table(
                {
                    "nation": pa.array(
                        [self.nation[int(k)] for k in nks[starts]], pa.string()
                    ),
                    "n": pa.array(cnts.astype(np.int64)),
                    "rev": pa.array(sums, pa.float64()),
                }
            )

    _nkey = ("attach_nation", nation_ref.hex())

    def attach_batch(t: pa.Table) -> pa.Table:
        from ..stages.taskify import worker_cached

        return worker_cached(_nkey, AttachNationPartial)(t)

    partial = joined.map_batches(attach_batch, batch_format="pyarrow")
    agg = partial.groupby("nation").aggregate(
        Sum("n", alias_name="n_orders"), Sum("rev", alias_name="revenue")
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "nation": t["nation"],
                "n_orders": t["n_orders"].cast(pa.int64()),
                "revenue_e2": pc.round(pc.multiply(t["revenue"], 1e2)).cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_top_terms_per_lang(sf_dir: str, k: int = 10):
    """Partitioned top-k: top-k whitespace terms PER document language
    — per-batch partial counts (combiner), one (lang, term) groupby,
    then a per-lang top-k map_groups."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = df[["lang", "text"]].assign(term=df["text"].astype(str).str.split()).explode("term")
        ex = ex.dropna(subset=["term"])
        g = ex.groupby(["lang", "term"], as_index=False).size()
        return g.rename(columns={"size": "cnt"}).astype({"cnt": "int64"})

    ds = _table(sf_dir, "documents", ["lang", "text"]).map_batches(partial, batch_format="pandas")
    agg = ds.groupby(["lang", "term"]).aggregate(Sum("cnt", alias_name="cnt"))

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["cnt", "term"], ascending=[False, True]).head(k)
        return df[["lang", "term"]].assign(cnt=df["cnt"].astype("int64"))

    return agg.groupby("lang").map_groups(topk, batch_format="pandas")


def q_doc_split(sf_dir: str):
    """Deterministic train/val/test split by content-independent key
    hash (FNV-1a of the decimal doc_id) — the standard reproducible
    dataset-split operator; split is stable under any repartitioning."""
    from ..functions.hashing import fnv1a64

    def split(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        h = fnv1a64([str(i) for i in ids]) % np.uint64(10)
        name = np.where(h < 8, "train", np.where(h == 8, "val", "test"))
        return pd.DataFrame({"doc_id": ids, "bucket10": h.astype("int64"), "split": name})

    return _table(sf_dir, "documents", ["doc_id"]).map_batches(split, batch_format="pandas")


# ---------------------------------------------------------------------------
# events: tumbling-window aggregate (streaming-shaped, SURVEY.md §2.9)


def q_events_jsonl_hourly(sf_dir: str, n_buckets: int = 8):
    """JSONL SOURCE-FORMAT roundtrip (S1 coverage beyond text edge
    lists + Parquet): the events table is exported ONCE to line-JSON
    (ints and strings only — ts as epoch-us, value pre-scaled to
    cents, so the format roundtrip is exact by construction), read
    back with ray.data.read_json, and aggregated to the hourly
    tumbling window. The oracle reads the ORIGINAL parquet — a drift
    anywhere in export/parse/aggregate breaks the hash."""
    from ..stages.join import bucket_sum

    out_dir = _cache(sf_dir, "events", "jsonl_v1")
    done = os.path.join(out_dir, "_DONE")
    if not os.path.exists(done):
        shutil.rmtree(out_dir, ignore_errors=True)

        def conv(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "ts_us": pa.array(_ts_us(t["ts"].to_pandas()), pa.int64()),
                    "event_type": t["event_type"],
                    "value_e2": pa.array(
                        np.round(t["value"].to_numpy() * 100).astype(np.int64)
                    ),
                }
            )

        _table(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
            conv, batch_format="pyarrow"
        ).write_json(out_dir)
        with open(done, "w") as f:
            f.write("ok")

    ds = rd.read_json(out_dir, file_extensions=["json"])

    def win(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour_idx": pc.divide(t["ts_us"], 3_600_000_000).cast(pa.int64()),
                "event_type": t["event_type"],
                "n": pa.array(np.ones(t.num_rows, np.int64)),
                "value_e2": t["value_e2"].cast(pa.int64()),
            }
        )

    return bucket_sum(
        ds.map_batches(win, batch_format="pyarrow"),
        ["hour_idx", "event_type"],
        ["n", "value_e2"],
        n_buckets,
    )


def q_events_hourly(sf_dir: str):
    """Tumbling 1h window per event_type: count + sum(value).

    Ray Data has no event-time windows; a tumbling window over a batch
    table IS a groupby on the truncated timestamp (ray_guide.md). Hour
    is emitted as epoch seconds so the hash compare is type-exact."""

    def win(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy().astype("datetime64[s]").astype("int64")
        hour = (ts // 3600) * 3600
        return pa.table(
            {
                "hour_epoch": pa.array(hour, pa.int64()),
                "event_type": t["event_type"],
                "value": t["value"],
            }
        )

    from ray.data.aggregate import Count, Sum

    ds = _table(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
        win, batch_format="pyarrow"
    )
    agg = ds.groupby(["hour_epoch", "event_type"]).aggregate(
        Count(alias_name="n_events"), Sum("value", alias_name="sum_value")
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour_epoch": t["hour_epoch"],
                "event_type": t["event_type"],
                "n_events": t["n_events"].cast(pa.int64()),
                "sum_value_e6": pc.round(pc.multiply(t["sum_value"], 1e6)).cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q_events_sliding(sf_dir: str, window_s: int = 3600, step_s: int = 900):
    """Sliding window (1h length, 15min step) per event_type: each
    event lands in window_s/step_s windows; expansion happens in-batch
    with a per-batch partial count (combiner) before the one groupby."""
    k = window_s // step_s
    from ray.data.aggregate import Sum

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        ts_s = _ts_us(df["ts"]) // 1_000_000
        base = ts_s // step_s
        frames = []
        for i in range(k):
            frames.append(
                pd.DataFrame(
                    {
                        "win_start_epoch": (base - i) * step_s,
                        "event_type": df["event_type"].to_numpy(),
                    }
                )
            )
        allw = pd.concat(frames, ignore_index=True)
        g = allw.groupby(["win_start_epoch", "event_type"], as_index=False).size()
        return g.rename(columns={"size": "n"}).astype({"n": "int64"})

    ds = _table(sf_dir, "events", ["ts", "event_type"]).map_batches(expand, batch_format="pandas")
    agg = ds.groupby(["win_start_epoch", "event_type"]).aggregate(Sum("n", alias_name="n_events"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "win_start_epoch": t["win_start_epoch"].cast(pa.int64()),
                "event_type": t["event_type"],
                "n_events": t["n_events"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_events_quantiles(sf_dir: str, qs=(0.5, 0.9, 0.99)):
    """Exact per-group quantiles (rank = floor(q*(n-1)) of the sorted
    values): groupby event_type -> per-group vectorized sort. Groups
    here fit a worker; at 100 TB swap the per-group sort for a
    mergeable sketch (t-digest) computed per batch + merged — the
    exact version buys a hash-exact SQL oracle."""

    def quant(df: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(df["value"].to_numpy(dtype=np.float64))
        n = len(v)
        out = {
            "event_type": [df["event_type"].iloc[0]],
            "n_events": pd.Series([n], dtype="int64"),
        }
        for q in qs:
            idx = int(np.floor(q * (n - 1)))
            out[f"p{int(q * 100)}_e6"] = pd.Series(
                [int(np.round(v[idx] * 1e6))], dtype="int64"
            )
        return pd.DataFrame(out)

    return (
        _table(sf_dir, "events", ["event_type", "value"])
        .groupby("event_type")
        .map_groups(quant, batch_format="pandas")
    )


def q_events_late(sf_dir: str, lateness_s: int = 1800, n_buckets: int = 8):
    """EVENT-TIME WATERMARK accounting (the streaming late-data
    decision): per event type, how many events arrive more than the
    allowed lateness behind their user's watermark (running max event
    time over ARRIVAL order), and the worst observed lateness. The
    generator emits events in perfect time order, so arrival order is
    simulated with the deterministic splitmix64(event_id) shuffle —
    the planted-disorder harness (embedding_neardup's planted-pair
    convention), reproduced verbatim by the SQL oracle. Per-user
    watermarks run inside user-bucketed kernels; per-type partials
    (count/late/max) merge on the driver."""
    from ..stages.join import _BUCKET, add_bucket, bucket_map_groups
    from ..utils import splitmix64

    ds = _table(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def wm_kernel(g: pd.DataFrame) -> pd.DataFrame:
        ak = splitmix64(g["event_id"].to_numpy().astype(np.uint64))
        df = pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(),
                "event_type": g["event_type"].astype(str).to_numpy(),
                "ts_us": _ts_us(g["ts"]),
                "ak": ak,
                "event_id": g["event_id"].to_numpy(),
            }
        ).sort_values(["user_id", "ak", "event_id"], kind="stable")
        wm = (
            df.groupby("user_id", sort=False)["ts_us"]
            .transform(lambda s: s.cummax().shift(1))
        )
        lim = lateness_s * 1_000_000
        late = wm.notna() & ((wm - df["ts_us"]) > lim)
        lateness = np.where(late, (wm - df["ts_us"]).fillna(0), 0).astype(np.int64)
        out = df.assign(late=late.astype("int64"), lateness=lateness).groupby(
            "event_type", as_index=False, sort=False
        ).agg(
            n_events=("late", "size"),
            n_late=("late", "sum"),
            max_late_us=("lateness", "max"),
        )
        return out

    parts = bucket_map_groups(
        add_bucket(ds, ["user_id"], n_buckets), n_buckets, wm_kernel, "pandas"
    ).to_pandas()
    out = parts.groupby("event_type", as_index=False).agg(
        n_events=("n_events", "sum"),
        n_late=("n_late", "sum"),
        max_late_us=("max_late_us", "max"),
    )
    return pd.DataFrame(
        {
            "event_type": out["event_type"].astype(str),
            "n_events": out["n_events"].astype("int64"),
            "n_late": out["n_late"].astype("int64"),
            "max_late_us": out["max_late_us"].astype("int64"),
        }
    )


def q_events_cohort_value(sf_dir: str, n_buckets: int = 8):
    """COHORT VALUE CURVE (the LTV table): users cohorted by first-
    event week; per (cohort_week, age_week) the distinct active users
    and their exact summed value (integer cents). A user's whole
    history shares a bucket, so cohort assignment AND the per-age
    rollup happen inside one user-bucketed kernel — per-bucket partial
    rows merge by sum (distinct users of one user-bucket never overlap
    another's)."""
    from ..stages.join import _BUCKET, add_bucket, bucket_map_groups

    ds = _table(sf_dir, "events", ["user_id", "ts", "value"])

    def kern(g: pd.DataFrame) -> pd.DataFrame:
        us = g["user_id"].to_numpy()
        ts = _ts_us(g["ts"])
        week = ts // (7 * 86_400_000_000)
        cents = np.round(g["value"].to_numpy() * 100).astype(np.int64)
        df = pd.DataFrame({"u": us, "w": week, "c": cents})
        first = df.groupby("u", sort=False)["w"].transform("min")
        df["cohort_week"] = first
        df["age_week"] = df["w"] - first
        out = df.groupby(["cohort_week", "age_week"], as_index=False, sort=False).agg(
            n_users=("u", "nunique"), value_e2=("c", "sum")
        )
        return out

    parts = bucket_map_groups(
        add_bucket(ds, ["user_id"], n_buckets), n_buckets, kern, "pandas"
    ).to_pandas()
    out = parts.groupby(["cohort_week", "age_week"], as_index=False).agg(
        n_users=("n_users", "sum"), value_e2=("value_e2", "sum")
    )
    return pd.DataFrame(
        {
            "cohort_week": out["cohort_week"].astype("int64"),
            "age_week": out["age_week"].astype("int64"),
            "n_users": out["n_users"].astype("int64"),
            "value_e2": out["value_e2"].astype("int64"),
        }
    )


def q_events_sessionize(sf_dir: str, gap_s: int = 1800):
    """Gap-based sessionization per user (streaming-shaped op,
    SURVEY.md §2.9 note): Ray Data has no event-time windows, so the
    session window is a per-user groupby over ts-sorted events — the
    documented ordering assumption is 'events of one user fit one
    group and are sorted by (ts, event_id)'."""
    from ..stages.join import _BUCKET, add_bucket

    ds = _table(sf_dir, "events", ["event_id", "user_id", "ts"])

    def sessionize(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for uid, g in df.groupby("user_id"):
            g = g.sort_values(["ts", "event_id"], kind="stable")
            ts_us = _ts_us(g["ts"])
            new_s = np.ones(len(g), dtype=np.int64)
            new_s[1:] = (np.diff(ts_us) > gap_s * 1_000_000).astype(np.int64)
            sid = np.cumsum(new_s)
            gg = pd.DataFrame({"sid": sid, "ts_us": ts_us})
            agg = gg.groupby("sid").agg(start=("ts_us", "min"), end=("ts_us", "max"), n=("ts_us", "size"))
            out.append(
                pd.DataFrame(
                    {
                        "user_id": np.full(len(agg), uid, dtype=np.int64),
                        "session_start_epoch": (agg["start"] // 1_000_000).to_numpy(),
                        "n_events": agg["n"].to_numpy().astype("int64"),
                        "duration_s": ((agg["end"] // 1_000_000) - (agg["start"] // 1_000_000)).to_numpy(),
                    }
                )
            )
        if not out:
            return pd.DataFrame(
                {"user_id": pd.Series([], dtype="int64"),
                 "session_start_epoch": pd.Series([], dtype="int64"),
                 "n_events": pd.Series([], dtype="int64"),
                 "duration_s": pd.Series([], dtype="int64")}
            )
        return pd.concat(out, ignore_index=True)

    return (
        _BMG(add_bucket(ds, ["user_id"], _scaled_buckets(sf_dir, "events")), _scaled_buckets(sf_dir, "events"), sessionize, "pandas")
    )


def q_events_latest(sf_dir: str):
    """Keep-newest-per-key dedup (the CDX-style 'latest crawl of each
    url' primitive): per user the single most recent event, ties on ts
    broken by highest event_id. One user-bucket shuffle, vectorized
    per-bucket tail-of-sorted — a key's rows all share a bucket, so
    the argmax never crosses workers."""
    from ..stages.join import _BUCKET, add_bucket

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "event_id": df["event_id"].astype("int64"),
                "ts_us": _ts_us(df["ts"]),
                "event_type": df["event_type"],
            }
        )

    def latest(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"])
        out = g.groupby("user_id", as_index=False).tail(1)
        return out[["user_id", "event_id", "ts_us", "event_type"]]

    ds = _table(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"]).map_batches(
        prep, batch_format="pandas"
    )
    return (
        _BMG(add_bucket(ds, ["user_id"], _scaled_buckets(sf_dir, "events")), _scaled_buckets(sf_dir, "events"), latest, "pandas")
    )


def q_events_deltas(sf_dir: str):
    """Per-user inter-arrival deltas (LAG window): events ordered by
    (ts, event_id) within each user; delta_us to the previous event,
    -1 for each user's first. Same user-bucket shuffle as sessionize;
    the shift is one vectorized groupby-shift per bucket."""
    from ..stages.join import _BUCKET, add_bucket

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "event_id": df["event_id"].astype("int64"),
                "ts_us": _ts_us(df["ts"]),
            }
        )

    def deltas(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"])
        prev = g.groupby("user_id")["ts_us"].shift(1)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "delta_us": (g["ts_us"] - prev).fillna(-1).astype("int64").to_numpy(),
            }
        )

    ds = _table(sf_dir, "events", ["user_id", "event_id", "ts"]).map_batches(
        prep, batch_format="pandas"
    )
    return (
        _BMG(add_bucket(ds, ["user_id"], _scaled_buckets(sf_dir, "events")), _scaled_buckets(sf_dir, "events"), deltas, "pandas")
    )


def q_orders_left_join(sf_dir: str, min_acctbal: float = 5000.0):
    """Broadcast LEFT OUTER join: every order, annotated with its
    customer's nation when the customer is 'rich' (acctbal above the
    threshold), else -1. The build side (filtered customer key->nation
    map) ships once via ray.put as two sorted arrays; probe is a
    vectorized searchsorted per batch — no shuffle. Above the
    broadcast limit this becomes stages.join.bucket_join with a
    fill-null finish."""
    cust = _dim_table(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])
    rich = cust[cust["c_acctbal"] > min_acctbal].sort_values("c_custkey")
    keys = rich["c_custkey"].to_numpy().astype(np.int64)
    vals = rich["c_nationkey"].to_numpy().astype(np.int64)
    side = ray.put((keys, vals))

    def probe(t: pa.Table) -> pa.Table:
        k, v = ray.get(side)
        ck = t["o_custkey"].to_numpy().astype(np.int64)
        nation = np.full(len(ck), -1, dtype=np.int64)
        if len(k):
            pos_c = np.minimum(np.searchsorted(k, ck), len(k) - 1)
            hit = k[pos_c] == ck
            nation[hit] = v[pos_c[hit]]
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "o_custkey": pa.array(ck),
                "nation": pa.array(nation),
            }
        )

    return _table(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        probe, batch_format="pyarrow"
    )


def q_lineitem_antijoin(sf_dir: str, broadcast_limit: int = 2_000_000):
    """ANTI join + aggregate: items per order for orders that are NOT
    urgent. Two paths selected on the orders row count (parquet
    metadata — no scan):

    - small build side: the exclusion key set is collected from
      per-block distinct partials and broadcast once; probe is
      ~np.isin per batch, then one bucket_sum.
    - above ``broadcast_limit``: fully distributed bucketed anti-join
      fused with the aggregate in ONE shuffle — lineitem per-batch
      partial counts and urgent order keys union tagged, bucket on the
      key, per bucket drop excluded keys then sum. No O(table) driver
      or broadcast structure; hot keys stay bounded by their bucket.
    """
    import pyarrow.dataset as pads

    from ..stages.join import _BUCKET, add_bucket, bucket_sum

    n_orders = pads.dataset(os.path.join(sf_dir, "orders.parquet")).count_rows()

    def urgent_keys(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        m = pc2.equal(t["o_orderpriority"], "1-URGENT")
        return pa.table({"k": pc2.unique(t.filter(m)["o_orderkey"].cast(pa.int64()))})

    def li_partial(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy().astype(np.int64)
        u, c = np.unique(ok, return_counts=True)
        return pa.table(
            {"l_orderkey": pa.array(u), "n_items": pa.array(c.astype(np.int64))}
        )

    if n_orders <= broadcast_limit:
        parts = (
            _table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
            .map_batches(urgent_keys, batch_format="pyarrow")
            .take_all()
        )
        excl = np.unique(np.array([r["k"] for r in parts], dtype=np.int64))
        excl_ref = ray.put(excl)

        def anti_count(t: pa.Table) -> pa.Table:
            ex = ray.get(excl_ref)
            ok = t["l_orderkey"].to_numpy().astype(np.int64)
            keep = ok[~np.isin(ok, ex)]
            u, c = np.unique(keep, return_counts=True)
            return pa.table(
                {"l_orderkey": pa.array(u), "n_items": pa.array(c.astype(np.int64))}
            )

        ds = _table(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
            anti_count, batch_format="pyarrow"
        )
        agg = bucket_sum(ds, ["l_orderkey"], ["n_items"], n_buckets=16)
    else:
        def urgent_tagged(t: pa.Table) -> pa.Table:
            k = urgent_keys(t)["k"]
            n = len(k)
            return pa.table(
                {
                    "l_orderkey": k,
                    "n_items": pa.array(np.zeros(n, np.int64)),
                    "__side": pa.array(np.ones(n, np.int8)),
                }
            )

        def li_tagged(t: pa.Table) -> pa.Table:
            p = li_partial(t)
            return p.append_column(
                "__side", pa.array(np.zeros(p.num_rows, np.int8))
            )

        tagged = (
            _table(sf_dir, "lineitem", ["l_orderkey"])
            .map_batches(li_tagged, batch_format="pyarrow")
            .union(
                _table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
                    urgent_tagged, batch_format="pyarrow"
                )
            )
        )

        def anti_sum(g: pd.DataFrame) -> pd.DataFrame:
            bad = g.loc[g["__side"] == 1, "l_orderkey"].unique()
            keep = g[(g["__side"] == 0) & ~g["l_orderkey"].isin(bad)]
            return keep.groupby("l_orderkey", as_index=False)["n_items"].sum()

        nb = _scaled_buckets(sf_dir, "lineitem")
        agg = (
            _BMG(add_bucket(tagged, ["l_orderkey"], nb), nb, anti_sum, "pandas")
        )
    return agg.map_batches(
        lambda df: df.astype({"l_orderkey": "int64", "n_items": "int64"}),
        batch_format="pandas",
    )


def q_antijoin_bloom(sf_dir: str, m_bits: int = 1 << 18, k_hashes: int = 4):
    """EXACT anti-join via Bloom prefilter + verify — the 100 TB
    pattern the plain broadcast anti-join documents: the exclusion
    set's BITMAP (m_bits/8 bytes, built from mergeable per-block
    partials) broadcasts instead of the key array; probe marks each
    lineitem key maybe/definitely-not; definitely-not partial counts
    are final with NO join at all, and only the maybe subset
    (|urgent| + false positives — a sliver of the fact table) enters
    the bucketed verify anti-join. Output is EXACT (false positives
    are removed by the verify, false negatives are impossible), so
    this shares the plain anti-join's SQL oracle. m_bits is
    deliberately small here so false positives actually occur and the
    verify path is exercised at every test sf."""
    from ..stages.bloom import bloom_build, bloom_probe_stage
    from ..stages.join import _BUCKET, add_bucket, bucket_sum

    def urgent_keys(t: pa.Table) -> np.ndarray:
        m = pc.equal(t["o_orderpriority"], "1-URGENT")
        return t.filter(m)["o_orderkey"].to_numpy().astype(np.int64)

    orders = _table(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    words = bloom_build(orders, urgent_keys, m_bits=m_bits, k_hashes=k_hashes)

    def li_partial(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy().astype(np.int64)
        u, c = np.unique(ok, return_counts=True)
        return pa.table(
            {"l_orderkey": pa.array(u), "n_items": pa.array(c.astype(np.int64))}
        )

    probed = bloom_probe_stage(
        _table(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
            li_partial, batch_format="pyarrow"
        ),
        words,
        lambda t: t["l_orderkey"].to_numpy(),
        m_bits,
        k_hashes,
    )

    def split_clean(t: pa.Table) -> pa.Table:
        # definitely-not-urgent: final partial counts, bypass the join
        keep = ~t["__maybe"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": t.filter(pa.array(keep))["l_orderkey"],
                "n_items": t.filter(pa.array(keep))["n_items"],
            }
        )

    def split_maybe(t: pa.Table) -> pa.Table:
        keep = t["__maybe"].to_numpy(zero_copy_only=False)
        f = t.filter(pa.array(keep))
        return pa.table(
            {
                "l_orderkey": f["l_orderkey"],
                "n_items": f["n_items"],
                "__side": pa.array(np.zeros(f.num_rows, np.int8)),
            }
        )

    probed = probed.materialize()  # probe once, feed both splits
    clean = probed.map_batches(split_clean, batch_format="pyarrow")

    def urgent_tagged(t: pa.Table) -> pa.Table:
        k = np.unique(urgent_keys(t))
        return pa.table(
            {
                "l_orderkey": pa.array(k),
                "n_items": pa.array(np.zeros(len(k), np.int64)),
                "__side": pa.array(np.ones(len(k), np.int8)),
            }
        )

    tagged = probed.map_batches(split_maybe, batch_format="pyarrow").union(
        orders.map_batches(urgent_tagged, batch_format="pyarrow")
    )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        bad = g.loc[g["__side"] == 1, "l_orderkey"].unique()
        keep = g[(g["__side"] == 0) & ~g["l_orderkey"].isin(bad)]
        return keep[["l_orderkey", "n_items"]]

    survivors = (
        _BMG(add_bucket(tagged, ["l_orderkey"], 16), 16, verify, "pandas")
    )
    agg = bucket_sum(clean.union(survivors), ["l_orderkey"], ["n_items"], n_buckets=16)
    return agg.map_batches(
        lambda df: df.astype({"l_orderkey": "int64", "n_items": "int64"}),
        batch_format="pandas",
    )


_STRATA_PERMILLE = {"en": 500, "fr": 250, "es": 250, "zh": 125}  # else 125


def q_doc_sample_stratified(sf_dir: str):
    """Stratified deterministic sampling: per-language keep rates
    (splitmix64(doc_id) % 1000 under the language's permille
    threshold — counter-based, parallelism-independent), verified by
    the per-stratum count + char mass of the sample. The shape of
    'downsample English, keep the tail languages' in corpus curation."""
    from ..stages.join import bucket_sum
    from ..utils import splitmix64

    def samp(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy().astype(np.uint64)
        lang = t["lang"].to_numpy(zero_copy_only=False)
        thr = np.array(
            [_STRATA_PERMILLE.get(lg, 125) for lg in lang], dtype=np.uint64
        )
        keep = (splitmix64(did) % np.uint64(1000)) < thr
        df = pd.DataFrame(
            {
                "lang": lang[keep],
                "n": 1,
                "sum_chars": t["n_chars"].to_numpy()[keep],
            }
        )
        return pa.Table.from_pandas(
            df.groupby("lang", as_index=False).sum(), preserve_index=False
        )

    ds = _table(sf_dir, "documents", ["doc_id", "lang", "n_chars"]).map_batches(
        samp, batch_format="pyarrow"
    )
    agg = bucket_sum(ds, ["lang"], ["n", "sum_chars"], n_buckets=8)
    return agg.map_batches(
        lambda df: df.astype({"n": "int64", "sum_chars": "int64"}),
        batch_format="pandas",
    )


def q_clustering_coeff(sf_dir: str):
    """Per-vertex local clustering coefficient of the orders graph:
    cc(v) = 2*T(v) / (d(v)*(d(v)-1)), exact half-up e6 integers.
    Reuses the degree-oriented triangle counter and the CSR shard
    degrees; the (degree, triangles) families merge by tagged union +
    one bucket_sum — no per-vertex driver rows."""
    from ..stages.join import bucket_sum

    _, per = triangle_count(edges_orders(sf_dir), n_buckets=32, per_vertex=True)
    gdir = _graph_for(sf_dir, "orders")
    man = GraphManifest.load(gdir)

    def shard_degrees(t: pa.Table) -> pa.Table:
        outs_v, outs_d = [], []
        for p in t["id"].to_numpy():
            shard = load_shard(man, int(p))
            keys = load_vertex_keys(man, int(p))
            outs_v.append(keys.astype(np.int64))
            outs_d.append(shard.degrees().astype(np.int64))
        v = np.concatenate(outs_v) if outs_v else np.array([], np.int64)
        d = np.concatenate(outs_d) if outs_d else np.array([], np.int64)
        return pa.table(
            {
                "vertex": pa.array(v),
                "degree": pa.array(d),
                "triangles": pa.array(np.zeros(len(v), np.int64)),
            }
        )

    degs = rd.range(man.n_parts).map_batches(shard_degrees, batch_format="pyarrow")

    def tag_tri(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vertex": t["vertex"].cast(pa.int64()),
                "degree": pa.array(np.zeros(len(t), np.int64)),
                "triangles": t["triangles"].cast(pa.int64()),
            }
        )

    merged = bucket_sum(
        degs.union(per.map_batches(tag_tri, batch_format="pyarrow")),
        ["vertex"],
        ["degree", "triangles"],
        n_buckets=16,
    )

    def finish(t: pa.Table) -> pa.Table:
        d = t["degree"].to_numpy().astype(np.int64)
        tr = t["triangles"].to_numpy().astype(np.int64)
        dd = d * (d - 1)
        cc = np.where(dd > 0, (2 * (2 * tr) * 1_000_000 + dd) // np.maximum(2 * dd, 1), 0)
        return pa.table(
            {
                "vertex": t["vertex"],
                "degree": pa.array(d),
                "triangles": pa.array(tr),
                "cc_e6": pa.array(cc.astype(np.int64)),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# rows-only queries (no SQL-expressible oracle; verified in pytest)


def q_doc_langid(sf_dir: str):
    from ..functions.text import lang_id_counts

    def run(df: pd.DataFrame) -> pd.DataFrame:
        out = [lang_id_counts(t) for t in df["text"].astype(str)]
        # confidence scaled with exact integer half-up rounding of
        # hits/n * 1e6 so the SQL oracle reproduces it bit-for-bit
        conf = [
            0 if (h == 0 or n == 0) else (h * 2_000_000 + n) // (2 * n)
            for (_, h, n) in out
        ]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "lang_pred": [o[0] for o in out],
                "conf_e6": pd.Series(conf, dtype="int64"),
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(run, batch_format="pandas")


def q_doc_quality(sf_dir: str):
    from ..functions.text import quality_score

    def run(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "quality_e6": np.round(
                    [quality_score(t) * 1e6 for t in df["text"].astype(str)]
                ).astype("int64"),
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(run, batch_format="pandas")


def q_doc_token_bpe(sf_dir: str):
    from ..functions.text import token_count_bpe_ish

    def run(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_bpe_tokens": [token_count_bpe_ish(t) for t in df["text"].astype(str)],
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(run, batch_format="pandas")


def q_doc_rolling_fingerprint(sf_dir: str):
    from ..functions.text import rolling_fingerprint

    def run(df: pd.DataFrame) -> pd.DataFrame:
        fps = [rolling_fingerprint(t) for t in df["text"].astype(str)]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "fp_min": pd.Series([int(np.int64(np.uint64(f[0]))) for f in fps], dtype="int64"),
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(run, batch_format="pandas")


def q_doc_minhash_dedup(sf_dir: str):
    from ..stages.dedup import minhash_dedup

    ds = _table(sf_dir, "documents", ["doc_id", "text"])
    return minhash_dedup(ds, _cache(sf_dir, "minhash_work"), threshold=0.8)


def q_doc_simhash_pairs(sf_dir: str):
    from ..stages.dedup import simhash_dedup

    return simhash_dedup(_table(sf_dir, "documents", ["doc_id", "text"]))


def q_doc_ngram_jaccard(sf_dir: str):
    """Exhaustive n-gram similarity join (no LSH): every doc pair with
    word-3-shingle Jaccard >= 0.5 via the inverted-index join."""
    from ..stages.dedup import ngram_jaccard_join

    return ngram_jaccard_join(
        _table(sf_dir, "documents", ["doc_id", "text"]), threshold=0.5, df_cap=128
    )


def edges_lineitem_weighted(sf_dir: str) -> rd.Dataset:
    """Bipartite lineitem edges with a deterministic small weight:
    w = 1 + (l_orderkey + l_partkey) % 5, distinct (src, dst, w) —
    a weighted multigraph (parallel edges with different weights)."""

    def derive(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy().astype(np.int64)
        pk = t["l_partkey"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "src": pa.array(ok % 2000),
                "dst": pa.array(2000 + pk % 2000),
                "weight": pa.array((1 + (ok + pk) % 5).astype(np.float64)),
            }
        )

    from ..stages.join import distinct

    ds = _table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return distinct(
        ds.map_batches(derive, batch_format="pyarrow"), ["src", "dst", "weight"]
    )


def _weighted_graph_for(sf_dir: str) -> str:
    gdir = _cache(sf_dir, "lineitem_weighted", "graph")
    if not os.path.exists(os.path.join(gdir, "manifest.json")):
        edges = edges_lineitem_weighted(sf_dir)

        def stringify(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src_key": t["src"].cast(pa.string()),
                    "dst_key": t["dst"].cast(pa.string()),
                    "weight": t["weight"],
                }
            )

        build_graph(
            edges.map_batches(stringify, batch_format="pyarrow"),
            gdir,
            n_parts=16,
            n_buckets=32,
            dedup=False,
            symmetrize_edges=True,
            source_info={"kind": "lineitem_weighted", "sf_dir": os.path.abspath(sf_dir)},
        )
    return gdir


def q_sssp_weighted(sf_dir: str):
    """Weighted SSSP (Bellman-Ford-style BSP relaxation) over the
    weighted lineitem multigraph from the min vertex."""
    from .graph import lookup_vertex_id

    gdir = _weighted_graph_for(sf_dir)
    man = GraphManifest.load(gdir)
    src = _min_vertex(sf_dir, "lineitem")
    sid = lookup_vertex_id(man, str(src))
    res = run_algorithm(gdir, _cache(sf_dir, "lineitem_weighted", "run_sssp"), "sssp", source_id=sid)

    def conv(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64())
        val = t["value"].to_numpy()
        dist = pa.array(
            [None if not np.isfinite(x) else int(x) for x in val], pa.int64()
        )
        return pa.table({"vertex": v, "dist": dist})

    return res.map_batches(conv, batch_format="pyarrow")


def edges_lineitem_temporal(sf_dir: str) -> rd.Dataset:
    """Temporal contact edges: the bipartite lineitem pairs stamped
    with the HOUR the lineitem shipped (hours since the Unix epoch,
    exact in float64). Distinct (src, dst, t) — parallel edges with
    different availability times form a temporal multigraph."""

    def derive(t: pa.Table) -> pa.Table:
        ok = t["l_orderkey"].to_numpy().astype(np.int64)
        pk = t["l_partkey"].to_numpy().astype(np.int64)
        us = t["l_shipdate"].cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "src": pa.array(ok % 2000),
                "dst": pa.array(2000 + pk % 2000),
                "weight": pa.array((us // 3_600_000_000).astype(np.float64)),
            }
        )

    from ..stages.join import distinct

    ds = _table(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_shipdate"])
    return distinct(
        ds.map_batches(derive, batch_format="pyarrow"), ["src", "dst", "weight"]
    )


def _temporal_graph_for(sf_dir: str) -> str:
    gdir = _cache(sf_dir, "lineitem_temporal", "graph")
    if not os.path.exists(os.path.join(gdir, "manifest.json")):
        edges = edges_lineitem_temporal(sf_dir)

        def stringify(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src_key": t["src"].cast(pa.string()),
                    "dst_key": t["dst"].cast(pa.string()),
                    "weight": t["weight"],
                }
            )

        build_graph(
            edges.map_batches(stringify, batch_format="pyarrow"),
            gdir,
            n_parts=16,
            n_buckets=32,
            dedup=False,
            symmetrize_edges=True,
            source_info={"kind": "lineitem_temporal", "sf_dir": os.path.abspath(sf_dir)},
        )
    return gdir


def q_earliest_arrival(sf_dir: str):
    """Time-respecting earliest-arrival from the min vertex over the
    temporal lineitem multigraph: arr(v) = min over edges (u,v,t) of
    max(t, arr(u)) — each edge usable only from its ship-hour onward.
    Runs the BSP engine's min-combiner with the max-edge-weight
    scatter mode (algorithms.EarliestArrival); unreached is NULL."""
    from .graph import lookup_vertex_id

    gdir = _temporal_graph_for(sf_dir)
    man = GraphManifest.load(gdir)
    src = _min_vertex(sf_dir, "lineitem")
    sid = lookup_vertex_id(man, str(src))
    res = run_algorithm(
        gdir, _cache(sf_dir, "lineitem_temporal", "run_earliest"), "earliest", source_id=sid
    )

    def conv(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64())
        val = t["value"].to_numpy()
        arr = pa.array(
            [None if not np.isfinite(x) else int(x) for x in val], pa.int64()
        )
        return pa.table({"vertex": v, "arrival_hour": arr})

    return res.map_batches(conv, batch_format="pyarrow")


def q_anf(sf_dir: str, num_rounds: int = 4):
    """Approximate neighborhood function after `num_rounds` hops on
    the symmetrized lineitem graph: per-vertex OR-mergeable FM
    bitmaps on the engine's 'bor' combiner (algorithms.
    ANFPropagation); anf_units = lowest unset bit of the final mask
    = the integer 2^b whose scaled value estimates |ball(v, T)|."""
    res = _run_cached(sf_dir, "lineitem", "anf", num_rounds=num_rounds)

    def conv(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64())
        m = t["value"].to_numpy().astype(np.int64)
        return pa.table({"vertex": v, "anf_units": pa.array((~m) & (m + 1))})

    return res.map_batches(conv, batch_format="pyarrow")


def q_pagerank_weighted(sf_dir: str):
    """Edge-weight-proportional PageRank over the weighted lineitem
    multigraph: rank flows along edges in proportion to their weight
    (beyond the reference's unit-weight recurrence)."""
    gdir = _weighted_graph_for(sf_dir)
    res = run_algorithm(
        gdir, _cache(sf_dir, "lineitem_weighted", "run_prw"), "pagerank_weighted"
    )
    return _as_int_vertex(res, "score_e8", _score_e8)


def q_pagerank_personalized(sf_dir: str, seed_max: int = 10):
    """Personalized PageRank (random-walk-with-restart) toward the
    seed set {original vertex id < seed_max} on the symmetrized
    lineitem graph: teleport mass 0.15/|S| lands only on seeds, zero
    init, 30 iterations. Seeds absent from the graph (small sf) are
    dropped on BOTH sides (SQL filters deg.id < seed_max)."""
    from .graph import lookup_vertex_id

    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)
    seeds = []
    for k in range(seed_max):
        try:
            seeds.append(lookup_vertex_id(man, str(k)))
        except KeyError:
            pass
    res = _run_cached(sf_dir, "lineitem", "ppr", seed_ids=tuple(sorted(seeds)))
    return _as_int_vertex(res, "score_e8", _score_e8)


def q_lineitem_semijoin(sf_dir: str, min_acctbal: float = 5000.0):
    """Broadcast semi-join filter + aggregate: lineitem rows whose
    supplier has s_acctbal > min_acctbal (the supplier key set is tiny
    — ray.put once, np.isin per batch; at 100 TB the key set is a
    Bloom/hash side input, never a shuffle), then revenue per
    returnflag. Per-row revenue is integerized EXACTLY before summing
    (price cents x (100 - discount bps) -> 1e-4 dollar units), so the
    sum is order-independent and hash-exact vs SQL."""
    supp = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_acctbal"])
    keep_keys = np.sort(supp.loc[supp["s_acctbal"] > min_acctbal, "s_suppkey"].to_numpy())
    keys_ref = ray.put(keep_keys)

    def filter_agg(t: pa.Table) -> pa.Table:
        # stateless task; the key set comes from the object store once
        keys = ray.get(keys_ref)
        sk = t["l_suppkey"].to_numpy()
        m = np.isin(sk, keys)
        flag = t["l_returnflag"].to_numpy(zero_copy_only=False)[m]
        qty = t["l_quantity"].to_numpy()[m]
        price_c = np.rint(t["l_extendedprice"].to_numpy()[m] * 100).astype(np.int64)
        disc_b = np.rint(t["l_discount"].to_numpy()[m] * 100).astype(np.int64)
        rev = price_c * (100 - disc_b)
        df = pd.DataFrame(
            {"l_returnflag": flag, "n_items": 1, "sum_qty": np.rint(qty).astype(np.int64), "revenue_e4": rev}
        )
        g = df.groupby("l_returnflag", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = _table(
        sf_dir,
        "lineitem",
        ["l_suppkey", "l_returnflag", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(filter_agg, batch_format="pyarrow")
    # driver reduce of the <= (n_blocks x n_flags) integer partials
    # (see q_revenue_by_nation) — exact integer sums, order-free
    pdf = ds.to_pandas()
    agg = pdf.groupby("l_returnflag", as_index=False)[
        ["n_items", "sum_qty", "revenue_e4"]
    ].sum()
    return agg.astype(
        {"n_items": "int64", "sum_qty": "int64", "revenue_e4": "int64"}
    )


def q_revenue_rollup(sf_dir: str):
    """Hierarchical rollup (nation -> region -> grand total) in ONE
    aggregation pass: the nation-level totals are integerized first
    (revenue cents, the hash-proven q_revenue_by_nation aggregate),
    then region and total levels are EXACT integer sums of the ~25
    nation rows on the driver — no second shuffle. Empty-string
    region/nation mark the rolled-up levels (SQL: ROLLUP +
    COALESCE)."""
    nat_rev = q_revenue_by_nation(sf_dir)
    if not isinstance(nat_rev, pd.DataFrame):  # bucket-join fallback path
        nat_rev = nat_rev.to_pandas()

    nation = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    region = _dim_table(sf_dir, "region", ["r_regionkey", "r_name"])
    n2r = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    nat_rev = nat_rev.merge(
        n2r[["n_name", "r_name"]], left_on="nation", right_on="n_name"
    )

    rows = []
    for _, r in nat_rev.iterrows():
        rows.append((r["r_name"], r["nation"], int(r["n_orders"]), int(r["revenue_e2"])))
    reg = nat_rev.groupby("r_name", as_index=False)[["n_orders", "revenue_e2"]].sum()
    for _, r in reg.iterrows():
        rows.append((r["r_name"], "", int(r["n_orders"]), int(r["revenue_e2"])))
    rows.append(("", "", int(nat_rev["n_orders"].sum()), int(nat_rev["revenue_e2"].sum())))
    return pd.DataFrame(
        rows, columns=["region_name", "nation_name", "n_orders", "revenue_e2"]
    )


FP_DUP_NGRAMS_DOCS = 100_000  # docs; above this the gram shuffle fingerprints


def q_doc_dup_ngrams(
    sf_dir: str, n: int = 5, n_buckets: int = 64, fingerprint: bool | None = None
):
    """Cross-document duplicate-n-gram statistics (a Gopher-style
    repetition signal): per doc, the number of word 5-gram positions
    whose 5-gram also occurs in at least one OTHER document. Two
    shuffles: gram-hash buckets (distinct-doc counts + per-doc partial
    sums computed in-bucket), then a doc_id sum.

    ``fingerprint`` replaces the shuffled gram STRINGS with u64
    fingerprints (stable_hash_array) — ~8 bytes/gram through the
    exchange instead of the ~40-byte text, the 100 TB path. Results
    are identical absent a 64-bit collision (parity-tested at every
    test sf); default: auto-on above FP_DUP_NGRAMS_DOCS docs, strings
    below so the DuckDB oracle can group on them verbatim."""
    from ray.data.aggregate import Sum

    from ..stages.join import _BUCKET, add_bucket
    from ..utils import stable_hash_array

    if fingerprint is None:
        import pyarrow.dataset as pads

        n_docs = pads.dataset(os.path.join(sf_dir, "documents.parquet")).count_rows()
        fingerprint = n_docs > FP_DUP_NGRAMS_DOCS

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        out_d, out_g = [], []
        for doc_id, text in zip(df["doc_id"], df["text"].astype(str)):
            ts = text.split()
            if len(ts) < n:
                continue
            out_g.extend(" ".join(ts[i : i + n]) for i in range(len(ts) - n + 1))
            out_d.extend([doc_id] * (len(ts) - n + 1))
        g = pd.DataFrame({"doc_id": np.asarray(out_d, dtype=np.int64), "gram": out_g})
        if fingerprint and len(g):
            g["gram"] = stable_hash_array(g["gram"].to_numpy()).view(np.int64)
        return g.groupby(["doc_id", "gram"], as_index=False).size().rename(columns={"size": "c"})

    ds = _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        grams, batch_format="pandas"
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # factorize the gram strings ONCE, then everything is integer
        # bincount arithmetic (object-dtype groupbys were ~10x slower)
        codes = pd.factorize(g["gram"], sort=False)[0]
        df2 = pd.DataFrame(
            {"doc_id": g["doc_id"].to_numpy(), "code": codes, "c": g["c"].to_numpy()}
        )
        g2 = df2.groupby(["doc_id", "code"], as_index=False, sort=False)["c"].sum()
        code2 = g2["code"].to_numpy()
        nd = np.bincount(code2)  # rows are unique (doc, gram) => docs per gram
        dup = (nd[code2] >= 2).astype(np.int64)
        didx, dids = pd.factorize(g2["doc_id"], sort=False)
        c = g2["c"].to_numpy()
        return pd.DataFrame(
            {
                "doc_id": dids.astype(np.int64),
                "n_grams": np.bincount(didx, weights=c).astype(np.int64),
                "n_dup": np.bincount(didx, weights=c * dup).astype(np.int64),
            }
        )

    part = (
        _BMG(add_bucket(ds, ["gram"], n_buckets), n_buckets, per_bucket, "pandas")
    )
    # second shuffle: per-doc sums via the bucket pattern (Ray's
    # sort-aggregate pays ~7ms PER GROUP — 37 s at 5000 docs)
    from ..stages.join import bucket_sum

    agg = bucket_sum(part, ["doc_id"], ["n_grams", "n_dup"], n_buckets)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return df.astype({"doc_id": "int64", "n_grams": "int64", "n_dup": "int64"})

    return agg.map_batches(finish, batch_format="pandas")


def q_doc_strip_spans(sf_dir: str, n: int = 5, n_buckets: int = 64):
    """Corpus-level duplicate-span REMOVAL (the transform counterpart
    of q_doc_dup_ngrams's statistic): tokens covered by any word
    5-gram occurring in >= 2 distinct documents are dropped and the
    text rebuilt — stages.dedup.strip_dup_spans. Every doc appears in
    the output; the cleaned strings compare verbatim against the SQL
    oracle (no hashing needed)."""
    from ..stages.dedup import strip_dup_spans

    ds = _table(sf_dir, "documents", ["doc_id", "text"])
    return strip_dup_spans(ds, n=n, n_buckets=n_buckets)


def q_doc_tfidf_top(sf_dir: str, k: int = 3, n_buckets: int = 64):
    """Per-document top-k terms by integer TF-IDF (rational idf:
    (N * 1e6) // df — exact integer arithmetic, no libm divergence).
    Shuffle 1 buckets terms (document frequency + scores in-bucket);
    shuffle 2 groups by doc for the top-k; ties break term-ascending."""
    import pyarrow.dataset as pads

    from ..stages.join import _BUCKET, add_bucket

    n_docs = pads.dataset(os.path.join(sf_dir, "documents.parquet")).count_rows()

    def tf(df: pd.DataFrame) -> pd.DataFrame:
        ex = df[["doc_id", "text"]].assign(term=df["text"].astype(str).str.split()).explode("term")
        ex = ex.dropna(subset=["term"])
        g = ex.groupby(["doc_id", "term"], as_index=False).size()
        return g.rename(columns={"size": "c"}).astype({"c": "int64"})

    ds = _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(tf, batch_format="pandas")

    def score_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # integer kernel: factorize terms once, bincount for document
        # frequency (rows unique per (doc, term) after the sum)
        codes, terms = pd.factorize(g["term"], sort=False)
        df2 = pd.DataFrame(
            {"doc_id": g["doc_id"].to_numpy(), "code": codes, "c": g["c"].to_numpy()}
        )
        g2 = df2.groupby(["doc_id", "code"], as_index=False, sort=False)["c"].sum()
        code2 = g2["code"].to_numpy()
        df_t = np.bincount(code2)[code2]
        idf = (np.int64(n_docs) * np.int64(1_000_000)) // df_t
        return pd.DataFrame(
            {
                "doc_id": g2["doc_id"].to_numpy(),
                "term": terms.take(code2).astype(str),
                "score": g2["c"].to_numpy() * idf,
            }
        )

    from ..stages.join import bucket_map_groups as _bmg

    scored = _bmg(add_bucket(ds, ["term"], n_buckets), n_buckets, score_bucket)

    def topk_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-BUCKET top-k (one sort + groupby-head over the
        # whole bucket, instead of a Python call per doc group)
        df = df.sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True], kind="stable"
        )
        out = df.groupby("doc_id", sort=False).head(k)
        return out[["doc_id", "term", "score"]].astype({"score": "int64"})

    return _bmg(add_bucket(scored, ["doc_id"], n_buckets), n_buckets, topk_bucket)


def q_random_walks(sf_dir: str, num_steps: int = 8, walker_mod: int = 5):
    """Deterministic counter-based random walks over the symmetrized
    orders graph: one walker per vertex v % 5 == 0, 8 steps, step =
    splitmix64(mix(walker, step, cur)) % deg(cur) indexing neighbors
    in ascending-id order — bit-reproducible and replayed exactly by
    the recursive-CTE oracle."""
    from ..stages.walks import random_walks

    und = edges_orders(sf_dir)

    def both(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy()
        d = t["dst"].to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([s, d])),
                "dst": pa.array(np.concatenate([d, s])),
            }
        )

    sym = und.map_batches(both, batch_format="pyarrow")
    return random_walks(sym, num_steps=num_steps, walker_mod=walker_mod)


def q_walk_skipgrams(
    sf_dir: str, window: int = 2, num_steps: int = 8, walker_mod: int = 5
):
    """DeepWalk/node2vec corpus preprocessing: skip-gram context-pair
    counts over the deterministic random-walk corpus — for every
    walker, every unordered vertex pair within ``window`` steps, summed
    globally. One walker-bucket kernel (per-walker rows are contiguous
    and step-complete, so the window join is an array-offset compare,
    no per-row loop) + one pair bucket_sum. The oracle replays the
    identical walks (same splitmix64 step choice) and self-joins on
    step distance."""
    from ..stages.join import add_bucket, bucket_sum

    walks = q_random_walks(sf_dir, num_steps=num_steps, walker_mod=walker_mod)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["walker", "step"], kind="stable")
        w = df["walker"].to_numpy()
        v = df["vertex"].to_numpy()
        out_a, out_b = [], []
        for d in range(1, window + 1):
            if d >= len(v):
                break
            m = w[d:] == w[:-d]  # same walker => step distance exactly d
            a, b = v[:-d][m], v[d:][m]
            out_a.append(np.minimum(a, b))
            out_b.append(np.maximum(a, b))
        if not out_a:
            return pd.DataFrame(
                {"ctx_a": pd.Series([], dtype="int64"),
                 "ctx_b": pd.Series([], dtype="int64"),
                 "cnt": pd.Series([], dtype="int64")}
            )
        pdf = pd.DataFrame(
            {"ctx_a": np.concatenate(out_a), "ctx_b": np.concatenate(out_b)}
        )
        g = pdf.groupby(["ctx_a", "ctx_b"], as_index=False).size()
        return g.rename(columns={"size": "cnt"}).astype("int64")

    part = _BMG(add_bucket(walks, ["walker"], 16), 16, pairs, "pandas")
    agg = bucket_sum(part, ["ctx_a", "ctx_b"], ["cnt"], n_buckets=16)
    return agg.map_batches(
        lambda df: df.astype({"ctx_a": "int64", "ctx_b": "int64", "cnt": "int64"}),
        batch_format="pandas",
    )


_CMS_D, _CMS_W = 4, 1024


def q_cms_user_counts(sf_dir: str):
    """Count-Min sketch over event user_id multiplicities: d=4 hash
    rows x w=1024 registers, register (r, h_r(uid) % w) += 1. The
    sketch is a mergeable combiner: each batch emits its partial
    registers (<= d*w rows), one bucket_sum merges them — the classic
    sublinear heavy-hitter structure for 100 TB streams. Registers are
    hash-exact vs SQL (splitmix64 replayed in the oracle)."""
    from ..stages.join import bucket_sum
    from ..utils import splitmix64

    def partial(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy().astype(np.uint64)
        rows_r, rows_reg, rows_c = [], [], []
        with np.errstate(over="ignore"):
            base = uid * np.uint64(1099511628211)
        for r in range(_CMS_D):
            h = splitmix64(base ^ np.uint64(r))
            reg = (h % np.uint64(_CMS_W)).astype(np.int64)
            cnt = np.bincount(reg, minlength=_CMS_W)
            nz = np.flatnonzero(cnt)
            rows_r.append(np.full(len(nz), r, dtype=np.int64))
            rows_reg.append(nz.astype(np.int64))
            rows_c.append(cnt[nz].astype(np.int64))
        return pa.table(
            {
                "r": pa.array(np.concatenate(rows_r)),
                "reg": pa.array(np.concatenate(rows_reg)),
                "cnt": pa.array(np.concatenate(rows_c)),
            }
        )

    ds = _table(sf_dir, "events", ["user_id"]).map_batches(partial, batch_format="pyarrow")
    agg = bucket_sum(ds, ["r", "reg"], ["cnt"], n_buckets=32)
    return agg.map_batches(
        lambda df: df.astype({"r": "int64", "reg": "int64", "cnt": "int64"}),
        batch_format="pandas",
    )


_BLOOM_M, _BLOOM_K = 4096, 3


def q_bloom_doc_positions(sf_dir: str):
    """Bloom-filter build over document content fingerprints: item =
    first 64 bits of md5(text), k=3 positions splitmix64(item ^ j) % m
    (m=4096). Output = the DISTINCT set bit positions — the structure
    a 100 TB pipeline broadcasts to prune joins/dedup candidates.
    Position set is hash-exact vs SQL (md5 + '0x..'::UBIGINT cast)."""
    import hashlib as _hl

    from ..stages.join import distinct
    from ..utils import splitmix64

    def positions(df: pd.DataFrame) -> pd.DataFrame:
        items = np.array(
            [int(_hl.md5(t.encode("utf-8")).hexdigest()[:16], 16) for t in df["text"].astype(str)],
            dtype=np.uint64,
        )
        out = []
        for j in range(_BLOOM_K):
            h = splitmix64(items ^ np.uint64(j))
            out.append((h % np.uint64(_BLOOM_M)).astype(np.int64))
        return pd.DataFrame({"pos": np.unique(np.concatenate(out))})

    ds = _table(sf_dir, "documents", ["text"]).map_batches(positions, batch_format="pandas")
    return distinct(ds, ["pos"], n_buckets=16)


def q_events_sample(sf_dir: str, pct: int = 5):
    """Deterministic counter-based sampling (splitmix64(event_id) %
    100 < pct — reproducible at any parallelism, no RNG state) +
    per-type aggregate of the sample. value is floor-integerized
    (1e-6 units) so sums are order-free and hash-exact."""
    from ..stages.join import bucket_sum
    from ..utils import splitmix64

    def samp(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy().astype(np.uint64)
        keep = (splitmix64(eid) % np.uint64(100)) < np.uint64(pct)
        et = t["event_type"].to_numpy(zero_copy_only=False)[keep]
        val = t["value"].to_numpy()[keep]
        v6 = np.floor(val * 1e6).astype(np.int64)
        df = pd.DataFrame({"event_type": et, "n": 1, "sum_value_e6": v6})
        return pa.Table.from_pandas(
            df.groupby("event_type", as_index=False).sum(), preserve_index=False
        )

    ds = _table(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        samp, batch_format="pyarrow"
    )
    agg = bucket_sum(ds, ["event_type"], ["n", "sum_value_e6"], n_buckets=8)
    return agg.map_batches(
        lambda df: df.astype({"n": "int64", "sum_value_e6": "int64"}),
        batch_format="pandas",
    )


def q_degree_histogram(sf_dir: str):
    """Degree distribution of the symmetrized lineitem graph straight
    off the CSR shards: per-shard partial histogram (combiner), one
    bucket_sum merge. The canonical first look at any web graph."""
    from ..stages.join import bucket_sum

    degs = q_degrees(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        d = t["degree"].to_numpy()
        u, c = np.unique(d, return_counts=True)
        return pa.table(
            {"degree": pa.array(u.astype(np.int64)), "n": pa.array(c.astype(np.int64))}
        )

    ds = degs.map_batches(partial, batch_format="pyarrow")
    agg = bucket_sum(ds, ["degree"], ["n"], n_buckets=8)
    return agg.map_batches(
        lambda df: df.astype({"degree": "int64", "n": "int64"}), batch_format="pandas"
    )


def q_degree_gini(sf_dir: str):
    """Gini coefficient of the degree distribution (hub-concentration
    inequality — the single-number companion to the histogram), exact
    integers end-to-end: from the (degree, count) histogram sorted by
    degree, the rank-weighted sum is
        S = Σ_d d·(c·o + c(c+1)/2)   (o = vertices with smaller degree)
    and G = (2S − (n+1)·Σd) / (n·Σd), emitted half-up e6 with the raw
    moments. The histogram is the distributed part (per-shard partials
    + one bucket_sum, bounded by the distinct-degree count — the same
    driver-smallness argument as q_degree_histogram itself)."""
    h = (
        q_degree_histogram(sf_dir)
        .to_pandas()
        .sort_values("degree")
        .reset_index(drop=True)
    )
    d = h["degree"].to_numpy().astype(object)  # Python ints: no overflow
    c = h["n"].to_numpy().astype(object)
    n = int(sum(c))
    sd = int(sum(dd * cc for dd, cc in zip(d, c)))
    off = 0
    s = 0
    for dd, cc in zip(d, c):
        s += int(dd) * (int(cc) * off + (int(cc) * (int(cc) + 1)) // 2)
        off += int(cc)
    num = 2 * s - (n + 1) * sd
    den = n * sd
    gini_e6 = 0 if den == 0 else (2 * num * 1_000_000 + den) // (2 * den)
    return pd.DataFrame(
        {
            "n_vertices": [n],
            "sum_deg": [sd],
            "gini_e6": [gini_e6],
        }
    )


def q_part_cooccurrence(sf_dir: str, k: int = 100, n_buckets: int = 64):
    """Bipartite co-occurrence projection (market-basket): two part
    nodes are linked when they share an order node in the lineitem
    graph; weight = number of shared orders; output = global top-k
    pairs. Shape: bucket by order so each order's neighbor set lands
    whole (pairs generated + combined per bucket), one bucket_sum on
    the pair key, then per-block partial top-k merged on the driver
    (exact: the global top-k is contained in the union of block
    top-ks). At web scale add a neighbor-count cap like the
    similarity join's df cap (hub orders cost deg^2)."""
    from ..stages.join import _BUCKET, add_bucket, bucket_sum

    eb = edges_lineitem(sf_dir)
    b = add_bucket(eb, ["src"], n_buckets)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["src", "dst"], kind="stable")
        s = df["src"].to_numpy()
        d = df["dst"].to_numpy()
        starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
        ends = np.concatenate([starts[1:], [len(s)]])
        out_a, out_b = [], []
        for st, en in zip(starts, ends):
            n = en - st
            if n < 2:
                continue
            i, j = np.triu_indices(n, k=1)
            out_a.append(d[st:en][i])
            out_b.append(d[st:en][j])
        if not out_a:
            return pd.DataFrame(
                {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64"),
                 "cnt": pd.Series([], dtype="int64")}
            )
        pdf = pd.DataFrame(
            {"a": np.concatenate(out_a), "b": np.concatenate(out_b), "cnt": 1}
        )
        return pdf.groupby(["a", "b"], as_index=False, sort=False)["cnt"].sum()

    part = _BMG(b, n_buckets, pairs, "pandas")
    agg = bucket_sum(part, ["a", "b"], ["cnt"], n_buckets)

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["cnt", "a", "b"], ascending=[False, True, True], kind="stable"
        ).head(k)

    cand = agg.map_batches(local_top, batch_format="pandas").to_pandas()
    top = cand.sort_values(
        ["cnt", "a", "b"], ascending=[False, True, True], kind="stable"
    ).head(k)
    return pd.DataFrame(
        {
            "part_a": top["a"].astype("int64").to_numpy(),
            "part_b": top["b"].astype("int64").to_numpy(),
            "cnt": top["cnt"].astype("int64").to_numpy(),
        }
    )


def q_events_hourly_users(sf_dir: str):
    """Windowed exact COUNT DISTINCT: unique users per hourly window.
    Per-batch (hour, user) dedup (combiner) -> one global distinct on
    the pair -> per-hour counts via bucket_sum. The exact counterpart
    of the HLL sketch (q_user_hll) for when the distinct cardinality
    per window is small enough to shuffle."""
    from ..stages.join import bucket_sum, distinct

    HOUR_US = 3_600_000_000

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        hour_e = (_ts_us(df["ts"]) // HOUR_US) * HOUR_US
        out = pd.DataFrame({"hour_e": hour_e, "user_id": df["user_id"].astype("int64")})
        return out.drop_duplicates()

    ds = _table(sf_dir, "events", ["ts", "user_id"]).map_batches(prep, batch_format="pandas")
    d = distinct(ds, ["hour_e", "user_id"], n_buckets=32)
    withn = d.map_batches(lambda df: df.assign(n_users=1), batch_format="pandas")
    agg = bucket_sum(withn, ["hour_e"], ["n_users"], n_buckets=8)
    return agg.map_batches(
        lambda df: df[["hour_e", "n_users"]].astype({"hour_e": "int64", "n_users": "int64"}),
        batch_format="pandas",
    )


def q_events_range_join(sf_dir: str, window_s: int = 300, n_buckets: int = 32):
    """Range (interval) self-join: per user, the number of unordered
    event pairs within `window_s` seconds of each other. One hash
    shuffle on the key (all of a user's events share a bucket), then a
    sorted-array searchsorted count per user — no quadratic pair
    materialization (count = sum of window occupancy / 2). The
    canonical bounded-inequality join a sort-merge engine gives you;
    Ray Data lacks it natively."""
    from ..stages.join import _BUCKET, add_bucket

    W = window_s * 1_000_000

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"user_id": df["user_id"].astype("int64"), "ts_us": _ts_us(df["ts"])}
        )

    ds = _table(sf_dir, "events", ["user_id", "ts"]).map_batches(prep, batch_format="pandas")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us"], kind="stable")
        u = g["user_id"].to_numpy()
        t = g["ts_us"].to_numpy()
        starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
        ends = np.concatenate([starts[1:], [len(u)]])
        out_u, out_n = [], []
        for s, e in zip(starts, ends):
            seg = t[s:e]
            lo = np.searchsorted(seg, seg - W, side="left")
            hi = np.searchsorted(seg, seg + W, side="right")
            n_pairs = int((hi - lo - 1).sum()) // 2
            if n_pairs:
                out_u.append(int(u[s]))
                out_n.append(n_pairs)
        return pd.DataFrame(
            {"user_id": pd.Series(out_u, dtype="int64"), "n_pairs": pd.Series(out_n, dtype="int64")}
        )

    return (
        _BMG(add_bucket(ds, ["user_id"], n_buckets), n_buckets, per_bucket, "pandas")
    )


def q_order_quartiles(sf_dir: str, k: int = 4, n_buckets: int = 16):
    """Windowed RANKING: NTILE(4) of order price within each nation
    (the rank/ntile member of the window family — the aggregate
    members are q_events_hourly/sliding/sessionize). Total order =
    (price cents, orderkey) so ties are exact; NTILE's first-groups-
    get-the-remainder sizing is replicated bit-exactly. One hash
    shuffle on nation (a nation's orders land whole; per-group memory
    bounded by the partition key's cardinality design)."""
    from ..stages.join import _BUCKET, add_bucket

    cust_df = _dim_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nat_df = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    c2n = pd.Series(cust_df["c_nationkey"].to_numpy(), index=cust_df["c_custkey"].to_numpy())
    nk2name = dict(zip(nat_df["n_nationkey"].astype(int), nat_df["n_name"]))
    c2n_ref = ray.put(c2n)
    n2n_ref = ray.put(nk2name)

    def attach(t: pa.Table) -> pa.Table:
        c2n_l = ray.get(c2n_ref)
        names = ray.get(n2n_ref)
        nk = c2n_l.reindex(t["o_custkey"].to_numpy()).to_numpy()
        keep = ~pd.isna(nk)
        nk = nk[keep].astype(np.int64)
        pc_ = np.rint(t["o_totalprice"].to_numpy()[keep] * 100).astype(np.int64)
        ok = t["o_orderkey"].to_numpy()[keep]
        return pa.table(
            {
                "o_orderkey": pa.array(ok),
                "nation": pa.array([names[int(x)] for x in nk], pa.string()),
                "pc": pa.array(pc_),
            }
        )

    ds = _table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]).map_batches(
        attach, batch_format="pyarrow"
    )

    def ntile_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_k, out_q = [], []
        for _, grp in g.groupby("nation", sort=False):
            grp = grp.sort_values(["pc", "o_orderkey"], kind="stable")
            n = len(grp)
            big = n % k
            sb = n // k + 1
            r = np.arange(1, n + 1)
            with np.errstate(divide="ignore"):
                q = np.where(
                    r <= big * sb,
                    (r - 1) // sb,
                    big + (r - big * sb - 1) // max(n // k, 1),
                )
            out_k.append(grp["o_orderkey"].to_numpy())
            out_q.append((q + 1).astype(np.int64))
        if not out_k:
            return pd.DataFrame(
                {"o_orderkey": pd.Series([], dtype="int64"), "quartile": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {"o_orderkey": np.concatenate(out_k), "quartile": np.concatenate(out_q)}
        )

    return (
        _BMG(add_bucket(ds, ["nation"], n_buckets), n_buckets, ntile_bucket, "pandas")
    )


def q_doc_pack(sf_dir: str, cap: int = 512, range_size: int = 64):
    """Sequence packing for LLM training: lay documents out in doc_id
    order into fixed `cap`-token bins (docs may straddle bins), i.e. a
    DISTRIBUTED EXCLUSIVE PREFIX SUM over token counts. Two passes:
    (1) per-range token totals (range = doc_id // range_size, an
    order-preserving arithmetic partition) reduced small and cumsum-ed
    on the driver, (2) one range shuffle where each range sorts
    locally and adds its global offset. Driver traffic is one row per
    range — size range_size so n_docs/range_size stays driver-safe."""
    from ..stages.join import _BUCKET, add_bucket, bucket_sum

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        ntok = df["text"].astype(str).str.split().str.len().astype("int64")
        return pd.DataFrame({"doc_id": ids, "ntok": ntok, "rb": ids // range_size})

    ds = _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        counts, batch_format="pandas"
    ).materialize()  # feeds both passes

    totals = bucket_sum(
        ds.map_batches(lambda df: df[["rb", "ntok"]], batch_format="pandas"),
        ["rb"],
        ["ntok"],
        n_buckets=8,
    ).to_pandas().sort_values("rb")
    offs = dict(
        zip(
            totals["rb"].astype(int),
            np.concatenate([[0], np.cumsum(totals["ntok"].to_numpy())[:-1]]),
        )
    )
    offs_ref = ray.put(offs)

    def place(g: pd.DataFrame) -> pd.DataFrame:
        o = ray.get(offs_ref)
        outs = []
        for rb, grp in g.groupby("rb", sort=False):
            grp = grp.sort_values("doc_id", kind="stable")
            ex = np.concatenate([[0], np.cumsum(grp["ntok"].to_numpy())[:-1]])
            start = ex + int(o[int(rb)])
            outs.append(
                pd.DataFrame(
                    {
                        "doc_id": grp["doc_id"].to_numpy(),
                        "start_tok": start.astype(np.int64),
                        "bin_id": (start // cap).astype(np.int64),
                    }
                )
            )
        return pd.concat(outs) if outs else pd.DataFrame(
            {"doc_id": pd.Series([], dtype="int64"), "start_tok": pd.Series([], dtype="int64"),
             "bin_id": pd.Series([], dtype="int64")}
        )

    return (
        _BMG(add_bucket(ds, ["rb"], 16), 16, place, "pandas")
    )


def q_corpus_curation(
    sf_dir: str, thr: int = 700_000, cap: int = 512, range_size: int = 64
):
    """END-TO-END LLM corpus curation in ONE streaming chain:
    quality filter (score >= 0.7) -> exact content dedup (md5,
    keep-min doc_id) -> batched classifier (actor pool) -> sequence
    packing (distributed prefix sum into 512-token bins). One bucket
    shuffle for the dedup, one range shuffle for the packing —
    everything else is map_batches. Output: (doc_id, label,
    start_tok, bin_id) per surviving document, hash-exact vs the
    composed SQL oracle."""
    import hashlib as _hl

    from ..functions.text import quality_score
    from ..stages.classify import HashClassifier
    from ..stages.join import _BUCKET, add_bucket, bucket_sum, distinct_keep_first

    def qual_filter(df: pd.DataFrame) -> pd.DataFrame:
        qe6 = np.round(
            [quality_score(t) * 1e6 for t in df["text"].astype(str)]
        ).astype("int64")
        out = df.loc[qe6 >= thr, ["doc_id", "text"]].copy()
        out["fp"] = [
            _hl.md5(t.encode("utf-8")).hexdigest() for t in out["text"].astype(str)
        ]
        return out.astype({"doc_id": "int64"})

    ds = _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        qual_filter, batch_format="pandas"
    )
    ded = distinct_keep_first(ds, ["fp"], "doc_id")

    def with_ntok(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            ntok=df["text"].astype(str).str.split().str.len().astype("int64")
        )[["doc_id", "text", "ntok"]]

    ded2 = ded.map_batches(with_ntok, batch_format="pandas")
    def classify_batch(t: pa.Table) -> pa.Table:
        from ..stages.taskify import worker_cached

        return worker_cached(
            ("hash_classifier", ("ntok",)),
            lambda: HashClassifier(keep_cols=("ntok",)),
        )(t)

    cls = ded2.map_batches(
        classify_batch, batch_format="pyarrow", batch_size=256
    ).materialize()  # feeds the totals pass AND the placement pass

    def add_rb(t: pa.Table) -> pa.Table:
        rb = pa.array(t["doc_id"].to_numpy() // range_size, pa.int64())
        return t.append_column("rb", rb)

    tagged = cls.map_batches(add_rb, batch_format="pyarrow")
    totals = bucket_sum(
        tagged.map_batches(
            lambda df: df[["rb", "ntok"]], batch_format="pandas"
        ),
        ["rb"],
        ["ntok"],
        n_buckets=8,
    ).to_pandas().sort_values("rb")
    offs = dict(
        zip(
            totals["rb"].astype(int),
            np.concatenate([[0], np.cumsum(totals["ntok"].to_numpy())[:-1]]),
        )
    )
    offs_ref = ray.put(offs)

    def place(g: pd.DataFrame) -> pd.DataFrame:
        o = ray.get(offs_ref)
        outs = []
        for rb, grp in g.groupby("rb", sort=False):
            grp = grp.sort_values("doc_id", kind="stable")
            ex = np.concatenate([[0], np.cumsum(grp["ntok"].to_numpy())[:-1]])
            start = ex + int(o[int(rb)])
            outs.append(
                pd.DataFrame(
                    {
                        "doc_id": grp["doc_id"].to_numpy(),
                        "label": grp["label"].to_numpy(),
                        "start_tok": start.astype(np.int64),
                        "bin_id": (start // cap).astype(np.int64),
                    }
                )
            )
        return pd.concat(outs) if outs else pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "label": pd.Series([], dtype="int64"),
                "start_tok": pd.Series([], dtype="int64"),
                "bin_id": pd.Series([], dtype="int64"),
            }
        )

    return (
        _BMG(add_bucket(tagged, ["rb"], 16), 16, place, "pandas")
    )


def q_doc_classify(sf_dir: str):
    """Batched 'model inference' over documents: deterministic
    hashed-bag-of-words integer classifier (see stages/classify.py) —
    the plumbing of a real quality/toxicity classifier with a
    hash-exact SQL oracle. Its state is three small fields, so it runs
    as a plain task built once per worker: an actor pool's actor would
    hold the only CPU of a 1-CPU cluster while the read feeding it
    waits."""
    from ..stages.classify import HashClassifier

    def classify_batch(t: pa.Table) -> pa.Table:
        from ..stages.taskify import worker_cached

        return worker_cached(("hash_classifier", ()), HashClassifier)(t)

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        classify_batch, batch_format="pyarrow", batch_size=256
    )


def q_doc_pii_scrub(sf_dir: str):
    """PII redaction over documents AUGMENTED with a deterministic
    contact line (the synthetic corpus contains no PII, so both
    engines append 'user<id>@mail.example / 555-NNNN / 10.x.0.y'
    constructed identically from doc_id — making the scrub
    non-vacuous and still hash-exact)."""
    from ..functions.pii import scrub_frame

    def scrub(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        contact = (
            " Contact: user"
            + ids.astype(str)
            + "@mail.example or call 555-"
            + (ids % 10000).astype(str).str.zfill(4)
            + ", ip 10."
            + (ids % 256).astype(str)
            + ".0."
            + ((ids * 7) % 256).astype(str)
            + " end."
        )
        aug = df.assign(text=df["text"].astype(str) + contact)
        return scrub_frame(aug)

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        scrub, batch_format="pandas"
    )


def q_events_asof_orders(sf_dir: str):
    """Point-in-time enrichment: each event joined to the user's most
    recent order at-or-before the event time (backward as-of join;
    events.user_id keys into orders.o_custkey). The orders side is
    first deduped to one row per (custkey, orderdate) keeping the min
    orderkey, so the as-of match is deterministic; order price is
    integerized to cents."""
    from ..stages.asof import asof_join

    ev = _table(sf_dir, "events", ["event_id", "user_id", "ts"])
    od = _table(
        sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"]
    )
    ts_t = pa.timestamp("us")
    joined = asof_join(
        ev,
        od,
        left_on="user_id",
        right_on="o_custkey",
        left_ts="ts",
        right_ts="o_orderdate",
        right_dedup_order="o_orderkey",  # fused (custkey, date) keep-min dedup
        left_schema=pa.schema(
            [("event_id", pa.int64()), ("user_id", pa.int64()), ("ts", ts_t)]
        ),
        right_schema=pa.schema(
            [
                ("o_custkey", pa.int64()),
                ("o_orderdate", ts_t),
                ("o_orderkey", pa.int64()),
                ("o_totalprice", pa.float64()),
            ]
        ),
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": t["event_id"],
                "o_orderkey": t["o_orderkey"],
                "price_e2": pc.round(pc.multiply(t["o_totalprice"], 1e2)).cast(pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def q_kmeans(sf_dir: str, k: int = 8, num_iters: int = 4):
    """Distributed integer-quantized Lloyd k-means over the embeddings
    table: init centroids = vectors with vec_id < k, 4 update rounds,
    exact int64 distances, truncating-integer-division centroid means
    — bit-reproducible vs the recursive-CTE oracle."""
    from ..stages.kmeans import kmeans, seed_centroids

    vecs = _table(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent0 = seed_centroids(vecs, k)
    return kmeans(vecs, cent0, num_iters=num_iters)


def q_pq_codebook(sf_dir: str, m: int = 4, k: int = 4, num_iters: int = 3):
    """Product quantization (Jégou et al. 2011) over the embeddings
    table: the 64-dim space splits into ``m`` subspaces, each gets its
    own integer-exact Lloyd codebook (stages/kmeans.lloyd_centroids —
    the per-subspace runs reuse the kmeans combiner: k*dim partial
    sums per block, no vector shuffle), then ONE final pass assigns
    all m codes per vector and sums the exact int64 subspace
    distortions. This is the ANN memory path that complements IVF
    (stages/ann.py): 64 floats compress to m bytes + codebooks.
    Bit-reproducible vs the recursive-CTE oracle: quantize q =
    FLOOR(1e6*x), exact distances, trunc-div means, ties -> lowest
    code."""
    import ray as _ray

    from ..stages.kmeans import (
        _assign,
        lloyd_centroids,
        quantize_batch,
        seed_centroids,
    )

    dim, sub = 64, 64 // m
    vecs = _table(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()

    def slicer(s: int):
        lo, hi = s * sub, (s + 1) * sub

        def f(t: pa.Table) -> pa.Table:
            x = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(
                np.float64
            )
            return pa.table(
                {
                    "vec_id": t["vec_id"],
                    "embedding": pa.array(
                        list(x[:, lo:hi]), pa.list_(pa.float64())
                    ),
                }
            )

        return f

    cents = []
    for s in range(m):
        sv = vecs.map_batches(slicer(s), batch_format="pyarrow")
        cents.append(lloyd_centroids(sv, seed_centroids(sv, k), num_iters))
    cref = _ray.put(np.stack(cents))  # (m, k, sub) int64 — tiny broadcast

    def codes(t: pa.Table) -> pa.Table:
        q = quantize_batch(t)
        c = _ray.get(cref)
        cols: dict = {"vec_id": t["vec_id"]}
        tot = np.zeros(len(q), np.int64)
        for s in range(m):
            a, d = _assign(q[:, s * sub : (s + 1) * sub], c[s])
            cols[f"code_{s}"] = pa.array(a.astype(np.int64))
            tot += d
        cols["distortion"] = pa.array(tot)
        return pa.table(cols)

    return vecs.map_batches(codes, batch_format="pyarrow")


def q_kcenter_seeds(sf_dir: str, k: int = 8):
    """K-CENTER SEEDING by farthest-first traversal (Gonzalez 1985 —
    the deterministic analog of k-means++ init): seed 0 = vec_id 0;
    each round picks the vector maximizing its exact int64 distance to
    the chosen set (ties -> lowest vec_id). Per round: ONE map_batches
    pass (broadcast <= k chosen vectors, per-batch argmax partial —
    the kmeans _assign kernel reused for min-dist), then a bounded
    driver reduce over per-block champions. k-1 passes total; vectors
    never shuffle. Output: the selection order with each seed's
    distance-to-set at pick time."""
    from ..stages.kmeans import _assign, quantize_batch, seed_centroids

    vecs = _table(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    chosen = seed_centroids(vecs, 1)  # vec_id 0
    rows = [(0, 0, 0)]
    for step in range(1, k):
        cmat = chosen.copy()

        def best(t: pa.Table, cmat=cmat) -> pa.Table:
            q = quantize_batch(t)
            ids = t["vec_id"].to_numpy().astype(np.int64)
            _, dmin = _assign(q, cmat)
            o = np.lexsort((ids, -dmin))[0]
            return pa.table(
                {
                    "vec_id": pa.array([ids[o]]),
                    "dd": pa.array([int(dmin[o])]),
                    "emb": pa.array([q[o].tolist()], pa.list_(pa.int64())),
                }
            )

        parts = vecs.map_batches(best, batch_format="pyarrow").to_pandas()
        parts = parts.sort_values(["dd", "vec_id"], ascending=[False, True], kind="stable")
        pick = parts.iloc[0]
        rows.append((step, int(pick["vec_id"]), int(pick["dd"])))
        chosen = np.vstack([chosen, np.asarray(pick["emb"], dtype=np.int64)])
    return pd.DataFrame(
        {
            "step": pd.Series([r[0] for r in rows], dtype="int64"),
            "vec_id": pd.Series([r[1] for r in rows], dtype="int64"),
            "dist_to_set": pd.Series([r[2] for r in rows], dtype="int64"),
        }
    )


def q_ann_recall(
    sf_dir: str, k: int = 10, n_centroids: int = 8, nprobe: int = 2, n_queries: int = 10
):
    """ANN QUALITY EVAL: recall@k of IVF probing vs exact brute force,
    per query — the measurement that decides nprobe/nlist before a
    100 TB index build. Everything is integer-exact so the oracle is
    bit-reproducible: quantized int64 dot-product similarity, seeded
    centroids (vec_id < n_centroids), assignment/probe argmax ties to
    the lowest index, top-k ties to the lowest vec_id. ONE corpus pass
    emits per-batch top-k partials for BOTH the brute and the probed
    ranking (kind column); a 2*n_queries-group merge finishes, and the
    intersection count lands on the driver. Self-matches are kept
    (deterministic on both sides)."""
    from ..stages.kmeans import quantize_batch, seed_centroids

    vecs = _table(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    cents = seed_centroids(vecs, n_centroids)  # (C, dim) int64

    def pick_queries(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["vec_id"], n_queries))

    qdf = (
        vecs.map_batches(pick_queries, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
    )
    qids = qdf["vec_id"].to_numpy().astype(np.int64)
    Q = np.stack(
        [
            np.floor(np.asarray(v, dtype=np.float64) * 1e6).astype(np.int64)
            for v in qdf["embedding"]
        ]
    )
    # probe sets: top-nprobe centroids by exact dot, ties -> lowest c
    qc = Q @ cents.T
    probe = np.argsort(-qc, axis=1, kind="stable")[:, :nprobe]
    import ray as _ray

    ref = _ray.put((qids, Q, cents, probe))

    def partials(t: pa.Table) -> pa.Table:
        qi, Qm, C, pr = _ray.get(ref)
        X = quantize_batch(t)
        ids = t["vec_id"].to_numpy().astype(np.int64)
        assign = np.argmax(X @ C.T, axis=1)  # first max = lowest index
        D = X @ Qm.T  # (B, nq) exact int64
        out_q, out_kind, out_v, out_d = [], [], [], []
        for j in range(len(qi)):
            d = D[:, j]
            for kind, mask in ((0, None), (1, np.isin(assign, pr[j]))):
                dd, vv = (d, ids) if mask is None else (d[mask], ids[mask])
                if not len(dd):
                    continue
                o = np.lexsort((vv, -dd))[: min(k, len(dd))]
                out_q.append(np.full(len(o), qi[j]))
                out_kind.append(np.full(len(o), kind))
                out_v.append(vv[o])
                out_d.append(dd[o])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.int64()),
                "kind": pa.array(np.concatenate(out_kind), pa.int64()),
                "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
                "dot": pa.array(np.concatenate(out_d), pa.int64()),
            }
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.sort_values(["dot", "vec_id"], ascending=[False, True], kind="stable")
            .head(k)
            .reset_index(drop=True)
        )

    top = (
        vecs.map_batches(partials, batch_format="pyarrow")
        .groupby(["query_id", "kind"])
        .map_groups(merge, batch_format="pandas")
        .to_pandas()
    )
    brute = top[top["kind"] == 0].groupby("query_id")["vec_id"].apply(set)
    ivf = top[top["kind"] == 1].groupby("query_id")["vec_id"].apply(set)
    out = []
    for q in sorted(qids.tolist()):
        b = brute.get(q, set())
        v = ivf.get(q, set())
        out.append((q, len(b & v), len(b)))
    return pd.DataFrame(
        {
            "query_id": pd.Series([r[0] for r in out], dtype="int64"),
            "hits": pd.Series([r[1] for r in out], dtype="int64"),
            "k_eff": pd.Series([r[2] for r in out], dtype="int64"),
        }
    )


def q_embedding_neardup(sf_dir: str):
    """Near-dup pairs over the embeddings table AUGMENTED with planted
    near-duplicates (vec_id < 16 get an affine-perturbed copy at
    vec_id + 1_000_000), so the query exercises bucket collision +
    verify non-vacuously — the raw synthetic table has no pairs at
    cosine >= 0.9. The perturbation (x + 0.02 per element, float64)
    is reproduced verbatim by the SQL oracle."""
    from ..stages.ann import embedding_neardup

    def plant(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy().astype(np.int64)
        X = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        sel = ids < 16
        out_ids = np.concatenate([ids, ids[sel] + 1_000_000])
        out_x = np.vstack([X, X[sel] + 0.02])
        return pa.table(
            {
                "vec_id": pa.array(out_ids, pa.int64()),
                "embedding": pa.array(list(out_x), pa.list_(pa.float64())),
            }
        )

    aug = _table(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return embedding_neardup(aug, threshold=0.9)


def q_ann_ivf(sf_dir: str, k: int = 10):
    """IVF search over the MATERIALIZED index (one-time centroid
    assignment + write_partitioned by centroid, then probed-partition
    reads — stages/ann.py build_ivf_index / ivf_topk_indexed),
    exercised at FULL probe (nprobe = n_centroids), which is exact by
    construction — so the brute-force SQL oracle checks it
    hash-exactly. Approximation quality and the partial-read property
    at nprobe < nlist are bounded separately in pytest
    (tests/test_dedup_ann.py)."""
    from ..stages.ann import build_ivf_index, ivf_topk_indexed

    emb = _table(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(emb.filter(expr="vec_id < 5").take_all(), key=lambda r: r["vec_id"])
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    idx_dir = _cache(sf_dir, "ivf_index")
    build_ivf_index(emb, idx_dir, n_centroids=16)
    # over-fetch so integer-scaled ties at the rank-k boundary are
    # resolved identically to the oracle's (score_e6, vec_id) window
    res = ivf_topk_indexed(idx_dir, Q, qids, k=k + 16, nprobe=16)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(score_e6=np.round(df["score"].to_numpy() * 1e6).astype("int64"))
        df = df.sort_values(["score_e6", "vec_id"], ascending=[False, True]).head(k)
        return pd.DataFrame(
            {
                "query_id": df["query_id"].astype("int64"),
                "vec_id": df["vec_id"].astype("int64"),
                "score_e6": df["score_e6"].to_numpy(),
            }
        )

    return res.groupby("query_id").map_groups(finish, batch_format="pandas")


def _media_table(sf_dir: str) -> rd.Dataset:
    """Documents' text bytes standing in for media payloads (the
    codecs are stubbed; the Ray plumbing under test is real)."""

    def to_media(t: pa.Table) -> pa.Table:
        kinds = ["image", "audio", "video"]
        ids = t["doc_id"].to_numpy()
        return pa.table(
            {
                "media_id": t["doc_id"].cast(pa.int64()),
                "media_type": pa.array([kinds[int(i) % 3] for i in ids], pa.string()),
                "payload": pa.array(
                    [s.encode() for s in t["text"].to_pylist()], pa.binary()
                ),
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        to_media, batch_format="pyarrow"
    )


def q_multimodal_decode(sf_dir: str):
    from ..stages.multimodal import decode_media

    return decode_media(_media_table(sf_dir), stub=True)


def q_media_features(sf_dir: str, dim: int = 8):
    """Stubbed feature-extraction actor stage (the batched-inference
    shape); features flattened to integer-scaled columns for the
    hash-exact SQL compare."""
    from ..stages.multimodal import media_features

    feats = media_features(_media_table(sf_dir), dim=dim, stub=True)

    def finish(t: pa.Table) -> pa.Table:
        F = np.stack(t["feature"].to_numpy(zero_copy_only=False))
        cols = {"media_id": t["media_id"].cast(pa.int64())}
        for j in range(dim):
            cols[f"f{j}_e6"] = pa.array(
                np.round(F[:, j].astype(np.float64) * 1e6).astype(np.int64)
            )
        return pa.table(cols)

    return feats.map_batches(finish, batch_format="pyarrow")


def q_media_framesample(sf_dir: str, n_samples: int = 4):
    """Stubbed frame sampling: deterministic byte-range frames,
    reported as (md5, length) so binary payloads hash-compare."""
    from ..stages.multimodal import frame_sample

    frames = frame_sample(_media_table(sf_dir), n_samples=n_samples, stub=True)

    def finish(t: pa.Table) -> pa.Table:
        fr = t["frame"].to_pylist()
        return pa.table(
            {
                "media_id": t["media_id"].cast(pa.int64()),
                "frame_idx": t["frame_idx"].cast(pa.int64()),
                "frame_md5": pa.array([hashlib.md5(b or b"").hexdigest() for b in fr], pa.string()),
                "frame_len": pa.array([len(b or b"") for b in fr], pa.int64()),
            }
        )

    return frames.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# embeddings: brute-force ANN (baseline; IVF variant in stages/ann.py)


def q_ann_topk(sf_dir: str, n_queries: int = 5, k: int = 10):
    """Exact cosine top-k of every vector vs the first n_queries
    vectors. Query matrix is broadcast once (ray.put); each batch does
    one matmul; per-batch partial top-k then a final merge."""
    emb = _table(sf_dir, "embeddings", ["vec_id", "embedding"])
    qrows = sorted(emb.filter(expr=f"vec_id < {n_queries}").take_all(), key=lambda r: r["vec_id"])
    Q = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in qrows])
    qids = np.array([r["vec_id"] for r in qrows], dtype=np.int64)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    ref = ray.put((qids, Qn))

    class Score:
        def __init__(self):
            self.qids, self.Qn = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t["vec_id"].to_numpy()
            X = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
            Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
            S = self.Qn @ Xn.T  # (nq, batch)
            nq, nb = S.shape
            keep = min(k + 32, nb)  # margin so int-scaled ties survive the partial cut
            part = np.argpartition(-S, keep - 1, axis=1)[:, :keep]
            out_q, out_v, out_s = [], [], []
            for qi in range(nq):
                out_q.append(np.full(keep, self.qids[qi], dtype=np.int64))
                out_v.append(ids[part[qi]])
                out_s.append(S[qi, part[qi]])
            return pa.table(
                {
                    "query_id": pa.array(np.concatenate(out_q)),
                    "vec_id": pa.array(np.concatenate(out_v), pa.int64()),
                    "score": pa.array(np.concatenate(out_s)),
                }
            )

    _sjkey = ("simjoin_score", ref.hex())

    def score_batch(t: pa.Table) -> pa.Table:
        from ..stages.taskify import worker_cached

        return worker_cached(_sjkey, Score)(t)

    partials = emb.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        # rank on the integer-scaled score (ties by vec_id) — identical
        # ordering to the oracle SQL's window
        df = df.assign(score_e6=np.round(df["score"].to_numpy() * 1e6).astype("int64"))
        df = df.sort_values(["score_e6", "vec_id"], ascending=[False, True]).head(k)
        return pd.DataFrame(
            {
                "query_id": df["query_id"].astype("int64"),
                "vec_id": df["vec_id"].astype("int64"),
                "score_e6": df["score_e6"].to_numpy(),
            }
        )

    return partials.groupby("query_id").map_groups(merge, batch_format="pandas")

# ---------------------------------------------------------------------------
# benchmark decontamination (n-gram overlap vs a broadcast eval set)


def q_doc_decontaminate(sf_dir: str, n: int = 4):
    """Benchmark decontamination: corpus docs (doc_id % 7 != 0) that
    share a word 4-gram with the 'benchmark' subset (doc_id % 7 == 0,
    standing in for an external eval set — small by construction, as
    real eval sets are). Benchmark grams are collected in one bounded
    distributed pass and broadcast; the corpus side then streams
    through a single shuffle-free membership pass. Output: contaminated
    docs with their position count and hit count."""
    from ..stages.decontaminate import benchmark_ngrams, decontaminate

    docs = _table(sf_dir, "documents", ["doc_id", "text"])

    def bench_grams(df: pd.DataFrame) -> pd.DataFrame:
        sub = df[df["doc_id"] % 7 == 0]
        return pd.DataFrame(
            {"gram": sorted(benchmark_ngrams(sub["text"].astype(str), n))}
        )

    # bounded driver collect: the benchmark side is eval-set-sized
    bench = frozenset(
        docs.map_batches(bench_grams, batch_format="pandas").to_pandas()["gram"]
    )

    corpus = docs.map_batches(
        lambda df: df[df["doc_id"] % 7 != 0], batch_format="pandas"
    )
    stats = decontaminate(corpus, bench, n=n)
    return stats.map_batches(
        lambda df: df[df["n_hits"] > 0].astype(
            {"doc_id": "int64", "n_grams": "int64", "n_hits": "int64"}
        ),
        batch_format="pandas",
    )

# ---------------------------------------------------------------------------
# domain-graph contraction (page link graph -> weighted domain graph)


def q_anchor_stats(sf_dir: str, n: int = 2000, n_buckets: int = 32):
    """Anchor-text aggregation per link TARGET — the web-search
    indexing signal (what other pages say about a url). Link
    INSTANCES are kept (duplicates/self-links carry anchor weight);
    per-target inlink count, distinct source pages and distinct
    anchor strings reduce in ONE dst-bucket shuffle (a target's whole
    inlink set shares a bucket). n is PINNED to the fixed oracle's
    2000 (the query generates its own pages and reads nothing from
    sf_dir, like pages_linkgraph_pagerank)."""
    from ..functions.html import decode_html, extract_links_with_anchors
    from ..sources.pages import generate_pages
    from ..stages.join import _BUCKET, add_bucket

    def inst(t: pa.Table) -> pa.Table:
        srcs, dsts, anchors = [], [], []
        for u, h in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            for href, anch in extract_links_with_anchors(decode_html(h), u):
                srcs.append(u)
                dsts.append(href)
                anchors.append(anch)
        return pa.table(
            {"src": pa.array(srcs, pa.string()), "dst": pa.array(dsts, pa.string()),
             "anchor": pa.array(anchors, pa.string())}
        )

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("dst")
        return pd.DataFrame(
            {
                "dst": g.size().index,
                "n_inlinks": g.size().to_numpy().astype("int64"),
                "n_src_pages": g["src"].nunique().to_numpy().astype("int64"),
                "n_anchors": g["anchor"].nunique().to_numpy().astype("int64"),
            }
        )

    pages = generate_pages(n)
    return (
        _BMG(add_bucket(pages.map_batches(inst, batch_format="pyarrow"), ["dst"], n_buckets), n_buckets, agg, "pandas")
    )


def q_page_degree_profile(sf_dir: str, n: int = 2000, n_buckets: int = 32):
    """Per-url link-degree profile over the REAL extraction: out-link
    instances (what the page says) and in-link instances (what the
    web says about it), for every url that appears as source or
    target. One extraction pass emits tagged (url, is_in) rows; ONE
    bucket shuffle merges both directions per url. n PINNED to the
    oracle's 2000 (fixed-string oracle rule)."""
    from ..functions.html import decode_html, extract_links
    from ..sources.pages import generate_pages
    from ..stages.join import _BUCKET, add_bucket

    def inst(t: pa.Table) -> pa.Table:
        urls, flags = [], []
        for u, h in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            targets = extract_links(decode_html(h), u)
            urls.extend([u] * len(targets))
            flags.extend([0] * len(targets))
            urls.extend(targets)
            flags.extend([1] * len(targets))
        return pa.table(
            {"url": pa.array(urls, pa.string()),
             "is_in": pa.array(np.array(flags, np.int64))}
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("url")["is_in"].agg(["sum", "count"])
        return pd.DataFrame(
            {
                "url": g.index.to_numpy(),
                "out_links": (g["count"] - g["sum"]).astype("int64").to_numpy(),
                "in_links": g["sum"].astype("int64").to_numpy(),
            }
        )

    pages = generate_pages(n)
    return (
        _BMG(add_bucket(pages.map_batches(inst, batch_format="pyarrow"), ["url"], n_buckets), n_buckets, merge, "pandas")
    )


def q_domain_top_pages(sf_dir: str, n: int = 2000, k: int = 3, n_buckets: int = 32):
    """Grouped top-k over the web graph: the k most-linked pages of
    every target domain (in-link INSTANCES from the real extraction,
    offsite targets included), rank ties broken by url. Two bounded
    shuffles: per-url in-link bucket_sum, then a domain-bucket top-k
    kernel (each domain's candidate set is its own url count — top-k
    never leaves the bucket). n PINNED to the oracle's 2000."""
    from ..functions.html import decode_html, extract_links
    from ..sources.pages import generate_pages
    from ..stages.join import add_bucket, bucket_sum

    def inst(t: pa.Table) -> pa.Table:
        urls = []
        for u, h in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            urls.extend(extract_links(decode_html(h), u))
        return pa.table(
            {"url": pa.array(urls, pa.string()),
             "one": pa.array(np.ones(len(urls), np.int64))}
        )

    pages = generate_pages(n)
    counts = bucket_sum(
        pages.map_batches(inst, batch_format="pyarrow"), ["url"], ["one"], n_buckets
    )

    def with_domain(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "domain": df["url"].astype(str).str.split("/").str[2],
                "url": df["url"].astype(str),
                "n_inlinks": df["one"].astype("int64"),
            }
        )

    dom = counts.map_batches(with_domain, batch_format="pandas")

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["domain", "n_inlinks", "url"], ascending=[True, False, True],
            kind="stable",
        )
        df["rk"] = df.groupby("domain", sort=False).cumcount() + 1
        out = df[df["rk"] <= k]
        return out[["domain", "url", "n_inlinks", "rk"]].astype(
            {"n_inlinks": "int64", "rk": "int64"}
        )

    return _BMG(add_bucket(dom, ["domain"], 16), 16, topk, "pandas")


def q_domain_pagerank(sf_dir: str, n: int = 2000, n_buckets: int = 32):
    """Link-graph contraction: page-level links from the deterministic
    page generator, globally exact-deduped in hash buckets (same-pair
    rows share a bucket), endpoints contracted to their host domain,
    parallel page links summed into an integer edge weight, then
    30-iteration weight-proportional PageRank ranks domains (top-25).

    n is PINNED to the fixed oracle's 2000 (the query generates its own
    pages and reads nothing from sf_dir, like pages_linkgraph_pagerank).
    The contraction is the 100 TB shape — dedup and weight partials per
    hash bucket, then ONE domain-pair reduce; the contracted graph is
    small by construction (that is the point of contraction), so the
    build takes the bit-identical driver-local path while the
    contraction itself stays distributed."""
    import shutil


    root = f"/tmp/graft_domains_{n}"
    shutil.rmtree(root, ignore_errors=True)
    _build_domain_graph(n, f"{root}/graph", "domain_graph", n_buckets)
    res = run_algorithm(f"{root}/graph", f"{root}/pr", "pagerank_weighted")

    def conv(t: pa.Table) -> pa.Table:
        return pa.table(
            {"vertex": t["vertex"], "score_e8": _score_e8(t["value"])}
        )

    return (
        res.map_batches(conv, batch_format="pyarrow")
        .sort(["score_e8", "vertex"], descending=[True, False])
        .limit(25)
    )


# ---------------------------------------------------------------------------
# pivot / full-outer-join / vocabulary / n-gram LM family


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_events_pivot(sf_dir: str):
    """PIVOT: per-user event counts spread into one column per event
    type (the fixed-domain crosstab every feature-engineering pipeline
    ends with). Per-batch partial pivot (vectorized crosstab — the
    combiner) then ONE bucket_sum on user_id: shuffle traffic is
    n_users x n_types ints, never the raw events."""
    from ..stages.join import bucket_sum

    cols = [f"n_{t}" for t in _EVENT_TYPES]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.crosstab(df["user_id"].astype("int64"), df["event_type"])
        d = d.reindex(columns=list(_EVENT_TYPES), fill_value=0).reset_index()
        d.columns = ["user_id"] + cols
        return d

    ds = _table(sf_dir, "events", ["user_id", "event_type"]).map_batches(
        partial, batch_format="pandas"
    )
    agg = bucket_sum(ds, ["user_id"], cols, n_buckets=16)
    return agg.map_batches(
        lambda df: df.astype({c: "int64" for c in ["user_id", *cols]}),
        batch_format="pandas",
    )


def q_orders_full_join(sf_dir: str, min_acctbal: float = 5000.0):
    """FULL OUTER shuffle join (completes the join family: inner /
    left / semi / anti / asof / range are elsewhere): urgent orders vs
    rich customers on custkey, keeping unmatched rows from BOTH sides
    (-1 fills). Tagged-union one-shuffle hash join — same plan as
    stages.join.bucket_join, written with explicit int fills because
    outer-merge NaN padding would silently float-cast the keys."""
    from ..stages.join import _BUCKET, add_bucket

    def ord_side(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        t = t.filter(pc2.equal(t["o_orderpriority"], "1-URGENT"))
        n = t.num_rows
        return pa.table(
            {
                "custkey": t["o_custkey"].cast(pa.int64()),
                "o_orderkey": t["o_orderkey"].cast(pa.int64()),
                "acctbal_e2": pa.array(np.zeros(n, np.int64)),
                "__side": pa.array(np.zeros(n, np.int8)),
            }
        )

    def cust_side(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        t = t.filter(pc2.greater(t["c_acctbal"], min_acctbal))
        n = t.num_rows
        return pa.table(
            {
                "custkey": t["c_custkey"].cast(pa.int64()),
                "o_orderkey": pa.array(np.zeros(n, np.int64)),
                "acctbal_e2": pc.round(pc.multiply(t["c_acctbal"], 1e2)).cast(pa.int64()),
                "__side": pa.array(np.ones(n, np.int8)),
            }
        )

    orders = _table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderpriority"]).map_batches(
        ord_side, batch_format="pyarrow"
    )
    cust = _table(sf_dir, "customer", ["c_custkey", "c_acctbal"]).map_batches(
        cust_side, batch_format="pyarrow"
    )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == 0][["custkey", "o_orderkey"]]
        r = g[g["__side"] == 1][["custkey", "acctbal_e2"]]
        out = l.merge(r, on="custkey", how="outer")
        return pd.DataFrame(
            {
                "custkey": out["custkey"].astype("int64"),
                "o_orderkey": out["o_orderkey"].fillna(-1).astype("int64"),
                "acctbal_e2": out["acctbal_e2"].fillna(-1).astype("int64"),
            }
        )

    return (
        _BMG(add_bucket(orders.union(cust), ["custkey"], 32), 32, join_bucket, "pandas")
    )


def q_vocab_build(sf_dir: str, min_df: int = 1):
    """Vocabulary construction with GLOBAL frequency-ranked ids (the
    word->id dictionary step of classic tokenizer training): term df
    (documents containing the term), id = dense rank by (df desc,
    term asc). Rank is distributed doc_pack-style: partition the df
    table BY df VALUE, drive an exclusive cumsum over the (tiny)
    per-df-value counts, then each df-group sorts its own terms and
    adds its offset — no global sort materialization, driver traffic
    is one row per DISTINCT df value."""
    from ..stages.join import _BUCKET, add_bucket, bucket_sum

    def doc_terms(df: pd.DataFrame) -> pd.DataFrame:
        # one row per doc => per-row unique() IS the per-doc distinct
        ex = df["text"].astype(str).str.split().apply(lambda xs: sorted(set(xs)))
        c = ex.explode().value_counts()
        return pd.DataFrame({"term": c.index.astype(str), "df": c.to_numpy().astype("int64")})

    dfs = bucket_sum(
        _table(sf_dir, "documents", ["text"]).map_batches(doc_terms, batch_format="pandas"),
        ["term"],
        ["df"],
        n_buckets=16,
    ).materialize()  # feeds the per-df histogram AND the rank pass

    hist = (
        bucket_sum(
            dfs.map_batches(
                lambda d: pd.DataFrame({"df": d["df"].astype("int64"), "n": 1}),
                batch_format="pandas",
            ),
            ["df"],
            ["n"],
            n_buckets=8,
        )
        .to_pandas()
        .sort_values("df", ascending=False)
    )
    offs = dict(
        zip(
            hist["df"].astype(int),
            np.concatenate([[0], np.cumsum(hist["n"].to_numpy())[:-1]]).astype(np.int64),
        )
    )
    offs_ref = ray.put(offs)

    def rank(g: pd.DataFrame) -> pd.DataFrame:
        o = ray.get(offs_ref)
        outs = []
        for dfv, grp in g.groupby("df", sort=False):
            grp = grp.sort_values("term", kind="stable")
            outs.append(
                pd.DataFrame(
                    {
                        "term": grp["term"].to_numpy(),
                        "df": grp["df"].astype("int64").to_numpy(),
                        "id": (np.arange(len(grp), dtype=np.int64) + 1 + int(o[int(dfv)])),
                    }
                )
            )
        return pd.concat(outs) if outs else pd.DataFrame(
            {"term": pd.Series([], dtype="str"), "df": pd.Series([], dtype="int64"),
             "id": pd.Series([], dtype="int64")}
        )

    vocab = (
        _BMG(add_bucket(dfs, ["df"], 8), 8, rank, "pandas")
    )
    if min_df > 1:
        vocab = vocab.filter(lambda r: r["df"] >= min_df)
    return vocab


def q_doc_bigram_lm(sf_dir: str):
    """Corpus n-gram language-model scoring (the perplexity-style
    quality filter of LLM curation, integer-exact): corpus bigram
    conditional 'probabilities' p(b|a) = count(a,b)*1e6 // count(a,*),
    each document scored by the sum over its bigram OCCURRENCES.
    Pass 1 builds the bigram stat table with per-batch partial counts
    + one bucket_sum; the table (vocab^2-bounded, top-K-truncated at
    real scale) broadcasts once via ray.put; pass 2 is a vectorized
    per-batch lookup (token->idx searchsorted, bigram key = ia*V+ib).
    No shuffle touches the documents themselves."""
    from ..stages.join import bucket_sum

    def partial_bigrams(df: pd.DataFrame) -> pd.DataFrame:
        cnt: dict[tuple[str, str], int] = {}
        for txt in df["text"].astype(str):
            toks = txt.split()
            for a, b in zip(toks, toks[1:]):
                cnt[(a, b)] = cnt.get((a, b), 0) + 1
        if not cnt:
            return pd.DataFrame(
                {"x": pd.Series([], dtype="str"), "y": pd.Series([], dtype="str"),
                 "c2": pd.Series([], dtype="int64")}
            )
        ks = list(cnt)
        return pd.DataFrame(
            {"x": [k[0] for k in ks], "y": [k[1] for k in ks],
             "c2": np.fromiter(cnt.values(), dtype=np.int64)}
        )

    docs = _table(sf_dir, "documents", ["doc_id", "text"]).materialize()
    stats = bucket_sum(
        docs.map_batches(partial_bigrams, batch_format="pandas"),
        ["x", "y"],
        ["c2"],
        n_buckets=16,
    ).to_pandas()

    terms = np.array(sorted(set(stats["x"]) | set(stats["y"])))
    V = np.int64(len(terms))
    ix = np.searchsorted(terms, stats["x"].to_numpy())
    iy = np.searchsorted(terms, stats["y"].to_numpy())
    key = ix.astype(np.int64) * V + iy
    order = np.argsort(key)
    key_s = key[order]
    c2_s = stats["c2"].to_numpy().astype(np.int64)[order]
    c1 = np.bincount(ix, weights=stats["c2"].to_numpy(), minlength=int(V)).astype(np.int64)
    p_e6 = (c2_s * 1_000_000) // c1[(key_s // V).astype(np.int64)]
    side = ray.put((terms, key_s, p_e6))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        tm, ks, pe = ray.get(side)
        Vl = np.int64(len(tm))
        dids, nbg, sc = [], [], []
        for did, txt in zip(df["doc_id"].astype("int64"), df["text"].astype(str)):
            toks = np.array(txt.split())
            if len(toks) < 2:
                dids.append(did); nbg.append(0); sc.append(0)
                continue
            ti = np.searchsorted(tm, toks)
            bk = ti[:-1].astype(np.int64) * Vl + ti[1:]
            pos = np.searchsorted(ks, bk)
            dids.append(did)
            nbg.append(len(bk))
            sc.append(int(pe[pos].sum()))
        return pd.DataFrame(
            {"doc_id": np.array(dids, np.int64), "n_bigrams": np.array(nbg, np.int64),
             "lm_e6": np.array(sc, np.int64)}
        )

    return docs.map_batches(score, batch_format="pandas")


def q_link_prediction(sf_dir: str, k: int = 100):
    """LINK PREDICTION on the orders graph: for every NON-adjacent
    vertex pair with >=1 common neighbor, common-neighbor count and
    the resource-allocation index RA = sum over common neighbors w of
    1/deg(w) (Zhou et al. 2009), integer-exact as 1e6//deg; top-k by
    (ra_e6, cn, pair) total order. Wedge enumeration at each CENTER
    over its full neighborhood (per-bucket vectorized pair expansion),
    per-pair scores merged by ONE bucket_sum; adjacency test is a
    broadcast sorted-key searchsorted. Scale path: cap center degree
    at D (hubs contribute 1e6//deg ~ 0 to RA) and shuffle the
    adjacency filter above the broadcast edge limit."""
    from ..stages.join import _BUCKET, add_bucket, bucket_sum
    from .triangles import _SHIFT, canonical_edges

    simple = canonical_edges(edges_orders(sf_dir)).materialize()

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy()
        b = t["dst"].to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
            }
        )

    es2 = simple.map_batches(both_dirs, batch_format="pyarrow")

    # simple-graph degrees, broadcast (|V| bounded; bucket-join fallback
    # above BROADCAST_DEG_LIMIT as in triangles)
    dp = (
        bucket_sum(
            es2.map_batches(
                lambda t: pa.table({"v": t["src"], "one": pa.array(np.ones(t.num_rows, np.int64))}),
                batch_format="pyarrow",
            ),
            ["v"],
            ["one"],
            n_buckets=16,
        )
        .to_pandas()
        .sort_values("v")
    )
    deg_ref = ray.put((dp["v"].to_numpy().astype(np.int64), dp["one"].to_numpy().astype(np.int64)))
    ekeys = np.sort(
        (simple.to_pandas()["src"].to_numpy().astype(np.int64) * _SHIFT)
        + simple.to_pandas()["dst"].to_numpy().astype(np.int64)
    )
    ekeys_ref = ray.put(ekeys)

    def wedge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        vs, ds = ray.get(deg_ref)
        g = g.sort_values(["src", "dst"], kind="stable")
        src = g["src"].to_numpy().astype(np.int64)
        dst = g["dst"].to_numpy().astype(np.int64)
        bounds = np.flatnonzero(np.diff(src)) + 1
        out_a, out_b, out_ra = [], [], []
        for nbrs, w in zip(np.split(dst, bounds), src[np.concatenate([[0], bounds])]):
            n = len(nbrs)
            if n < 2:
                continue
            i, j = np.triu_indices(n, k=1)
            out_a.append(nbrs[i])
            out_b.append(nbrs[j])
            dw = ds[np.searchsorted(vs, w)]
            out_ra.append(np.full(len(i), 1_000_000 // int(dw), dtype=np.int64))
        if not out_a:
            return pd.DataFrame(
                {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64"),
                 "cn": pd.Series([], dtype="int64"), "ra_e6": pd.Series([], dtype="int64")}
            )
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        ra = np.concatenate(out_ra)
        # per-bucket pair combiner before the shuffle
        key = a * _SHIFT + b
        o = np.argsort(key, kind="stable")
        key_s, ra_s = key[o], ra[o]
        uq, idx = np.unique(key_s, return_index=True)
        cn = np.diff(np.concatenate([idx, [len(key_s)]])).astype(np.int64)
        ra_sum = np.add.reduceat(ra_s, idx).astype(np.int64)
        return pd.DataFrame(
            {"a": (uq // _SHIFT).astype(np.int64), "b": (uq % _SHIFT).astype(np.int64),
             "cn": cn, "ra_e6": ra_sum}
        )

    pairs = (
        _BMG(add_bucket(es2, ["src"], 16), 16, wedge_pairs, "pandas")
    )
    scored = bucket_sum(pairs, ["a", "b"], ["cn", "ra_e6"], n_buckets=32)

    def drop_adjacent(df: pd.DataFrame) -> pd.DataFrame:
        ek = ray.get(ekeys_ref)
        key = df["a"].to_numpy().astype(np.int64) * _SHIFT + df["b"].to_numpy().astype(np.int64)
        pos = np.minimum(np.searchsorted(ek, key), max(len(ek) - 1, 0))
        keep = ek[pos] != key if len(ek) else np.ones(len(key), bool)
        out = df[keep]
        return pd.DataFrame(
            {"a": out["a"].astype("int64"), "b": out["b"].astype("int64"),
             "cn": out["cn"].astype("int64"), "ra_e6": out["ra_e6"].astype("int64")}
        )

    return (
        scored.map_batches(drop_adjacent, batch_format="pandas")
        .sort(["ra_e6", "cn", "a", "b"], descending=[True, True, False, False])
        .limit(k)
    )


def q_bipartite_check(sf_dir: str):
    """Bipartiteness test / BFS 2-coloring of the orders graph: each
    vertex's hop distance from its COMPONENT MINIMUM (canonical
    multi-source BFS layering — sources are the per-component min ids
    from the engine's own CC run), parity = dist % 2, and conflicts =
    incident edges whose endpoints share a parity class (all zero iff
    the graph is bipartite; the triangle-rich orders graph is not, so
    the output is non-degenerate). Three engine stages chained: CC ->
    multi-source BFS -> one tagged-union bucket_sum merging the parity
    rows with per-edge conflict partials. The parity table broadcasts
    (|V| ids + dists, same bound as triangles' degree broadcast);
    above that it becomes two bucket joins on the edge endpoints."""
    from ..stages.join import bucket_sum
    from .graph import lookup_vertex_id

    gdir = _graph_for(sf_dir, "orders")
    man = GraphManifest.load(gdir)

    cc = _run_cached(sf_dir, "orders", "cc")
    labs = (
        cc.map_batches(
            lambda t: pa.table({"lab": pc.unique(t["value"].cast(pa.int64()))}),
            batch_format="pyarrow",
        )
        .to_pandas()["lab"]
        .unique()
    )
    sids = tuple(sorted(lookup_vertex_id(man, str(int(l))) for l in labs))
    res = _run_cached(sf_dir, "orders", "sssp_multi", source_ids=sids)

    pv = res.to_pandas()  # |V| rows: the broadcast side, not the output path
    vs = pv["vertex"].astype("int64").to_numpy()
    dd = pv["value"].to_numpy().astype(np.int64)  # all finite: sources cover every component
    order = np.argsort(vs)
    par_ref = ray.put((vs[order], dd[order] % 2))

    def conflict_partial(t: pa.Table) -> pa.Table:
        v_s, p_s = ray.get(par_ref)
        a = t["src"].to_numpy().astype(np.int64)
        b = t["dst"].to_numpy().astype(np.int64)
        same = p_s[np.searchsorted(v_s, a)] == p_s[np.searchsorted(v_s, b)]
        ends = np.concatenate([a[same], b[same]])
        uv, uc = np.unique(ends, return_counts=True)
        return pa.table(
            {
                "vertex": pa.array(uv.astype(np.int64)),
                "dist": pa.array(np.zeros(len(uv), np.int64)),
                "parity": pa.array(np.zeros(len(uv), np.int64)),
                "conflicts": pa.array(uc.astype(np.int64)),
            }
        )

    conf = edges_orders(sf_dir).map_batches(conflict_partial, batch_format="pyarrow")

    def par_rows(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64()).to_numpy()
        d = t["value"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "vertex": pa.array(v),
                "dist": pa.array(d),
                "parity": pa.array(d % 2),
                "conflicts": pa.array(np.zeros(len(v), np.int64)),
            }
        )

    merged = bucket_sum(
        res.map_batches(par_rows, batch_format="pyarrow").union(conf),
        ["vertex"],
        ["dist", "parity", "conflicts"],
        n_buckets=16,
    )
    return merged.map_batches(
        lambda df: df.astype(
            {"vertex": "int64", "dist": "int64", "parity": "int64", "conflicts": "int64"}
        ),
        batch_format="pandas",
    )


def q_stress_centrality(
    sf_dir: str, n_seeds: int = 4, max_depth: int = 8, max_edges: int | None = None
):
    """Sampled STRESS centrality (Brandes 2008 variant of betweenness
    that stays ALL-INTEGER): stress(v) = sum over sampled sources s of
    sigma_s(v) * t_s(v), where sigma is the shortest-path count and
    t(v) the number of shortest-path-DAG paths starting at v — exactly
    the number of shortest paths from s THROUGH v. Landmark
    parallelism: one task per source runs the full forward
    (BFS + sigma) and backward (t) passes vectorized over a
    broadcast CSR (the random-walks pattern, same 5M-edge cap); the
    per-source partials merge with ONE bucket_sum. Above the cap each
    source runs the engine's one-pass forward+backward BSP program
    (``algorithms.BrandesStress``) instead — auto-selected,
    parity-tested bit-identical."""
    from ..stages.join import bucket_sum
    from ..stages.walks import MAX_BROADCAST_EDGES

    if max_edges is None:
        max_edges = MAX_BROADCAST_EDGES
    edges = edges_orders(sf_dir).materialize()
    if 2 * edges.count() > max_edges:
        return _stress_centrality_bsp(sf_dir, n_seeds, max_depth)
    adj = edges.to_pandas()
    a = adj["src"].to_numpy().astype(np.int64)
    b = adj["dst"].to_numpy().astype(np.int64)
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    o = np.lexsort((dst, src))
    src, dst = src[o], dst[o]
    verts, starts = np.unique(src, return_index=True)
    cnts = np.diff(np.concatenate([starts, [len(src)]]))
    vmax = int(verts.max()) + 1
    deg = np.zeros(vmax, np.int64)
    ptr = np.zeros(vmax, np.int64)
    deg[verts] = cnts
    ptr[verts] = starts
    state = ray.put((ptr, deg, dst, vmax))
    seeds = np.sort(verts)[:n_seeds]

    def brandes(t: pa.Table) -> pa.Table:
        p, d, nb, n = ray.get(state)
        out_v, out_w = [], []
        for s in t["s"].to_numpy():
            dist = np.full(n, -1, np.int64)
            sigma = np.zeros(n, np.int64)
            dist[s] = 0
            sigma[s] = 1
            frontier = np.array([s], np.int64)
            lev_edges = []  # per level: (dag_src, dag_dst)
            lev = 0
            while len(frontier):
                c = d[frontier]
                starts_ = p[frontier]
                tot = int(c.sum())
                eidx = np.repeat(starts_, c) + np.arange(tot) - np.repeat(
                    np.cumsum(c) - c, c
                )
                es = np.repeat(frontier, c)
                en = nb[eidx]
                fresh = dist[en] == -1
                if fresh.any():
                    dist[en[fresh]] = lev + 1
                dag = dist[en] == lev + 1
                np.add.at(sigma, en[dag], sigma[es[dag]])
                lev_edges.append((es[dag], en[dag]))
                frontier = np.unique(en[fresh])
                lev += 1
            assert lev <= max_depth, (
                f"BFS depth {lev} > oracle bound {max_depth}; raise max_depth "
                "in BOTH the query and the SQL walk-length guard"
            )
            tacc = np.zeros(n, np.int64)
            for es_k, en_k in reversed(lev_edges):
                np.add.at(tacc, es_k, 1 + tacc[en_k])
            reach = dist >= 0
            reach[s] = False
            vv = np.flatnonzero(reach).astype(np.int64)
            out_v.append(vv)
            out_w.append(sigma[vv] * tacc[vv])
        if not out_v:
            return pa.table(
                {"vertex": pa.array([], pa.int64()), "stress": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "vertex": pa.array(np.concatenate(out_v)),
                "stress": pa.array(np.concatenate(out_w)),
            }
        )

    seed_ds = rd.from_arrow(pa.table({"s": pa.array(seeds.astype(np.int64))}))
    parts = seed_ds.map_batches(brandes, batch_format="pyarrow", batch_size=1)
    agg = bucket_sum(parts, ["vertex"], ["stress"], n_buckets=16)
    return agg.map_batches(
        lambda df: df.astype({"vertex": "int64", "stress": "int64"}),
        batch_format="pandas",
    )


def _stress_centrality_bsp(sf_dir: str, n_seeds: int, max_depth: int):
    """Distributed q_stress_centrality: per seed, ONE engine run does
    both Brandes passes (``algorithms.BrandesStress`` — forward
    BFS+sigma supersteps, then the backward t accumulation scheduled
    level-synchronously from the deepest level). Per-seed stress
    partials (sigma * t) union and reduce with one bucket_sum; the
    adjacency lives only in the CSR shards. Bit-identical to the
    broadcast kernel (parity test)."""
    from ..algorithms import BrandesStress
    from ..stages.join import bucket_sum
    from .graph import lookup_vertex_id

    gdir = _graph_for(sf_dir, "orders")
    man = GraphManifest.load(gdir)
    # n_seeds smallest vertex ids: bounded per-block min-k partials
    # (blocks * n_seeds rows reach the driver, never the vertex set)
    def mink(t: pa.Table) -> pa.Table:
        v = np.unique(np.concatenate([t["src"].to_numpy(), t["dst"].to_numpy()]))
        return pa.table({"v": pa.array(v[:n_seeds].astype(np.int64))})

    rows = edges_orders(sf_dir).map_batches(mink, batch_format="pyarrow").take_all()
    seeds = np.unique(np.array([r["v"] for r in rows], dtype=np.int64))[:n_seeds]

    parts = []
    for s in seeds:
        sid = lookup_vertex_id(man, str(int(s)))
        res = _run_cached(
            sf_dir, "orders", "stress", source_id=sid, max_depth=max_depth
        )

        def contrib(t: pa.Table) -> pa.Table:
            v = t["vertex"].cast(pa.int64()).to_numpy()
            dist, sigma, tt = BrandesStress.unpack_result(t["value"].to_numpy())
            keep = dist >= 1  # reached, excluding the source itself
            return pa.table(
                {
                    "vertex": pa.array(v[keep]),
                    "stress": pa.array((sigma[keep] * tt[keep]).astype(np.int64)),
                }
            )

        parts.append(res.map_batches(contrib, batch_format="pyarrow"))

    uni = parts[0]
    for p in parts[1:]:
        uni = uni.union(p)
    agg = bucket_sum(uni, ["vertex"], ["stress"], n_buckets=16)
    return agg.map_batches(
        lambda df: df.astype({"vertex": "int64", "stress": "int64"}),
        batch_format="pandas",
    )


def q_events_funnel(sf_dir: str):
    """FUNNEL analysis (sequence mining): per user the earliest strict
    view -> click -> purchase completion chain (t2 = first click AFTER
    the first view, t3 = first purchase AFTER that click), stage =
    how deep the user got. One user-bucket shuffle; per bucket the
    stage times are vectorized per-user searchsorted over the sorted
    event times — a user's events never cross workers."""
    from ..stages.join import _BUCKET, add_bucket

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "event_type": df["event_type"],
                "ts_us": _ts_us(df["ts"]),
            }
        )

    def funnel(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for uid, gg in g.groupby("user_id", sort=False):
            t1 = t2 = t3 = -1
            et = gg["event_type"].to_numpy()
            ts = gg["ts_us"].to_numpy()
            views = ts[et == "view"]
            if len(views):
                t1 = int(views.min())
                clicks = ts[(et == "click") & (ts > t1)]
                if len(clicks):
                    t2 = int(clicks.min())
                    buys = ts[(et == "purchase") & (ts > t2)]
                    if len(buys):
                        t3 = int(buys.min())
            stage = (t1 >= 0) + (t2 >= 0) + (t3 >= 0)
            out.append((uid, stage, t1, t2, t3))
        return pd.DataFrame(
            out, columns=["user_id", "stage", "t1_us", "t2_us", "t3_us"]
        ).astype("int64")

    ds = _table(sf_dir, "events", ["user_id", "event_type", "ts"]).map_batches(
        prep, batch_format="pandas"
    )
    return (
        _BMG(add_bucket(ds, ["user_id"], _scaled_buckets(sf_dir, "events")), _scaled_buckets(sf_dir, "events"), funnel, "pandas")
    )


def q_events_outliers(sf_dir: str, k: int = 3):
    """Robust OUTLIER detection (median / MAD, all integer): per event
    type, median m of the 1e-6-floored values and MAD = median(|v-m|),
    both at rank floor((n-1)/2); flag events with |v-m| > k*MAD.
    Per-type groups (bounded-cardinality partition key); at 100 TB the
    two medians come from a mergeable quantile sketch instead of the
    per-group sort — the exact version buys the hash-exact oracle."""

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "event_type": df["event_type"],
                "v6": np.floor(df["value"].to_numpy(np.float64) * 1e6).astype("int64"),
            }
        )

    def flag(g: pd.DataFrame) -> pd.DataFrame:
        v = g["v6"].to_numpy()
        med = int(np.sort(v)[(len(v) - 1) // 2])
        dev = np.abs(v - med)
        mad = int(np.sort(dev)[(len(dev) - 1) // 2])
        out = g[dev > k * mad]
        return pd.DataFrame(
            {
                "event_id": out["event_id"].to_numpy(),
                "event_type": out["event_type"].to_numpy(),
                "v6": out["v6"].to_numpy(),
                "dev6": dev[dev > k * mad].astype("int64"),
            }
        )

    return (
        _table(sf_dir, "events", ["event_id", "event_type", "value"])
        .map_batches(prep, batch_format="pandas")
        .groupby("event_type")
        .map_groups(flag, batch_format="pandas")
    )


def q_sssp_parents(sf_dir: str):
    """Shortest-path TREE extraction (parent pointers, not just
    distances): parent(v) = the smallest neighbor u with
    dist(u) = dist(v) - 1 (canonical BFS tree of the existing SSSP
    run); the source gets parent -1. The dist table broadcasts
    (|V|-bounded, triangles' degree pattern; bucket-join fallback
    above the cap); parents reduce per bucket with a vectorized
    groupby-min — one shuffle over the edge list."""
    from ..stages.join import _BUCKET, add_bucket
    from .graph import lookup_vertex_id

    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)
    s_orig = int(_seed_vertices(sf_dir, 1)[0])
    sid = lookup_vertex_id(man, str(s_orig))
    res = _run_cached(sf_dir, "lineitem", "sssp", source_id=sid)

    pv = res.to_pandas()
    vs = pv["vertex"].astype("int64").to_numpy()
    dd = pv["value"].to_numpy()
    fin = np.isfinite(dd)
    vs, dd = vs[fin], dd[fin].astype(np.int64)
    o = np.argsort(vs)
    dist_ref = ray.put((vs[o], dd[o]))

    def cand(t: pa.Table) -> pa.Table:
        v_s, d_s = ray.get(dist_ref)
        a = t["src"].to_numpy().astype(np.int64)
        b = t["dst"].to_numpy().astype(np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        pos_s = np.searchsorted(v_s, src)
        pos_d = np.searchsorted(v_s, dst)
        ok = (
            (pos_s < len(v_s)) & (pos_d < len(v_s))
            & (v_s[np.minimum(pos_s, len(v_s) - 1)] == src)
            & (v_s[np.minimum(pos_d, len(v_s) - 1)] == dst)
        )
        src, dst, pos_s, pos_d = src[ok], dst[ok], pos_s[ok], pos_d[ok]
        tree = d_s[pos_s] == d_s[pos_d] - 1
        return pa.table(
            {
                "vertex": pa.array(dst[tree]),
                "parent": pa.array(src[tree]),
                "dist": pa.array(d_s[pos_d[tree]]),
            }
        )

    def reduce_min(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("vertex", as_index=False).agg(
            parent=("parent", "min"), dist=("dist", "first")
        )
        return out.astype("int64")

    cands = edges_lineitem(sf_dir).map_batches(cand, batch_format="pyarrow")
    parents = (
        _BMG(add_bucket(cands, ["vertex"], 16), 16, reduce_min, "pandas")
    )
    root = rd.from_arrow(
        pa.table(
            {
                "vertex": pa.array([s_orig], pa.int64()),
                "parent": pa.array([-1], pa.int64()),
                "dist": pa.array([0], pa.int64()),
            }
        )
    )
    return parents.union(root)


def q_maximal_matching(sf_dir: str, max_rounds: int = 40):
    """Parallel MAXIMAL MATCHING (Luby-style randomized local-min edge
    rule): each round every edge gets a counter-based priority
    splitmix64(edge_key + round * GOLDEN) — unique per round because
    splitmix64 is a bijection — and an edge matches iff it is the
    min-priority edge of BOTH its endpoints; edges touching matched
    vertices drop out. Random priorities drain a constant expected
    fraction per round (O(log E) rounds) where a fixed lexicographic
    rule would sequentialize on dense hubs. Per round: one per-vertex
    argmin reduce (batch partials + bucket reduce), broadcast —
    matched vertices are then LOCALLY decidable (decode the argmin
    edge, test mutuality), so matching + filtering is one map over the
    live edges. Driver loop = the rounds (kcore pattern); above the
    |V| broadcast bound the argmin table joins back by bucket."""
    from ..stages.join import _BUCKET, add_bucket
    from ..utils import splitmix64
    from .triangles import _SHIFT, canonical_edges

    GOLDEN = np.uint64(0x9E3779B97F4A7C15)
    live = canonical_edges(edges_orders(sf_dir)).materialize()
    matched = []
    rnd = 0
    while live.count() > 0:
        assert rnd < max_rounds, (
            f"matching needed > {max_rounds} rounds; raise max_rounds in BOTH "
            "the query and the SQL iteration guard"
        )

        def pri_of(k: np.ndarray, r: int) -> np.ndarray:
            with np.errstate(over="ignore"):
                return splitmix64(k.astype(np.uint64) + np.uint64(r) * GOLDEN)

        rnd_now = rnd

        def vmin_partial(t: pa.Table) -> pa.Table:
            a = t["src"].to_numpy().astype(np.int64)
            b = t["dst"].to_numpy().astype(np.int64)
            k = a * _SHIFT + b
            pri = pri_of(k, rnd_now)
            v = np.concatenate([a, b])
            kk = np.concatenate([k, k])
            pp = np.concatenate([pri, pri])
            o = np.lexsort((pp, v))
            v, kk, pp = v[o], kk[o], pp[o]
            u, idx = np.unique(v, return_index=True)
            return pa.table(
                {
                    "v": pa.array(u),
                    "pri": pa.array(pp[idx].astype(np.int64)),  # order-safe: see below
                    "argkey": pa.array(kk[idx]),
                }
            )

        # NOTE pri is stored shifted to int64 keeping uint64 order:
        # x - 2^63 is monotone, so min-reduction is unaffected
        def vmin_partial_shift(t: pa.Table) -> pa.Table:
            out = vmin_partial(t)
            p = out["pri"].to_numpy().astype(np.uint64)
            return out.set_column(
                1, "pri", pa.array((p - np.uint64(1 << 63)).astype(np.int64))
            )

        def vmin_reduce(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["v", "pri"], kind="stable")
            out = g.groupby("v", as_index=False).first()
            return out[["v", "pri", "argkey"]].astype("int64")

        vm = (
            _BMG(
                add_bucket(
                    live.map_batches(vmin_partial_shift, batch_format="pyarrow"),
                    ["v"],
                    16,
                ),
                16,
                vmin_reduce,
                "pandas",
            )
            .to_pandas()
            .sort_values("v")
        )
        vs = vm["v"].to_numpy().astype(np.int64)
        aks = vm["argkey"].to_numpy().astype(np.int64)
        ref = ray.put((vs, aks))

        def step(t: pa.Table, emit_matched: bool) -> pa.Table:
            v_s, ak = ray.get(ref)
            a = t["src"].to_numpy().astype(np.int64)
            b = t["dst"].to_numpy().astype(np.int64)
            k = a * _SHIFT + b

            def vertex_matched(u):
                e = ak[np.searchsorted(v_s, u)]
                x = e // _SHIFT
                y = e % _SHIFT
                return (ak[np.searchsorted(v_s, x)] == e) & (
                    ak[np.searchsorted(v_s, y)] == e
                )

            if emit_matched:
                mm = (ak[np.searchsorted(v_s, a)] == k) & (
                    ak[np.searchsorted(v_s, b)] == k
                )
                return pa.table(
                    {
                        "a": pa.array(a[mm]),
                        "b": pa.array(b[mm]),
                        "round": pa.array(np.full(int(mm.sum()), rnd_now, np.int64)),
                    }
                )
            keep = ~(vertex_matched(a) | vertex_matched(b))
            return pa.table({"src": pa.array(a[keep]), "dst": pa.array(b[keep])})

        matched.append(
            live.map_batches(lambda t: step(t, True), batch_format="pyarrow").materialize()
        )
        live = live.map_batches(
            lambda t: step(t, False), batch_format="pyarrow"
        ).materialize()
        rnd += 1

    if not matched:
        return pd.DataFrame(
            {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64"),
             "round": pd.Series([], dtype="int64")}
        )
    out = matched[0]
    for m in matched[1:]:
        out = out.union(m)
    return out


def q_graph_coarsen(sf_dir: str):
    """ONE multilevel-coarsening step (the METIS-style primitive):
    contract every maximal-matching pair to its min endpoint and
    re-aggregate parallel edges as integer weights. The matching
    (itself a checked query) is at most |V|/2 pairs — broadcast as a
    sorted key->supervertex map; contraction is one vectorized map +
    one bucket_sum over the surviving coarse edges."""
    from ..stages.join import bucket_sum
    from .triangles import canonical_edges

    mm = q_maximal_matching(sf_dir)
    mm_df = mm if isinstance(mm, pd.DataFrame) else mm.to_pandas()
    vs = np.concatenate([mm_df["a"].to_numpy(), mm_df["b"].to_numpy()]).astype(np.int64)
    sup = np.concatenate(
        [np.minimum(mm_df["a"], mm_df["b"]).to_numpy()] * 2
    ).astype(np.int64)
    order = np.argsort(vs)
    ref = ray.put((vs[order], sup[order]))

    def contract(t: pa.Table) -> pa.Table:
        v_s, s_s = ray.get(ref)

        def to_super(x):
            if len(v_s) == 0:
                return x
            idx = np.clip(np.searchsorted(v_s, x), 0, len(v_s) - 1)
            return np.where(v_s[idx] == x, s_s[idx], x)

        a = to_super(t["src"].to_numpy().astype(np.int64))
        b = to_super(t["dst"].to_numpy().astype(np.int64))
        keep = a != b
        a, b = a[keep], b[keep]
        g = pd.DataFrame({"u": np.minimum(a, b), "v": np.maximum(a, b)})
        c = g.groupby(["u", "v"], as_index=False).size()
        return pa.table(
            {"u": pa.array(c["u"].to_numpy()), "v": pa.array(c["v"].to_numpy()),
             "weight": pa.array(c["size"].to_numpy().astype(np.int64))}
        )

    edges = canonical_edges(edges_orders(sf_dir))
    return bucket_sum(
        edges.map_batches(contract, batch_format="pyarrow"), ["u", "v"], ["weight"], n_buckets=8
    )


def q_block_conductance(sf_dir: str):
    """Community cut quality: per planted 8-id block of the cliquey
    graph, internal vs boundary edge counts and the conductance
    phi_e6 = cut * 1e6 // min(vol, total_vol - vol) — the metric a
    partitioner/community detector is judged by. ONE vectorized pass
    over the edges emits per-block partials (internal / cut / volume
    contributions); a tiny bucket_sum merges them; the min() needs
    total volume, an O(blocks) driver value."""
    from ..stages.join import bucket_sum
    from .triangles import canonical_edges

    def partial(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy().astype(np.int64)
        b = t["dst"].to_numpy().astype(np.int64)
        ba, bb = a // 8, b // 8
        internal = ba == bb
        blk = np.concatenate([ba, bb])
        vol = np.ones(2 * len(a), np.int64)  # each endpoint adds degree 1
        cut = np.concatenate([(~internal).astype(np.int64)] * 2)
        ein = np.concatenate([internal.astype(np.int64), np.zeros(len(a), np.int64)])
        g = pd.DataFrame({"block": blk, "vol": vol, "cut": cut, "internal": ein})
        return pa.Table.from_pandas(
            g.groupby("block", as_index=False).sum(), preserve_index=False
        )

    edges = canonical_edges(edges_cliquey(sf_dir))
    s = bucket_sum(
        edges.map_batches(partial, batch_format="pyarrow"),
        ["block"], ["vol", "cut", "internal"], n_buckets=4,
    ).to_pandas()
    total_vol = int(s["vol"].sum())
    vol = s["vol"].to_numpy().astype(np.int64)
    cut = s["cut"].to_numpy().astype(np.int64)
    denom = np.minimum(vol, total_vol - vol)
    phi = np.where(denom > 0, cut * 1_000_000 // np.maximum(denom, 1), -1)
    return pd.DataFrame(
        {
            "block": s["block"].astype("int64"),
            "internal_edges": s["internal"].astype("int64"),
            "cut_edges": cut,
            "volume": vol,
            "phi_e6": phi.astype("int64"),
        }
    )


def q_markov_stationary(sf_dir: str, iters: int = 25):
    """Stationary distribution of the clickstream Markov chain:
    transition counts reduce exactly from user-bucketed timelines
    (q_events_transitions' kernel shape — the distributed part), then
    the T×T row-normalized chain power-iterates on the driver (T =
    #event types, a bounded-side reduce like the kmeans centroid
    update). Start uniform, ``iters`` applications, e8-scaled like the
    PageRank family; types with no outgoing transitions contribute
    nothing (matching the oracle's absent join rows)."""
    from ..stages.join import _BUCKET, add_bucket

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(df["ts"])
        order = np.lexsort((df["event_id"].to_numpy(), ts, df["user_id"].to_numpy()))
        uid = df["user_id"].to_numpy()[order]
        et = df["event_type"].to_numpy()[order]
        same = uid[1:] == uid[:-1]
        g = pd.DataFrame(
            {"f": et[:-1][same], "t": et[1:][same],
             "cnt": np.ones(int(same.sum()), np.int64)}
        )
        return g.groupby(["f", "t"], as_index=False, sort=False).sum()

    src = _table(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    nb = _scaled_buckets(sf_dir, "events")
    c = (
        _BMG(add_bucket(src, ["user_id"], nb), nb, pairs, "pandas")
        .to_pandas()
        .groupby(["f", "t"], as_index=False)["cnt"]
        .sum()
    )
    types = sorted(
        set(_table(sf_dir, "events", ["event_type"]).unique("event_type"))
    )
    idx = {ty: i for i, ty in enumerate(types)}
    T = len(types)
    C = np.zeros((T, T), dtype=np.float64)
    for f, t, n in zip(c["f"], c["t"], c["cnt"]):
        C[idx[f], idx[t]] = float(n)
    rs = C.sum(axis=1)
    P = np.divide(C, rs[:, None], out=np.zeros_like(C), where=rs[:, None] > 0)
    v = np.full(T, 1.0 / T)
    for _ in range(iters):
        v = v @ P
    return pd.DataFrame(
        {
            "event_type": types,
            "pi_e8": np.round(v * 1e8).astype(np.int64),
        }
    )


def q_events_transitions(sf_dir: str):
    """Clickstream Markov transitions: counts of consecutive
    event-type pairs within each user's timeline (ties broken on
    event_id, like every ordered scan here) plus the integer
    transition probability p_e6 = cnt * 1e6 // from-type total. ONE
    user-bucket shuffle; consecutive pairs are a vectorized shift
    compare inside the bucket; the per-from normalization is an
    O(types^2) driver step."""
    from ..stages.join import _BUCKET, add_bucket

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(df["ts"])
        order = np.lexsort((df["event_id"].to_numpy(), ts, df["user_id"].to_numpy()))
        uid = df["user_id"].to_numpy()[order]
        et = df["event_type"].to_numpy()[order]
        same = uid[1:] == uid[:-1]
        g = pd.DataFrame(
            {"from_type": et[:-1][same], "to_type": et[1:][same],
             "cnt": np.ones(int(same.sum()), np.int64)}
        )
        return g.groupby(["from_type", "to_type"], as_index=False, sort=False).sum()

    src = _table(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    nb = _scaled_buckets(sf_dir, "events")
    s = (
        _BMG(add_bucket(src, ["user_id"], nb), nb, pairs, "pandas")
        .to_pandas()
        .groupby(["from_type", "to_type"], as_index=False)["cnt"]
        .sum()
    )
    tot = s.groupby("from_type")["cnt"].transform("sum")
    return pd.DataFrame(
        {
            "from_type": s["from_type"],
            "to_type": s["to_type"],
            "cnt": s["cnt"].astype("int64"),
            "p_e6": (s["cnt"] * 1_000_000 // tot).astype("int64"),
        }
    )


def q_two_hop_size(sf_dir: str, max_edges: int | None = None):
    """Two-hop neighborhood size |N(v, <=2) \\ {v}| per vertex — the
    friend-of-friend audience estimate. Below the broadcast cap,
    vertices partition across batches and each task expands its
    vertices' neighbor-of-neighbor lists against the broadcast CSR
    (random-walks pattern) with one sort+unique per vertex slice.
    Above it, the exact distributed path: one bucketed self-join of
    the edge table through the middle vertex (wedge expansion), a
    global pair distinct and one bucket_sum — parity-tested
    bit-identical. (The APPROXIMATE scale path is still the 2-round
    ANF sketch, q_anf, when exactness isn't required.)"""
    from ..stages.walks import MAX_BROADCAST_EDGES

    if max_edges is None:
        max_edges = MAX_BROADCAST_EDGES
    edges = edges_orders(sf_dir).materialize()
    if 2 * edges.count() > max_edges:
        return _two_hop_size_distributed(edges)
    adj = edges.to_pandas()
    a = adj["src"].to_numpy().astype(np.int64)
    b = adj["dst"].to_numpy().astype(np.int64)
    src_ = np.concatenate([a, b])
    dst_ = np.concatenate([b, a])
    o = np.lexsort((dst_, src_))
    src_, dst_ = src_[o], dst_[o]
    verts, starts = np.unique(src_, return_index=True)
    cnts = np.diff(np.concatenate([starts, [len(src_)]]))
    vmax = int(verts.max()) + 1
    deg = np.zeros(vmax, np.int64)
    ptr = np.zeros(vmax, np.int64)
    deg[verts] = cnts
    ptr[verts] = starts
    state = ray.put((ptr, deg, dst_))

    def expand(t: pa.Table) -> pa.Table:
        p, d, nb = ray.get(state)
        out_v, out_n = [], []
        for v in t["v"].to_numpy():
            n1 = nb[p[v]: p[v] + d[v]]
            chunks = [n1] + [nb[p[u]: p[u] + d[u]] for u in np.unique(n1)]
            n2 = np.unique(np.concatenate(chunks))
            out_v.append(v)
            out_n.append(len(n2) - int(v in n2))
        return pa.table(
            {"vertex": pa.array(np.array(out_v, np.int64)),
             "n_two_hop": pa.array(np.array(out_n, np.int64))}
        )

    return rd.from_items([{"v": int(v)} for v in verts]).map_batches(
        expand, batch_format="pyarrow"
    )


def _two_hop_size_distributed(edges: rd.Dataset, n_buckets: int = 32):
    """Exact distributed two-hop size: wedge-expand (v, mid) x (mid, w)
    with one bucketed equi-join on the middle vertex, union the one-hop
    pairs, filter w != v, global (v, w) distinct, count per v with one
    bucket_sum. Three shuffles total; the adjacency never leaves the
    object store. Per-mid cost is deg(mid)^2 rows — the inherent exact
    wedge volume (the sketch alternative is q_anf)."""
    from ..stages.join import bucket_join, bucket_sum, distinct

    def left_rows(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy()
        b = t["dst"].to_numpy()
        return pa.table(
            {
                "v": pa.array(np.concatenate([a, b])),
                "mid": pa.array(np.concatenate([b, a])),
            }
        )

    def right_rows(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy()
        b = t["dst"].to_numpy()
        return pa.table(
            {
                "mid2": pa.array(np.concatenate([a, b])),
                "w": pa.array(np.concatenate([b, a])),
            }
        )

    left = edges.map_batches(left_rows, batch_format="pyarrow")
    right = edges.map_batches(right_rows, batch_format="pyarrow")
    two_hop = bucket_join(
        left,
        right,
        left_on="mid",
        right_on="mid2",
        n_buckets=n_buckets,
        left_schema=pa.schema([("v", pa.int64()), ("mid", pa.int64())]),
        right_schema=pa.schema([("mid2", pa.int64()), ("w", pa.int64())]),
    )

    def vw(t: pa.Table) -> pa.Table:
        return pa.table({"v": t["v"], "w": t["w"]})

    def one_hop(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy()
        b = t["dst"].to_numpy()
        return pa.table(
            {
                "v": pa.array(np.concatenate([a, b])),
                "w": pa.array(np.concatenate([b, a])),
            }
        )

    def drop_self(t: pa.Table) -> pa.Table:
        keep = t["v"].to_numpy() != t["w"].to_numpy()
        return t.filter(pa.array(keep))

    pairs = (
        two_hop.map_batches(vw, batch_format="pyarrow")
        .union(edges.map_batches(one_hop, batch_format="pyarrow"))
        .map_batches(drop_self, batch_format="pyarrow")
    )
    uniq = distinct(pairs, ["v", "w"], n_buckets)

    def count_partial(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["v"].to_numpy(), return_counts=True)
        return pa.table(
            {"vertex": pa.array(u.astype(np.int64)), "n_two_hop": pa.array(c.astype(np.int64))}
        )

    agg = bucket_sum(
        uniq.map_batches(count_partial, batch_format="pyarrow"),
        ["vertex"],
        ["n_two_hop"],
        n_buckets=16,
    )
    return agg.map_batches(
        lambda df: df.astype({"vertex": "int64", "n_two_hop": "int64"}),
        batch_format="pandas",
    )


def q_square_count(sf_dir: str):
    """4-cycle (square) motif count of the orders graph: squares =
    (sum over vertex pairs of C(cn, 2)) / 2 where cn = common-neighbor
    count — every square is counted once per diagonal. Reuses the
    link-prediction wedge machinery (center-bucket pair expansion +
    one bucket_sum); the final reduce is one integer scalar."""
    from ..stages.join import _BUCKET, add_bucket, bucket_sum
    from .triangles import _SHIFT, canonical_edges

    simple = canonical_edges(edges_orders(sf_dir)).materialize()

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy()
        b = t["dst"].to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
            }
        )

    def wedge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["src", "dst"], kind="stable")
        src = g["src"].to_numpy().astype(np.int64)
        dst = g["dst"].to_numpy().astype(np.int64)
        bounds = np.flatnonzero(np.diff(src)) + 1
        ks = []
        for nbrs in np.split(dst, bounds):
            n = len(nbrs)
            if n < 2:
                continue
            i, j = np.triu_indices(n, k=1)
            ks.append(nbrs[i] * _SHIFT + nbrs[j])
        if not ks:
            return pd.DataFrame({"k": pd.Series([], dtype="int64"),
                                 "cn": pd.Series([], dtype="int64")})
        k = np.concatenate(ks)
        uq, cnt = np.unique(k, return_counts=True)
        return pd.DataFrame({"k": uq.astype(np.int64), "cn": cnt.astype(np.int64)})

    es2 = simple.map_batches(both_dirs, batch_format="pyarrow")
    pairs = (
        _BMG(add_bucket(es2, ["src"], 16), 16, wedge_pairs, "pandas")
    )
    cn = bucket_sum(pairs, ["k"], ["cn"], n_buckets=16)

    def choose2(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cn"].to_numpy().astype(np.int64)
        return pd.DataFrame({"s": [int((c * (c - 1) // 2).sum())]})

    total = cn.map_batches(choose2, batch_format="pandas").sum("s") or 0
    return pd.DataFrame({"n_squares": pd.Series([int(total) // 2], dtype="int64")})


def q_events_running_total(sf_dir: str):
    """Per-user running totals (cumulative window): each event's rank
    and cumulative value within its user's (ts, event_id) order —
    SUM/COUNT OVER (PARTITION BY user ORDER BY ...) re-expressed as
    ONE user-bucket shuffle + a vectorized per-bucket sort/cumsum
    (users never straddle buckets, so the cumulative state is local).
    value is floor-integerized to 1e-6 units so the running sum is
    order-free-exact and hash-matches the SQL window oracle."""
    from ..stages.join import _BUCKET, add_bucket

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "ts_us": _ts_us(df["ts"]),
                "v6": np.floor(df["value"].to_numpy() * 1e6).astype(np.int64),
            }
        )

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"])
        grp = g.groupby("user_id")
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "run_n": (grp.cumcount() + 1).astype("int64").to_numpy(),
                "run_sum_e6": grp["v6"].cumsum().astype("int64").to_numpy(),
            }
        )

    ds = _table(sf_dir, "events", ["event_id", "user_id", "ts", "value"]).map_batches(
        prep, batch_format="pandas"
    )
    return (
        _BMG(add_bucket(ds, ["user_id"], _scaled_buckets(sf_dir, "events")), _scaled_buckets(sf_dir, "events"), running, "pandas")
    )


def _edge_support(simple: rd.Dataset, n_buckets: int = 16) -> rd.Dataset:
    """Common-neighbor counts for every EXISTING edge of a canonical
    (src < dst, distinct) simple edge set: center-bucket wedge pair
    expansion (per-bucket combiner), TAGGED UNION with zero-cn edge
    rows so cn=0 edges survive, merged by ONE bucket_sum. Returns
    (k = a*SHIFT+b, cn, is_edge); rows with is_edge > 0 are the real
    edges and cn is their triangle support. Shared by edge Jaccard
    and the k-truss peel."""
    from ..stages.join import _BUCKET, add_bucket, bucket_sum
    from .triangles import _SHIFT

    def both_dirs(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy()
        b = t["dst"].to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b])),
                "dst": pa.array(np.concatenate([b, a])),
            }
        )

    es2 = simple.map_batches(both_dirs, batch_format="pyarrow")

    def wedge_cn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["src", "dst"], kind="stable")
        src = g["src"].to_numpy().astype(np.int64)
        dst = g["dst"].to_numpy().astype(np.int64)
        bounds = np.flatnonzero(np.diff(src)) + 1
        ks = []
        for nbrs in np.split(dst, bounds):
            if len(nbrs) < 2:
                continue
            i, j = np.triu_indices(len(nbrs), k=1)
            ks.append(nbrs[i] * _SHIFT + nbrs[j])
        if not ks:
            return pd.DataFrame(
                {"k": pd.Series([], dtype="int64"), "cn": pd.Series([], dtype="int64"),
                 "is_edge": pd.Series([], dtype="int64")}
            )
        k = np.concatenate(ks)
        uq, cnt = np.unique(k, return_counts=True)
        return pd.DataFrame(
            {"k": uq.astype(np.int64), "cn": cnt.astype(np.int64),
             "is_edge": np.zeros(len(uq), np.int64)}
        )

    def edge_rows(t: pa.Table) -> pa.Table:
        k = (
            t["src"].to_numpy().astype(np.int64) * _SHIFT
            + t["dst"].to_numpy().astype(np.int64)
        )
        n = len(k)
        return pa.table(
            {"k": pa.array(k), "cn": pa.array(np.zeros(n, np.int64)),
             "is_edge": pa.array(np.ones(n, np.int64))}
        )

    pairs = (
        _BMG(add_bucket(es2, ["src"], n_buckets), n_buckets, wedge_cn, "pandas")
    )
    return bucket_sum(
        pairs.union(simple.map_batches(edge_rows, batch_format="pyarrow")),
        ["k"],
        ["cn", "is_edge"],
        n_buckets=n_buckets,
    )


def q_edge_jaccard(sf_dir: str):
    """Per-EDGE Jaccard neighborhood similarity on the orders graph:
    jac(u,v) = |N(u) ∩ N(v)| / |N(u) ∪ N(v)| = cn / (d(u)+d(v)-cn)
    for every existing edge (the edge-strength score used by
    structural-similarity clustering, e.g. SCAN). cn per edge comes
    from the shared _edge_support stage; degrees broadcast (bucket-
    join fallback above the broadcast limit). Exact half-up e6."""
    from ..stages.join import bucket_sum
    from .triangles import _SHIFT, canonical_edges

    simple = canonical_edges(edges_orders(sf_dir)).materialize()

    def dir_counts(t: pa.Table) -> pa.Table:
        v = np.concatenate([t["src"].to_numpy(), t["dst"].to_numpy()])
        return pa.table(
            {"v": pa.array(v), "one": pa.array(np.ones(len(v), np.int64))}
        )

    dp = (
        bucket_sum(
            simple.map_batches(dir_counts, batch_format="pyarrow"),
            ["v"],
            ["one"],
            n_buckets=16,
        )
        .to_pandas()
        .sort_values("v")
    )
    deg_ref = ray.put(
        (dp["v"].to_numpy().astype(np.int64), dp["one"].to_numpy().astype(np.int64))
    )
    merged = _edge_support(simple, n_buckets=16)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["is_edge"].to_numpy() > 0]
        vs, ds_ = ray.get(deg_ref)
        k = df["k"].to_numpy().astype(np.int64)
        a = k // _SHIFT
        b = k % _SHIFT
        cn = df["cn"].to_numpy().astype(np.int64)
        da = ds_[np.searchsorted(vs, a)]
        db = ds_[np.searchsorted(vs, b)]
        den = da + db - cn  # >= 2: the endpoints are in each other's N
        jac = (2 * cn * 1_000_000 + den) // (2 * den)
        return pd.DataFrame(
            {"a": a, "b": b, "cn": cn, "jaccard_e6": jac.astype(np.int64)}
        )

    return merged.map_batches(finish, batch_format="pandas")


def q_knn_degree(sf_dir: str):
    """DEGREE ASSORTATIVITY PROFILE of the lineitem graph: for every
    degree class k, the number of vertices, the total degree of their
    neighbors, and the average-neighbor-degree k_nn(k) — the classic
    Pastor-Satorras web-graph correlation curve (descending k_nn(k) =
    disassortative hub structure). Straight off the CSR shards: the
    global degree array broadcasts once (ids are dense; at web scale
    this attach becomes a bucket join of edges with the degree table),
    each shard computes per-vertex neighbor-degree sums with one
    segmented cumsum (no per-vertex loop), pre-aggregates by degree
    class, and ONE bucket_sum merges. knn scaled e6, exact half-up."""
    from ..stages.join import bucket_sum

    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)
    deg = np.zeros(man.n_vertices, dtype=np.int64)
    for p in range(man.n_parts):
        sh = load_shard(man, p)
        deg[sh.lo : sh.hi] = sh.degrees()
    deg_ref = ray.put(deg)

    def partial(t: pa.Table) -> pa.Table:
        d_all = ray.get(deg_ref)
        outs = []
        for p in t["id"].to_numpy():
            sh = load_shard(man, int(p))
            ind = np.asarray(sh.indptr)
            csum = np.concatenate([[0], np.cumsum(d_all[np.asarray(sh.indices)])])
            snd = csum[ind[1:]] - csum[ind[:-1]]  # empty rows -> exact 0
            d = np.diff(ind)
            uq, inv = np.unique(d, return_inverse=True)
            outs.append(
                (uq.astype(np.int64),
                 np.bincount(inv).astype(np.int64),
                 np.bincount(inv, weights=snd).astype(np.int64))
            )
        if not outs:
            z = np.array([], np.int64)
            return pa.table({"degree": z, "n_vertices": z, "sum_nbr_deg": z})
        return pa.table(
            {
                "degree": pa.array(np.concatenate([o[0] for o in outs])),
                "n_vertices": pa.array(np.concatenate([o[1] for o in outs])),
                "sum_nbr_deg": pa.array(np.concatenate([o[2] for o in outs])),
            }
        )

    parts = rd.range(man.n_parts, override_num_blocks=man.n_parts).map_batches(
        partial, batch_format="pyarrow"
    )
    merged = bucket_sum(parts, ["degree"], ["n_vertices", "sum_nbr_deg"], n_buckets=8)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        k = df["degree"].to_numpy().astype(np.int64)
        n = df["n_vertices"].to_numpy().astype(np.int64)
        s = df["sum_nbr_deg"].to_numpy().astype(np.int64)
        den = np.maximum(k * n, 1)
        knn = np.where(k > 0, (2 * s * 1_000_000 + den) // (2 * den), 0)
        return pd.DataFrame(
            {"degree": k, "n_vertices": n, "sum_nbr_deg": s,
             "knn_e6": knn.astype(np.int64)}
        )

    return merged.map_batches(finish, batch_format="pandas")


def q_katz(sf_dir: str, num_iters: int = 6):
    """Integer-exact Katz centrality (beta = 1/8) on the directed
    lineitem graph: value = 8^T * Katz_T(v) — see
    algorithms.KatzPropagation for the exactness contract. The SQL
    oracle mirrors the recurrence with a virtual source node sigma
    (self-loop weight 8, edge sigma->v weight 8 for every v) so the
    8^k term rides the same join+GROUP BY recursion and message-less
    vertices never drop out of the working table."""
    res = _run_cached(sf_dir, "lineitem_directed", "katz", num_iters=num_iters)
    return _as_int_vertex(res, "katz_s6", value_cast=lambda v: v.cast(pa.int64()))


def q_doc_bm25(sf_dir: str, terms: tuple = ("hash", "join", "vector")):
    """BM25 retrieval scoring (k1=1.2, b=0.75) of every document
    against a fixed query-term set — the relevance ranking used to
    mine topical training data from a web corpus. ALL-INTEGER exact
    rational form: multiplying the Robertson term through by 10*avgdl
    gives score = idf * 22*tf*A / (10*tf*A + 3*A + 9*dl) with integer
    A = total_tokens // n_docs; idf is the rational (N-df+1)/(df+1)
    variant (no libm), everything half-up e6 so the SQL oracle matches
    bit-for-bit. Two streaming passes: bounded per-block (n, total_dl,
    df_t) partials driver-reduce and broadcast; scoring is one
    vectorized map_batches (explode + groupby-size per batch). At 100
    TB the stats pass is the same shape — the reduce stays O(|terms|).
    """
    terms = list(terms)

    def stat_partial(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].astype(str).str.strip()
        toks = s[s != ""].str.split()
        dl = toks.str.len()
        ex = toks.explode()
        row = {"n": [int(len(toks))], "tot": [int(dl.sum()) if len(dl) else 0]}
        for i, t in enumerate(terms):
            hit = ex == t
            row[f"df{i}"] = [int(hit.groupby(level=0).any().sum()) if len(ex) else 0]
        return pd.DataFrame(row)

    stats = (
        _table(sf_dir, "documents", ["text"])
        .map_batches(stat_partial, batch_format="pandas")
        .to_pandas()
        .sum()
    )
    n, tot = int(stats["n"]), int(stats["tot"])
    a = tot // n
    idf6 = []
    for i in range(len(terms)):
        df_t = int(stats[f"df{i}"])
        idf6.append(((n - df_t + 1) * 2_000_000 + (df_t + 1)) // (2 * (df_t + 1)))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].astype(str).str.strip()
        keep = s != ""
        doc_id = df["doc_id"].astype("int64")[keep]
        toks = s[keep].str.split()
        dl = toks.str.len().to_numpy().astype(np.int64)
        ex = toks.explode()
        total = np.zeros(len(dl), dtype=np.int64)
        pos = pd.Series(np.arange(len(dl)), index=toks.index)
        for i, t in enumerate(terms):
            hits = ex[ex == t]
            if len(hits):
                tf_by = hits.groupby(level=0).size()
                rows = pos[tf_by.index].to_numpy()
                tf = tf_by.to_numpy().astype(np.int64)
                num = idf6[i] * 22 * tf * a
                den = 10 * tf * a + 3 * a + 9 * dl[rows]
                total[rows] += (2 * num + den) // (2 * den)
        out = total > 0
        return pd.DataFrame(
            {"doc_id": doc_id.to_numpy()[out], "bm25_e6": total[out]}
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        score, batch_format="pandas"
    )


def edges_cliquey(sf_dir: str) -> rd.Dataset:
    """Canonical simple edges with PLANTED DENSE BLOCKS: each order
    links its 1000-id vertex to a member of the vertex's 8-id block
    (blocks fill toward 8-cliques as sf grows) plus thinned random
    cross links — so truss decomposition is non-degenerate at every
    test sf, unlike the homogeneous mod graphs whose trusses collapse
    to empty."""

    def derive(t: pa.Table) -> pa.Table:
        ok = t["o_orderkey"].to_numpy().astype(np.int64)
        ck = t["o_custkey"].to_numpy().astype(np.int64)
        x1 = ok % 1000
        y1 = x1 - (x1 % 8) + (ck % 8)
        thin = (ok // 1000) % 7 == 0
        x = np.concatenate([x1, (ok % 1000)[thin]])
        y = np.concatenate([y1, (ck % 1000)[thin]])
        keep = x != y
        x, y = x[keep], y[keep]
        return pa.table(
            {"src": pa.array(np.minimum(x, y)), "dst": pa.array(np.maximum(x, y))}
        )

    from ..stages.join import distinct

    ds = _table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return distinct(ds.map_batches(derive, batch_format="pyarrow"), ["src", "dst"])


def q_ktruss(sf_dir: str, k: int = 4, max_rounds: int = 40):
    """K-TRUSS decomposition (k=4): iteratively drop every edge whose
    triangle support in the CURRENT edge set is < k-2 until fixpoint —
    the standard cohesive-subgraph peel (Cohen 2008). Each round is
    the shared _edge_support stage (wedge expansion + tagged-union
    bucket_sum) + one vectorized filter; the shrinking edge set stays
    a Dataset throughout (rounds are measured single-digit on the
    planted-block graph; the SQL oracle runs a fixed 40 — the fixpoint
    is stable so extra rounds are no-ops). At web scale the peel is
    identical, just with larger n_buckets."""
    from .triangles import _SHIFT

    thresh = k - 2
    cur = edges_cliquey(sf_dir).materialize()
    n = cur.count()

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        m = (df["is_edge"].to_numpy() > 0) & (df["cn"].to_numpy() >= thresh)
        kk = df["k"].to_numpy().astype(np.int64)[m]
        return pd.DataFrame(
            {"src": (kk // _SHIFT).astype(np.int64), "dst": (kk % _SHIFT).astype(np.int64)}
        )

    for _ in range(max_rounds):
        if n == 0:
            break
        cur2 = (
            _edge_support(cur, n_buckets=16)
            .map_batches(keep, batch_format="pandas")
            .materialize()
        )
        n2 = cur2.count()
        cur = cur2
        if n2 == n:
            break
        n = n2

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"a": t["src"].cast(pa.int64()), "b": t["dst"].cast(pa.int64())})

    return cur.map_batches(rename, batch_format="pyarrow")


def q_msf_boruvka(sf_dir: str, max_rounds: int = 96, max_label_broadcast=None):
    """Boruvka MINIMUM SPANNING FOREST over the planted-block graph
    with deterministic weights w = 1 + (37a + 61b) % 97 and the strict
    total edge order (w, a, b) — so the forest is UNIQUE and both this
    implementation and the SQL oracle converge to the identical edge
    set even though they merge components on different schedules
    (every "min edge leaving a label group" is an MSF edge by the cut
    property, for ANY grouping that is a union along already-taken
    edges).

    Per round: ONE distributed pass over the edge Dataset computes the
    per-component min crossing edge (per-batch groupby-min partials
    over both endpoint labels — a true combiner: at most one row per
    label per batch crosses the wire), the driver min-reduces the
    bounded partials (#labels rows, halving every round) and contracts
    with union-find relabelled to per-group min vertex id. Component
    labels are an O(V) int array broadcast via ray.put once per round;
    above the broadcast cap the kernel AUTO-SELECTS labels as a
    Dataset + bucket-join relabel with contraction via the engine's
    own distributed CC (stages/msf.py, the minhash-dedup pattern;
    bit-equal forest, parity-tested). Rounds are O(log V) because
    contraction is full each round."""
    edges = edges_cliquey(sf_dir)

    def weigh(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy().astype(np.int64)
        b = t["dst"].to_numpy().astype(np.int64)
        if len(a) and (a.max() >= 1024 or b.max() >= 1024):
            raise ValueError("msf key packing assumes vertex ids < 1024")
        w = 1 + (37 * a + 61 * b) % 97
        return pa.table(
            {"a": pa.array(a), "b": pa.array(b), "w": pa.array(w),
             "k": pa.array(w * (1 << 20) + a * (1 << 10) + b)}
        )

    ewk = edges.map_batches(weigh, batch_format="pyarrow").materialize()
    n_ids = 1024  # ids < 1024 asserted in weigh; labels are an O(V) array
    if max_label_broadcast is None:
        from ..stages.coreness import MAX_BROADCAST_VERTICES as max_label_broadcast
    if n_ids > max_label_broadcast:
        # web scale: labels live in a Dataset, contraction via the
        # engine's own distributed CC (stages/msf.py; bit-equal forest)
        import shutil as _sh
        import tempfile

        from ..stages.msf import msf_boruvka_distributed

        work = tempfile.mkdtemp(prefix="msf_", dir="/tmp")
        try:
            return msf_boruvka_distributed(ewk, work, max_rounds)
        finally:
            _sh.rmtree(work, ignore_errors=True)
    comp = np.arange(n_ids, dtype=np.int64)

    taken_keys: set[int] = set()
    for _ in range(max_rounds):
        comp_ref = ray.put(comp)

        def sel_partial(df: pd.DataFrame) -> pd.DataFrame:
            cm = ray.get(comp_ref)
            a = df["a"].to_numpy()
            b = df["b"].to_numpy()
            k = df["k"].to_numpy()
            ca, cb = cm[a], cm[b]
            cross = ca != cb
            lab = np.concatenate([ca[cross], cb[cross]])
            kk = np.concatenate([k[cross], k[cross]])
            if not len(lab):
                return pd.DataFrame({"lab": [], "k": []}).astype(np.int64)
            return (
                pd.DataFrame({"lab": lab, "k": kk})
                .groupby("lab", as_index=False, sort=False)["k"].min()
            )

        parts = ewk.map_batches(sel_partial, batch_format="pandas").to_pandas()
        if not len(parts):
            break
        sel = parts.groupby("lab", sort=False)["k"].min()
        keys = np.unique(sel.to_numpy())
        new = [int(x) for x in keys if int(x) not in taken_keys]
        taken_keys.update(new)
        # contract: union-find over the selected edges' endpoint labels,
        # then relabel every group to its min member label (deterministic)
        a_sel = (keys >> 10) & 1023
        b_sel = keys & 1023
        parent = comp.copy()

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in zip(comp[a_sel], comp[b_sel]):
            ru, rv = find(int(u)), find(int(v))
            if ru != rv:
                if ru < rv:
                    parent[rv] = ru
                else:
                    parent[ru] = rv
        roots = np.array([find(int(c)) for c in comp], dtype=np.int64)
        # min label per root group (roots are min-biased but make it exact)
        mins = np.full(n_ids, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(mins, roots, comp)
        comp = mins[roots]
        if not new:
            break

    kk = np.sort(np.array(sorted(taken_keys), dtype=np.int64))
    return pd.DataFrame(
        {
            "a": (kk >> 10) & 1023,
            "b": kk & 1023,
            "w": kk >> 20,
        }
    ).astype(np.int64)


def q_fuzzy_name_pairs(sf_dir: str):
    """Fuzzy similarity self-join (edit distance exactly 1) over the
    distinct strings ``p_name || ' ' || (p_partkey % 100)`` — the
    typo-cluster discovery step of entity resolution. Exact FastSS
    1-deletion-neighborhood blocking (no recall loss; see
    stages/fuzzy.py), so the distributed result equals the brute-force
    levenshtein cross join the oracle runs."""
    from ..stages.fuzzy import fuzzy_pairs_d1

    ds = _table(sf_dir, "part", ["p_partkey", "p_name"])

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "s": df["p_name"].astype(str)
                + " "
                + (df["p_partkey"].astype("int64") % 100).astype(str)
            }
        )

    pairs = fuzzy_pairs_d1(ds.map_batches(derive, batch_format="pandas"), "s")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "name_a": df["a"].astype(str),
                "name_b": df["b"].astype(str),
                "dist": np.ones(len(df), dtype=np.int64),
            }
        )

    return pairs.map_batches(finish, batch_format="pandas")


_PROFILE_COLS = [
    "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
    "l_quantity", "l_extendedprice", "l_discount", "l_tax",
]


def q_table_profile(sf_dir: str):
    """Single-pass data-profiling operator over lineitem: per numeric
    column (row count, null count, min/max/sum) — the validation scan
    run before committing a table to a training pipeline. Per-batch
    partials are ONE row per column (a true combiner: the all-to-all
    never sees data rows), driver-reduced because the reduction state
    is 8 rows regardless of input size. Values integer-scale at e2
    (per-element round BEFORE the sum, mirrored by the oracle), so
    sums are exact int64 in any order at any scale."""
    ds = _table(sf_dir, "lineitem", _PROFILE_COLS)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in _PROFILE_COLS:
            v = df[c].to_numpy()
            null = pd.isna(df[c]).to_numpy()
            sv = np.round(v[~null].astype(np.float64) * 100).astype(np.int64)
            rows.append(
                (
                    c,
                    len(v),
                    int(null.sum()),
                    int(sv.min()) if len(sv) else np.iinfo(np.int64).max,
                    int(sv.max()) if len(sv) else np.iinfo(np.int64).min,
                    int(sv.sum()),
                )
            )
        return pd.DataFrame(
            rows, columns=["col", "n_rows", "n_null", "min_e2", "max_e2", "sum_e2"]
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("col", as_index=False).agg(
        n_rows=("n_rows", "sum"),
        n_null=("n_null", "sum"),
        min_e2=("min_e2", "min"),
        max_e2=("max_e2", "max"),
        sum_e2=("sum_e2", "sum"),
    )
    return out.astype(
        {c: "int64" for c in ["n_rows", "n_null", "min_e2", "max_e2", "sum_e2"]}
    )


def q_doc_oov(sf_dir: str, v: int = 100):
    """Per-document OUT-OF-VOCABULARY rate against the corpus top-`v`
    vocabulary — the coverage check run before committing to a
    tokenizer vocab. The vocabulary comes from the already-checked
    top-terms pipeline (bounded: v rows on the driver, broadcast
    once); scoring is one vectorized map_batches (isin over the
    exploded tokens). Exact half-up e6."""
    vocab = q_top_terms(sf_dir).to_pandas()["term"].to_numpy()
    vocab_ref = ray.put(np.sort(vocab.astype(str)))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        vs = ray.get(vocab_ref)
        s = df["text"].astype(str).str.strip()
        keep = s != ""
        doc_id = df["doc_id"].astype("int64")[keep].to_numpy()
        toks = s[keep].str.split()
        dl = toks.str.len().to_numpy().astype(np.int64)
        ex = toks.explode()
        pos = pd.Series(np.arange(len(dl)), index=toks.index)
        terms = ex.to_numpy().astype(str)
        idx = np.searchsorted(vs, terms)
        idx = np.minimum(idx, len(vs) - 1)
        in_vocab = vs[idx] == terms
        n_in = np.bincount(pos[ex.index].to_numpy(), weights=in_vocab, minlength=len(dl)).astype(np.int64)
        n_oov = dl - n_in
        oov = (2 * n_oov * 1_000_000 + dl) // (2 * dl)
        return pd.DataFrame(
            {"doc_id": doc_id, "n_tokens": dl, "n_oov": n_oov,
             "oov_e6": oov.astype(np.int64)}
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        score, batch_format="pandas"
    )


_DERIVATIONS["cliquey"] = (edges_cliquey, True)


def q_coloring(sf_dir: str):
    """Parallel greedy graph coloring (Jones-Plassmann with per-round
    Luby priorities — algorithms.GreedyColoring) on the planted-block
    graph: every vertex gets the mex over its higher-priority
    neighborhood, i.e. exactly the sequential greedy coloring in
    priority order, computed in O(log n) expected rounds. First
    consumer of the engine's per-superstep combiner extension
    (min-priority phase / bitwise-OR mask phase)."""
    res = _run_cached(sf_dir, "cliquey", "coloring")

    def decode(t: pa.Table) -> pa.Table:
        v = t["vertex"].cast(pa.int64())
        iv = t["value"].to_numpy().astype(np.int64)
        color = ((iv >> 41) & 63) - 1
        if bool((color < 0).any()):
            raise ValueError("coloring did not converge: uncolored vertices remain")
        return pa.table({"vertex": v, "color": pa.array(color.astype(np.int64))})

    return res.map_batches(decode, batch_format="pyarrow")


def edges_sparse_dag(sf_dir: str) -> rd.Dataset:
    """The sparse directed graph ACYCLICALLY ORIENTED (least ->
    greatest): a DAG at every sf, for critical-path style queries."""

    def orient(t: pa.Table) -> pa.Table:
        x = t["src"].to_numpy().astype(np.int64)
        y = t["dst"].to_numpy().astype(np.int64)
        return pa.table(
            {"src": pa.array(np.minimum(x, y)), "dst": pa.array(np.maximum(x, y))}
        )

    from ..stages.join import distinct

    return distinct(
        edges_sparse_directed(sf_dir).map_batches(orient, batch_format="pyarrow"),
        ["src", "dst"],
    )


_DERIVATIONS["sparse_dag"] = (edges_sparse_dag, False)


def q_dag_longest(sf_dir: str):
    """Critical-path depth per vertex on the acyclically-oriented
    sparse graph: longest path ending at each vertex (exact integer,
    monotone min-combiner relaxation — algorithms.LongestPathDAG);
    converges in DAG-depth supersteps (measured 16-21 here)."""
    res = _run_cached(sf_dir, "sparse_dag", "dag_longest")
    return _as_int_vertex(res, "depth", value_cast=lambda v: v.cast(pa.int64()))


def q_motif_census(sf_dir: str):
    """Connected 2- and 3-edge MOTIF CENSUS of the orders graph in one
    row: edges, wedges (paths of length 2), 3-paths (P4 subgraphs, via
    sum over edges of (d(u)-1)(d(v)-1) - 3*triangles), and triangles —
    the subgraph frequencies behind graphlet/network-signature
    analysis. Everything from bounded per-block partials (degree
    broadcast onto edges) driver-reduced; triangles reuse the
    SQL-checked counter."""
    from .triangles import canonical_edges, triangle_count

    simple = canonical_edges(edges_orders(sf_dir)).materialize()
    n_edges = simple.count()

    def dir_counts(t: pa.Table) -> pa.Table:
        v = np.concatenate([t["src"].to_numpy(), t["dst"].to_numpy()])
        return pa.table({"v": pa.array(v), "one": pa.array(np.ones(len(v), np.int64))})

    from ..stages.join import bucket_sum

    dp = (
        bucket_sum(
            simple.map_batches(dir_counts, batch_format="pyarrow"),
            ["v"], ["one"], n_buckets=16,
        )
        .to_pandas()
        .sort_values("v")
    )
    vs = dp["v"].to_numpy().astype(np.int64)
    ds_ = dp["one"].to_numpy().astype(np.int64)
    n_wedges = int((ds_ * (ds_ - 1) // 2).sum())
    deg_ref = ray.put((vs, ds_))

    def edge_partial(t: pa.Table) -> pa.Table:
        vv, dd = ray.get(deg_ref)
        da = dd[np.searchsorted(vv, t["src"].to_numpy().astype(np.int64))]
        db = dd[np.searchsorted(vv, t["dst"].to_numpy().astype(np.int64))]
        return pa.table({"s": pa.array([int(((da - 1) * (db - 1)).sum())])})

    ep = int(
        simple.map_batches(edge_partial, batch_format="pyarrow").sum("s") or 0
    )
    n_tri, _ = triangle_count(edges_orders(sf_dir), n_buckets=32)
    return pd.DataFrame(
        {
            "n_edges": pd.Series([n_edges], dtype="int64"),
            "n_wedges": pd.Series([n_wedges], dtype="int64"),
            "n_p3": pd.Series([ep - 3 * n_tri], dtype="int64"),
            "n_triangles": pd.Series([int(n_tri)], dtype="int64"),
        }
    )


def q_rich_club(sf_dir: str):
    """RICH-CLUB PROFILE of the orders graph: for every degree cutoff
    k, the count of vertices with degree > k, the edges among them,
    and the rich-club coefficient phi(k) = 2*E_k / (N_k*(N_k-1)) —
    the hub-interconnection curve (Colizza 2006). Degree histogram and
    per-edge min-degree histogram come from bounded partials; both
    suffix-cumsum on the driver (arrays are maxdeg-long). Half-up e6."""
    from ..stages.join import bucket_sum
    from .triangles import canonical_edges

    simple = canonical_edges(edges_orders(sf_dir)).materialize()

    def dir_counts(t: pa.Table) -> pa.Table:
        v = np.concatenate([t["src"].to_numpy(), t["dst"].to_numpy()])
        return pa.table({"v": pa.array(v), "one": pa.array(np.ones(len(v), np.int64))})

    dp = (
        bucket_sum(
            simple.map_batches(dir_counts, batch_format="pyarrow"),
            ["v"], ["one"], n_buckets=16,
        )
        .to_pandas()
        .sort_values("v")
    )
    vs = dp["v"].to_numpy().astype(np.int64)
    ds_ = dp["one"].to_numpy().astype(np.int64)
    maxd = int(ds_.max())
    deg_hist = np.bincount(ds_, minlength=maxd + 1)
    # N_k = #vertices with degree > k  (suffix sum over the histogram)
    n_k = np.cumsum(deg_hist[::-1])[::-1]
    deg_ref = ray.put((vs, ds_))

    def edge_partial(t: pa.Table) -> pa.Table:
        vv, dd = ray.get(deg_ref)
        da = dd[np.searchsorted(vv, t["src"].to_numpy().astype(np.int64))]
        db = dd[np.searchsorted(vv, t["dst"].to_numpy().astype(np.int64))]
        h = np.bincount(np.minimum(da, db), minlength=maxd + 1)
        return pa.table(
            {"m": pa.array(np.arange(maxd + 1, dtype=np.int64)),
             "c": pa.array(h.astype(np.int64))}
        )

    eh = (
        bucket_sum(
            simple.map_batches(edge_partial, batch_format="pyarrow"),
            ["m"], ["c"], n_buckets=4,
        )
        .to_pandas()
        .sort_values("m")
    )
    full = np.zeros(maxd + 1, dtype=np.int64)
    full[eh["m"].to_numpy().astype(np.int64)] = eh["c"].to_numpy().astype(np.int64)
    e_k = np.cumsum(full[::-1])[::-1]  # edges with min(du,dv) > k at index k+1
    ks = np.arange(maxd, dtype=np.int64)
    nk = n_k[1:][ks]  # N_k for cutoff k = count(d > k) = n_k[k+1]
    ek = e_k[1:][ks]
    keep = nk >= 2
    ks, nk, ek = ks[keep], nk[keep], ek[keep]
    den = nk * (nk - 1)
    phi = (2 * 2 * ek * 1_000_000 + den) // (2 * den)
    return pd.DataFrame(
        {"k": ks, "n_k": nk, "e_k": ek, "phi_e6": phi.astype(np.int64)}
    )


def q_lineitem_median(sf_dir: str):
    """EXACT distributed k-th element (median, k = ceil(n/2)) of
    lineitem price-cents WITHOUT a global sort: pass 1 histograms the
    integer domain into 4096 fixed-range buckets (per-batch bincount
    combiner, one tiny merge), the driver cumsums 4096 counts to find
    the k-th bucket, pass 2 counts exact values inside that one bucket
    only. Two streaming executions total, driver state O(buckets) —
    the selection-without-sort pattern that replaces ORDER BY ...
    OFFSET at any scale. Output: n, k and the k-th price in cents."""
    from ..stages.join import bucket_sum

    lo_c, hi_c = 0, 10_500_001  # price domain in cents (bounded by gen)
    nb = 4096
    width = (hi_c - lo_c) // nb + 1

    def cents(t: pa.Table) -> np.ndarray:
        # prices are exact 2-decimal values; round once to integer cents
        return np.round(t["l_extendedprice"].to_numpy() * 100).astype(np.int64)

    def hist(t: pa.Table) -> pa.Table:
        c = cents(t)
        h = np.bincount((c - lo_c) // width, minlength=nb)
        return pa.table(
            {"b": pa.array(np.arange(nb, dtype=np.int64)),
             "n": pa.array(h.astype(np.int64))}
        )

    src = _table(sf_dir, "lineitem", ["l_extendedprice"])
    hp = (
        bucket_sum(src.map_batches(hist, batch_format="pyarrow"), ["b"], ["n"], n_buckets=4)
        .to_pandas()
        .sort_values("b")
    )
    counts = np.zeros(nb, dtype=np.int64)
    counts[hp["b"].to_numpy()] = hp["n"].to_numpy()
    n = int(counts.sum())
    k = (n + 1) // 2
    cum = np.cumsum(counts)
    b = int(np.searchsorted(cum, k))
    before = int(cum[b - 1]) if b > 0 else 0
    blo, bhi = lo_c + b * width, lo_c + (b + 1) * width

    def in_bucket(t: pa.Table) -> pa.Table:
        c = cents(t)
        c = c[(c >= blo) & (c < bhi)]
        u, cc = np.unique(c, return_counts=True)
        return pa.table({"v": pa.array(u.astype(np.int64)),
                         "n": pa.array(cc.astype(np.int64))})

    vals = (
        bucket_sum(src.map_batches(in_bucket, batch_format="pyarrow"), ["v"], ["n"], n_buckets=4)
        .to_pandas()
        .sort_values("v")
    )
    cum2 = before + np.cumsum(vals["n"].to_numpy())
    kth = int(vals["v"].to_numpy()[int(np.searchsorted(cum2, k))])
    return pd.DataFrame(
        {"n": pd.Series([n], dtype="int64"), "k": pd.Series([k], dtype="int64"),
         "median_cents": pd.Series([kth], dtype="int64")}
    )


_QSK_EPS_E6 = 20_000  # 2% rank slack; measured KLL(k=256) error ~0.3%
_QSK_PCTS = (10, 25, 50, 75, 90, 99)


class _CentsSelector:
    """Exact order statistics of lineitem price-cents by two-pass
    histogram selection (the q_lineitem_median pattern, generalized to
    arbitrary rank sets): pass 1 histograms the bounded integer
    domain, pass 2 reads exact values only inside the buckets the
    requested ranks land in. Driver state O(buckets)."""

    LO_C, HI_C, NB = 0, 10_500_001, 4096

    def __init__(self, sf_dir: str):
        from ..stages.join import bucket_sum

        self.width = (self.HI_C - self.LO_C) // self.NB + 1
        self.src = _table(sf_dir, "lineitem", ["l_extendedprice"])

        def hist(t: pa.Table) -> pa.Table:
            h = np.bincount(
                (self.cents(t) - self.LO_C) // self.width, minlength=self.NB
            )
            return pa.table(
                {"b": pa.array(np.arange(self.NB, dtype=np.int64)),
                 "n": pa.array(h.astype(np.int64))}
            )

        hp = (
            bucket_sum(
                self.src.map_batches(hist, batch_format="pyarrow"), ["b"], ["n"],
                n_buckets=4,
            )
            .to_pandas()
            .sort_values("b")
        )
        counts = np.zeros(self.NB, dtype=np.int64)
        counts[hp["b"].to_numpy()] = hp["n"].to_numpy()
        self.n = int(counts.sum())
        self.cum = np.cumsum(counts)

    @staticmethod
    def cents(t: pa.Table) -> np.ndarray:
        return np.round(t["l_extendedprice"].to_numpy() * 100).astype(np.int64)

    def order_stats(self, ranks) -> dict[int, int]:
        """{rank: exact value} for 1-indexed ranks (one more pass)."""
        from ..stages.join import bucket_sum

        ranks = sorted({int(r) for r in ranks})
        need_b = np.unique(np.searchsorted(self.cum, np.array(ranks, dtype=np.int64)))

        def in_buckets(t: pa.Table) -> pa.Table:
            c = self.cents(t)
            m = np.isin((c - self.LO_C) // self.width, need_b)
            u, cc = np.unique(c[m], return_counts=True)
            return pa.table({"v": pa.array(u.astype(np.int64)),
                             "n": pa.array(cc.astype(np.int64))})

        vals = (
            bucket_sum(
                self.src.map_batches(in_buckets, batch_format="pyarrow"), ["v"], ["n"],
                n_buckets=4,
            )
            .to_pandas()
            .sort_values("v")
        )
        vv = vals["v"].to_numpy().astype(np.int64)
        vn = vals["n"].to_numpy().astype(np.int64)

        out = {}
        for r in ranks:
            b = int(np.searchsorted(self.cum, r))
            before = int(self.cum[b - 1]) if b > 0 else 0
            sel = (vv - self.LO_C) // self.width == b
            cv = np.cumsum(vn[sel])
            out[r] = int(vv[sel][int(np.searchsorted(cv, r - before))])
        return out


def q_quantiles_sketch(sf_dir: str, k: int = 256):
    """MERGEABLE-SKETCH quantiles (KLL, stages/quantiles.py) of
    lineitem price-cents — the open-domain 100 TB swap for the exact
    bounded-domain histogram selection (q_lineitem_median). One
    streaming pass builds per-block KLL partials that merge
    associatively; estimates answer any quantile within a rank-error
    bound. The SQL-checkable contract is a RANK BRACKET: for each
    percentile the output carries the EXACT order statistics at
    rank +- 2% (computed by histogram selection, two more streaming
    passes) and ``in_bracket`` = whether the sketch estimate landed
    inside — the oracle emits the same brackets with a literal 1, so
    a sketch drifting out of tolerance hash-fails the gate. Estimates
    themselves are deliberately NOT hashed (block boundaries may vary
    across cluster shapes); their accuracy is pytest-bounded at 1%."""
    from ..stages.quantiles import sketch_column

    sel = _CentsSelector(sf_dir)
    sk = sketch_column(sel.src, sel.cents, k=k)

    n = sel.n
    slack = (_QSK_EPS_E6 * n + 999_999) // 1_000_000
    brackets = []
    for q in _QSK_PCTS:
        r = max(1, (q * n) // 100)
        brackets.append((q, max(1, r - slack), min(n, r + slack)))
    stats = sel.order_stats([r for _, lo, hi in brackets for r in (lo, hi)])

    rows = []
    for q, rank_lo, rank_hi in brackets:
        lo_v, hi_v = stats[rank_lo], stats[rank_hi]
        est = sk.quantile(q / 100.0)
        rows.append((q, rank_lo, rank_hi, lo_v, hi_v, int(lo_v <= est <= hi_v)))
    out = pd.DataFrame(
        rows,
        columns=["q_pct", "rank_lo", "rank_hi", "lo_cents", "hi_cents", "in_bracket"],
    )
    return out.astype("int64")


def q_sorted_export(sf_dir: str, n_parts: int = 8):
    """RANGE-PARTITIONED GLOBAL SORT (the TeraSort sink shape): pick
    exact splitters at ranks i*n/P (histogram selection, two streaming
    passes, driver state O(buckets) — at open-domain 100 TB the KLL
    sketch supplies approximate splitters instead, which only affects
    BALANCE, never order), range-partition lineitem price-cents by
    the broadcast splitter array, and write one SORTED parquet file
    per partition through the resumable sink (write_partitioned
    sort_by) — the partition sequence concatenates to a globally
    sorted dataset without any single machine holding more than its
    range. Output = per-partition (n_rows, min, max) read BACK from
    the written files, plus a driver assertion that ranges chain
    monotonically; the oracle reproduces the same exact splitters and
    range assignment in SQL. part(x) = #(splitters < x), so boundary
    duplicates land in the lower part on both sides."""
    import shutil as _shutil

    from ..stages.sink import read_partitioned, write_partitioned

    sel = _CentsSelector(sf_dir)
    n = sel.n
    ranks = sorted({max(1, (i * n) // n_parts) for i in range(1, n_parts)})
    stats = sel.order_stats(ranks)
    splitters = np.sort(
        np.array(
            [stats[max(1, (i * n) // n_parts)] for i in range(1, n_parts)],
            dtype=np.int64,
        )
    )
    spl_ref = ray.put(splitters)

    def assign(t: pa.Table) -> pa.Table:
        spl = ray.get(spl_ref)
        c = _CentsSelector.cents(t)
        part = np.searchsorted(spl, c, side="left").astype(np.int64)  # #(b < c)
        return pa.table({"part": pa.array(part), "cents": pa.array(c)})

    out_dir = _cache(sf_dir, "sorted_export")
    _shutil.rmtree(out_dir, ignore_errors=True)
    write_partitioned(
        sel.src.map_batches(assign, batch_format="pyarrow"), out_dir,
        sort_by=["cents"], n_parts=len(splitters) + 1,
    )

    def part_stats(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({"part": t["part"].to_numpy(), "c": t["cents"].to_numpy()})
        g = df.groupby("part")["c"].agg(["size", "min", "max"]).reset_index()
        return pa.table(
            {
                "part": pa.array(g["part"].to_numpy().astype(np.int64)),
                "n_rows": pa.array(g["size"].to_numpy().astype(np.int64)),
                "min_cents": pa.array(g["min"].to_numpy().astype(np.int64)),
                "max_cents": pa.array(g["max"].to_numpy().astype(np.int64)),
            }
        )

    rows = (
        read_partitioned(out_dir)
        .map_batches(part_stats, batch_format="pyarrow")
        .to_pandas()
        .groupby("part", as_index=False)
        .agg(n_rows=("n_rows", "sum"), min_cents=("min_cents", "min"),
             max_cents=("max_cents", "max"))
        .sort_values("part")
        .reset_index(drop=True)
    )
    # global sortedness: consecutive ranges must chain monotonically
    assert (
        rows["min_cents"].to_numpy()[1:] >= rows["max_cents"].to_numpy()[:-1]
    ).all()
    assert int(rows["n_rows"].sum()) == n
    return rows.astype("int64")


def q_events_retention(sf_dir: str):
    """Cohort retention: users grouped by their FIRST active day
    (cohort), counted as retained at each later day offset. ONE
    user-bucket shuffle computes everything: a user's whole history
    sits in one bucket, so per-bucket cohort assignment + per-(user,
    day) dedup are exact, and the per-bucket (cohort, offset) user
    counts are ADDITIVE across buckets (a user exists in exactly one
    bucket) — merged by a tiny bucket_sum. Classic analytics shape:
    groupby-min + self-join collapsed into a partitioned scan."""
    from ..stages.join import _BUCKET, add_bucket, bucket_sum

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        day = _ts_us(df["ts"]) // 86_400_000_000
        t = pd.DataFrame({"u": df["user_id"].to_numpy(), "day": day})
        cohort = t.groupby("u")["day"].transform("min")
        t = pd.DataFrame(
            {"cohort_day": cohort, "day_offset": t["day"] - cohort, "u": t["u"]}
        ).drop_duplicates()
        g = t.groupby(["cohort_day", "day_offset"], as_index=False)["u"].size()
        return g.rename(columns={"size": "n_users"})

    src = _table(sf_dir, "events", ["user_id", "ts"])
    nb = _scaled_buckets(sf_dir, "events")
    partials = (
        _BMG(add_bucket(src, ["user_id"], nb), nb, per_bucket, "pandas")
    )
    return bucket_sum(partials, ["cohort_day", "day_offset"], ["n_users"], n_buckets=4)


def q_events_chi2(sf_dir: str):
    """Chi-square contingency cells for event_type x day-of-week —
    statistical dependence profiling from ONE streaming pass of
    bounded per-batch count partials (<= |types| x 7 rows each,
    driver-reduced). Each cell's statistic ((o*N - rt*ct)^2 * 1e6) //
    (rt*ct*N) is exact integer arithmetic in Python ints (HUGEINT in
    the oracle); dow = (epoch_day + 4) % 7 on both sides, avoiding
    engine-specific weekday conventions."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        dow = (_ts_us(df["ts"]) // 86_400_000_000 + 4) % 7
        g = pd.DataFrame(
            {"event_type": df["event_type"], "dow": dow,
             "n_events": np.ones(len(df), dtype=np.int64)}
        )
        return g.groupby(["event_type", "dow"], as_index=False, sort=False).sum()

    src = _table(sf_dir, "events", ["event_type", "ts"])
    o = (
        src.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby(["event_type", "dow"], as_index=False)
        .sum()
    )
    rt = o.groupby("event_type")["n_events"].sum().to_dict()
    ct = o.groupby("dow")["n_events"].sum().to_dict()
    N = int(o["n_events"].sum())
    chi = []
    for _, r in o.iterrows():
        obs, a, b = int(r["n_events"]), int(rt[r["event_type"]]), int(ct[r["dow"]])
        num = obs * N - a * b
        chi.append(num * num * 1_000_000 // (a * b * N))
    return pd.DataFrame(
        {
            "event_type": o["event_type"],
            "dow": o["dow"].astype("int64"),
            "n_events": o["n_events"].astype("int64"),
            "chi2_e6": pd.Series(chi, dtype="int64"),
        }
    )


def q_orders_diff(sf_dir: str):
    """Snapshot reconciliation: diff two table versions (v2 derives
    deterministically from orders — keys % 101 == 0 deleted,
    prices bumped one cent when % 97 == 0, keys % 103 == 0 re-added
    shifted by 10^8 as inserts) into added/removed/changed rows.
    ONE tagged-union hash-bucket shuffle: both versions land in the
    same key bucket, each bucket diffs locally — the anti-entropy
    pattern for validating incremental ingestion at any scale.
    Unchanged rows are dropped in-bucket (never shuffled onward)."""
    from ..stages.join import _BUCKET, add_bucket

    def versions(t: pa.Table) -> pa.Table:
        ok = t["o_orderkey"].to_numpy().astype(np.int64)
        cents = np.round(t["o_totalprice"].to_numpy() * 100).astype(np.int64)
        keep = ok % 101 != 0
        adds = ok % 103 == 0
        key = np.concatenate([ok, ok[keep], ok[adds] + 100_000_000])
        price = np.concatenate(
            [cents, cents[keep] + (ok[keep] % 97 == 0), cents[adds]]
        )
        side = np.concatenate(
            [np.zeros(len(ok), np.int64), np.ones(keep.sum() + adds.sum(), np.int64)]
        )
        return pa.table({"key": pa.array(key), "price_cents": pa.array(price), "side": pa.array(side)})

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        v1 = df[df["side"] == 0].set_index("key")["price_cents"]
        v2 = df[df["side"] == 1].set_index("key")["price_cents"]
        j = v1.to_frame("p1").join(v2.to_frame("p2"), how="outer")
        status = np.where(
            j["p1"].isna(), "added", np.where(j["p2"].isna(), "removed", "changed")
        )
        keep = j["p1"].isna() | j["p2"].isna() | (j["p1"] != j["p2"])
        out = pd.DataFrame(
            {
                "key": j.index.to_numpy(),
                "status": status,
                "price_v1": j["p1"].fillna(-1).astype("int64").to_numpy(),
                "price_v2": j["p2"].fillna(-1).astype("int64").to_numpy(),
            }
        )
        return out[keep.to_numpy()]

    src = _table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    nb = _scaled_buckets(sf_dir, "orders", rows_per_bucket=100_000, floor=16)
    return (
        _BMG(add_bucket(src.map_batches(versions, batch_format="pyarrow"), ["key"], nb), nb, diff, "pandas")
    )


def q_events_new_users(sf_dir: str):
    """Daily new vs cumulative adopters PER ACTION — the cumulative
    COUNT(DISTINCT) that cannot stream naively: a user's FIRST day
    doing each action comes from per-user-bucket minima (one shuffle;
    per-day counts are additive across buckets because a user lives
    in one bucket), the running total is a driver cumsum over
    O(types x days) rows."""
    from ..stages.join import _BUCKET, add_bucket

    def first_day(df: pd.DataFrame) -> pd.DataFrame:
        day = _ts_us(df["ts"]) // 86_400_000_000
        g = (
            pd.DataFrame(
                {"u": df["user_id"].to_numpy(), "event_type": df["event_type"], "day": day}
            )
            .groupby(["u", "event_type"], as_index=False)["day"]
            .min()
        )
        c = g.groupby(["event_type", "day"], as_index=False)["u"].size()
        return c.rename(columns={"size": "new_users"})

    src = _table(sf_dir, "events", ["user_id", "event_type", "ts"])
    nb = _scaled_buckets(sf_dir, "events")
    per_day = (
        _BMG(add_bucket(src, ["user_id"], nb), nb, first_day, "pandas")
        .to_pandas()
        .groupby(["event_type", "day"], as_index=False)["new_users"]
        .sum()
        .sort_values(["event_type", "day"])
    )
    return pd.DataFrame(
        {
            "event_type": per_day["event_type"].to_numpy(),
            "day": per_day["day"].astype("int64").to_numpy(),
            "new_users": per_day["new_users"].astype("int64").to_numpy(),
            "cum_users": per_day.groupby("event_type")["new_users"]
            .cumsum()
            .astype("int64")
            .to_numpy(),
        }
    )


def q_lineitem_pruned(sf_dir: str):
    """Predicate-pushdown aggregate: revenue for ONE ship-month with
    the row filter pushed into the parquet READ (row-group pruning —
    at 100 TB this is the difference between scanning a month and
    scanning the lake) + per-batch integer partials driver-reduced."""
    import datetime as _dt

    import pyarrow.dataset as pads

    lo = _dt.datetime(1995, 3, 1)
    hi = _dt.datetime(1995, 4, 1)
    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def partial(t: pa.Table) -> pa.Table:
        price_c = np.round(t["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_bp = np.round(t["l_discount"].to_numpy() * 10000).astype(np.int64)
        rev = price_c * (10000 - disc_bp)  # 1e-6 dollar units
        return pa.table(
            {"n": pa.array([len(price_c)], pa.int64()),
             "revenue_e6": pa.array([int(rev.sum())], pa.int64())}
        )

    p = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pd.DataFrame(
        {
            "n": pd.Series([int(p["n"].sum())], dtype="int64"),
            "revenue_e6": pd.Series([int(p["revenue_e6"].sum())], dtype="int64"),
        }
    )


def q_embedding_quantize(sf_dir: str):
    """int8 vector-quantization audit (the PQ/SQ memory path for ANN
    at scale): q = floor(x * 127) per component — float32->double is
    exact and floor is IEEE-identical cross-engine — summarized per
    vector as (sum, sum-of-squares, min, max). Pure vectorized
    per-row map; no shuffle."""
    dim = 64

    def stats(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        q = np.floor(flat * 127.0).astype(np.int64).reshape(-1, dim)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "q_sum": pa.array(q.sum(axis=1)),
                "q_sumsq": pa.array((q * q).sum(axis=1)),
                "q_min": pa.array(q.min(axis=1)),
                "q_max": pa.array(q.max(axis=1)),
            }
        )

    return _table(sf_dir, "embeddings", ["vec_id", "embedding"]).map_batches(
        stats, batch_format="pyarrow"
    )


def q_data_quality(sf_dir: str):
    """Constraint-validation report — the data-quality gate a 100 TB
    ingest runs before publishing a snapshot: key uniqueness
    (per-bucket duplicate counts, additive), referential integrity
    (broadcast customer key set, np.isin per batch), and two range
    checks; every rule reduces to O(1) driver state from bounded
    per-batch/bucket partials."""
    from ..stages.join import _BUCKET, add_bucket

    orders = _table(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def dup_partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df["o_orderkey"].value_counts()
        return pd.DataFrame({"v": [int((c - 1).clip(lower=0).sum())]})

    dup = int(
        _BMG(add_bucket(orders, ["o_orderkey"], 16), 16, dup_partial, "pandas")
        .to_pandas()["v"]
        .sum()
    )

    cust_keys = ray.put(
        np.sort(_dim_table(sf_dir, "customer", ["c_custkey"])["c_custkey"].to_numpy())
    )

    def fk_partial(t: pa.Table) -> pa.Table:
        k = t["o_custkey"].to_numpy().astype(np.int64)
        bad_fk = int((~np.isin(k, ray.get(cust_keys))).sum())
        bad_price = int((t["o_totalprice"].to_numpy() <= 0).sum())
        return pa.table({"fk": pa.array([bad_fk], pa.int64()),
                         "price": pa.array([bad_price], pa.int64())})

    p = orders.map_batches(fk_partial, batch_format="pyarrow").to_pandas()

    def bal_partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": [int((df["c_acctbal"].to_numpy() < 0).sum())]})

    neg_bal = int(
        _table(sf_dir, "customer", ["c_acctbal"])
        .map_batches(bal_partial, batch_format="pandas")
        .to_pandas()["v"]
        .sum()
    )
    return pd.DataFrame(
        {
            "rule": [
                "c_acctbal_nonneg",
                "o_custkey_fk",
                "o_orderkey_unique",
                "o_totalprice_positive",
            ],
            "violations": pd.Series(
                [neg_bal, int(p["fk"].sum()), dup, int(p["price"].sum())],
                dtype="int64",
            ),
        }
    )


def q_events_user_mode(sf_dir: str):
    """Per-key MODE (most frequent event_type per user, deterministic
    tie-break: higher count first, then lexicographic type): ONE
    user-bucket shuffle; in-bucket vectorized count + argmax. The
    grouped-argmax primitive behind per-entity majority labels."""
    from ..stages.join import _BUCKET, add_bucket

    def mode(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["user_id", "event_type"], as_index=False)
            .size()
            .sort_values(["user_id", "size", "event_type"], ascending=[True, False, True])
        )
        first = g.drop_duplicates("user_id", keep="first")
        return pd.DataFrame(
            {
                "user_id": first["user_id"].astype("int64").to_numpy(),
                "mode_type": first["event_type"].to_numpy(),
                "n": first["size"].astype("int64").to_numpy(),
            }
        )

    src = _table(sf_dir, "events", ["user_id", "event_type"])
    nb = _scaled_buckets(sf_dir, "events")
    return (
        _BMG(add_bucket(src, ["user_id"], nb), nb, mode, "pandas")
    )


def q_customer_pareto(sf_dir: str):
    """Pareto / ABC revenue classification WITHOUT a global sort:
    (1) revenue cents per customer (one bucket_sum), (2) range-bucket
    histogram of revenue -> driver prefix sums give each bucket's
    'revenue above' offset AND rank offset (O(buckets) state),
    (3) per-bucket local sort adds exact running revenue share; class
    A = cumulative share <= 80% of total, B <= 95%, else C. Share
    compares in integers: cum * 100 vs pct * total. The distributed
    prefix-sum pattern (doc_pack) applied to cumulative-share
    analytics."""
    from ..stages.join import _BUCKET, add_bucket, bucket_sum

    def rev_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame({"o_custkey": df["o_custkey"].to_numpy(), "rev": cents})
        return g.groupby("o_custkey", as_index=False, sort=False).sum()

    rev = bucket_sum(
        _table(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
            rev_partial, batch_format="pandas"
        ),
        ["o_custkey"],
        ["rev"],
        n_buckets=16,
    ).materialize()

    lo, hi, nb = 0, 1 << 40, 1024  # revenue-cents domain
    width = (hi - lo) // nb + 1

    def hist(t: pa.Table) -> pa.Table:
        r = t["rev"].to_numpy()
        h = np.bincount(r // width, minlength=nb)
        s = np.bincount(r // width, weights=r.astype(np.float64), minlength=nb)
        return pa.table(
            {"b": pa.array(np.arange(nb, dtype=np.int64)),
             "n": pa.array(h.astype(np.int64)),
             "s": pa.array(s.astype(np.int64))}
        )

    hp = bucket_sum(
        rev.map_batches(hist, batch_format="pyarrow"), ["b"], ["n", "s"], n_buckets=4
    ).to_pandas().sort_values("b")
    counts = np.zeros(nb, dtype=np.int64)
    sums = np.zeros(nb, dtype=np.int64)
    counts[hp["b"].to_numpy()] = hp["n"].to_numpy()
    sums[hp["b"].to_numpy()] = hp["s"].to_numpy()
    total_rev = int(sums.sum())
    # descending order: revenue/count strictly ABOVE each bucket
    above_rev = total_rev - np.cumsum(sums)
    above_cnt = int(counts.sum()) - np.cumsum(counts)

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        b = int(df["rb"].iloc[0])
        r = df["rev"].to_numpy()
        k = df["o_custkey"].to_numpy()
        order = np.lexsort((k, -r))
        cum = int(above_rev[b]) + np.cumsum(r[order])
        rnk = int(above_cnt[b]) + 1 + np.arange(len(r), dtype=np.int64)
        cls = np.where(
            cum * 100 <= 80 * total_rev, "A",
            np.where(cum * 100 <= 95 * total_rev, "B", "C"),
        )
        out = pd.DataFrame(
            {"o_custkey": k[order], "revenue_cents": r[order],
             "rnk": rnk, "abc": cls}
        )
        return out

    def attach_rb(t: pa.Table) -> pa.Table:
        r = t["rev"].to_numpy()
        return pa.table(
            {"o_custkey": t["o_custkey"], "rev": t["rev"],
             "rb": pa.array(r // width)}
        )

    return (
        rev.map_batches(attach_rb, batch_format="pyarrow")
        .groupby("rb")
        .map_groups(classify, batch_format="pandas")
    )


def q_orders_rank(sf_dir: str, n_range_buckets: int = 64):
    """EXACT global dense row-numbering by (o_totalprice DESC,
    o_orderkey ASC) WITHOUT a global sort: pass 1 histograms price
    cents into fixed RANGE buckets (per-batch bincount combiner, one
    tiny merge), the driver computes each bucket's global rank offset
    (= count of rows in strictly-higher buckets, O(buckets) state),
    pass 2 shuffles rows by range bucket and ranks each bucket
    independently (offset + intra-bucket lexsort position). This is
    the distributed ORDER BY ... ROW_NUMBER() pattern: no stage ever
    holds more than n/buckets rows, and buckets scale with input size
    (bump n_range_buckets; per-bucket memory = n/buckets)."""
    lo_c, hi_c = 0, 50_000_001  # o_totalprice domain in cents (gen-bounded)
    nb = n_range_buckets
    width = (hi_c - lo_c) // nb + 1
    from ..stages.join import bucket_sum

    def cents(t: pa.Table) -> np.ndarray:
        return np.round(t["o_totalprice"].to_numpy() * 100).astype(np.int64)

    def hist(t: pa.Table) -> pa.Table:
        c = cents(t)
        if (c < lo_c).any() or (c >= hi_c).any():
            raise ValueError("o_totalprice outside fixed rank domain")
        h = np.bincount((c - lo_c) // width, minlength=nb)
        return pa.table(
            {"b": pa.array(np.arange(nb, dtype=np.int64)),
             "n": pa.array(h.astype(np.int64))}
        )

    src = _table(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    hp = (
        bucket_sum(src.map_batches(hist, batch_format="pyarrow"), ["b"], ["n"], n_buckets=4)
        .to_pandas()
        .sort_values("b")
    )
    counts = np.zeros(nb, dtype=np.int64)
    counts[hp["b"].to_numpy()] = hp["n"].to_numpy()
    total = int(counts.sum())
    # rows in strictly HIGHER price buckets rank first (descending order)
    above = total - np.cumsum(counts)  # above[b] = count in buckets > b

    def attach_rb(t: pa.Table) -> pa.Table:
        c = cents(t)
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "price_cents": pa.array(c),
                "rb": pa.array((c - lo_c) // width),
            }
        )

    def rank_group(df: pd.DataFrame) -> pd.DataFrame:
        b = int(df["rb"].iloc[0])
        c = df["price_cents"].to_numpy()
        order = np.lexsort((df["o_orderkey"].to_numpy(), -c))
        rnk = np.empty(len(df), dtype=np.int64)
        rnk[order] = int(above[b]) + 1 + np.arange(len(df), dtype=np.int64)
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].to_numpy(),
                "price_cents": c,
                "rnk": rnk,
            }
        )

    return (
        src.map_batches(attach_rb, batch_format="pyarrow")
        .groupby("rb")
        .map_groups(rank_group, batch_format="pandas")
    )


def q_orders_cube(sf_dir: str):
    """GROUP BY CUBE(status, priority): all four grouping sets from
    ONE streaming pass — per-batch partial (status, priority) cells
    (bounded: <= 15 combos per batch), driver-reduced, then the
    margin rows (status-only / priority-only / grand total) are
    summed from the base cells on the driver. NULL group keys mark
    margins, exactly like SQL CUBE. At any scale the reduction state
    is O(|status| x |priority|), never O(rows)."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        g = (
            pd.DataFrame(
                {
                    "o_orderstatus": df["o_orderstatus"],
                    "o_orderpriority": df["o_orderpriority"],
                    "n_orders": np.ones(len(df), dtype=np.int64),
                    "revenue_cents": cents,
                }
            )
            .groupby(["o_orderstatus", "o_orderpriority"], as_index=False, sort=False)
            .sum()
        )
        return g

    src = _table(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    base = (
        src.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby(["o_orderstatus", "o_orderpriority"], as_index=False)
        .sum()
    )
    vals = ["n_orders", "revenue_cents"]
    m_s = base.groupby("o_orderstatus", as_index=False)[vals].sum()
    m_s["o_orderpriority"] = None
    m_p = base.groupby("o_orderpriority", as_index=False)[vals].sum()
    m_p["o_orderstatus"] = None
    tot = base[vals].sum().to_frame().T
    tot["o_orderstatus"] = None
    tot["o_orderpriority"] = None
    cols = ["o_orderstatus", "o_orderpriority", "n_orders", "revenue_cents"]
    out = pd.concat([base[cols], m_s[cols], m_p[cols], tot[cols]], ignore_index=True)
    out["n_orders"] = out["n_orders"].astype("int64")
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    return out


def q_embedding_gram(sf_dir: str):
    """Distributed Gram matrix G = X^T X over the embedding column —
    the one-pass partial-reduce behind covariance/PCA at scale: each
    batch computes its own d x d integer matmul (embeddings quantized
    q = floor(x * 1024), exact in both engines since float32->double
    is exact and the product/sums stay < 2^63), partials merge by
    summing 2,080 upper-triangle cells — reduction state is O(d^2)
    regardless of row count. Output (i, j, s), 1-based indices."""
    dim = 64
    iu, ju = np.triu_indices(dim)

    def partial(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        E = flat.reshape(-1, dim)
        q = np.floor(E * 1024.0).astype(np.int64)
        G = q.T @ q
        return pa.table(
            {
                "i": pa.array((iu + 1).astype(np.int64)),
                "j": pa.array((ju + 1).astype(np.int64)),
                "s": pa.array(G[iu, ju]),
            }
        )

    from ..stages.join import bucket_sum

    src = _table(sf_dir, "embeddings", ["embedding"])
    return bucket_sum(
        src.map_batches(partial, batch_format="pyarrow"), ["i", "j"], ["s"], n_buckets=8
    )


def q_events_regression(sf_dir: str):
    """Per-group least-squares trend (slope of value vs event hour)
    from ONE streaming pass of mergeable sufficient statistics: each
    batch emits (n, Sx, Sy, Sxy, Sxx) per event_type — the classic
    combiner for distributed regression/correlation — and the slope
    is assembled on the driver from O(groups) rows with exact integer
    arithmetic (x = hours since 2024-01-01 stays small; y in cents;
    the final *1e6 blowup runs in Python ints, and the division
    TRUNCATES toward zero to match DuckDB's `//`)."""
    epoch_2024_h = 473352  # 1704067200 // 3600

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = _ts_us(df["ts"]) // 3_600_000_000 - epoch_2024_h
        y = np.round(df["value"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "n": np.ones(len(df), dtype=np.int64),
                "sx": x,
                "sy": y,
                "sxy": x * y,
                "sxx": x * x,
            }
        )
        return g.groupby("event_type", as_index=False, sort=False).sum()

    src = _table(sf_dir, "events", ["event_type", "ts", "value"])
    s = (
        src.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("event_type", as_index=False)
        .sum()
    )
    slopes = []
    for _, r in s.iterrows():
        n, sx, sy, sxy, sxx = (int(r[c]) for c in ("n", "sx", "sy", "sxy", "sxx"))
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        q = abs(num) * 1_000_000 // den
        slopes.append(-q if num < 0 else q)
    return pd.DataFrame(
        {
            "event_type": s["event_type"],
            "n": s["n"].astype("int64"),
            "slope_e6": pd.Series(slopes, dtype="int64"),
        }
    )


def q_events_ewma(sf_dir: str):
    """Per-user exponential moving average (alpha = 1/4) — an ordered
    per-key SCAN, the recurrence y_k = (x_k + 3*y_{k-1}) // 4 in
    exact integer cents (positive values: floor == trunc, so numpy
    and DuckDB agree). ONE user-bucket shuffle (a user never
    straddles buckets); inside a bucket the scan is vectorized
    COLUMN-WISE over sequence position k — each step updates the
    k-th event of EVERY user at once, so the Python loop runs
    max-events-per-user times, not rows times."""
    from ..stages.join import _BUCKET, add_bucket

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(df["ts"])
        order = np.lexsort((df["event_id"].to_numpy(), ts, df["user_id"].to_numpy()))
        uid = df["user_id"].to_numpy()[order]
        x = np.round(df["value"].to_numpy() * 100).astype(np.int64)[order]
        eid = df["event_id"].to_numpy()[order]
        start = np.ones(len(uid), dtype=bool)
        start[1:] = uid[1:] != uid[:-1]
        # position within user = arange - start index of the user's run
        run_start = np.maximum.accumulate(np.where(start, np.arange(len(uid)), 0))
        pos = np.arange(len(uid)) - run_start
        y = x.copy()
        k, rows = 1, np.flatnonzero(pos == 1)
        while len(rows):
            y[rows] = (x[rows] + 3 * y[rows - 1]) // 4
            k += 1
            rows = np.flatnonzero(pos == k)
        return pd.DataFrame({"event_id": eid, "ewma_c": y})

    src = _table(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    nb = _scaled_buckets(sf_dir, "events")
    return (
        _BMG(add_bucket(src, ["user_id"], nb), nb, scan, "pandas")
    )


def _rank_int_keys(ds, lo: int, hi: int, nb: int, base_offset: int):
    """Dense 1-based rank of a distinct int64 `k` column by value,
    WITHOUT a global sort: range-bucket histogram -> driver offset
    cumsum (O(nb) state) -> per-bucket local sort + offset. Same
    two-pass pattern as q_orders_rank, ascending."""
    from ..stages.join import bucket_sum

    width = (hi - lo) // nb + 1

    def hist(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        if len(k) and ((k < lo).any() or (k >= hi).any()):
            raise ValueError("key outside fixed rank domain")
        h = np.bincount((k - lo) // width, minlength=nb)
        return pa.table(
            {"b": pa.array(np.arange(nb, dtype=np.int64)),
             "n": pa.array(h.astype(np.int64))}
        )

    ds = ds.materialize()  # feeds both the histogram and the rank pass
    hp = bucket_sum(
        ds.map_batches(hist, batch_format="pyarrow"), ["b"], ["n"], n_buckets=4
    ).to_pandas()
    counts = np.zeros(nb, dtype=np.int64)
    if len(hp):
        counts[hp["b"].to_numpy()] = hp["n"].to_numpy()
    below = np.concatenate(([0], np.cumsum(counts)[:-1]))  # rows in lower buckets

    def attach_rb(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy()
        return pa.table({"k": t["k"], "rb": pa.array((k - lo) // width)})

    def rank_group(df: pd.DataFrame) -> pd.DataFrame:
        b = int(df["rb"].iloc[0])
        k = np.sort(df["k"].to_numpy())
        ids = int(below[b]) + base_offset + 1 + np.arange(len(k), dtype=np.int64)
        return pd.DataFrame({"key": k, "id": ids})

    return (
        ds.map_batches(attach_rb, batch_format="pyarrow")
        .groupby("rb")
        .map_groups(rank_group, batch_format="pandas")
    )


def q_dict_upsert(sf_dir: str, max_broadcast=None):
    """Incremental dictionary upsert with STABLE ids — the core of
    resumable web-crawl ingestion: the existing dictionary (the
    "previous crawl": customer keys with key % 3 != 0, ids = dense
    rank by key) keeps its ids unchanged; incoming keys (distinct
    orders custkeys) not already present are appended with ids
    n_old + rank-among-new. Old-key membership is a
    broadcast set under the dimension cap (ray.put once, np.isin per
    batch); above it the kernel AUTO-SELECTS the hash-bucket ANTI-join
    the dictionary encoder already uses (bit-equal, parity-tested). Ranking never sorts
    globally (range-bucket histogram offsets)."""
    from ..stages.join import distinct

    lo, hi, nb = 0, 16_777_217, 1024

    def prev_crawl(t: pa.Table) -> pa.Table:
        k = t["c_custkey"].to_numpy().astype(np.int64)
        return pa.table({"k": pa.array(k[k % 3 != 0])})

    old_keys = _table(sf_dir, "customer", ["c_custkey"]).map_batches(
        prev_crawl, batch_format="pyarrow"
    )
    old_ranked = _rank_int_keys(old_keys, lo, hi, nb, base_offset=0).materialize()
    n_old = old_ranked.count()

    if max_broadcast is None:
        max_broadcast = BROADCAST_DIM_ROWS
    if n_old > max_broadcast:
        # web scale: old-key membership never leaves the cluster — the
        # anti-join runs hash-bucketed (stages/join.py how="anti"),
        # the same shuffle the dictionary encoder already uses
        from ..stages.join import bucket_join

        cand = distinct(
            _table(sf_dir, "orders", ["o_custkey"]).map_batches(
                lambda t: pa.table(
                    {"k": t["o_custkey"].cast(pa.int64())}
                ),
                batch_format="pyarrow",
            ),
            ["k"],
        )
        new_keys = bucket_join(
            cand,
            old_ranked.map_batches(
                lambda t: pa.table({"k": t["key"].cast(pa.int64())}),
                batch_format="pyarrow",
            ),
            left_on="k",
            right_on="k",
            how="anti",
            left_schema=pa.schema([("k", pa.int64())]),
            right_schema=pa.schema([("k", pa.int64())]),
        )
    else:
        old_set_ref = ray.put(np.sort(old_ranked.to_pandas()["key"].to_numpy()))

        def filter_new(t: pa.Table) -> pa.Table:
            k = t["o_custkey"].to_numpy().astype(np.int64)
            old = ray.get(old_set_ref)
            keep = ~np.isin(k, old)
            return pa.table({"k": pa.array(np.unique(k[keep]))})

        new_keys = distinct(
            _table(sf_dir, "orders", ["o_custkey"]).map_batches(
                filter_new, batch_format="pyarrow"
            ),
            ["k"],
        )
    new_ranked = _rank_int_keys(new_keys, lo, hi, nb, base_offset=n_old)

    def tag(status: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "key": t["key"],
                    "id": t["id"],
                    "status": pa.array([status] * len(t), pa.string()),
                }
            )

        return f

    return old_ranked.map_batches(tag("old"), batch_format="pyarrow").union(
        new_ranked.map_batches(tag("new"), batch_format="pyarrow")
    )


def q_densest_subgraph(sf_dir: str, max_rounds: int = 60):
    """Densest-subgraph approximation by PARALLEL PEELING (Bahmani,
    Kumar & Vassilvitskii 2012, eps = 1/4): each round removes EVERY
    vertex whose degree is at most 2(1+eps) * E/V — integer rule
    deg * 4V <= 5 * 2E — so at most a 4/5 fraction survives and the
    loop runs O(log V) rounds; the best round's vertex set is a
    2(1+eps)-approximation of the densest subgraph. Output: the full
    per-round density trace (round, n_vertices, n_edges, density_e6
    = E*1e6 // V) over the planted-block graph; argmax row = the
    dense community. Per round: one degree reduction (per-batch
    value_counts partials + bucket_sum) and one broadcast peel filter
    — the frontier is the small side, as in q_kcore."""
    import ray as _ray

    from ..stages.join import bucket_sum

    edges = edges_cliquey(sf_dir)

    sym = _sym_uv

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df["u"].value_counts()
        return pd.DataFrame({"u": c.index.to_numpy(), "d": c.to_numpy().astype("int64")})

    cur = edges.map_batches(sym, batch_format="pyarrow").materialize()
    rounds = []
    for it in range(max_rounds + 1):
        deg = bucket_sum(
            cur.map_batches(deg_partial, batch_format="pandas"), ["u"], ["d"], n_buckets=8
        ).to_pandas()
        if len(deg) == 0:
            break
        V = len(deg)
        e_sym = int(deg["d"].sum())
        rounds.append((it, V, e_sym // 2, e_sym * 500_000 // V))
        if it == max_rounds:
            break
        bad_ids = np.sort(
            deg.loc[deg["d"].to_numpy() * 4 * V <= 5 * e_sym, "u"].to_numpy()
        ).astype(np.int64)
        ref = _ray.put(bad_ids)

        class Peel:
            def __init__(self):
                self.bad = _ray.get(ref)

            def __call__(self, t: pa.Table) -> pa.Table:
                u = t["u"].to_numpy()
                v = t["v"].to_numpy()
                drop = np.isin(u, self.bad) | np.isin(v, self.bad)
                return t.filter(pa.array(~drop))

        _pkey = ("densest_peel", ref.hex())

        def peel_batch(t: pa.Table) -> pa.Table:
            from ..stages.taskify import worker_cached

            return worker_cached(_pkey, Peel)(t)

        cur = cur.map_batches(peel_batch, batch_format="pyarrow").materialize()

    return pd.DataFrame(
        {
            "round": pd.Series([r[0] for r in rounds], dtype="int64"),
            "n_vertices": pd.Series([r[1] for r in rounds], dtype="int64"),
            "n_edges": pd.Series([r[2] for r in rounds], dtype="int64"),
            "density_e6": pd.Series([r[3] for r in rounds], dtype="int64"),
        }
    )


def q_embedding_grid(sf_dir: str):
    """Spatial binning + stencil neighborhood join: points (the first
    two embedding dims) land in grid cells (floor(x*8) — exact
    cross-engine), per-cell counts reduce via bucket_sum, and each
    occupied cell's 3x3-neighborhood total comes from emitting NINE
    shifted copies of every cell count and re-reducing — the stencil
    pattern behind density maps / spatial joins, shuffling O(cells),
    never O(points), after the first reduction."""
    from ..stages.join import bucket_sum

    def cells(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        E = flat.reshape(len(t), -1)
        gx = np.floor(E[:, 0] * 8).astype(np.int64)
        gy = np.floor(E[:, 1] * 8).astype(np.int64)
        g = pd.DataFrame({"gx": gx, "gy": gy})
        c = g.groupby(["gx", "gy"], as_index=False).size()
        return pa.table(
            {"gx": pa.array(c["gx"].to_numpy()), "gy": pa.array(c["gy"].to_numpy()),
             "n": pa.array(c["size"].to_numpy().astype(np.int64))}
        )

    src = _table(sf_dir, "embeddings", ["embedding"])
    cell_counts = bucket_sum(
        src.map_batches(cells, batch_format="pyarrow"), ["gx", "gy"], ["n"], n_buckets=4
    ).materialize()

    def shift9(t: pa.Table) -> pa.Table:
        gx = t["gx"].to_numpy()
        gy = t["gy"].to_numpy()
        n = t["n"].to_numpy()
        outs = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                outs.append(
                    pa.table(
                        {"gx": pa.array(gx + dx), "gy": pa.array(gy + dy),
                         "n_nbr": pa.array(n)}
                    )
                )
        return pa.concat_tables(outs)

    nbr = bucket_sum(
        cell_counts.map_batches(shift9, batch_format="pyarrow"),
        ["gx", "gy"], ["n_nbr"], n_buckets=4,
    ).to_pandas()
    base = cell_counts.to_pandas()
    out = base.merge(nbr, on=["gx", "gy"], how="left")
    return pd.DataFrame(
        {
            "gx": out["gx"].astype("int64"),
            "gy": out["gy"].astype("int64"),
            "n": out["n"].astype("int64"),
            "n_nbr": out["n_nbr"].astype("int64"),
        }
    )


def q_events_burst(sf_dir: str):
    """Burst detection: an (event_type, hour) cell is bursty when its
    count is more than 2x the trailing-24h average — gap-aware (the
    baseline is a RANGE window over hour VALUES, so silent hours
    dilute it; computed with prefix sums + searchsorted, no dense
    hour grid). Hourly counts reduce from per-batch partials (one
    bucket_sum); the per-type rolling pass runs on O(types x active
    hours) driver rows — bounded by time span, not data volume.
    Integer test: n * 24 > 2 * trailing_sum, emitted only where a
    baseline exists."""
    from ..stages.join import bucket_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        hour = _ts_us(df["ts"]) // 3_600_000_000
        g = pd.DataFrame(
            {"event_type": df["event_type"], "hour": hour,
             "n": np.ones(len(df), dtype=np.int64)}
        )
        return g.groupby(["event_type", "hour"], as_index=False, sort=False).sum()

    src = _table(sf_dir, "events", ["event_type", "ts"])
    counts = (
        bucket_sum(
            src.map_batches(partial, batch_format="pandas"),
            ["event_type", "hour"], ["n"], n_buckets=4,
        )
        .to_pandas()
        .sort_values(["event_type", "hour"])
    )
    outs = []
    for et, g in counts.groupby("event_type", sort=False):
        h = g["hour"].to_numpy()
        n = g["n"].to_numpy()
        cum = np.concatenate(([0], np.cumsum(n)))
        # trailing sum over hours in [h-24, h-1]
        lo = np.searchsorted(h, h - 24, side="left")
        hi = np.searchsorted(h, h, side="left")
        trail = cum[hi] - cum[lo]
        keep = trail > 0
        outs.append(
            pd.DataFrame(
                {
                    "event_type": et,
                    "hour": h[keep],
                    "n": n[keep],
                    "trailing24": trail[keep],
                    "burst": (n[keep] * 24 > 2 * trail[keep]).astype("int64"),
                }
            )
        )
    out = pd.concat(outs, ignore_index=True)
    for c in ("hour", "n", "trailing24", "burst"):
        out[c] = out[c].astype("int64")
    return out


def q_entity_resolution(sf_dir: str):
    """Entity resolution end-to-end: fuzzy candidate pairs (exact
    FastSS edit-distance-1 blocking) -> duplicate CLUSTERS via the
    BSP engine's own connected components on the pair graph (string
    vertex keys — the url-dictionary path) -> canonical
    representative = lexicographic min name per cluster; untouched
    names resolve to themselves. The pair graph is sparse by
    construction (typo pairs), so the cluster decode runs driver-side
    here; at web scale it is one label-bucket shuffle."""
    from ..stages.fuzzy import fuzzy_pairs_d1
    from ..stages.join import distinct

    ds = _table(sf_dir, "part", ["p_partkey", "p_name"])

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "s": df["p_name"].astype(str)
                + " "
                + (df["p_partkey"].astype("int64") % 100).astype(str)
            }
        )

    names = distinct(ds.map_batches(derive, batch_format="pandas"), ["s"]).materialize()
    pairs = fuzzy_pairs_d1(ds.map_batches(derive, batch_format="pandas"), "s").materialize()

    all_names = names.to_pandas()["s"].to_numpy()
    if pairs.count() == 0:
        return pd.DataFrame({"name": np.sort(all_names), "canonical": np.sort(all_names)})

    import shutil as _shutil

    gdir = _cache(sf_dir, "entity_pairs", "graph")
    wdir = _cache(sf_dir, "entity_pairs", "run_cc")
    _shutil.rmtree(gdir, ignore_errors=True)
    _shutil.rmtree(wdir, ignore_errors=True)

    def keyify(t: pa.Table) -> pa.Table:
        return pa.table({"src_key": t["a"].cast(pa.string()), "dst_key": t["b"].cast(pa.string())})

    build_graph(
        pairs.map_batches(keyify, batch_format="pyarrow"),
        gdir, n_parts=4, n_buckets=8, dedup=False,
    )
    cc = run_algorithm(gdir, wdir, "cc").to_pandas()
    cc["label"] = cc["value"].astype(np.int64)
    canon = cc.groupby("label")["vertex"].min().rename("canonical")
    clustered = cc.join(canon, on="label")[["vertex", "canonical"]]
    cl_map = dict(zip(clustered["vertex"], clustered["canonical"]))
    return pd.DataFrame(
        {
            "name": all_names,
            "canonical": np.array([cl_map.get(s, s) for s in all_names], dtype=object),
        }
    ).sort_values("name").reset_index(drop=True)


def q_lineitem_weighted_median(sf_dir: str):
    """WEIGHTED median (price weighted by quantity) without a sort —
    the same two-pass histogram selection as q_lineitem_median but
    over cumulative WEIGHT: pass 1 bins weighted counts (quantities
    are whole numbers, so weights are exact int64), the driver finds
    the k = (W+1)//2 bucket from O(buckets) state, pass 2 resolves
    the exact value inside that one bucket."""
    from ..stages.join import bucket_sum

    lo_c, hi_c = 0, 10_500_001
    nb = 4096
    width = (hi_c - lo_c) // nb + 1

    def vw(t: pa.Table):
        v = np.round(t["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        w = np.round(t["l_quantity"].to_numpy()).astype(np.int64)
        return v, w

    def hist(t: pa.Table) -> pa.Table:
        v, w = vw(t)
        h = np.bincount((v - lo_c) // width, weights=w.astype(np.float64), minlength=nb)
        return pa.table(
            {"b": pa.array(np.arange(nb, dtype=np.int64)),
             "n": pa.array(h.astype(np.int64))}
        )

    src = _table(sf_dir, "lineitem", ["l_extendedprice", "l_quantity"])
    hp = (
        bucket_sum(src.map_batches(hist, batch_format="pyarrow"), ["b"], ["n"], n_buckets=4)
        .to_pandas()
        .sort_values("b")
    )
    counts = np.zeros(nb, dtype=np.int64)
    counts[hp["b"].to_numpy()] = hp["n"].to_numpy()
    W = int(counts.sum())
    k = (W + 1) // 2
    cum = np.cumsum(counts)
    b = int(np.searchsorted(cum, k))
    before = int(cum[b - 1]) if b > 0 else 0
    blo, bhi = lo_c + b * width, lo_c + (b + 1) * width

    def in_bucket(t: pa.Table) -> pa.Table:
        v, w = vw(t)
        m = (v >= blo) & (v < bhi)
        g = pd.DataFrame({"v": v[m], "n": w[m]}).groupby("v", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    vals = (
        bucket_sum(src.map_batches(in_bucket, batch_format="pyarrow"), ["v"], ["n"], n_buckets=4)
        .to_pandas()
        .sort_values("v")
    )
    cum2 = before + np.cumsum(vals["n"].to_numpy())
    kth = int(vals["v"].to_numpy()[int(np.searchsorted(cum2, k))])
    return pd.DataFrame(
        {"total_w": pd.Series([W], dtype="int64"), "k": pd.Series([k], dtype="int64"),
         "wmedian_cents": pd.Series([kth], dtype="int64")}
    )


def q_nation_share(sf_dir: str):
    """Hierarchical percent-of-parent: each nation's revenue share of
    its REGION (exact integer share_e6 = nat*1e6 // region). Customer
    revenue reduces via bucket partials; nation/region are broadcast
    dimension lookups (driver pyarrow reads — the ~1 s fixed cost
    rule); the share normalization is O(nations) driver arithmetic."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame({"o_custkey": df["o_custkey"].to_numpy(), "rev": cents})
        return g.groupby("o_custkey", as_index=False, sort=False).sum()

    from ..stages.join import bucket_sum

    rev = bucket_sum(
        _table(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["o_custkey"], ["rev"], n_buckets=16,
    ).to_pandas()
    cust = _dim_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nat = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"])
    reg = _dim_table(sf_dir, "region", ["r_regionkey", "r_name"])
    m = (
        rev.merge(cust, left_on="o_custkey", right_on="c_custkey")
        .merge(nat, left_on="c_nationkey", right_on="n_nationkey")
        .merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    )
    n_rev = m.groupby(["r_name", "n_name"], as_index=False)["rev"].sum()
    r_rev = n_rev.groupby("r_name")["rev"].transform("sum")
    return pd.DataFrame(
        {
            "region": n_rev["r_name"],
            "nation": n_rev["n_name"],
            "revenue_cents": n_rev["rev"].astype("int64"),
            "share_e6": (n_rev["rev"] * 1_000_000 // r_rev).astype("int64"),
        }
    )


def q_orders_zorder(sf_dir: str, bits: int = 8):
    """Z-order (Morton) data-layout audit: interleave 8-bit quantized
    (price, order-day) coordinates into a space-filling-curve index,
    partition by its top 4 bits, and report each partition's row
    count and per-dimension bounding box — tight boxes are WHY
    z-clustering enables multi-dimension row-group pruning at scale.
    Pure vectorized map + bounded per-batch partials (min/max/count
    per partition)."""
    day0 = 8035  # 1992-01-01 in epoch days; order days fit 8 bits / 16
    price_hi = 50_000_001

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        day = _ts_us(df["o_orderdate"]) // 86_400_000_000 - day0
        px = cents * (1 << bits) // price_hi  # 0..255
        dy = np.clip(day // 16, 0, (1 << bits) - 1)  # ~7 years / 16d
        z = np.zeros(len(df), dtype=np.int64)
        for i in range(bits):
            z |= ((px >> i) & 1) << (2 * i)
            z |= ((dy >> i) & 1) << (2 * i + 1)
        part = z >> (2 * bits - 4)
        g = pd.DataFrame({"part": part, "n": 1, "pmin": px, "pmax": px,
                          "dmin": dy, "dmax": dy})
        return g.groupby("part", as_index=False).agg(
            n=("n", "sum"), pmin=("pmin", "min"), pmax=("pmax", "max"),
            dmin=("dmin", "min"), dmax=("dmax", "max"),
        )

    src = _table(sf_dir, "orders", ["o_totalprice", "o_orderdate"])
    p = src.map_batches(partial, batch_format="pandas").to_pandas()
    g = p.groupby("part", as_index=False).agg(
        n=("n", "sum"), pmin=("pmin", "min"), pmax=("pmax", "max"),
        dmin=("dmin", "min"), dmax=("dmax", "max"),
    )
    for c in g.columns:
        g[c] = g[c].astype("int64")
    return g


def q_events_bounce(sf_dir: str, gap_s: int = 1800):
    """Bounce rate per entry action: sessions (same 30-min-gap rule as
    q_events_sessionize) grouped by their FIRST event type; a bounce
    is a single-event session. One user-bucket shuffle; per-type
    counts are additive across buckets; rate is exact integer e6."""
    from ..stages.join import _BUCKET, add_bucket

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _uid, g in df.groupby("user_id"):
            g = g.sort_values(["ts", "event_id"], kind="stable")
            ts_us = _ts_us(g["ts"])
            new_s = np.ones(len(g), dtype=np.int64)
            new_s[1:] = (np.diff(ts_us) > gap_s * 1_000_000).astype(np.int64)
            sid = np.cumsum(new_s)
            et = g["event_type"].to_numpy()
            first = np.ones(len(g), dtype=bool)
            first[1:] = sid[1:] != sid[:-1]
            sizes = np.bincount(sid)[sid[first]]
            rows.append(pd.DataFrame({"entry_type": et[first], "bounce": (sizes == 1).astype(np.int64)}))
        if not rows:
            return pd.DataFrame({"entry_type": pd.Series([], dtype=str),
                                 "sessions": pd.Series([], dtype="int64"),
                                 "bounces": pd.Series([], dtype="int64")})
        t = pd.concat(rows, ignore_index=True)
        g2 = t.groupby("entry_type", as_index=False).agg(
            sessions=("bounce", "size"), bounces=("bounce", "sum")
        )
        return g2

    src = _table(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    nb = _scaled_buckets(sf_dir, "events")
    s = (
        _BMG(add_bucket(src, ["user_id"], nb), nb, per_bucket, "pandas")
        .to_pandas()
        .groupby("entry_type", as_index=False)[["sessions", "bounces"]]
        .sum()
    )
    return pd.DataFrame(
        {
            "entry_type": s["entry_type"],
            "sessions": s["sessions"].astype("int64"),
            "bounces": s["bounces"].astype("int64"),
            "bounce_rate_e6": (s["bounces"] * 1_000_000 // s["sessions"]).astype("int64"),
        }
    )


def q_nation_momentum(sf_dir: str, split_year: int = 1995):
    """Rank-shift analytics: each nation's revenue rank in the EARLY
    period (orderdate < split_year) vs the LATE period, and the rank
    delta — snapshot-over-snapshot momentum. One streaming pass emits
    (nation, period) partials; ranking/delta is O(nations) driver
    arithmetic. Ranks tie-break on nation name in both engines."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        yr = (
            pd.to_datetime(pd.Series(_ts_us(df["o_orderdate"])), unit="us")
            .dt.year.to_numpy()
        )
        g = pd.DataFrame(
            {"o_custkey": df["o_custkey"].to_numpy(),
             "late": (yr >= split_year).astype(np.int64), "rev": cents}
        )
        return g.groupby(["o_custkey", "late"], as_index=False, sort=False).sum()

    from ..stages.join import bucket_sum

    rev = bucket_sum(
        _table(sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderdate"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["o_custkey", "late"], ["rev"], n_buckets=16,
    ).to_pandas()
    cust = _dim_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nat = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    m = rev.merge(cust, left_on="o_custkey", right_on="c_custkey").merge(
        nat, left_on="c_nationkey", right_on="n_nationkey"
    )
    g = m.groupby(["n_name", "late"], as_index=False)["rev"].sum()
    wide = g.pivot(index="n_name", columns="late", values="rev").fillna(0).astype("int64")
    early = wide.get(0, pd.Series(0, index=wide.index)).astype("int64")
    late = wide.get(1, pd.Series(0, index=wide.index)).astype("int64")
    names = wide.index.to_numpy()

    def rank_of(vals: pd.Series) -> np.ndarray:
        order = np.lexsort((names, -vals.to_numpy()))
        r = np.empty(len(names), dtype=np.int64)
        r[order] = np.arange(1, len(names) + 1)
        return r

    re_, rl = rank_of(early), rank_of(late)
    return pd.DataFrame(
        {
            "nation": names,
            "rev_early": early.to_numpy(),
            "rev_late": late.to_numpy(),
            "rank_early": re_,
            "rank_late": rl,
            "rank_delta": re_ - rl,
        }
    )


def q_knn_graph(sf_dir: str, n_queries: int = 500, k: int = 3):
    """KNN-graph block construction: for each of the first n_queries
    vectors, its k nearest corpus neighbors by INTEGER-quantized dot
    product (floor(x*1024) — cross-engine exact, ties -> lowest
    neighbor id, self excluded). The corpus matrix broadcasts once
    (ray.put); each batch's queries matmul against it — the
    embedding-graph build for graph-based ANN (NSW/NN-descent
    seeding) and semantic dedup."""
    import pyarrow.parquet as _pq

    dim = 64
    tab = _pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    ids = tab["vec_id"].to_numpy()
    flat = tab["embedding"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
    Q = np.floor(flat.astype(np.float64).reshape(-1, dim) * 1024.0).astype(np.int64)
    order = np.argsort(ids)
    corpus = ray.put((ids[order], Q[order]))

    src = _table(sf_dir, "embeddings", ["vec_id", "embedding"])

    def knn(t: pa.Table) -> pa.Table:
        cid, cq = ray.get(corpus)
        vid = t["vec_id"].to_numpy()
        sel = vid < n_queries
        if not sel.any():
            return pa.table(
                {"vec_id": pa.array([], pa.int64()), "nbr": pa.array([], pa.int64()),
                 "rnk": pa.array([], pa.int64()), "dot_q": pa.array([], pa.int64())}
            )
        flat_b = t["embedding"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
        q = np.floor(flat_b.astype(np.float64).reshape(-1, dim) * 1024.0).astype(np.int64)[sel]
        vid = vid[sel]
        dots = q @ cq.T  # int64 exact
        out_v, out_n, out_r, out_d = [], [], [], []
        for row, v in enumerate(vid):
            d = dots[row]
            mask = cid != v
            dd, nn_ = d[mask], cid[mask]
            o = np.lexsort((nn_, -dd))[:k]
            out_v.extend([v] * len(o))
            out_n.extend(nn_[o])
            out_r.extend(range(1, len(o) + 1))
            out_d.extend(dd[o])
        return pa.table(
            {"vec_id": pa.array(np.array(out_v, np.int64)),
             "nbr": pa.array(np.array(out_n, np.int64)),
             "rnk": pa.array(np.array(out_r, np.int64)),
             "dot_q": pa.array(np.array(out_d, np.int64))}
        )

    return src.map_batches(knn, batch_format="pyarrow")


def q_audience_overlap(sf_dir: str):
    """Audience-overlap matrix: Jaccard similarity between every pair
    of event types' USER BASES — the segment-overlap analytics behind
    campaign planning. ONE user-bucket shuffle: each bucket emits its
    users' distinct-type PAIR partials (<= C(|types|,2) rows per
    user) plus per-type user counts; both are additive across buckets
    (a user lives in one bucket). jaccard_e6 exact integer."""
    from ..stages.join import _BUCKET, add_bucket

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        ut = df.drop_duplicates(["user_id", "event_type"])
        m = ut.merge(ut, on="user_id")
        m = m[m["event_type_x"] < m["event_type_y"]]
        both = (
            m.groupby(["event_type_x", "event_type_y"], as_index=False)
            .size()
            .rename(columns={"event_type_x": "ta", "event_type_y": "tb", "size": "n_both"})
        )
        sizes = ut.groupby("event_type", as_index=False)["user_id"].size()
        sizes = pd.DataFrame(
            {"ta": sizes["event_type"], "tb": "", "n_both": -sizes["size"]}
        )  # negative rows tag per-type sizes (tb='')
        return pd.concat([both, sizes], ignore_index=True)

    src = _table(sf_dir, "events", ["user_id", "event_type"])
    nb = _scaled_buckets(sf_dir, "events")
    s = (
        _BMG(add_bucket(src, ["user_id"], nb), nb, per_bucket, "pandas")
        .to_pandas()
        .groupby(["ta", "tb"], as_index=False)["n_both"]
        .sum()
    )
    sizes = {
        r["ta"]: -int(r["n_both"]) for _, r in s[s["tb"] == ""].iterrows()
    }
    pairs = s[s["tb"] != ""]
    both = pairs["n_both"].astype("int64")
    either = np.array(
        [sizes[a] + sizes[b] for a, b in zip(pairs["ta"], pairs["tb"])], dtype=np.int64
    ) - both.to_numpy()
    return pd.DataFrame(
        {
            "type_a": pairs["ta"],
            "type_b": pairs["tb"],
            "n_both": both,
            "n_either": either,
            "jaccard_e6": (both.to_numpy() * 1_000_000 // either).astype("int64"),
        }
    )


def q_leadtime_quantiles(sf_dir: str):
    """Fulfillment lead time (ship date minus order date, whole days)
    p50/p90 per order priority: a lineitem-orders key join (orders
    broadcast as sorted arrays at this scale; the bucket-join is the
    documented path above the broadcast bound) feeding BOUNDED-DOMAIN
    exact quantiles — lead times span ~122 days, so per-(priority,
    day) counts reduce to O(priorities x days) rows and the exact
    ranks come from a driver cumsum, never a sort."""
    import pyarrow.parquet as _pq

    from ..stages.join import bucket_sum

    ot = _pq.read_table(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    ok = ot["o_orderkey"].to_numpy()
    odate = ot["o_orderdate"].cast(pa.int64()).to_numpy()
    pri, pri_codes = np.unique(ot["o_orderpriority"].to_numpy(), return_inverse=True)
    order = np.argsort(ok)
    lookup = ray.put((ok[order], odate[order], pri_codes[order]))

    def partial(t: pa.Table) -> pa.Table:
        k_s, od, pc = ray.get(lookup)
        lk = t["l_orderkey"].to_numpy()
        idx = np.searchsorted(k_s, lk)
        ship = t["l_shipdate"].cast(pa.int64()).to_numpy()
        day = (ship - od[idx]) // 86_400_000_000
        g = pd.DataFrame({"p": pc[idx], "day": day})
        c = g.groupby(["p", "day"], as_index=False).size()
        return pa.table(
            {"p": pa.array(c["p"].to_numpy().astype(np.int64)),
             "day": pa.array(c["day"].to_numpy().astype(np.int64)),
             "n": pa.array(c["size"].to_numpy().astype(np.int64))}
        )

    src = _table(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    s = (
        bucket_sum(
            src.map_batches(partial, batch_format="pyarrow"), ["p", "day"], ["n"], n_buckets=4
        )
        .to_pandas()
        .sort_values(["p", "day"])
    )
    rows = []
    for p, g in s.groupby("p"):
        n = int(g["n"].sum())
        cum = np.cumsum(g["n"].to_numpy())
        days = g["day"].to_numpy()
        k50, k90 = (n + 1) // 2, (9 * n + 9) // 10
        rows.append(
            (str(pri[p]), n, int(days[np.searchsorted(cum, k50)]),
             int(days[np.searchsorted(cum, k90)]))
        )
    return pd.DataFrame(
        {
            "priority": [r[0] for r in rows],
            "n": pd.Series([r[1] for r in rows], dtype="int64"),
            "p50_days": pd.Series([r[2] for r in rows], dtype="int64"),
            "p90_days": pd.Series([r[3] for r in rows], dtype="int64"),
        }
    )


def q_events_props_agg(sf_dir: str):
    """Semi-structured payload extraction (§2.8 json/map functions):
    parse the integer `k` out of the JSON `props` string with ONE
    compiled vectorized regex per batch, aggregate per event_type
    (per-batch combiner then one tiny merge). min/max ride the
    bucket_sum as (min = -sum of per-batch minima? no —) tagged
    per-batch partial rows reduced with pandas groupby agg, exactly
    the mergeable-partial pattern."""
    from ..stages.join import _BUCKET, add_bucket

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df["props"].astype(str).str.extract(r'"k":\s*(-?\d+)', expand=False)
        kk = pd.to_numeric(k, errors="coerce")
        g = pd.DataFrame({"event_type": df["event_type"].astype(str), "k": kk})
        g = g.dropna(subset=["k"])
        g["k"] = g["k"].astype("int64")
        agg = g.groupby("event_type").agg(
            n=("k", "size"), sum_k=("k", "sum"), min_k=("k", "min"), max_k=("k", "max")
        )
        return agg.reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("event_type").agg(
            n=("n", "sum"), sum_k=("sum_k", "sum"),
            min_k=("min_k", "min"), max_k=("max_k", "max")
        )
        out = agg.reset_index()
        return out.astype({"n": "int64", "sum_k": "int64",
                           "min_k": "int64", "max_k": "int64"})

    ds = _table(sf_dir, "events", ["event_type", "props"]).map_batches(
        partial, batch_format="pandas"
    )
    return (
        _BMG(add_bucket(ds, ["event_type"], 4), 4, merge, "pandas")
    )


# ---------------------------------------------------------------------------
# round 4: link-graph analysis extensions


def q_local_clustering(sf_dir: str):
    """Per-vertex local clustering coefficient over the orders graph:
    lcc = 2*tri(v) / (deg(v)*(deg(v)-1)), exact-integer half-up at e6
    scale ((2*X + Y) // (2*Y), all positive — CLAUDE.md rule), 0 when
    deg < 2. Triangles come from the bucketed wedge-closure engine
    (pipelines/triangles.py); degrees and triangle counts meet in ONE
    tagged bucket_sum (union of (vertex, deg=1, tri=0) endpoint rows
    and (vertex, deg=0, tri=t) corner rows) — no join stage at all, so
    the only shuffles are the ones triangle_count already pays."""
    from ..stages.join import bucket_sum
    from .triangles import triangle_count

    edges = edges_orders(sf_dir).materialize()
    _, per = triangle_count(edges, n_buckets=32, per_vertex=True)

    def endpoint_rows(t: pa.Table) -> pa.Table:
        s = t["src"].combine_chunks()
        d = t["dst"].combine_chunks()
        n2 = 2 * t.num_rows
        return pa.table(
            {
                "vertex": pa.chunked_array([s, d]),
                "deg": pa.array(np.ones(n2, np.int64)),
                "tri": pa.array(np.zeros(n2, np.int64)),
            }
        )

    def tri_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "vertex": t["vertex"].cast(pa.int64()),
                "deg": pa.array(np.zeros(n, np.int64)),
                "tri": t["triangles"].cast(pa.int64()),
            }
        )

    both = edges.map_batches(endpoint_rows, batch_format="pyarrow").union(
        per.map_batches(tri_rows, batch_format="pyarrow")
    )
    agg = bucket_sum(both, ["vertex"], ["deg", "tri"], n_buckets=16)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        deg = df["deg"].to_numpy().astype(np.int64)
        tri = df["tri"].to_numpy().astype(np.int64)
        den = deg * (deg - 1)
        den_safe = np.maximum(den, 1)
        lcc = np.where(
            deg >= 2, (4 * tri * 1_000_000 + den_safe) // (2 * den_safe), 0
        )
        return pd.DataFrame(
            {
                "vertex": df["vertex"].astype("int64"),
                "degree": deg,
                "triangles": tri,
                "lcc_e6": lcc.astype(np.int64),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def _pages_links(n_pages: int = 2000) -> rd.Dataset:
    """Distinct (src_key, dst_key) page-level link edges from the
    deterministic generator (sources/pages.py) — shared by the
    co-citation / coupling / locality queries, mirroring the SQL
    oracles' shared ``_pages_edges_cte`` (__ray_entry__.py)."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_links
    from ..stages.join import distinct

    return distinct(extract_links(generate_pages(n_pages)), ["src_key", "dst_key"])


def q_cocitation(sf_dir: str, n_pages: int = 2000, k: int = 100, n_buckets: int = 16):
    """Top co-cited url pairs (Small 1973): (a, b) ranked by how many
    pages cite BOTH — the classic link-graph relatedness signal. The
    citer side is grouped, and the generator bounds out-degree (<= 15
    hrefs/page), so per-group pair expansion is O(deg^2) <= ~120 rows:
    ONE citer-bucket shuffle emits additive pair partials (each citer
    lives in exactly one bucket), ONE pair-keyed bucket_sum reduces
    them, and a distributed sort picks top-k — nothing pair-shaped ever
    lands on the driver. Ties broken (n_common DESC, a, b) on both
    sides."""
    from ..stages.join import add_bucket, bucket_sum

    links = _pages_links(n_pages)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="src_key")
        m = m[m["dst_key_x"] < m["dst_key_y"]]
        return (
            m.groupby(["dst_key_x", "dst_key_y"], as_index=False)
            .size()
            .rename(columns={"dst_key_x": "a", "dst_key_y": "b", "size": "n_common"})
        )

    partial = _BMG(add_bucket(links, ["src_key"], n_buckets), n_buckets, per_bucket, "pandas")
    agg = bucket_sum(partial, ["a", "b"], ["n_common"], n_buckets=16)

    def as_i64(df: pd.DataFrame) -> pd.DataFrame:
        df["n_common"] = df["n_common"].astype("int64")
        return df

    return (
        agg.map_batches(as_i64, batch_format="pandas")
        .sort(["n_common", "a", "b"], descending=[True, False, False])
        .limit(k)
    )


def q_bibcoupling(
    sf_dir: str, n_pages: int = 2000, k: int = 100, cap: int = 400, n_buckets: int = 16
):
    """Top bibliographically-coupled url pairs (Kessler 1963): citing
    pages (a, b) ranked by how many targets they BOTH cite. Grouping is
    by the cited url, where the generator's Zipf skew makes hubs: page
    0 collects O(n^{1/3})-fraction of all links, and C(indeg, 2) on
    such a hub dwarfs the rest of the join. Cited urls with GLOBAL
    in-degree > cap are excluded (stop-hub removal — the same global
    df-cap discipline as the n-gram similarity join, stages/dedup.py);
    a cited url's rows all share one bucket, so the per-bucket
    in-degree IS global and the cap needs no extra pass. Mirrored in
    SQL via a HAVING-style filter. Ties (n_common DESC, a, b)."""
    from ..stages.join import add_bucket, bucket_sum

    links = _pages_links(n_pages)

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        ind = df.groupby("dst_key")["src_key"].transform("size")
        df = df[ind <= cap]
        m = df.merge(df, on="dst_key")
        m = m[m["src_key_x"] < m["src_key_y"]]
        return (
            m.groupby(["src_key_x", "src_key_y"], as_index=False)
            .size()
            .rename(columns={"src_key_x": "a", "src_key_y": "b", "size": "n_common"})
        )

    partial = _BMG(add_bucket(links, ["dst_key"], n_buckets), n_buckets, per_bucket, "pandas")
    agg = bucket_sum(partial, ["a", "b"], ["n_common"], n_buckets=16)

    def as_i64(df: pd.DataFrame) -> pd.DataFrame:
        df["n_common"] = df["n_common"].astype("int64")
        return df

    return (
        agg.map_batches(as_i64, batch_format="pandas")
        .sort(["n_common", "a", "b"], descending=[True, False, False])
        .limit(k)
    )


def q_domain_link_locality(sf_dir: str, n_pages: int = 2000):
    """Per-site link locality: for each source host, how many of its
    distinct outbound links stay on-site (dst host == src host) —
    share_e6 exact-integer half-up. One host-keyed bucket_sum over
    per-batch (host, 1, is_intra) rows; host extraction (third
    '/'-segment) is vectorized pandas string ops, mirrored by SQL
    split_part."""
    from ..stages.join import bucket_sum

    links = _pages_links(n_pages)

    def per_batch(df: pd.DataFrame) -> pd.DataFrame:
        sh = df["src_key"].str.split("/").str[2]
        dh = df["dst_key"].str.split("/").str[2]
        return pd.DataFrame(
            {
                "src_host": sh,
                "n_links": np.ones(len(df), np.int64),
                "n_intra": (sh == dh).to_numpy().astype(np.int64),
            }
        )

    agg = bucket_sum(
        links.map_batches(per_batch, batch_format="pandas"),
        ["src_host"],
        ["n_links", "n_intra"],
        n_buckets=16,
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_links"].to_numpy().astype(np.int64)
        i = df["n_intra"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "src_host": df["src_host"],
                "n_links": n,
                "n_intra": i,
                "share_e6": (2 * i * 1_000_000 + n) // (2 * n),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def q_trustrank_domains(sf_dir: str, n: int = 2000, n_buckets: int = 32):
    """TrustRank over the contracted domain graph: page links are
    exact-deduped and contracted to weighted host-level edges (same
    distributed contraction as q_domain_pagerank), then 30 iterations
    of weight-proportional personalized PageRank whose restart mass
    lands only on the three trusted seed hosts — the classic web-spam
    demotion signal (trust decays with weighted link distance from the
    seeds). n PINNED to the fixed oracle's 2000; seeds absent from the
    graph are dropped on both sides. Top-25 hosts by score."""
    import shutil

    from .graph import lookup_vertex_id

    seeds_hosts = [f"site-{i:05d}.example" for i in range(3)]
    root = f"/tmp/graft_trustrank_{n}"
    shutil.rmtree(root, ignore_errors=True)
    man = _build_domain_graph(n, f"{root}/graph", "domain_graph_trust", n_buckets)
    seeds = []
    for h in seeds_hosts:
        try:
            seeds.append(lookup_vertex_id(man, h))
        except KeyError:
            pass
    res = run_algorithm(
        f"{root}/graph", f"{root}/tr", "trustrank", seed_ids=tuple(sorted(seeds))
    )

    def conv(t: pa.Table) -> pa.Table:
        return pa.table({"vertex": t["vertex"], "score_e8": _score_e8(t["value"])})

    return (
        res.map_batches(conv, batch_format="pyarrow")
        .sort(["score_e8", "vertex"], descending=[True, False])
        .limit(25)
    )


def q_pagerank_warm(sf_dir: str):
    """Incremental PageRank after a crawl delta: 30-iteration scores on
    the 'previous snapshot' graph (sub5, ~80% of the edges — same
    snapshot as cc_incremental) seed a 10-iteration warm re-rank on the
    full lineitem graph, vertices new to the graph starting at 0 — the
    recrawl-re-rank pattern (rank is near-converged wherever the graph
    didn't change, so a short warm run replaces a full cold one). The
    result is the exact chained recurrence, mirrored in SQL by two
    chained recursive CTEs."""
    import json

    from ..algorithms import PageRankWarmStart

    prior = _run_cached(sf_dir, "lineitem_sub5", "pagerank").to_pandas()
    gdir = _graph_for(sf_dir, "lineitem")
    man = GraphManifest.load(gdir)
    algo = PageRankWarmStart(
        prior["vertex"].astype(np.int64).to_numpy(),
        prior["value"].to_numpy(),
        n_vertices=man.n_vertices,
        num_iters=10,
    )
    wdir = _cache(sf_dir, "lineitem", "run_pagerank_warm")
    run_json = os.path.join(wdir, "run.json")
    if os.path.exists(run_json):
        from .graph import result_dataset

        with open(run_json) as f:
            final = json.load(f)["final_iter"]
        res = result_dataset(man, os.path.join(wdir, "state", f"iter={final:04d}"))
    else:
        res = run_algorithm(gdir, wdir, algo)
    return _as_int_vertex(res, "score_e8", _score_e8)


# ---------------------------------------------------------------------------
# round 4: crawl-operations family (redirects, frontier, budget, site depth)


def _is_redirect_ids(ids: np.ndarray, seed: int = 42) -> np.ndarray:
    """Pure counter-based predicate: page i is an HTTP redirect iff
    mix64(seed+7, i) % 3 == 0 and i > 0 (same splitmix machinery as the
    page generator, reproduced bit-exactly in SQL). Redirect target is
    i // 3 — strictly decreasing, so chains are acyclic by
    construction and bounded by log3(n)."""
    from ..utils import mix64

    ids = np.asarray(ids, dtype=np.int64)
    hr = mix64(np.uint64(seed + 7), ids.astype(np.uint64))
    return (ids > 0) & ((hr % np.uint64(3)) == np.uint64(0))


def q_redirect_resolve(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """Crawl canonicalization: resolve redirect CHAINS to their final
    url by pointer doubling. The redirect map is a deterministic
    function of the page id (see _is_redirect_ids; target = i // 3).
    Each round composes the state table with itself via ONE bucket-join
    shuffle (state[u] <- state[state[u].cur]), so hops covered double
    per round and ceil(log2(max_chain)) rounds resolve every chain —
    the 100 TB shape for canonical-url mapping over billions of
    redirects (chains of length L cost O(log L) shuffles, never a
    driver loop; per-round state is one row per redirect, checkpointed
    like an engine superstep). Output: one row per redirect page with
    its final (non-redirect) url and total hop count."""
    import math

    from ..sources.pages import url_of
    from ..stages.join import bucket_join

    def init_batch(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy().astype(np.int64)
        u = ids[_is_redirect_ids(ids)]
        cur = u // 3
        return pa.table(
            {
                "u": u,
                "cur": cur,
                "hops": np.ones(len(u), np.int64),
                "done": ~_is_redirect_ids(cur),
            }
        )

    state = rd.range(n_pages).map_batches(init_batch, batch_format="pyarrow")
    # chain length <= log3(n)+1; undone rows double their covered hops
    # per round, so ceil(log2(max_chain)) rounds suffice.
    max_chain = math.ceil(math.log(max(n_pages, 3), 3)) + 1
    rounds = max(1, math.ceil(math.log2(max_chain)))

    state_schema = pa.schema(
        [("u", pa.int64()), ("cur", pa.int64()), ("hops", pa.int64()), ("done", pa.bool_())]
    )
    right_schema = pa.schema(
        [("ru", pa.int64()), ("rcur", pa.int64()), ("rhops", pa.int64())]
    )

    for _ in range(rounds):
        # iteration checkpoint (supersteps do the same): state is
        # O(n_redirects), and the three reads below would otherwise
        # re-execute the whole upstream plan per branch.
        state = state.materialize()

        def split(flag: bool):
            def fn(t: pa.Table) -> pa.Table:
                return t.filter(pc.equal(t["done"], flag))

            return fn

        undone = state.map_batches(split(False), batch_format="pyarrow")
        done_rows = state.map_batches(split(True), batch_format="pyarrow")

        def as_right(t: pa.Table) -> pa.Table:
            return pa.table(
                {"ru": t["u"], "rcur": t["cur"], "rhops": t["hops"]}
            )

        right = state.map_batches(as_right, batch_format="pyarrow")
        j = bucket_join(
            undone,
            right,
            left_on="cur",
            right_on="ru",
            n_buckets=n_buckets,
            how="left",
            left_schema=state_schema,
            right_schema=right_schema,
        )

        def advance(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame(
                    {
                        "u": pd.Series([], dtype="int64"),
                        "cur": pd.Series([], dtype="int64"),
                        "hops": pd.Series([], dtype="int64"),
                        "done": pd.Series([], dtype="bool"),
                    }
                )
            matched = df["rcur"].notna().to_numpy()
            cur0 = df["cur"].astype("int64").to_numpy()
            cur = np.where(matched, df["rcur"].fillna(0).astype("int64"), cur0)
            hops = df["hops"].astype("int64").to_numpy() + np.where(
                matched, df["rhops"].fillna(0).astype("int64"), 0
            )
            # unmatched => cur has no redirect entry => already final
            done = np.where(matched, ~_is_redirect_ids(cur), True)
            return pd.DataFrame(
                {"u": df["u"].astype("int64"), "cur": cur, "hops": hops, "done": done}
            )

        state = done_rows.union(j.map_batches(advance, batch_format="pandas"))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        from ..sources.pages import url_of as _u

        return pd.DataFrame(
            {
                "src_url": [_u(int(i)) for i in df["u"]],
                "final_url": [_u(int(i)) for i in df["cur"]],
                "hops": df["hops"].astype("int64"),
            }
        )

    return state.map_batches(finish, batch_format="pandas")


def q_frontier_candidates(
    sf_dir: str,
    n_pages: int = 2000,
    k: int = 100,
    m_bits: int = 1 << 14,
    n_buckets: int = 16,
):
    """Crawl-frontier discovery: urls LINKED from crawled pages but not
    themselves in the crawl, ranked by inlink evidence — what a crawler
    fetches next. The crawled-url set never ships as keys: a Bloom
    bitmap of it broadcasts (mergeable per-block partials), each
    extracted link probes locally, and definitely-uncrawled links skip
    the join entirely; only the maybe sliver (crawled hits + Bloom
    false positives — m_bits is kept small so FPs occur at every test
    sf and the verify path is exercised) enters ONE bucketed verify
    anti-join, making the result EXACT. Aggregation is one
    frontier-url-bucketed shuffle. Output: top-k frontier urls by
    (distinct citing pages, url), with distinct citing sites."""
    from ..sources.pages import url_of
    from ..stages.bloom import bloom_build, bloom_probe_stage
    from ..stages.join import add_bucket
    from ..utils import stable_hash_array

    def urls_batch(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy()
        return pa.table({"url": pa.array([url_of(int(i)) for i in ids], pa.string())})

    crawled = rd.range(n_pages).map_batches(urls_batch, batch_format="pyarrow")
    words = bloom_build(crawled, lambda t: stable_hash_array(t["url"]), m_bits=m_bits)

    links = _pages_links(n_pages)  # distinct (src_key, dst_key)
    probed = bloom_probe_stage(
        links, words, lambda t: stable_hash_array(t["dst_key"]), m_bits
    ).materialize()  # probe once, feed both splits below

    def definitely_new(t: pa.Table) -> pa.Table:
        f = t.filter(pc.invert(t["__maybe"]))
        return pa.table({"src_key": f["src_key"], "dst_key": f["dst_key"]})

    def maybe_tagged(t: pa.Table) -> pa.Table:
        f = t.filter(t["__maybe"])
        return pa.table(
            {
                "src_key": f["src_key"],
                "dst_key": f["dst_key"],
                "__side": pa.array(np.zeros(f.num_rows, np.int8)),
            }
        )

    def crawled_tagged(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src_key": pa.array([""] * t.num_rows, pa.string()),
                "dst_key": t["url"],
                "__side": pa.array(np.ones(t.num_rows, np.int8)),
            }
        )

    tagged = probed.map_batches(maybe_tagged, batch_format="pyarrow").union(
        crawled.map_batches(crawled_tagged, batch_format="pyarrow")
    )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        # remove Bloom false positives: dst urls actually crawled
        bad = set(g.loc[g["__side"] == 1, "dst_key"])
        keep = g[(g["__side"] == 0) & ~g["dst_key"].isin(bad)]
        return keep[["src_key", "dst_key"]]

    survivors = _BMG(
        add_bucket(tagged, ["dst_key"], n_buckets), n_buckets, verify, "pandas"
    )
    frontier = survivors.union(
        probed.map_batches(definitely_new, batch_format="pyarrow")
    )

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        sites = g["src_key"].str.split("/").str[2]
        out = g.assign(site=sites).groupby("dst_key").agg(
            n_inlinks=("src_key", "size"), n_src_sites=("site", "nunique")
        )
        return out.reset_index().rename(columns={"dst_key": "frontier_url"})

    res = _BMG(
        add_bucket(frontier, ["dst_key"], n_buckets), n_buckets, agg, "pandas"
    )

    def as_i64(df: pd.DataFrame) -> pd.DataFrame:
        df["n_inlinks"] = df["n_inlinks"].astype("int64")
        df["n_src_sites"] = df["n_src_sites"].astype("int64")
        return df

    return (
        res.map_batches(as_i64, batch_format="pandas")
        .sort(["n_inlinks", "frontier_url"], descending=[True, False])
        .limit(k)
    )


def q_crawl_budget(
    sf_dir: str, n_pages: int = 2000, total_slots: int = 10000, n_buckets: int = 16
):
    """Crawl-budget apportionment: split a fixed fetch budget across
    hosts proportionally to inlink evidence, EXACTLY (Hamilton /
    largest-remainder — sum(slots) == total_slots by construction, no
    float rounding drift). Host weights are one bucketed shuffle of
    the link table; base slots and remainders are pure per-row integer
    functions of the broadcast total W; the +1 extras go to the
    n_extra largest remainders picked by a DISTRIBUTED sort+limit
    (n_extra < total_slots, so the extras set is small and broadcasts
    back as a set — the host table itself, ~100M rows at web scale,
    never lands on the driver). Ties broken (remainder DESC, host ASC)
    on both sides."""
    from ..stages.join import bucket_sum

    links = _pages_links(n_pages)

    def host_ones(t: pa.Table) -> pa.Table:
        hosts = pc.split_pattern(t["dst_key"], "/")
        host = pc.list_element(hosts, 2)
        return pa.table(
            {"host": host, "w": pa.array(np.ones(t.num_rows, np.int64))}
        )

    hostw = bucket_sum(
        links.map_batches(host_ones, batch_format="pyarrow"), ["host"], ["w"], n_buckets
    ).materialize()  # domain-cardinality intermediate, read 3x below

    big_w = int(hostw.sum("w"))

    def base_rem(t: pa.Table) -> pa.Table:
        w = t["w"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "host": t["host"],
                "w": pa.array(w),
                "base": pa.array(total_slots * w // big_w),
                "rem": pa.array((total_slots * w) % big_w),
            }
        )

    br = hostw.map_batches(base_rem, batch_format="pyarrow").materialize()
    n_extra = total_slots - int(br.sum("base"))
    if n_extra > 0:
        extras = set(
            r["host"]
            for r in br.sort(["rem", "host"], descending=[True, False])
            .limit(n_extra)
            .select_columns(["host"])
            .take_all()
        )
    else:
        extras = set()
    extras_ref = ray.put(extras)

    def finish(t: pa.Table) -> pa.Table:
        ex = ray.get(extras_ref)
        host = t["host"].to_pylist()
        plus = np.array([h in ex for h in host], dtype=np.int64)
        return pa.table(
            {
                "host": t["host"],
                "n_inlinks": t["w"],
                "slots": pa.array(t["base"].to_numpy().astype(np.int64) + plus),
            }
        )

    return br.map_batches(finish, batch_format="pyarrow")


def q_site_depth(sf_dir: str, n_pages: int = 2000):
    """Per-page crawl depth: BFS hop distance from each site's root
    page (/p/0000) over INTRA-site links only, following link
    direction — the classic crawl-depth / url-priority signal. One
    engine run does every site at once: the intra-site graph is built
    directed (no symmetrize), all roots seed a single multi-source
    min-combiner BFS at distance 0, and because intra-site edges never
    cross hosts, each page's distance is exactly its own site's depth.
    Root ids come from a predicate scan of the vertices files (one row
    per site — at web scale, a vertices-partition filter, still one
    scan, seeds broadcast to the engine). Unreachable pages are
    excluded on both sides."""
    from .graph import run_algorithm

    gdir = f"/tmp/graft_site_depth_{n_pages}/graph"
    wdir = f"/tmp/graft_site_depth_{n_pages}/run"
    shutil.rmtree(f"/tmp/graft_site_depth_{n_pages}", ignore_errors=True)

    links = _pages_links(n_pages)

    def intra(t: pa.Table) -> pa.Table:
        sh = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        dh = pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)
        return t.filter(pc.equal(sh, dh))

    man = build_graph(
        links.map_batches(intra, batch_format="pyarrow"),
        gdir,
        n_parts=8,
        n_buckets=16,
        dedup=False,  # _pages_links is already globally distinct
        symmetrize_edges=False,
        source_info={"kind": "pages_intra_site"},
    )

    vts = rd.read_parquet(os.path.join(gdir, "vertices"))

    def root_ids(t: pa.Table) -> pa.Table:
        f = t.filter(pc.ends_with(t["key"].cast(pa.string()), "/p/0000"))
        return pa.table({"id": f["id"]})

    roots = vts.map_batches(root_ids, batch_format="pyarrow")
    sids = tuple(sorted(int(r["id"]) for r in roots.take_all()))
    res = run_algorithm(gdir, wdir, "sssp_multi", source_ids=sids)

    def conv(t: pa.Table) -> pa.Table:
        val = t["value"].to_numpy()
        fin = np.isfinite(val)
        f = t.filter(pa.array(fin))
        return pa.table(
            {
                "url": f["vertex"].cast(pa.string()),
                "depth": pa.array(val[fin].astype(np.int64)),
            }
        )

    return res.map_batches(conv, batch_format="pyarrow")


def q_modularity(sf_dir: str, n_buckets: int = 16):
    """Community quality: EXACT-integer Newman modularity of the
    10-round label-propagation communities on the lineitem graph.
    Q = sum_c (e_c/m - (d_c/2m)^2) is reported as the per-community
    integer contribution 4*m*e_c - d_c^2 (Q = sum(contrib)/(4 m^2)),
    so there is no float rounding to disagree on. Labels join onto the
    edge table via two bucket joins (src then dst endpoint), intra-
    community edges and degree sums reduce in ONE label-keyed shuffle
    each, and only the scalar m crosses the driver — the standard
    shape for community metrics over billions of edges."""
    from ..stages.join import bucket_join, bucket_sum

    labels = _as_int_vertex(
        _run_cached(sf_dir, "lineitem", "lp", num_iters=10), "label",
        lambda v: v.cast(pa.int64()),
    )
    edges = edges_lineitem(sf_dir).materialize()  # read twice below
    m_edges = int(edges.count())

    lab_schema = pa.schema([("vertex", pa.int64()), ("label", pa.int64())])
    e_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    j1 = bucket_join(
        edges, labels, left_on="src", right_on="vertex",
        n_buckets=n_buckets, left_schema=e_schema, right_schema=lab_schema,
    ).map_batches(
        lambda t: pa.table({"src": t["src"], "dst": t["dst"], "la": t["label"]}),
        batch_format="pyarrow",
    )
    j1_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64()), ("la", pa.int64())])
    j2 = bucket_join(
        j1, labels, left_on="dst", right_on="vertex",
        n_buckets=n_buckets, left_schema=j1_schema, right_schema=lab_schema,
    )

    def intra(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t["la"], t["label"]))
        return pa.table(
            {"label": f["la"], "e_in": pa.array(np.ones(f.num_rows, np.int64))}
        )

    ec = bucket_sum(
        j2.map_batches(intra, batch_format="pyarrow"), ["label"], ["e_in"], n_buckets
    )

    # degree sums per community: degree from the symmetrized edge list
    def deg_rows(t: pa.Table) -> pa.Table:
        v = np.concatenate(
            [t["src"].to_numpy().astype(np.int64), t["dst"].to_numpy().astype(np.int64)]
        )
        u, c = np.unique(v, return_counts=True)
        return pa.table({"vertex": pa.array(u), "d": pa.array(c.astype(np.int64))})

    degs = bucket_sum(
        edges.map_batches(deg_rows, batch_format="pyarrow"), ["vertex"], ["d"],
        n_buckets,
    )
    deg_schema = pa.schema([("vertex", pa.int64()), ("d", pa.int64())])
    ld = bucket_join(
        degs, labels, left_on="vertex", right_on="vertex",
        n_buckets=n_buckets, left_schema=deg_schema, right_schema=lab_schema,
    )

    def comm_rows(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "label": t["label"],
                "n_vertices": pa.array(np.ones(t.num_rows, np.int64)),
                "d_sum": t["d"],
            }
        )

    dc = bucket_sum(
        ld.map_batches(comm_rows, batch_format="pyarrow"),
        ["label"], ["n_vertices", "d_sum"], n_buckets,
    )

    # align: every community has vertices; e_in may be absent -> 0
    def dc_tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "label": t["label"],
                "n_vertices": t["n_vertices"].cast(pa.int64()),
                "d_sum": t["d_sum"].cast(pa.int64()),
                "e_in": pa.array(np.zeros(t.num_rows, np.int64)),
            }
        )

    def ec_tag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "label": t["label"],
                "n_vertices": pa.array(np.zeros(t.num_rows, np.int64)),
                "d_sum": pa.array(np.zeros(t.num_rows, np.int64)),
                "e_in": t["e_in"].cast(pa.int64()),
            }
        )

    both = bucket_sum(
        dc.map_batches(dc_tag, batch_format="pyarrow").union(
            ec.map_batches(ec_tag, batch_format="pyarrow")
        ),
        ["label"], ["n_vertices", "d_sum", "e_in"], n_buckets,
    )

    def finish(t: pa.Table) -> pa.Table:
        e_in = t["e_in"].to_numpy().astype(np.int64)
        d_sum = t["d_sum"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "label": t["label"].cast(pa.int64()),
                "n_vertices": t["n_vertices"].cast(pa.int64()),
                "e_in": pa.array(e_in),
                "d_sum": pa.array(d_sum),
                "contrib": pa.array(4 * m_edges * e_in - d_sum * d_sum),
            }
        )

    return both.map_batches(finish, batch_format="pyarrow")


def q_salsa(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """SALSA authority scores (Lempel & Moran 2001) in closed form:
    the authority-side random walk is reducible, and within a
    component its stationary weight is proportional to in-degree, so
    score(a) = (|A_c|/|A|) * (indeg(a)/D_c) exactly — no power
    iteration. The pipeline computes the three ingredients
    distributed: (1) authority co-hub pairs via per-citer bucket
    expansion (out-degree is generator-bounded, so each group is
    O(deg^2)), (2) components of the pair graph on the ENGINE's own CC
    (self-loops keep singleton authorities), (3) in-degrees and
    per-component sums via label-keyed bucket reduces. Scores are
    integer-scaled half-up rationals — hash-exact vs the closed-form
    SQL. Mirrors HITS' authority intent with SALSA's degree-normalized
    semantics (reference has neither; cite: algorithms.py HITS)."""
    from ..pipelines.graph import run_algorithm
    from ..stages.join import add_bucket, bucket_join, bucket_sum

    links = _pages_links(n_pages).materialize()  # pairs + indeg + selfloops

    def pair_bucket(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="src_key")
        m = m[m["dst_key_x"] < m["dst_key_y"]]
        return m[["dst_key_x", "dst_key_y"]].drop_duplicates().rename(
            columns={"dst_key_x": "src_key", "dst_key_y": "dst_key"}
        )

    pairs = _BMG(
        add_bucket(links, ["src_key"], n_buckets), n_buckets, pair_bucket, "pandas"
    )

    def self_loops(t: pa.Table) -> pa.Table:
        return pa.table({"src_key": t["dst_key"], "dst_key": t["dst_key"]})

    pair_edges = pairs.union(links.map_batches(self_loops, batch_format="pyarrow"))

    root = f"/tmp/graft_salsa_{n_pages}"
    shutil.rmtree(root, ignore_errors=True)
    build_graph(
        pair_edges,
        f"{root}/graph",
        n_parts=8,
        n_buckets=16,
        dedup=True,
        source_info={"kind": "salsa_authority_pairs"},
    )
    cc = run_algorithm(f"{root}/graph", f"{root}/cc", "cc")
    comp = cc.map_batches(
        lambda t: pa.table(
            {"url": t["vertex"].cast(pa.string()), "comp": t["value"].cast(pa.int64())}
        ),
        batch_format="pyarrow",
    )

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {"url": t["dst_key"], "ind": pa.array(np.ones(t.num_rows, np.int64))}
        )

    indeg = bucket_sum(
        links.map_batches(ones, batch_format="pyarrow"), ["url"], ["ind"], n_buckets
    ).materialize()
    n_auth = int(indeg.count())

    ind_schema = pa.schema([("url", pa.string()), ("ind", pa.int64())])
    comp_schema = pa.schema([("url", pa.string()), ("comp", pa.int64())])
    ic = bucket_join(
        indeg, comp, left_on="url", right_on="url",
        n_buckets=n_buckets, left_schema=ind_schema, right_schema=comp_schema,
    ).materialize()  # authority-cardinality; read twice below

    def comp_partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "comp": t["comp"],
                "na": pa.array(np.ones(t.num_rows, np.int64)),
                "dsum": t["ind"].cast(pa.int64()),
            }
        )

    csums = bucket_sum(
        ic.map_batches(comp_partial, batch_format="pyarrow"),
        ["comp"], ["na", "dsum"], n_buckets,
    )
    ic_schema = pa.schema(
        [("url", pa.string()), ("ind", pa.int64()), ("comp", pa.int64())]
    )
    cs_schema = pa.schema(
        [("comp", pa.int64()), ("na", pa.int64()), ("dsum", pa.int64())]
    )
    full = bucket_join(
        ic, csums, left_on="comp", right_on="comp",
        n_buckets=n_buckets, left_schema=ic_schema, right_schema=cs_schema,
    )

    def score(t: pa.Table) -> pa.Table:
        ind = t["ind"].to_numpy().astype(np.int64)
        na = t["na"].to_numpy().astype(np.int64)
        dsum = t["dsum"].to_numpy().astype(np.int64)
        num = na * ind * 100_000_000
        den = n_auth * dsum
        return pa.table(
            {
                "url": t["url"],
                "n_inlinks": pa.array(ind),
                "score_e8": pa.array((2 * num + den) // (2 * den)),
            }
        )

    return full.map_batches(score, batch_format="pyarrow")


def _pages_intra_links(n_pages: int) -> rd.Dataset:
    """Distinct intra-site (src_key, dst_key) page links — the
    site-local subgraph (shared by site_depth / simrank)."""
    links = _pages_links(n_pages)

    def intra(t: pa.Table) -> pa.Table:
        sh = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        dh = pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)
        return t.filter(pc.equal(sh, dh))

    return links.map_batches(intra, batch_format="pyarrow")


def q_simrank(sf_dir: str, n_pages: int = 2000, k_iters: int = 3, top: int = 100,
              n_buckets: int = 16):
    """SimRank (Jeh & Widom 2002) over the intra-site link graph:
    "two pages are similar if similar pages link to them". C = 4/5,
    k unrolled iterations, all arithmetic exact integers (floor at
    every step, reproduced verbatim in SQL). The intra-site graph
    decomposes SimRank per site (cross-site pairs have no common
    ancestors, so their score is identically 0), which is exactly how
    SimRank is deployed at scale — per-partition / landmark-set
    universes, since the pair state is O(n^2) in the universe size.
    Each iteration is two edge bucket-joins (i->a, then j->b) and ONE
    pair-keyed reduce; in-degrees broadcast (universe-bounded).
    Output: top pairs by similarity, self-pairs excluded."""
    from ..stages.join import add_bucket, bucket_join, bucket_sum

    SCALE = 100_000_000
    ie = _pages_intra_links(n_pages).map_batches(
        lambda t: pa.table({"src": t["src_key"], "dst": t["dst_key"]}),
        batch_format="pyarrow",
    ).materialize()

    # in-degree per target (universe-bounded broadcast)
    ind_rows = bucket_sum(
        ie.map_batches(
            lambda t: pa.table(
                {"u": t["dst"], "ind": pa.array(np.ones(t.num_rows, np.int64))}
            ),
            batch_format="pyarrow",
        ),
        ["u"], ["ind"], n_buckets,
    ).take_all()
    ind = {r["u"]: int(r["ind"]) for r in ind_rows}
    ind_ref = ray.put(ind)

    # vertices of the intra-site graph (diagonal rows s(u,u) = SCALE)
    verts = distinct_keys = None  # noqa: F841 (clarity below)
    vs = (
        ie.map_batches(
            lambda t: pa.table(
                {"u": pa.concat_arrays(
                    [t["src"].combine_chunks(), t["dst"].combine_chunks()]
                )}
            ),
            batch_format="pyarrow",
        )
    )
    from ..stages.join import distinct as _distinct

    verts = _distinct(vs, ["u"], n_buckets=n_buckets).materialize()

    def diag(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "a": t["u"],
                "b": t["u"],
                "s": pa.array(np.full(t.num_rows, SCALE, np.int64)),
            }
        )

    s = verts.map_batches(diag, batch_format="pyarrow")
    e_schema = pa.schema([("src", pa.string()), ("dst", pa.string())])

    for it in range(k_iters):
        s = s.materialize()  # iteration state checkpoint (pair table)
        s_schema = pa.schema([("a", pa.string()), ("b", pa.string()), ("s", pa.int64())])
        # i -> a hop
        j1 = bucket_join(
            s, ie, left_on="a", right_on="src",
            n_buckets=n_buckets, left_schema=s_schema, right_schema=e_schema,
        ).map_batches(
            lambda t: pa.table({"a": t["dst"], "b": t["b"], "s": t["s"]}),
            batch_format="pyarrow",
        )
        # j -> b hop
        j2 = bucket_join(
            j1, ie, left_on="b", right_on="src",
            n_buckets=n_buckets, left_schema=s_schema, right_schema=e_schema,
        ).map_batches(
            lambda t: pa.table({"a": t["a"], "b": t["dst"], "s": t["s"]}),
            batch_format="pyarrow",
        )

        def offdiag_pre(t: pa.Table) -> pa.Table:
            keep = pc.invert(pc.equal(t["a"], t["b"]))
            return t.filter(keep)

        sums = bucket_sum(
            j2.map_batches(offdiag_pre, batch_format="pyarrow"),
            ["a", "b"], ["s"], n_buckets,
        )

        def scale_down(t: pa.Table) -> pa.Table:
            d = ray.get(ind_ref)
            a = t["a"].to_pylist()
            b = t["b"].to_pylist()
            tot = t["s"].to_numpy().astype(np.int64)
            den = np.array([5 * d[x] * d[y] for x, y in zip(a, b)], np.int64)
            sv = (4 * tot) // den
            keep = sv > 0
            return pa.table(
                {
                    "a": pa.array(np.asarray(a, object)[keep].tolist(), t["a"].type),
                    "b": pa.array(np.asarray(b, object)[keep].tolist(), t["b"].type),
                    "s": pa.array(sv[keep]),
                }
            )

        s = verts.map_batches(diag, batch_format="pyarrow").union(
            sums.map_batches(scale_down, batch_format="pyarrow")
        )

    def canon_pairs(t: pa.Table) -> pa.Table:
        keep = pc.less(t["a"], t["b"])
        f = t.filter(keep)
        return pa.table({"a": f["a"], "b": f["b"], "sim_e8": f["s"]})

    return (
        s.map_batches(canon_pairs, batch_format="pyarrow")
        .sort(["sim_e8", "a", "b"], descending=[True, False, False])
        .limit(top)
    )


def q_crawl_delta(sf_dir: str, n_old: int = 2000, n_new: int = 2200, n_buckets: int = 16):
    """Crawl-to-crawl link-graph diff: per source host, how many link
    edges were added / removed / kept between two snapshots (here the
    generator at n_old vs n_new pages — a crawl that grew; targets
    shift with n, so the diff is non-trivial on every host). Both
    snapshots stream through ONE pair-bucketed tagged-union shuffle
    (same-pair rows always share a bucket, so per-bucket min/max of the
    side tag classifies each pair exactly), then host partials reduce
    in one small shuffle — no snapshot ever materializes as a set. The
    recrawl maintenance op for a 10^12-edge link table."""
    from ..stages.join import add_bucket, bucket_sum

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src_key": t["src_key"],
                    "dst_key": t["dst_key"],
                    "__side": pa.array(np.full(t.num_rows, side, np.int8)),
                }
            )

        return fn

    both = _pages_links(n_old).map_batches(tag(0), batch_format="pyarrow").union(
        _pages_links(n_new).map_batches(tag(1), batch_format="pyarrow")
    )

    def diff(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["src_key", "dst_key"])["__side"].agg(["min", "max"])
        added = (agg["min"] == 1).to_numpy()
        removed = (agg["max"] == 0).to_numpy()
        common = ((agg["min"] == 0) & (agg["max"] == 1)).to_numpy()
        host = agg.index.get_level_values(0).str.split("/").str[2]
        part = pd.DataFrame(
            {
                "host": host,
                "n_added": added.astype("int64"),
                "n_removed": removed.astype("int64"),
                "n_common": common.astype("int64"),
            }
        )
        return part.groupby("host", as_index=False).sum()

    partial = _BMG(
        add_bucket(both, ["src_key", "dst_key"], n_buckets), n_buckets, diff, "pandas"
    )
    return bucket_sum(partial, ["host"], ["n_added", "n_removed", "n_common"], 8)


def q_site_centrality(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """Exact per-page centralities inside each site: OUT-harmonic
    centrality (sum of 1/d to every reachable same-site page, scaled
    by 360360 = lcm(1..15) so every term is an exact integer — site
    graphs have <= 16 pages, so d <= 15), eccentricity, and reachable
    count. The intra-site graph decomposes by host, so this is the
    PARTITION-LOCAL EXACT KERNEL pattern: ONE host-bucketed shuffle,
    then an all-pairs frontier BFS per site in numpy (boolean
    reachability sweeps over a <=16-vertex adjacency) — the shape for
    exact centralities over billions of small components (per-site /
    per-community subgraphs), where sampling (q_closeness_sampled) is
    the complement for the giant component."""
    from ..stages.join import add_bucket

    SCALE = 360360
    ie = _pages_intra_links(n_pages).map_batches(
        lambda t: pa.table(
            {
                "host": pc.list_element(pc.split_pattern(t["src_key"], "/"), 2),
                "src": t["src_key"],
                "dst": t["dst_key"],
            }
        ),
        batch_format="pyarrow",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_url, out_h, out_e, out_r = [], [], [], []
        for _, sg in g.groupby("host", sort=False):
            urls = pd.unique(pd.concat([sg["src"], sg["dst"]], ignore_index=True))
            idx = {u: i for i, u in enumerate(urls)}
            n = len(urls)
            adj = np.zeros((n, n), dtype=bool)
            adj[
                sg["src"].map(idx).to_numpy(), sg["dst"].map(idx).to_numpy()
            ] = True
            dist = np.full((n, n), -1, dtype=np.int64)
            np.fill_diagonal(dist, 0)
            frontier = np.eye(n, dtype=bool)
            seen = frontier.copy()
            d = 0
            while frontier.any() and d < n:
                d += 1
                nxt = (frontier @ adj) & ~seen
                dist = np.where(nxt, d, dist)
                seen |= nxt
                frontier = nxt
            reach = dist > 0
            with np.errstate(divide="ignore"):
                harm = np.where(reach, SCALE // np.maximum(dist, 1), 0).sum(axis=1)
            ecc = np.where(reach.any(axis=1), np.where(reach, dist, 0).max(axis=1), 0)
            out_url.extend(urls.tolist())
            out_h.extend(harm.astype("int64").tolist())
            out_e.extend(ecc.astype("int64").tolist())
            out_r.extend(reach.sum(axis=1).astype("int64").tolist())
        return pd.DataFrame(
            {
                "url": out_url,
                "harmonic_x": np.asarray(out_h, np.int64),
                "ecc": np.asarray(out_e, np.int64),
                "n_reach": np.asarray(out_r, np.int64),
            }
        )

    return _BMG(
        add_bucket(ie, ["host"], n_buckets), n_buckets, per_bucket, "pandas"
    )


def q_spam_mass(sf_dir: str, n: int = 2000, n_buckets: int = 32):
    """Web-spam demotion signal (Gyongyi et al. 2006): absolute spam
    mass per domain = global weighted PageRank minus TrustRank (the
    rank share NOT reachable from trusted seeds). ONE contracted
    domain-graph build feeds BOTH engine runs (global restart vs
    trusted-seed restart — same kernels, different restart vector),
    results join on the host key in one bucket join. mass_e8 is a
    plain integer difference of the two e8 scores, so no division
    convention is needed; spam candidates rank by mass_e8 DESC."""
    import shutil as _sh

    from ..stages.join import bucket_join
    from .graph import lookup_vertex_id

    seeds_hosts = [f"site-{i:05d}.example" for i in range(3)]
    root = f"/tmp/graft_spam_mass_{n}"
    _sh.rmtree(root, ignore_errors=True)
    man = _build_domain_graph(n, f"{root}/graph", "domain_graph_spam_mass", n_buckets)
    pr = run_algorithm(f"{root}/graph", f"{root}/pr", "pagerank_weighted")
    seeds = []
    for h in seeds_hosts:
        try:
            seeds.append(lookup_vertex_id(man, h))
        except KeyError:
            pass
    tr = run_algorithm(
        f"{root}/graph", f"{root}/tr", "trustrank", seed_ids=tuple(sorted(seeds))
    )

    def conv(name):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table(
                {"host": t["vertex"].cast(pa.string()), name: _score_e8(t["value"])}
            )

        return fn

    pr_s = pr.map_batches(conv("pr_e8"), batch_format="pyarrow")
    tr_s = tr.map_batches(conv("tr_e8"), batch_format="pyarrow")
    j = bucket_join(
        pr_s, tr_s, left_on="host", right_on="host", n_buckets=16,
        left_schema=pa.schema([("host", pa.string()), ("pr_e8", pa.int64())]),
        right_schema=pa.schema([("host", pa.string()), ("tr_e8", pa.int64())]),
    )

    def finish(t: pa.Table) -> pa.Table:
        p = t["pr_e8"].to_numpy().astype(np.int64)
        r = t["tr_e8"].to_numpy().astype(np.int64)
        return pa.table(
            {"host": t["host"], "pr_e8": pa.array(p), "tr_e8": pa.array(r),
             "mass_e8": pa.array(p - r)}
        )

    return j.map_batches(finish, batch_format="pyarrow")


def q_doc_readability(sf_dir: str):
    """Readability / lexical-complexity features per document: the
    Automated Readability Index (Senter & Smith 1967) plus word-length
    features, all exact integers. chars counts word characters, words
    are whitespace tokens, sentences are runs of terminal punctuation
    (floor 1 so punctuation-free corpora stay defined). ari_e6 keeps
    the classic 4.71/0.5/21.43 coefficients as e6-scaled integer floor
    divisions so the engine and the SQL oracle agree bit-for-bit;
    pct_long_e6 is the share of words with >= 6 characters (a LIX-style
    long-word signal that varies even on unpunctuated text). One
    vectorized pandas pass — regex counts only, no per-row Python."""

    def feats(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].astype(str)
        mask = text.str.strip() != ""
        df, text = df[mask], text[mask]
        chars = text.str.count(r"\w").astype("int64")
        words = (
            text.str.count(r"\S+").astype("int64").clip(lower=1)
        )
        sents = text.str.count(r"[.!?]+").astype("int64").clip(lower=1)
        nlong = text.str.count(r"\b\w{6,}\b").astype("int64")
        ari = (
            (4_710_000 * chars) // words
            + (500_000 * words) // sents
            - 21_430_000
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_words": words,
                "n_sents": sents,
                "ari_e6": ari.astype("int64"),
                "pct_long_e6": ((1_000_000 * nlong) // words).astype("int64"),
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        feats, batch_format="pandas"
    )


def q_page_outlink_profile(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """Pre-dedup outlink profile per page over REAL extraction: total
    href instances, distinct targets, duplicate hrefs, self-links,
    offsite links, intra-site non-self links, and distinct target
    hosts — the crawl-quality signals (nepotistic linking, duplicate
    nav blocks, outlink farms) computed BEFORE the graph-build dedup
    collapses instances. extract_links keeps duplicates/self-links by
    contract (functions/html.py:37-44), so this is one actor-pool
    extraction pass -> one src-bucketed shuffle -> vectorized pandas
    per-bucket profile; no page's links ever cross buckets."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_links
    from ..stages.join import add_bucket

    links = extract_links(generate_pages(n_pages))

    def prof(g: pd.DataFrame) -> pd.DataFrame:
        src = g["src_key"]
        dst = g["dst_key"]
        sh = src.str.split("/").str[2]
        dh = dst.str.split("/").str[2]
        t = pd.DataFrame(
            {
                "url": src,
                "dst": dst,
                "dh": dh,
                "is_self": (dst == src).astype("int64"),
                "is_off": (dh != sh).astype("int64"),
            }
        )
        t["is_intra"] = ((t["is_self"] == 0) & (t["is_off"] == 0)).astype("int64")
        agg = t.groupby("url", sort=False).agg(
            n_hrefs=("dst", "size"),
            n_distinct=("dst", "nunique"),
            n_hosts=("dh", "nunique"),
            n_self=("is_self", "sum"),
            n_offsite=("is_off", "sum"),
            n_intra=("is_intra", "sum"),
        )
        agg["n_dup"] = agg["n_hrefs"] - agg["n_distinct"]
        return agg.reset_index().astype(
            {c: "int64" for c in agg.columns}
        )[
            ["url", "n_hrefs", "n_distinct", "n_dup", "n_self",
             "n_offsite", "n_intra", "n_hosts"]
        ]

    return _BMG(
        add_bucket(links, ["src_key"], n_buckets), n_buckets, prof, "pandas"
    )


def q_linkgraph_compress(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """WebGraph-style (Boldi & Vigna 2004) compressed-size estimate of
    the intra-site adjacency: pages get URL-lexicographic labels within
    their host, each source's sorted successor list is delta-encoded
    (first gap zigzagged against the source's own label — the locality
    win URL ordering buys — then strictly-positive diffs), and every
    gap is costed at its Elias-gamma length 2*floor(log2(c))+1 bits.
    All integer-exact: bit lengths via the float64 exponent
    (np.frexp — exact for c < 2^53). Per-host output (pages, edges,
    total bits, e6-scaled bits/edge) — the storage-planning signal for
    a 10^12-edge crawl, computed in ONE host-bucketed shuffle since
    labels and gaps never cross hosts."""
    from ..stages.join import add_bucket

    ie = _pages_intra_links(n_pages).map_batches(
        lambda t: pa.table(
            {
                "host": pc.list_element(pc.split_pattern(t["src_key"], "/"), 2),
                "src": t["src_key"],
                "dst": t["dst_key"],
            }
        ),
        batch_format="pyarrow",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for host, sg in g.groupby("host", sort=False):
            urls = np.unique(
                np.concatenate([sg["src"].to_numpy(), sg["dst"].to_numpy()])
            )
            lbl = {u: i for i, u in enumerate(urls)}
            df = pd.DataFrame(
                {
                    "sl": sg["src"].map(lbl).to_numpy(np.int64),
                    "dl": sg["dst"].map(lbl).to_numpy(np.int64),
                }
            ).sort_values(["sl", "dl"], kind="mergesort")
            prev = df.groupby("sl", sort=False)["dl"].shift()
            first = prev.isna()
            d = df["dl"].to_numpy(np.int64) - df["sl"].to_numpy(np.int64)
            zz = np.where(d >= 0, 2 * d, -2 * d - 1) + 1  # zigzag, code >= 1
            gap = df["dl"].to_numpy(np.int64) - prev.fillna(0).to_numpy(np.int64)
            c = np.where(first.to_numpy(), zz, gap).astype(np.int64)
            bits = 2 * (np.frexp(c.astype(np.float64))[1] - 1) + 1
            n_edges = len(df)
            total = int(bits.sum())
            rows.append(
                (host, len(urls), n_edges, total,
                 (1_000_000 * total) // n_edges)
            )
        return pd.DataFrame(
            rows, columns=["host", "n_pages", "n_edges", "bits", "bpe_e6"]
        ).astype({c: "int64" for c in ["n_pages", "n_edges", "bits", "bpe_e6"]})

    return _BMG(
        add_bucket(ie, ["host"], n_buckets), n_buckets, per_bucket, "pandas"
    )


def q_site_bridges(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """Exact BRIDGE edges of each site's undirected intra-site graph —
    the single points of failure of a site's internal navigation: an
    undirected edge is a bridge iff its removal disconnects its
    endpoints. Sites are <= 16 pages (sources/pages.py PAGES_PER_SITE),
    so the partition-local exact kernel brute-forces per edge: drop the
    edge, sweep a boolean BFS (16x16 matrix ops), test endpoint
    reachability. ONE host-bucketed shuffle; at 10^12 edges the same
    kernel runs per site shard and giant components route to the
    sampled/BSP family instead. Output: (src, dst) canonical (src <
    dst) bridge edges."""
    from ..stages.join import add_bucket

    ie = _pages_intra_links(n_pages).map_batches(
        lambda t: pa.table(
            {
                "host": pc.list_element(pc.split_pattern(t["src_key"], "/"), 2),
                "src": t["src_key"],
                "dst": t["dst_key"],
            }
        ),
        batch_format="pyarrow",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_s, out_d = [], []
        for _, sg in g.groupby("host", sort=False):
            urls = np.unique(
                np.concatenate([sg["src"].to_numpy(), sg["dst"].to_numpy()])
            )
            idx = {u: i for i, u in enumerate(urls)}
            n = len(urls)
            adj = np.zeros((n, n), dtype=bool)
            si = sg["src"].map(idx).to_numpy()
            di = sg["dst"].map(idx).to_numpy()
            adj[si, di] = True
            adj |= adj.T
            np.fill_diagonal(adj, False)  # self-loops are never bridges
            ea, eb = np.nonzero(np.triu(adj, 1))
            for a, b in zip(ea.tolist(), eb.tolist()):
                adj[a, b] = adj[b, a] = False
                reach = np.zeros(n, dtype=bool)
                reach[a] = True
                for _ in range(n):
                    nxt = reach @ adj
                    if not (nxt & ~reach).any():
                        break
                    reach |= nxt
                if not reach[b]:
                    out_s.append(urls[a])
                    out_d.append(urls[b])
                adj[a, b] = adj[b, a] = True
        return pd.DataFrame({"src": out_s, "dst": out_d}).astype(
            {"src": "string", "dst": "string"}
        )

    res = _BMG(
        add_bucket(ie, ["host"], n_buckets), n_buckets, per_bucket, "pandas"
    )

    def cast(t: pa.Table) -> pa.Table:
        return pa.table(
            {"src": t["src"].cast(pa.string()), "dst": t["dst"].cast(pa.string())}
        )

    return res.map_batches(cast, batch_format="pyarrow")


def q_site_articulation(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """Exact ARTICULATION PAGES of each site's undirected intra-site
    graph — pages whose removal disconnects part of their site (w is an
    articulation point iff its neighbors are not all mutually reachable
    in G - w; leaves never qualify). Same partition-local exact-kernel
    shape as q_site_bridges: sites are <= 16 pages, so per page the
    kernel drops the page, BFS-sweeps from its smallest neighbor, and
    checks the remaining neighbors. ONE host-bucketed shuffle."""
    from ..stages.join import add_bucket

    ie = _pages_intra_links(n_pages).map_batches(
        lambda t: pa.table(
            {
                "host": pc.list_element(pc.split_pattern(t["src_key"], "/"), 2),
                "src": t["src_key"],
                "dst": t["dst_key"],
            }
        ),
        batch_format="pyarrow",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, sg in g.groupby("host", sort=False):
            urls = np.unique(
                np.concatenate([sg["src"].to_numpy(), sg["dst"].to_numpy()])
            )
            idx = {u: i for i, u in enumerate(urls)}
            n = len(urls)
            adj = np.zeros((n, n), dtype=bool)
            adj[sg["src"].map(idx).to_numpy(), sg["dst"].map(idx).to_numpy()] = True
            adj |= adj.T
            np.fill_diagonal(adj, False)
            for w in range(n):
                nbrs = np.nonzero(adj[w])[0]
                if len(nbrs) < 2:
                    continue
                sub = adj.copy()
                sub[w, :] = False
                sub[:, w] = False
                reach = np.zeros(n, dtype=bool)
                reach[nbrs[0]] = True  # min neighbor: urls sorted => idx order
                for _ in range(n):
                    nxt = reach @ sub
                    if not (nxt & ~reach).any():
                        break
                    reach |= nxt
                if not reach[nbrs].all():
                    out.append(urls[w])
        return pd.DataFrame({"url": pd.array(out, dtype="string")})

    res = _BMG(
        add_bucket(ie, ["host"], n_buckets), n_buckets, per_bucket, "pandas"
    )
    return res.map_batches(
        lambda t: pa.table({"url": t["url"].cast(pa.string())}),
        batch_format="pyarrow",
    )


def q_site_effective_diameter(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """Effective diameter of the intra-site web (Leskovec et al.'s
    90th-percentile distance, exact instead of ANF-approximated):
    per-site all-pairs BFS (partition-local kernel, sites <= 16 pages)
    emits a bounded distance histogram (d <= 15), ONE tiny bucket_sum
    merges site histograms, and the driver reduces the <= 15-row
    bounded partial to a single exact row: reachable ordered pairs,
    median / 90th-percentile distance (min d with 2*cum >= total resp.
    10*cum >= 9*total — pure integer rank tests, no interpolation),
    true diameter, and e6-floor mean distance. The exact cross-check
    for the ANF sketch family (q_anf) at 10^12-edge scale."""
    from ..stages.join import add_bucket, bucket_sum

    ie = _pages_intra_links(n_pages).map_batches(
        lambda t: pa.table(
            {
                "host": pc.list_element(pc.split_pattern(t["src_key"], "/"), 2),
                "src": t["src_key"],
                "dst": t["dst_key"],
            }
        ),
        batch_format="pyarrow",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        hist = np.zeros(17, dtype=np.int64)
        for _, sg in g.groupby("host", sort=False):
            urls = pd.unique(pd.concat([sg["src"], sg["dst"]], ignore_index=True))
            idx = {u: i for i, u in enumerate(urls)}
            n = len(urls)
            adj = np.zeros((n, n), dtype=bool)
            adj[sg["src"].map(idx).to_numpy(), sg["dst"].map(idx).to_numpy()] = True
            frontier = np.eye(n, dtype=bool)
            seen = frontier.copy()
            d = 0
            while frontier.any() and d < n:
                d += 1
                nxt = (frontier @ adj) & ~seen
                hist[min(d, 16)] += int(nxt.sum())
                seen |= nxt
                frontier = nxt
        dd = np.nonzero(hist)[0]
        return pd.DataFrame({"d": dd.astype("int64"), "c": hist[dd]})

    part = _BMG(
        add_bucket(ie, ["host"], n_buckets), n_buckets, per_bucket, "pandas"
    )
    h = bucket_sum(part, ["d"], ["c"], 4).to_pandas().sort_values("d")
    d = h["d"].to_numpy(np.int64)
    c = h["c"].to_numpy(np.int64)
    total = int(c.sum())
    cum = np.cumsum(c)
    d50 = int(d[np.argmax(2 * cum >= total)])
    d90 = int(d[np.argmax(10 * cum >= 9 * total)])
    return pd.DataFrame(
        {
            "n_pairs": [total],
            "d50": [d50],
            "d90": [d90],
            "diameter": [int(d.max())],
            "mean_e6": [int(1_000_000 * int((d * c).sum()) // total)],
        }
    ).astype("int64")


def q_widest_path(sf_dir: str, n: int = 2000, n_buckets: int = 32):
    """WIDEST (maximum-capacity) path from a seed domain over the
    contracted weighted domain graph: width(v) = max over in-edges
    (u,v,w) of min(width(u), w) where w = the number of distinct page
    links between the two hosts — the strongest chain of endorsement
    from the seed, the maximin-routing dual of SSSP. Runs the BSP
    engine's min-combiner UNCHANGED via negation duality
    (algorithms.WidestPath: m = -width, max_neg_edge_weight scatter)
    to the monotone fixpoint. Capacities are integer link counts, so
    width is integer-exact in float64; the seed row is excluded and
    unreachable hosts report NULL. n PINNED to the fixed oracle's
    2000 (same contraction as q_trustrank_domains)."""
    import shutil

    from .graph import lookup_vertex_id

    seed_host = "site-00000.example"
    root = f"/tmp/graft_widest_{n}"
    shutil.rmtree(root, ignore_errors=True)
    man = _build_domain_graph(n, f"{root}/graph", "domain_graph_widest", n_buckets)
    sid = lookup_vertex_id(man, seed_host)
    res = run_algorithm(f"{root}/graph", f"{root}/widest", "widest", source_id=sid)

    def conv(t: pa.Table) -> pa.Table:
        host = t["vertex"].cast(pa.string())
        m = t["value"].to_numpy()
        width = [None if not np.isfinite(-x) else int(-x) for x in m]
        keep = pc.not_equal(host, seed_host)
        return pa.table(
            {"host": host, "width": pa.array(width, pa.int64())}
        ).filter(keep)

    return res.map_batches(conv, batch_format="pyarrow")


def q_coverage_greedy(sf_dir: str, n_pages: int = 2000, k: int = 5, n_buckets: int = 16):
    """Greedy maximum-coverage crawl-seed selection (the classic
    (1 - 1/e) greedy): pick k source pages so their outlink HOST sets
    cover as many distinct hosts as possible — seed-list construction
    for a bounded recrawl. Each round is fully distributed: filter the
    (src, host) pairs against the broadcast covered-host set (tiny by
    construction: <= k * max-outdegree hosts), ONE bucket_sum scores
    every page's uncovered-host count, a distributed sort+limit(1)
    takes the argmax (ties by url), and only the winner's <= 15 hosts
    come back to the driver. The pair table is materialized ONCE and
    re-filtered per round — never re-extracted. Output: (round, url,
    n_new, n_covered)."""
    import ray as _ray

    from ..stages.join import add_bucket, bucket_sum, distinct

    def hostp(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t["src_key"],
                "h": pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2),
            }
        )

    ph = distinct(
        _pages_links(n_pages).map_batches(hostp, batch_format="pyarrow"),
        ["src", "h"],
        n_buckets,
    ).materialize()

    covered: set[str] = set()
    rows = []
    for r in range(1, k + 1):
        cov_ref = _ray.put(np.array(sorted(covered), dtype=object))

        def drop_covered(t: pa.Table, ref=cov_ref) -> pa.Table:
            cov = _ray.get(ref)
            if len(cov) == 0:
                return t
            keep = ~np.isin(t["h"].to_numpy(zero_copy_only=False), cov)
            return t.filter(pa.array(keep))

        remaining = ph.map_batches(drop_covered, batch_format="pyarrow")
        ones = remaining.map_batches(
            lambda t: pa.table(
                {"src": t["src"], "n": pa.array(np.ones(t.num_rows, np.int64))}
            ),
            batch_format="pyarrow",
        )
        top = (
            bucket_sum(ones, ["src"], ["n"], n_buckets)
            .sort(["n", "src"], descending=[True, False])
            .limit(1)
            .take_all()
        )[0]
        winner, n_new = top["src"], int(top["n"])
        new_hosts = remaining.map_batches(
            lambda t, w=winner: t.filter(pc.equal(t["src"], w)),
            batch_format="pyarrow",
        ).take_all()
        covered |= {row["h"] for row in new_hosts}
        rows.append((r, winner, n_new, len(covered)))
    return pd.DataFrame(
        rows, columns=["round", "url", "n_new", "n_covered"]
    ).astype({"round": "int64", "n_new": "int64", "n_covered": "int64"})


def q_feature_propagation(sf_dir: str, n_nodes: int = 500, k: int = 3, n_buckets: int = 8):
    """Two GraphSAGE-style mean-aggregation layers expressed as PURE
    DATAFLOW (join + groupby-sum per layer) over the closed kNN graph
    of the first n_nodes embeddings: h0 = class label, h1(v) =
    floor(1e6 * mean of neighbor h0), h2(v) = floor(mean of neighbor
    h1) — plus n_agree (neighbors sharing v's label), the kNN label-
    smoothing signal. kNN edges reuse q_knn_graph's broadcast
    quantized-matmul (floor(x*1024) dot products, ties to lowest id);
    each layer is ONE bucket_join (neighbor feature lookup) + ONE
    bucket_sum — the shape of distributed GNN feature propagation,
    where the per-layer exchange volume is |E|, never |V|^2. Integer
    floors end-to-end, so the layers are bit-exact."""
    import pyarrow.parquet as _pq

    from ..stages.join import bucket_join, bucket_sum

    dim = 64
    tab = _pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    ids = tab["vec_id"].to_numpy()
    flat = tab["embedding"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
    Q = np.floor(flat.astype(np.float64).reshape(-1, dim) * 1024.0).astype(np.int64)
    sel = ids < n_nodes
    order = np.argsort(ids[sel])
    corpus = ray.put((ids[sel][order], Q[sel][order]))

    src = _table(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def knn(t: pa.Table) -> pa.Table:
        cid, cq = ray.get(corpus)
        vid = t["vec_id"].to_numpy()
        m = vid < n_nodes
        if not m.any():
            return pa.table(
                {"src": pa.array([], pa.int64()), "src_label": pa.array([], pa.int64()),
                 "nbr": pa.array([], pa.int64())}
            )
        f = t["embedding"].combine_chunks().flatten().to_numpy(zero_copy_only=False)
        q = np.floor(f.astype(np.float64).reshape(-1, dim) * 1024.0).astype(np.int64)[m]
        lab = t["label"].to_numpy()[m].astype(np.int64)
        vid = vid[m]
        dots = q @ cq.T  # (batch, n_nodes) integer-exact
        out_s, out_l, out_n = [], [], []
        for i in range(len(vid)):
            d = dots[i].copy()
            # exclude self: sentinel must stay negatable (int64.min
            # would overflow under the lexsort's -d key)
            d[cid == vid[i]] = -(2**62)
            top = np.lexsort((cid, -d))[:k]  # dot DESC, nbr ASC
            out_s.extend([int(vid[i])] * k)
            out_l.extend([int(lab[i])] * k)
            out_n.extend(cid[top].astype(np.int64).tolist())
        return pa.table(
            {"src": pa.array(out_s, pa.int64()), "src_label": pa.array(out_l, pa.int64()),
             "nbr": pa.array(out_n, pa.int64())}
        )

    edges = src.map_batches(knn, batch_format="pyarrow")
    e_schema = pa.schema(
        [("src", pa.int64()), ("src_label", pa.int64()), ("nbr", pa.int64())]
    )

    def feat0(t: pa.Table) -> pa.Table:
        m = pc.less(t["vec_id"], n_nodes)
        tt = t.filter(m)
        return pa.table(
            {"vec_id": tt["vec_id"].cast(pa.int64()),
             "h": tt["label"].cast(pa.int64())}
        )

    feats0 = src.map_batches(feat0, batch_format="pyarrow")
    f_schema = pa.schema([("vec_id", pa.int64()), ("h", pa.int64())])

    # layer 1: lookup neighbor h0 + agreement, aggregate per src
    j1 = bucket_join(
        edges, feats0, left_on="nbr", right_on="vec_id", n_buckets=n_buckets,
        left_schema=e_schema, right_schema=f_schema,
    )

    def pre1(t: pa.Table) -> pa.Table:
        h = t["h"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "src": t["src"], "label": t["src_label"],
                "sum_h": pa.array(h),
                "cnt": pa.array(np.ones(t.num_rows, np.int64)),
                "agree": pa.array(
                    (h == t["src_label"].to_numpy().astype(np.int64)).astype(np.int64)
                ),
            }
        )

    a1 = bucket_sum(
        j1.map_batches(pre1, batch_format="pyarrow"),
        ["src", "label"], ["sum_h", "cnt", "agree"], n_buckets,
    )

    def fin1(t: pa.Table) -> pa.Table:
        s = t["sum_h"].to_numpy().astype(np.int64)
        c = t["cnt"].to_numpy().astype(np.int64)
        return pa.table(
            {"vec_id": t["src"], "label": t["label"],
             "h": pa.array((1_000_000 * s) // c),
             "n_agree": t["agree"]}
        )

    h1 = a1.map_batches(fin1, batch_format="pyarrow")
    h1_schema = pa.schema(
        [("vec_id", pa.int64()), ("label", pa.int64()), ("h", pa.int64()),
         ("n_agree", pa.int64())]
    )

    # layer 2: lookup neighbor h1, aggregate per src
    j2 = bucket_join(
        edges, h1, left_on="nbr", right_on="vec_id", n_buckets=n_buckets,
        left_schema=e_schema, right_schema=h1_schema,
    )

    def pre2(t: pa.Table) -> pa.Table:
        return pa.table(
            {"src": t["src"], "sum_h": t["h"],
             "cnt": pa.array(np.ones(t.num_rows, np.int64))}
        )

    a2 = bucket_sum(
        j2.map_batches(pre2, batch_format="pyarrow"), ["src"], ["sum_h", "cnt"],
        n_buckets,
    )

    def fin2(t: pa.Table) -> pa.Table:
        s = t["sum_h"].to_numpy().astype(np.int64)
        c = t["cnt"].to_numpy().astype(np.int64)
        return pa.table({"vec_id": t["src"], "h2_e6": pa.array(s // c)})

    h2 = a2.map_batches(fin2, batch_format="pyarrow")
    h2_schema = pa.schema([("vec_id", pa.int64()), ("h2_e6", pa.int64())])

    out = bucket_join(
        h1, h2, left_on="vec_id", right_on="vec_id", n_buckets=n_buckets,
        left_schema=h1_schema, right_schema=h2_schema,
    )

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {"vec_id": t["vec_id"], "label": t["label"],
             "h1_e6": t["h"], "h2_e6": t["h2_e6"], "n_agree": t["n_agree"]}
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_domain_inlink_hll(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """HyperLogLog registers for DISTINCT IN-LINKING HOSTS per host —
    the mergeable inlink-diversity sketch (nepotism detection / rank
    spam triage: many links from few hosts vs few links from many).
    Same register recipe as q_user_hll (FNV-1a + splitmix64 finalizer,
    p=8) keyed by destination host; self-host links excluded. Per-batch
    partial registers (distinct (host, src_host) pairs collapse before
    the shuffle), then ONE bucketed max per (host, reg) — at 10^12
    edges only sparse register rows move, never link rows."""
    from ..functions.hashing import fnv1a64
    from ..stages.join import add_bucket
    from ..utils import splitmix64

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sh = df["src_key"].str.split("/").str[2]
        dh = df["dst_key"].str.split("/").str[2]
        t = pd.DataFrame({"host": dh, "tok": sh})
        t = t[t["host"] != t["tok"]].drop_duplicates()
        if len(t) == 0:
            return pd.DataFrame(
                {"host": pd.Series(dtype="string"),
                 "reg": pd.Series(dtype="int64"),
                 "rho": pd.Series(dtype="int64")}
            )
        h = splitmix64(fnv1a64(t["tok"].tolist()))
        reg, rho = _hll_reg_rho(h)
        out = pd.DataFrame({"host": t["host"].to_numpy(), "reg": reg, "rho": rho})
        return out.groupby(["host", "reg"], as_index=False).max().astype(
            {"reg": "int64", "rho": "int64"}
        )

    part = _pages_links(n_pages).map_batches(partial, batch_format="pandas")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["host", "reg"], as_index=False)["rho"].max()

    return _BMG(
        add_bucket(part, ["host", "reg"], n_buckets), n_buckets, merge, "pandas"
    )


def q_anchor_majority(sf_dir: str, n: int = 2000, n_buckets: int = 32):
    """Majority anchor text per link target — the canonical-label
    signal for web search (the anchor most pages use for a url) plus
    its exact e6-floor share of all anchor instances. Anchor INSTANCES
    are kept (like q_anchor_stats); the mode and share reduce in ONE
    dst-bucket shuffle with a vectorized per-bucket count + argmax
    (ties break lexicographically on the anchor so the result is a
    total order). n PINNED to the fixed oracle's 2000."""
    from ..functions.html import decode_html, extract_links_with_anchors
    from ..sources.pages import generate_pages
    from ..stages.join import add_bucket

    def inst(t: pa.Table) -> pa.Table:
        dsts, anchors = [], []
        for u, h in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            for href, anch in extract_links_with_anchors(decode_html(h), u):
                dsts.append(href)
                anchors.append(anch)
        return pa.table(
            {"url": pa.array(dsts, pa.string()),
             "anchor": pa.array(anchors, pa.string())}
        )

    insts = generate_pages(n).map_batches(inst, batch_format="pyarrow", batch_size=256)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cnt = (
            g.groupby(["url", "anchor"], sort=False).size().reset_index(name="c")
        )
        tot = cnt.groupby("url", sort=False)["c"].transform("sum")
        cnt["tot"] = tot
        cnt = cnt.sort_values(["url", "c", "anchor"], ascending=[True, False, True])
        top = cnt.drop_duplicates("url", keep="first")
        return pd.DataFrame(
            {
                "url": top["url"].to_numpy(),
                "n_inst": top["tot"].to_numpy(np.int64),
                "top_anchor": top["anchor"].to_numpy(),
                "top_share_e6": (
                    1_000_000 * top["c"].to_numpy(np.int64)
                ) // top["tot"].to_numpy(np.int64),
            }
        )

    return _BMG(
        add_bucket(insts, ["url"], n_buckets), n_buckets, per_bucket, "pandas"
    )


def q_domain_mutual_links(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """Reciprocal (mutually linking) host pairs — the link-exchange /
    nepotism detector at domain granularity: for every unordered
    cross-host pair with page links BOTH ways, the two directed
    weights (distinct page-link counts, as in contract_link_graph) and
    the reciprocal strength min(w_ab, w_ba). Directions are folded
    onto the canonical (least, greatest) pair key in the SAME
    bucket_sum — one shuffle, no self-join of the edge table."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_links
    from ..stages.join import bucket_sum
    from .pages import contract_link_graph

    de = contract_link_graph(extract_links(generate_pages(n_pages)), n_buckets)

    def canon(t: pa.Table) -> pa.Table:
        s = t["src_key"].to_numpy(zero_copy_only=False)
        d = t["dst_key"].to_numpy(zero_copy_only=False)
        w = t["weight"].to_numpy().astype(np.int64)
        keep = s != d
        s, d, w = s[keep], d[keep], w[keep]
        fwd = s < d
        a = np.where(fwd, s, d)
        b = np.where(fwd, d, s)
        return pa.table(
            {
                "a": pa.array(a, pa.string()),
                "b": pa.array(b, pa.string()),
                "w_ab": pa.array(np.where(fwd, w, 0)),
                "w_ba": pa.array(np.where(fwd, 0, w)),
            }
        )

    agg = bucket_sum(
        de.map_batches(canon, batch_format="pyarrow"), ["a", "b"],
        ["w_ab", "w_ba"], n_buckets,
    )

    def fin(t: pa.Table) -> pa.Table:
        ab = t["w_ab"].to_numpy().astype(np.int64)
        ba = t["w_ba"].to_numpy().astype(np.int64)
        keep = (ab > 0) & (ba > 0)
        tt = pa.table(
            {"a": t["a"], "b": t["b"], "w_ab": pa.array(ab),
             "w_ba": pa.array(ba), "w_min": pa.array(np.minimum(ab, ba))}
        )
        return tt.filter(pa.array(keep))

    return agg.map_batches(fin, batch_format="pyarrow")


def q_site_edge_stress(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """Exact EDGE STRESS inside each site: for every directed
    intra-site edge, the number of shortest paths (over all ordered
    reachable pairs) that traverse it — the integer-exact edge
    analogue of stress centrality (edge betweenness without the
    rational sigma ratios), the signal for which internal links carry
    a site's navigation. Partition-local exact kernel: per site
    (<= 16 pages) an all-roots BFS gives dist[s,v] and sigma[s,v]
    (shortest-path counts via level DP), then stress(u,v) = sum over
    (s,t) with dist[s,u] + 1 + dist[v,t] = dist[s,t] of
    sigma[s,u] * sigma[v,t]. Self-loop edges lie on no shortest path
    and drop out. ONE host-bucketed shuffle."""
    from ..stages.join import add_bucket

    INF = 10**6
    ie = _pages_intra_links(n_pages).map_batches(
        lambda t: pa.table(
            {
                "host": pc.list_element(pc.split_pattern(t["src_key"], "/"), 2),
                "src": t["src_key"],
                "dst": t["dst_key"],
            }
        ),
        batch_format="pyarrow",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_s, out_d, out_w = [], [], []
        for _, sg in g.groupby("host", sort=False):
            urls = np.unique(
                np.concatenate([sg["src"].to_numpy(), sg["dst"].to_numpy()])
            )
            idx = {u: i for i, u in enumerate(urls)}
            n = len(urls)
            adj = np.zeros((n, n), dtype=bool)
            adj[sg["src"].map(idx).to_numpy(), sg["dst"].map(idx).to_numpy()] = True
            noself = adj.copy()
            np.fill_diagonal(noself, False)
            dist = np.full((n, n), INF, dtype=np.int64)
            np.fill_diagonal(dist, 0)
            sig = np.eye(n, dtype=np.int64)
            frontier = np.eye(n, dtype=bool)
            seen = frontier.copy()
            d = 0
            while frontier.any() and d < n:
                d += 1
                nxt = (frontier @ noself) & ~seen
                contrib = (sig * (dist == d - 1)) @ noself.astype(np.int64)
                dist = np.where(nxt, d, dist)
                sig = np.where(nxt, contrib, sig)
                seen |= nxt
                frontier = nxt
            eu, ev = np.nonzero(noself)
            for u, v in zip(eu.tolist(), ev.tolist()):
                cond = dist[:, u, None] + 1 + dist[v, None, :] == dist
                w = int((sig[:, u, None] * sig[v, None, :])[cond].sum())
                if w > 0:
                    out_s.append(urls[u])
                    out_d.append(urls[v])
                    out_w.append(w)
        return pd.DataFrame(
            {"src": out_s, "dst": out_d,
             "stress": np.asarray(out_w, dtype=np.int64)}
        ).astype({"src": "string", "dst": "string"})

    res = _BMG(
        add_bucket(ie, ["host"], n_buckets), n_buckets, per_bucket, "pandas"
    )
    return res.map_batches(
        lambda t: pa.table(
            {"src": t["src"].cast(pa.string()), "dst": t["dst"].cast(pa.string()),
             "stress": t["stress"]}
        ),
        batch_format="pyarrow",
    )


def q_pagerank_dangling(sf_dir: str, n: int = 2000):
    """TRUE web PageRank on the DIRECTED page graph with dangling-mass
    redistribution — the Common-Crawl formulation the symmetrized
    variants sidestep: offsite urls have no outlinks, and their rank
    D_t re-enters uniformly each iteration (x <- 0.15/N + 0.85*(A^T x
    + D/N)). D_t rides the engine's Pregel-style aggregator channel
    (algorithms.PageRankDangling): each scatter attaches its
    partition's dangling partial to the exchange, apply receives the
    exact global sum — supersteps still chain lazily, no extra driver
    sync. Top-25 urls by e8-scaled score; n PINNED to the fixed
    oracle's 2000."""
    import shutil

    from .graph import run_algorithm as _ra
    from .ingest import build_graph as _bg

    root = f"/tmp/graft_prdangling_{n}"
    shutil.rmtree(root, ignore_errors=True)
    _bg(
        _pages_links(n),
        f"{root}/graph",
        n_parts=8,
        n_buckets=16,
        dedup=False,
        symmetrize_edges=False,
        source_info={"kind": "pages_directed_dangling", "n": n},
    )
    res = _ra(f"{root}/graph", f"{root}/pr", "pagerank_dangling")

    def conv(t: pa.Table) -> pa.Table:
        return pa.table(
            {"vertex": t["vertex"].cast(pa.string()),
             "score_e8": _score_e8(t["value"])}
        )

    return (
        res.map_batches(conv, batch_format="pyarrow")
        .sort(["score_e8", "vertex"], descending=[True, False])
        .limit(25)
    )


def q_orphan_pages(
    sf_dir: str, n_pages: int = 2000, m_bits: int = 1 << 14, n_buckets: int = 16
):
    """ORPHAN detection: crawled pages with NO in-links from any OTHER
    page (self-links don't count) — the pages a link-following recrawl
    would lose, per host. The inverse of q_frontier_candidates, on the
    same Bloom anti-join machinery: a Bloom bitmap of linked TARGETS
    broadcasts, every crawled url probes locally, definite misses are
    orphans immediately, and only the maybe sliver (true hits + Bloom
    false positives) enters ONE bucketed verify anti-join — exact
    result, and the big side never ships its key set. Output:
    (host, n_orphans) per host with at least one orphan."""
    from ..sources.pages import url_of
    from ..stages.bloom import bloom_build, bloom_probe_stage
    from ..stages.join import add_bucket, bucket_sum
    from ..utils import stable_hash_array

    links = _pages_links(n_pages)

    def targets(t: pa.Table) -> pa.Table:
        f = t.filter(pc.not_equal(t["src_key"], t["dst_key"]))
        return pa.table({"url": f["dst_key"]})

    tgt = links.map_batches(targets, batch_format="pyarrow")
    words = bloom_build(tgt, lambda t: stable_hash_array(t["url"]), m_bits=m_bits)

    def urls_batch(t: pa.Table) -> pa.Table:
        ids = t["id"].to_numpy()
        return pa.table({"url": pa.array([url_of(int(i)) for i in ids], pa.string())})

    pages = rd.range(n_pages).map_batches(urls_batch, batch_format="pyarrow")
    probed = bloom_probe_stage(
        pages, words, lambda t: stable_hash_array(t["url"]), m_bits
    ).materialize()

    def definite(t: pa.Table) -> pa.Table:
        f = t.filter(pc.invert(t["__maybe"]))
        return pa.table({"url": f["url"]})

    def maybe_tagged(t: pa.Table) -> pa.Table:
        f = t.filter(t["__maybe"])
        return pa.table(
            {"url": f["url"], "__side": pa.array(np.zeros(f.num_rows, np.int8))}
        )

    def target_tagged(t: pa.Table) -> pa.Table:
        return pa.table(
            {"url": t["url"], "__side": pa.array(np.ones(t.num_rows, np.int8))}
        )

    tagged = probed.map_batches(maybe_tagged, batch_format="pyarrow").union(
        tgt.map_batches(target_tagged, batch_format="pyarrow")
    )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        linked = set(g.loc[g["__side"] == 1, "url"])
        keep = g[(g["__side"] == 0) & ~g["url"].isin(linked)]
        return keep[["url"]]

    orphans = _BMG(
        add_bucket(tagged, ["url"], n_buckets), n_buckets, verify, "pandas"
    ).union(probed.map_batches(definite, batch_format="pyarrow"))

    def per_host(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": pc.list_element(pc.split_pattern(t["url"], "/"), 2),
                "n_orphans": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )

    return bucket_sum(
        orphans.map_batches(per_host, batch_format="pyarrow"),
        ["host"], ["n_orphans"], 8,
    )


def q_host_lang_mix(sf_dir: str, n_pages: int = 2000, n_buckets: int = 8):
    """Per-host language profile over the crawled pages table
    (column-pruned read of url+lang only): page count, distinct
    languages, majority language (ties break lexicographically) and
    its exact e6-floor share — the routing signal for language-
    specific processing pipelines. ONE host-bucketed shuffle."""
    from ..sources.pages import generate_pages
    from ..stages.join import add_bucket

    pages = generate_pages(n_pages).map_batches(
        lambda t: pa.table(
            {
                "host": pc.list_element(pc.split_pattern(t["url"], "/"), 2),
                "lang": t["lang"],
            }
        ),
        batch_format="pyarrow",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby(["host", "lang"], sort=False).size().reset_index(name="c")
        tot = cnt.groupby("host", sort=False)["c"].transform("sum")
        nl = cnt.groupby("host", sort=False)["lang"].transform("size")
        cnt = cnt.assign(tot=tot, n_langs=nl).sort_values(
            ["host", "c", "lang"], ascending=[True, False, True]
        )
        top = cnt.drop_duplicates("host", keep="first")
        return pd.DataFrame(
            {
                "host": top["host"].to_numpy(),
                "n_pages": top["tot"].to_numpy(np.int64),
                "n_langs": top["n_langs"].to_numpy(np.int64),
                "top_lang": top["lang"].to_numpy(),
                "top_share_e6": (1_000_000 * top["c"].to_numpy(np.int64))
                // top["tot"].to_numpy(np.int64),
            }
        )

    return _BMG(
        add_bucket(pages, ["host"], n_buckets), n_buckets, per_bucket, "pandas"
    )


def q_stale_link_rate(sf_dir: str, n_pages: int = 2000, n_buckets: int = 8):
    """Link-freshness per host: among each host's distinct ONSITE link
    targets (urls inside the crawl), the share pointing at pages
    crawled EARLIER than the linking page — the recrawl-pressure
    signal (stale-heavy hosts reference old content). warc_ts is
    monotone in the page id (sources/pages.py: EPOCH_US + i sec) and
    urls are zero-padded, so 'target older than source' is exactly the
    string comparison dst < src — no timestamp join needed. Per-batch
    partial counts, ONE tiny bucket_sum."""
    from ..stages.join import bucket_sum

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["dst_key"], "https://site-")
        f = t.filter(keep)
        src = f["src_key"].to_numpy(zero_copy_only=False)
        dst = f["dst_key"].to_numpy(zero_copy_only=False)
        host = pc.list_element(pc.split_pattern(f["src_key"], "/"), 2)
        return pa.table(
            {
                "host": host,
                "n_links": pa.array(np.ones(len(src), np.int64)),
                "n_stale": pa.array((dst < src).astype(np.int64)),
            }
        )

    agg = bucket_sum(
        _pages_links(n_pages).map_batches(partial, batch_format="pyarrow"),
        ["host"], ["n_links", "n_stale"], n_buckets,
    )

    def fin(t: pa.Table) -> pa.Table:
        n = t["n_links"].to_numpy().astype(np.int64)
        s = t["n_stale"].to_numpy().astype(np.int64)
        return pa.table(
            {"host": t["host"], "n_links": pa.array(n), "n_stale": pa.array(s),
             "stale_share_e6": pa.array((1_000_000 * s) // n)}
        )

    return agg.map_batches(fin, batch_format="pyarrow")


def q_host_butterflies(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """BUTTERFLY (2x2 biclique) counting on the page->host citation
    bipartite graph: for every cross-host pair cited together, the
    number of citing pages c and the butterfly count C(c, 2) — the
    bipartite clustering signal (link farms co-cite the same host
    pairs from many pages). Per-page distinct cited-host sets are
    bounded by the out-degree cap (<= 15), so the per-page pair
    expansion is O(deg^2) <= ~105 rows; ONE pair-bucketed shuffle
    sums c, and pairs with c >= 2 (the butterfly support) survive."""
    from ..stages.join import add_bucket, bucket_sum, distinct

    def hostp(t: pa.Table) -> pa.Table:
        sh = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        dh = pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)
        f = pa.table({"src": t["src_key"], "h": dh}).filter(pc.not_equal(sh, dh))
        return f

    ph = distinct(
        _pages_links(n_pages).map_batches(hostp, batch_format="pyarrow"),
        ["src", "h"], n_buckets,
    )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, sg in g.groupby("src", sort=False):
            hs = np.sort(sg["h"].to_numpy())
            k = len(hs)
            if k < 2:
                continue
            ia, ib = np.triu_indices(k, 1)
            out_a.extend(hs[ia].tolist())
            out_b.extend(hs[ib].tolist())
        return pd.DataFrame(
            {"a": out_a, "b": out_b,
             "n_pages": np.ones(len(out_a), dtype=np.int64)}
        )

    pr = _BMG(add_bucket(ph, ["src"], n_buckets), n_buckets, pairs, "pandas")
    agg = bucket_sum(pr, ["a", "b"], ["n_pages"], n_buckets)

    def fin(t: pa.Table) -> pa.Table:
        c = t["n_pages"].to_numpy().astype(np.int64)
        keep = c >= 2
        tt = pa.table(
            {"a": t["a"], "b": t["b"], "n_pages": pa.array(c),
             "n_butterflies": pa.array(c * (c - 1) // 2)}
        )
        return tt.filter(pa.array(keep))

    return agg.map_batches(fin, batch_format="pyarrow")


def q_bfs_layers(sf_dir: str, n: int = 2000, n_buckets: int = 8):
    """Crawl-wavefront profile: BFS layer sizes from the root page over
    the DIRECTED page graph — how many new urls each additional hop of
    a link-following crawl reaches (the frontier-growth curve that
    sizes per-depth crawl budgets). Runs the engine's min-combiner SSSP
    (hop counts) from a pinned seed url on the url-keyed graph, then
    ONE tiny histogram bucket_sum over the integer distances;
    unreachable pages are excluded (their count is n minus the layer
    sum). n PINNED to the fixed oracle's 2000."""
    import shutil

    from .graph import lookup_vertex_id, run_algorithm as _ra
    from .ingest import build_graph as _bg
    from ..stages.join import bucket_sum

    seed = "https://site-00000.example/p/0000"
    root = f"/tmp/graft_bfslayers_{n}"
    shutil.rmtree(root, ignore_errors=True)
    man = _bg(
        _pages_links(n),
        f"{root}/graph",
        n_parts=8,
        n_buckets=16,
        dedup=False,
        symmetrize_edges=False,
        source_info={"kind": "pages_directed_bfs", "n": n},
    )
    sid = lookup_vertex_id(man, seed)
    res = _ra(f"{root}/graph", f"{root}/bfs", "sssp", source_id=sid)

    def hist(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        fin = np.isfinite(v)
        d = v[fin].astype(np.int64)
        dd, cc = np.unique(d, return_counts=True)
        return pa.table(
            {"dist": pa.array(dd), "n_pages": pa.array(cc.astype(np.int64))}
        )

    return bucket_sum(
        res.map_batches(hist, batch_format="pyarrow"), ["dist"], ["n_pages"],
        n_buckets,
    )


def q_page_text_stats(sf_dir: str, n_pages: int = 2000):
    """THE byte-identical-extracted-text invariant, oracle-checked:
    the actor-pool extraction pass (decode -> strip comments/script/
    style/tags -> unescape -> collapse whitespace, functions/html.py)
    emits each page's url, FULL extracted text, and length/token
    counts — and the SQL oracle REBUILDS the exact text independently
    from the generator recurrence (title/h1/word-stream/anchor
    template, splitmix64 word indices), so the hash gate compares the
    extraction byte-for-byte per url, not just lengths. Golden files
    (tests/golden/extracted_text/) pin the same surface; this query
    pins it against an independent reconstruction at every sf."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_text

    txt = extract_text(generate_pages(n_pages))

    def stats(t: pa.Table) -> pa.Table:
        s = t["text"].cast(pa.string())
        return pa.table(
            {
                "url": t["url"],
                "text": s,
                "n_chars": pc.utf8_length(s).cast(pa.int64()),
                "n_tokens": pc.list_value_length(
                    pc.split_pattern_regex(s, r"\s+")
                ).cast(pa.int64()),
            }
        )

    return txt.map_batches(stats, batch_format="pyarrow")


def q_page_boilerplate(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16,
                       gram_n: int = 4, min_frac_den: int = 2):
    """Site-TEMPLATE (boilerplate) detection over extracted page text:
    a token 4-gram is boilerplate for a site when it occurs in at
    least half of the site's pages (nav bars, footers, shared chrome);
    each page reports its gram-instance count, boilerplate-instance
    count, and e6-floor boilerplate share — the curation signal for
    template stripping before training. Two (host, gram)-bucketed
    shuffles (count distinct pages per site-gram, then tag instances)
    + one url-bucketed sum; gram rows never leave their site-gram
    bucket, so hot template grams cost their own group only."""
    from ..sources.pages import PAGES_PER_SITE, generate_pages
    from ..stages.extract import extract_text
    from ..stages.join import add_bucket, bucket_sum

    def grams(t: pa.Table) -> pa.Table:
        urls, hosts, gs = [], [], []
        for u, s in zip(
            t["url"].to_pylist(), t["text"].cast(pa.string()).to_pylist()
        ):
            toks = s.split()
            h = u.split("/")[2]
            for i in range(len(toks) - gram_n + 1):
                urls.append(u)
                hosts.append(h)
                gs.append(" ".join(toks[i : i + gram_n]))
        return pa.table(
            {"url": pa.array(urls, pa.string()),
             "host": pa.array(hosts, pa.string()),
             "gram": pa.array(gs, pa.string())}
        )

    g = extract_text(generate_pages(n_pages)).map_batches(
        grams, batch_format="pyarrow", batch_size=256
    ).materialize()  # feeds both the df pass and the tag pass

    thresh = PAGES_PER_SITE // min_frac_den

    def tag(gr: pd.DataFrame) -> pd.DataFrame:
        npages = gr.groupby(["host", "gram"], sort=False)["url"].transform("nunique")
        return pd.DataFrame(
            {
                "url": gr["url"].to_numpy(),
                "n_grams": np.ones(len(gr), dtype=np.int64),
                "n_boiler": (npages.to_numpy() >= thresh).astype(np.int64),
            }
        )

    tagged = _BMG(
        add_bucket(g, ["host", "gram"], n_buckets), n_buckets, tag, "pandas"
    )
    agg = bucket_sum(tagged, ["url"], ["n_grams", "n_boiler"], n_buckets)

    def fin(t: pa.Table) -> pa.Table:
        n = t["n_grams"].to_numpy().astype(np.int64)
        b = t["n_boiler"].to_numpy().astype(np.int64)
        return pa.table(
            {"url": t["url"], "n_grams": pa.array(n), "n_boiler": pa.array(b),
             "boiler_share_e6": pa.array((1_000_000 * b) // n)}
        )

    return agg.map_batches(fin, batch_format="pyarrow")


def q_page_shingle_novelty(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16,
                           gram_n: int = 4):
    """Crawl-order NOVELTY rate per page: the share of a page's token
    4-gram instances whose gram was never seen in any EARLIER-crawled
    page (crawl order = page id = warc_ts order) — the streaming-dedup
    admission signal (low-novelty pages are mostly recycled text).
    ONE gram-bucketed shuffle computes each gram's first-seen page id
    and tags instances in place; ONE url-bucketed sum finishes. Same
    gram universe as q_page_boilerplate."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_text
    from ..stages.join import add_bucket, bucket_sum

    def grams(t: pa.Table) -> pa.Table:
        urls, pids, gs = [], [], []
        for u, s in zip(
            t["url"].to_pylist(), t["text"].cast(pa.string()).to_pylist()
        ):
            toks = s.split()
            parts = u.split("/")
            pid = int(parts[2].split("-")[1].split(".")[0]) * 16 + int(parts[4])
            for i in range(len(toks) - gram_n + 1):
                urls.append(u)
                pids.append(pid)
                gs.append(" ".join(toks[i : i + gram_n]))
        return pa.table(
            {"url": pa.array(urls, pa.string()),
             "pid": pa.array(pids, pa.int64()),
             "gram": pa.array(gs, pa.string())}
        )

    g = extract_text(generate_pages(n_pages)).map_batches(
        grams, batch_format="pyarrow", batch_size=256
    )

    def tag(gr: pd.DataFrame) -> pd.DataFrame:
        first = gr.groupby("gram", sort=False)["pid"].transform("min")
        return pd.DataFrame(
            {
                "url": gr["url"].to_numpy(),
                "n_grams": np.ones(len(gr), dtype=np.int64),
                "n_novel": (gr["pid"].to_numpy() == first.to_numpy()).astype(
                    np.int64
                ),
            }
        )

    tagged = _BMG(add_bucket(g, ["gram"], n_buckets), n_buckets, tag, "pandas")
    agg = bucket_sum(tagged, ["url"], ["n_grams", "n_novel"], n_buckets)

    def fin(t: pa.Table) -> pa.Table:
        n = t["n_grams"].to_numpy().astype(np.int64)
        v = t["n_novel"].to_numpy().astype(np.int64)
        return pa.table(
            {"url": t["url"], "n_grams": pa.array(n), "n_novel": pa.array(v),
             "novelty_e6": pa.array((1_000_000 * v) // n)}
        )

    return agg.map_batches(fin, batch_format="pyarrow")


def q_crawl_recency(sf_dir: str, n_pages: int = 2000, n_buckets: int = 8):
    """Per-host crawl-recency profile from the pages table's warc_ts
    (column-pruned url+warc_ts read): first/last fetch as epoch
    MICROSECONDS (integer-exact across engines — never compare raw
    timestamp types), span in seconds, and page count — the freshness
    ledger a recrawl scheduler sorts by. Per-batch min/max partials,
    ONE tiny bucketed merge."""
    from ..sources.pages import generate_pages
    from ..stages.join import add_bucket

    def partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "host": pc.list_element(pc.split_pattern(t["url"], "/"), 2),
                "ts_us": t["warc_ts"].cast(pa.int64()),
            }
        )

    part = generate_pages(n_pages).map_batches(partial, batch_format="pyarrow")

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("host", as_index=False)["ts_us"].agg(["min", "max", "size"])
        return pd.DataFrame(
            {
                "host": agg["host"].to_numpy(),
                "first_us": agg["min"].to_numpy(np.int64),
                "last_us": agg["max"].to_numpy(np.int64),
                "span_sec": (
                    agg["max"].to_numpy(np.int64) - agg["min"].to_numpy(np.int64)
                ) // 1_000_000,
                "n_pages": agg["size"].to_numpy(np.int64),
            }
        )

    return _BMG(add_bucket(part, ["host"], n_buckets), n_buckets, merge, "pandas")


def q_pagerank_mass_by_depth(sf_dir: str, n: int = 2000, n_buckets: int = 8):
    """How deep does rank live: dangling-aware PageRank mass per BFS
    crawl depth from the root page — the curve that justifies (or
    kills) a crawl-depth cutoff. ONE directed url-keyed graph build
    feeds BOTH engine runs (pagerank_dangling on the aggregator
    channel + hop-count SSSP from the pinned seed), their full vertex
    outputs meet in ONE bucket join, and a tiny bucket_sum folds to
    (dist, n_pages, mass_e8) with per-vertex e8 integer scores summed
    exactly. Unreachable pages are excluded (their mass is the
    complement). n PINNED to the fixed oracle's 2000."""
    import shutil

    from ..stages.join import bucket_join, bucket_sum
    from .graph import lookup_vertex_id, run_algorithm as _ra
    from .ingest import build_graph as _bg

    seed = "https://site-00000.example/p/0000"
    root = f"/tmp/graft_prdepth_{n}"
    shutil.rmtree(root, ignore_errors=True)
    man = _bg(
        _pages_links(n),
        f"{root}/graph",
        n_parts=8,
        n_buckets=16,
        dedup=False,
        symmetrize_edges=False,
        source_info={"kind": "pages_directed_prdepth", "n": n},
    )
    sid = lookup_vertex_id(man, seed)
    pr = _ra(f"{root}/graph", f"{root}/pr", "pagerank_dangling")
    bf = _ra(f"{root}/graph", f"{root}/bfs", "sssp", source_id=sid)

    def conv_pr(t: pa.Table) -> pa.Table:
        return pa.table(
            {"vertex": t["vertex"].cast(pa.string()), "score_e8": _score_e8(t["value"])}
        )

    def conv_bf(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        fin = np.isfinite(v)
        tt = pa.table(
            {"vertex": t["vertex"].cast(pa.string()),
             "dist": pa.array(np.where(fin, v, -1).astype(np.int64))}
        )
        return tt.filter(pa.array(fin))

    j = bucket_join(
        pr.map_batches(conv_pr, batch_format="pyarrow"),
        bf.map_batches(conv_bf, batch_format="pyarrow"),
        left_on="vertex", right_on="vertex", n_buckets=n_buckets,
        left_schema=pa.schema([("vertex", pa.string()), ("score_e8", pa.int64())]),
        right_schema=pa.schema([("vertex", pa.string()), ("dist", pa.int64())]),
    )

    def pre(t: pa.Table) -> pa.Table:
        return pa.table(
            {"dist": t["dist"],
             "n_pages": pa.array(np.ones(t.num_rows, np.int64)),
             "mass_e8": t["score_e8"]}
        )

    return bucket_sum(
        j.map_batches(pre, batch_format="pyarrow"), ["dist"],
        ["n_pages", "mass_e8"], 4,
    )


def q_events_mad(sf_dir: str, n_buckets: int = 8):
    """EXACT robust outlier scale per event type: median and MAD
    (median absolute deviation) of the event value in integer cents.
    The value domain is generator-bounded (< 50k cents), so ONE
    distributed pass builds the per-(type, cent) exact histogram
    (bucket_sum combiner) and the driver selects BOTH statistics from
    the bounded partial — the median directly, the MAD by folding the
    same histogram around the median (|x - med| counts need no second
    data pass). k = (n+1)//2, lower-median convention on both sides.
    At an open domain this is the documented KLL-sketch swap
    (q_quantiles_sketch)."""
    from ..stages.join import bucket_sum

    def hist(t: pa.Table) -> pa.Table:
        c = np.round(t["value"].to_numpy() * 100).astype(np.int64)
        df = pd.DataFrame({"event_type": t["event_type"].to_pandas(), "c": c})
        g = df.groupby(["event_type", "c"], as_index=False).size()
        return pa.table(
            {"event_type": pa.array(g["event_type"].to_numpy(), pa.string()),
             "c": pa.array(g["c"].to_numpy(np.int64)),
             "n": pa.array(g["size"].to_numpy(np.int64))}
        )

    src = _table(sf_dir, "events", ["event_type", "value"])
    hp = bucket_sum(
        src.map_batches(hist, batch_format="pyarrow"), ["event_type", "c"],
        ["n"], n_buckets,
    ).to_pandas()

    rows = []
    for et, g in hp.groupby("event_type"):
        g = g.sort_values("c")
        c = g["c"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        total = int(n.sum())
        k = (total + 1) // 2
        med = int(c[np.searchsorted(np.cumsum(n), k)])
        d = np.abs(c - med)
        order = np.argsort(d, kind="stable")
        dd, nn2 = d[order], n[order]
        # fold equal |x-med| values together before the rank scan
        uu, inv = np.unique(dd, return_inverse=True)
        cnt = np.bincount(inv, weights=nn2).astype(np.int64)
        mad = int(uu[np.searchsorted(np.cumsum(cnt), k)])
        rows.append((et, total, med, mad))
    return pd.DataFrame(
        rows, columns=["event_type", "n_events", "median_e2", "mad_e2"]
    ).astype({"n_events": "int64", "median_e2": "int64", "mad_e2": "int64"})


def q_web_bowtie(sf_dir: str, n: int = 2000, n_buckets: int = 8):
    """Broder-style bow-tie classes of the DIRECTED page graph relative
    to the root page's strongly connected component: cls 0 = CORE
    (mutually reachable with the root — v is in SCC(root) iff root->v
    AND v->root, so NO SCC machinery is needed), 1 = IN (reaches the
    root only), 2 = OUT (reached from the root only), 3 = TENDRILS/
    DISCONNECTED. TWO single-source engine BFS runs (forward graph +
    reversed graph — same url dictionary, edges swapped), classes
    merged by one tagged union + bucket_sum, like q_bowtie but
    url-keyed. n PINNED to the fixed oracle's 2000."""
    import shutil

    from ..stages.join import bucket_sum
    from .graph import lookup_vertex_id, run_algorithm as _ra
    from .ingest import build_graph as _bg

    seed = "https://site-00000.example/p/0000"
    root = f"/tmp/graft_webbowtie_{n}"
    shutil.rmtree(root, ignore_errors=True)
    links = _pages_links(n).materialize()

    def swap(t: pa.Table) -> pa.Table:
        return pa.table({"src_key": t["dst_key"], "dst_key": t["src_key"]})

    runs = {}
    for tag, ds in (("fwd", links), ("rev", links.map_batches(swap, batch_format="pyarrow"))):
        man = _bg(
            ds, f"{root}/g_{tag}", n_parts=8, n_buckets=16, dedup=False,
            symmetrize_edges=False,
            source_info={"kind": f"pages_bowtie_{tag}", "n": n},
        )
        sid = lookup_vertex_id(man, seed)
        runs[tag] = _ra(f"{root}/g_{tag}", f"{root}/bfs_{tag}", "sssp", source_id=sid)

    def tag_fin(col: str):
        def f(t: pa.Table) -> pa.Table:
            fin = np.isfinite(t["value"].to_numpy()).astype(np.int64)
            z = np.zeros(t.num_rows, np.int64)
            return pa.table(
                {
                    "url": t["vertex"].cast(pa.string()),
                    "fin_fwd": pa.array(fin if col == "fin_fwd" else z),
                    "fin_rev": pa.array(fin if col == "fin_rev" else z),
                }
            )

        return f

    tagged = runs["fwd"].map_batches(tag_fin("fin_fwd"), batch_format="pyarrow").union(
        runs["rev"].map_batches(tag_fin("fin_rev"), batch_format="pyarrow")
    )
    merged = bucket_sum(tagged, ["url"], ["fin_fwd", "fin_rev"], n_buckets)

    def classify(t: pa.Table) -> pa.Table:
        f = t["fin_fwd"].to_numpy() > 0
        r = t["fin_rev"].to_numpy() > 0
        cls = np.where(f & r, 0, np.where(r, 1, np.where(f, 2, 3)))
        return pa.table(
            {"url": t["url"], "cls": pa.array(cls.astype(np.int64))}
        )

    return merged.map_batches(classify, batch_format="pyarrow")


def q_site_local_pagerank(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """Per-site LOCAL PageRank: the house PR recurrence (symmetrized
    multigraph, zero init, 30 iterations, teleport 0.15/n_site) run
    INSIDE each site's intra-site graph — the within-site importance
    signal a sitemap ranks by, and the partition-local counterpart of
    the global engine runs: sites are <= 16 pages, so each site's 30
    iterations are one dense float64 matrix loop inside its bucket
    (ONE host-bucketed shuffle, no supersteps). Self-loops count
    twice under symmetrization, exactly like the global convention."""
    from ..stages.join import add_bucket

    ie = _pages_intra_links(n_pages).map_batches(
        lambda t: pa.table(
            {
                "host": pc.list_element(pc.split_pattern(t["src_key"], "/"), 2),
                "src": t["src_key"],
                "dst": t["dst_key"],
            }
        ),
        batch_format="pyarrow",
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_u, out_s = [], []
        for _, sg in g.groupby("host", sort=False):
            urls = np.unique(
                np.concatenate([sg["src"].to_numpy(), sg["dst"].to_numpy()])
            )
            idx = {u: i for i, u in enumerate(urls)}
            nv = len(urls)
            A = np.zeros((nv, nv), dtype=np.float64)
            si = sg["src"].map(idx).to_numpy()
            di = sg["dst"].map(idx).to_numpy()
            np.add.at(A, (si, di), 1.0)
            np.add.at(A, (di, si), 1.0)  # self-loops land twice, by design
            deg = A.sum(axis=1)
            x = np.zeros(nv)
            for _ in range(30):
                x = 0.15 / nv + 0.85 * ((x / deg) @ A)
            out_u.extend(urls.tolist())
            out_s.extend(np.round(x * 1e8).astype(np.int64).tolist())
        return pd.DataFrame(
            {"url": out_u, "score_e8": np.asarray(out_s, np.int64)}
        )

    return _BMG(
        add_bucket(ie, ["host"], n_buckets), n_buckets, per_bucket, "pandas"
    )


def q_degree_ccdf(sf_dir: str, n_pages: int = 2000, max_k: int = 21, n_buckets: int = 8):
    """IN-DEGREE CCDF at powers of two over the directed page graph:
    for each k, how many urls have at least 2^k distinct in-links —
    the heavy-tail (Zipf hub) evidence a web-graph engine is sized
    around, exact and log-bucketed so the output is O(log max-degree)
    rows at any scale. ONE dst-bucketed degree sum, then per-batch
    CCDF partials into a tiny k-bucketed merge."""
    from ..stages.join import bucket_sum

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {"url": t["dst_key"], "d": pa.array(np.ones(t.num_rows, np.int64))}
        )

    deg = bucket_sum(
        _pages_links(n_pages).map_batches(ones, batch_format="pyarrow"),
        ["url"], ["d"], n_buckets,
    )

    def ccdf(t: pa.Table) -> pa.Table:
        d = t["d"].to_numpy().astype(np.int64)
        ks, cs = [], []
        for k in range(max_k + 1):
            c = int((d >= (1 << k)).sum())
            if c:
                ks.append(k)
                cs.append(c)
        return pa.table(
            {"k": pa.array(np.asarray(ks, np.int64)),
             "n_vertices": pa.array(np.asarray(cs, np.int64))}
        )

    agg = bucket_sum(
        deg.map_batches(ccdf, batch_format="pyarrow"), ["k"], ["n_vertices"], 4
    )
    return agg.map_batches(
        lambda t: pa.table(
            {"k": t["k"],
             "threshold": pa.array(
                 (1 << t["k"].to_numpy().astype(np.int64)).astype(np.int64)
             ),
             "n_vertices": t["n_vertices"]}
        ),
        batch_format="pyarrow",
    )


def q_rank_churn(sf_dir: str, n_old: int = 2000, n_new: int = 2200,
                 top: int = 50, n_buckets: int = 8):
    """RANK CHURN between two crawl snapshots: the top-|delta| movers
    of the house symmetrized 30-iteration PageRank when the crawl grows
    from n_old to n_new pages — the re-rank-priority signal a freshness
    pipeline feeds back into crawl scheduling (pages whose authority
    moved most get refetched first). TWO full url-keyed engine runs
    (one per snapshot graph, same kernels as pages_linkgraph_pagerank),
    e8-integer scores joined on the url in ONE bucket join, ranked by
    (|new - old| DESC, url) over the urls present in BOTH snapshots.
    n_old/n_new PINNED to the fixed oracle's 2000/2200 (crawl_delta's
    snapshot pair)."""
    import shutil

    from ..sources.pages import generate_pages
    from ..stages.join import bucket_join
    from .graph import run_algorithm as _ra
    from .pages import build_link_graph

    root = f"/tmp/graft_rankchurn_{n_old}_{n_new}"
    shutil.rmtree(root, ignore_errors=True)
    sides = {}
    for tag, n in (("old", n_old), ("new", n_new)):
        build_link_graph(
            generate_pages(n), f"{root}/g_{tag}", n_parts=8, n_buckets=16
        )
        sides[tag] = _ra(f"{root}/g_{tag}", f"{root}/pr_{tag}", "pagerank")

    def conv(col):
        def f(t: pa.Table) -> pa.Table:
            return pa.table(
                {"url": t["vertex"].cast(pa.string()), col: _score_e8(t["value"])}
            )

        return f

    j = bucket_join(
        sides["old"].map_batches(conv("old_e8"), batch_format="pyarrow"),
        sides["new"].map_batches(conv("new_e8"), batch_format="pyarrow"),
        left_on="url", right_on="url", n_buckets=n_buckets,
        left_schema=pa.schema([("url", pa.string()), ("old_e8", pa.int64())]),
        right_schema=pa.schema([("url", pa.string()), ("new_e8", pa.int64())]),
    )

    def delta(t: pa.Table) -> pa.Table:
        o = t["old_e8"].to_numpy().astype(np.int64)
        nw = t["new_e8"].to_numpy().astype(np.int64)
        return pa.table(
            {"url": t["url"], "old_e8": pa.array(o), "new_e8": pa.array(nw),
             "delta_e8": pa.array(nw - o),
             "abs_delta_e8": pa.array(np.abs(nw - o))}
        )

    return (
        j.map_batches(delta, batch_format="pyarrow")
        .sort(["abs_delta_e8", "url"], descending=[True, False])
        .limit(top)
    )


def q_pagerank_topic(sf_dir: str, n: int = 2000, lang: str = "de", top: int = 50):
    """Topic-sensitive PageRank (Haveliwala 2002) on the url-keyed page
    graph: the teleport mass lands only on pages whose declared
    language is `lang` (the topic surrogate the pages table carries),
    ranking the whole web by proximity to that topic's pages. Seed ids
    come from a DISTRIBUTED filter of the graph's vertices files
    against the deterministic lang column (no url ships except the
    ~1/8 seed sliver); the run itself is the engine's personalized-
    PageRank (wants_ids teleport, both executors). Top-|top| urls by
    e8 score. n PINNED to the fixed oracle's 2000."""
    import shutil

    from ..sources.pages import generate_pages
    from .graph import run_algorithm as _ra
    from .pages import build_link_graph

    root = f"/tmp/graft_prtopic_{n}_{lang}"
    shutil.rmtree(root, ignore_errors=True)
    build_link_graph(generate_pages(n), f"{root}/graph", n_parts=8, n_buckets=16)

    def seed_urls(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t["lang"], lang))
        return pa.table({"url": f["url"]})

    su = set(
        r["url"]
        for r in generate_pages(n)
        .map_batches(seed_urls, batch_format="pyarrow")
        .take_all()  # bounded: ~n/8 urls, the seed sliver only
    )
    verts = rd.read_parquet(f"{root}/graph/vertices")

    def match_ids(t: pa.Table) -> pa.Table:
        keep = np.isin(t["key"].to_numpy(zero_copy_only=False), list(su))
        return pa.table({"id": t["id"].filter(pa.array(keep))})

    sids = sorted(
        r["id"] for r in verts.map_batches(match_ids, batch_format="pyarrow").take_all()
    )
    res = _ra(
        f"{root}/graph", f"{root}/ppr", "ppr", seed_ids=tuple(sids),
        n_vertices=GraphManifest.load(f"{root}/graph").n_vertices,
    )

    def conv(t: pa.Table) -> pa.Table:
        return pa.table(
            {"url": t["vertex"].cast(pa.string()), "score_e8": _score_e8(t["value"])}
        )

    return (
        res.map_batches(conv, batch_format="pyarrow")
        .sort(["score_e8", "url"], descending=[True, False])
        .limit(top)
    )


def q_site_entry_pages(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """ENTRY-PAGE profile per site: which pages receive links from
    OTHER hosts (the doors external surfers arrive through), how many
    external inlinks the site gets in total, and the top entry page by
    external-inlink count (ties by url) — the signal for landing-page
    prioritization in a recrawl. Cross-host edges onto site-* targets
    only; ONE dst-host-bucketed shuffle."""
    from ..stages.join import add_bucket

    def ext(t: pa.Table) -> pa.Table:
        sh = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        dh = pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)
        keep = pc.and_(
            pc.not_equal(sh, dh), pc.starts_with(t["dst_key"], "https://site-")
        )
        f = pa.table({"host": dh, "url": t["dst_key"]}).filter(keep)
        return f

    e = _pages_links(n_pages).map_batches(ext, batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.groupby(["host", "url"], sort=False).size().reset_index(name="c")
        tot = cnt.groupby("host", sort=False)["c"].transform("sum")
        ne = cnt.groupby("host", sort=False)["url"].transform("size")
        cnt = cnt.assign(tot=tot, ne=ne).sort_values(
            ["host", "c", "url"], ascending=[True, False, True]
        )
        top = cnt.drop_duplicates("host", keep="first")
        return pd.DataFrame(
            {
                "host": top["host"].to_numpy(),
                "n_entry": top["ne"].to_numpy(np.int64),
                "ext_inlinks": top["tot"].to_numpy(np.int64),
                "top_url": top["url"].to_numpy(),
                "top_inlinks": top["c"].to_numpy(np.int64),
            }
        )

    return _BMG(add_bucket(e, ["host"], n_buckets), n_buckets, per_bucket, "pandas")


def q_host_pr_concentration(sf_dir: str, n: int = 2000, n_buckets: int = 8):
    """Rank CONCENTRATION per host: how much of a host's total PageRank
    mass its single strongest page holds (e6-floor share) — flat-rank
    hosts are content farms, spiky hosts have a clear canonical page.
    ONE engine PageRank run on the url-keyed page graph (the flagship
    recurrence), then one host-bucketed fold for (page count, total e8
    mass, top page, top share). n PINNED to the fixed oracle's 2000."""
    import shutil

    from ..sources.pages import generate_pages
    from ..stages.join import add_bucket
    from .graph import run_algorithm as _ra
    from .pages import build_link_graph

    root = f"/tmp/graft_prconc_{n}"
    shutil.rmtree(root, ignore_errors=True)
    build_link_graph(generate_pages(n), f"{root}/graph", n_parts=8, n_buckets=16)
    res = _ra(f"{root}/graph", f"{root}/pr", "pagerank")

    def conv(t: pa.Table) -> pa.Table:
        url = t["vertex"].cast(pa.string())
        return pa.table(
            {
                "host": pc.list_element(pc.split_pattern(url, "/"), 2),
                "url": url,
                "e8": _score_e8(t["value"]),
            }
        )

    scored = res.map_batches(conv, batch_format="pyarrow")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby("host", sort=False)["e8"].transform("sum")
        np_ = g.groupby("host", sort=False)["url"].transform("size")
        g = g.assign(tot=tot, np_=np_).sort_values(
            ["host", "e8", "url"], ascending=[True, False, True]
        )
        top = g.drop_duplicates("host", keep="first")
        return pd.DataFrame(
            {
                "host": top["host"].to_numpy(),
                "n_pages": top["np_"].to_numpy(np.int64),
                "mass_e8": top["tot"].to_numpy(np.int64),
                "top_url": top["url"].to_numpy(),
                "top_share_e6": (1_000_000 * top["e8"].to_numpy(np.int64))
                // np.maximum(top["tot"].to_numpy(np.int64), 1),
            }
        )

    return _BMG(
        add_bucket(scored, ["host"], n_buckets), n_buckets, per_bucket, "pandas"
    )


def q_rank_by_lang(sf_dir: str, n: int = 2000, n_buckets: int = 8):
    """Rank-fairness audit: total and mean PageRank mass per declared
    page language — the bias check a multilingual crawl runs before
    language-balanced sampling (does 'en' soak up rank share beyond
    its page share?). ONE engine PR run on the url-keyed page graph,
    ONE bucket join onto the (url, lang) projection of the pages
    table, ONE tiny fold. n PINNED to the fixed oracle's 2000."""
    import shutil

    from ..sources.pages import generate_pages
    from ..stages.join import bucket_join, bucket_sum
    from .graph import run_algorithm as _ra
    from .pages import build_link_graph

    root = f"/tmp/graft_ranklang_{n}"
    shutil.rmtree(root, ignore_errors=True)
    build_link_graph(generate_pages(n), f"{root}/graph", n_parts=8, n_buckets=16)
    res = _ra(f"{root}/graph", f"{root}/pr", "pagerank")

    pr = res.map_batches(
        lambda t: pa.table(
            {"url": t["vertex"].cast(pa.string()), "e8": _score_e8(t["value"])}
        ),
        batch_format="pyarrow",
    )
    pl = generate_pages(n).map_batches(
        lambda t: pa.table({"url": t["url"], "lang": t["lang"]}),
        batch_format="pyarrow",
    )
    j = bucket_join(
        pr, pl, left_on="url", right_on="url", n_buckets=n_buckets,
        left_schema=pa.schema([("url", pa.string()), ("e8", pa.int64())]),
        right_schema=pa.schema([("url", pa.string()), ("lang", pa.string())]),
    )

    def pre(t: pa.Table) -> pa.Table:
        return pa.table(
            {"lang": t["lang"], "n_pages": pa.array(np.ones(t.num_rows, np.int64)),
             "mass_e8": t["e8"]}
        )

    agg = bucket_sum(
        j.map_batches(pre, batch_format="pyarrow"), ["lang"],
        ["n_pages", "mass_e8"], 4,
    )

    def fin(t: pa.Table) -> pa.Table:
        n_ = t["n_pages"].to_numpy().astype(np.int64)
        m = t["mass_e8"].to_numpy().astype(np.int64)
        return pa.table(
            {"lang": t["lang"], "n_pages": pa.array(n_), "mass_e8": pa.array(m),
             "mean_e8": pa.array(m // n_)}
        )

    return agg.map_batches(fin, batch_format="pyarrow")


def q_inout_degree_corr(sf_dir: str, n_pages: int = 2000, n_buckets: int = 8):
    """Exact in/out-degree correlation over the directed page graph's
    vertices: do pages that link a lot also GET linked a lot? Pearson
    needs a square root, so the checked statistic is the exact
    rational SIGNED r-squared, r2_e6 = sign(num) * 1e6 * num^2 //
    (dxx * dyy) with num = n*Sxy - Sx*Sy, dxx = n*Sxx - Sx^2,
    dyy = n*Syy - Sy^2 — all integer moments (per-batch int64
    partials, driver-reduced as Python ints so the HUGEINT-scale
    products never overflow; raw moments are emitted for audit).
    Degrees come from ONE tagged bucket_sum over the distinct edges;
    offsite urls count with out-degree 0, like the web."""
    from ..stages.join import bucket_sum

    def tagged(t: pa.Table) -> pa.Table:
        s = t["src_key"].to_numpy(zero_copy_only=False)
        d = t["dst_key"].to_numpy(zero_copy_only=False)
        one = np.ones(t.num_rows, np.int64)
        zero = np.zeros(t.num_rows, np.int64)
        return pa.table(
            {
                "url": pa.array(np.concatenate([s, d]), pa.string()),
                "outd": pa.array(np.concatenate([one, zero])),
                "ind": pa.array(np.concatenate([zero, one])),
            }
        )

    deg = bucket_sum(
        _pages_links(n_pages).map_batches(tagged, batch_format="pyarrow"),
        ["url"], ["outd", "ind"], n_buckets,
    )

    def moments(t: pa.Table) -> pa.Table:
        x = t["outd"].to_numpy().astype(np.int64)
        y = t["ind"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "n": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxy": pa.array([int((x * y).sum())], pa.int64()),
                "sxx": pa.array([int((x * x).sum())], pa.int64()),
                "syy": pa.array([int((y * y).sum())], pa.int64()),
            }
        )

    parts = deg.map_batches(moments, batch_format="pyarrow").take_all()
    n = sum(int(r["n"]) for r in parts)
    sx = sum(int(r["sx"]) for r in parts)
    sy = sum(int(r["sy"]) for r in parts)
    sxy = sum(int(r["sxy"]) for r in parts)
    sxx = sum(int(r["sxx"]) for r in parts)
    syy = sum(int(r["syy"]) for r in parts)
    num = n * sxy - sx * sy
    dxx = n * sxx - sx * sx
    dyy = n * syy - sy * sy
    sign = 1 if num >= 0 else -1
    r2 = 0 if dxx == 0 or dyy == 0 else sign * (1_000_000 * num * num) // (dxx * dyy)
    return pd.DataFrame(
        {
            "n": [n], "sx": [sx], "sy": [sy], "sxy": [sxy], "sxx": [sxx],
            "syy": [syy], "r2_signed_e6": [int(r2)],
        }
    ).astype("int64")


def q_host_spam_heuristic(sf_dir: str, n_pages: int = 2000, n_buckets: int = 8):
    """Per-host outlink SPAM heuristic (nepotism triage): the host's
    pooled duplicate-href, self-link and offsite-link shares over its
    pre-dedup href instances, plus their equal-weight e6 composite
    score — the cheap first-pass filter ahead of TrustRank/spam-mass
    (which cost engine runs). Same extraction instances as
    q_page_outlink_profile; ONE host-bucketed kernel (a host's
    instances always share a bucket, so the duplicate count
    total - distinct(src,dst) is exact no matter how extraction
    batches split); every share is an integer floor over the host's
    own totals."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_links
    from ..stages.join import add_bucket

    def proj(t: pa.Table) -> pa.Table:
        sh = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        dh = pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)
        return pa.table(
            {"host": sh, "src": t["src_key"], "dst": t["dst_key"],
             "off": pc.not_equal(sh, dh).cast(pa.int64())}
        )

    inst = extract_links(generate_pages(n_pages)).map_batches(
        proj, batch_format="pyarrow"
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("host", sort=False).agg(
            n_hrefs=("dst", "size"),
            n_off=("off", "sum"),
        )
        nd = (
            g.drop_duplicates(["src", "dst"]).groupby("host", sort=False).size()
        )
        ns = (
            g[g["src"] == g["dst"]].groupby("host", sort=False).size()
        )
        agg["n_distinct"] = nd.reindex(agg.index).fillna(0).astype("int64")
        agg["n_self"] = ns.reindex(agg.index).fillna(0).astype("int64")
        n = agg["n_hrefs"].to_numpy(np.int64)
        d = n - agg["n_distinct"].to_numpy(np.int64)
        s = agg["n_self"].to_numpy(np.int64)
        o = agg["n_off"].to_numpy(np.int64)
        dup_e6 = (1_000_000 * d) // n
        self_e6 = (1_000_000 * s) // n
        off_e6 = (1_000_000 * o) // n
        return pd.DataFrame(
            {
                "host": agg.index.to_numpy(),
                "n_hrefs": n,
                "dup_share_e6": dup_e6,
                "self_share_e6": self_e6,
                "offsite_share_e6": off_e6,
                "spam_score_e6": (dup_e6 + self_e6 + off_e6) // 3,
            }
        )

    return _BMG(
        add_bucket(inst, ["host"], n_buckets), n_buckets, per_bucket, "pandas"
    )


def q_lang_link_matrix(sf_dir: str, n_pages: int = 2000, n_buckets: int = 4):
    """Cross-language citation matrix: distinct page links bucketed by
    (source language, target language) — the multilingual-web structure
    signal (does 'de' content cite 'en' far more than the reverse?).
    The language is a pure counter-based function of the page id
    (sources/pages.py: LANGS[mix64(seed+2, i) % 8]), so BOTH endpoint
    langs are computed IN PLACE from the url — no join, no broadcast;
    offsite targets (no lang) are excluded. One tiny bucket_sum over
    <= 25 (src_lang, dst_lang) cells."""
    from ..sources.pages import _LANGS
    from ..stages.join import bucket_sum
    from ..utils import mix64

    def url_ids(arr) -> np.ndarray:
        # https://site-SSSSS.example/p/PPPP -> SSSSS*16 + PPPP
        site = np.char.partition(
            np.char.partition(arr.astype(str), "site-")[:, 2], "."
        )[:, 0].astype(np.int64)
        page = np.char.rpartition(arr.astype(str), "/")[:, 2].astype(np.int64)
        return site * 16 + page

    langs = np.array(_LANGS)

    def cells(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["dst_key"], "https://site-")
        f = t.filter(keep)
        if f.num_rows == 0:
            return pa.table(
                {"src_lang": pa.array([], pa.string()),
                 "dst_lang": pa.array([], pa.string()),
                 "n_links": pa.array([], pa.int64())}
            )
        s = url_ids(f["src_key"].to_numpy(zero_copy_only=False))
        d = url_ids(f["dst_key"].to_numpy(zero_copy_only=False))
        sl = langs[
            (mix64(np.uint64(44), s.astype(np.uint64)) % np.uint64(len(langs))).astype(np.int64)
        ]
        dl = langs[
            (mix64(np.uint64(44), d.astype(np.uint64)) % np.uint64(len(langs))).astype(np.int64)
        ]
        return pa.table(
            {"src_lang": pa.array(sl, pa.string()),
             "dst_lang": pa.array(dl, pa.string()),
             "n_links": pa.array(np.ones(len(s), np.int64))}
        )

    return bucket_sum(
        _pages_links(n_pages).map_batches(cells, batch_format="pyarrow"),
        ["src_lang", "dst_lang"], ["n_links"], n_buckets,
    )


def q_crawl_scheduler(sf_dir: str, n: int = 2000, top: int = 25, n_buckets: int = 8):
    """Multi-signal RECRAWL SCHEDULER: hosts ranked by authority x
    staleness — priority_x = (host PageRank mass_e8 * stale_share_e6)
    // 1e6, the "important AND stale first" policy a bounded recrawl
    budget implements. ONE engine PR run on the url-keyed page graph
    (mass folded per host), the stale-link share from the same distinct
    edge set, ONE bucket join, exact integer scoring, top-|top| hosts.
    n PINNED to the fixed oracle's 2000."""
    import shutil

    from ..sources.pages import generate_pages
    from ..stages.join import bucket_join, bucket_sum
    from .graph import run_algorithm as _ra
    from .pages import build_link_graph

    root = f"/tmp/graft_scheduler_{n}"
    shutil.rmtree(root, ignore_errors=True)
    build_link_graph(generate_pages(n), f"{root}/graph", n_parts=8, n_buckets=16)
    res = _ra(f"{root}/graph", f"{root}/pr", "pagerank")

    def conv(t: pa.Table) -> pa.Table:
        url = t["vertex"].cast(pa.string())
        return pa.table(
            {"host": pc.list_element(pc.split_pattern(url, "/"), 2),
             "mass_e8": _score_e8(t["value"])}
        )

    mass = bucket_sum(
        res.map_batches(conv, batch_format="pyarrow"), ["host"], ["mass_e8"],
        n_buckets,
    )

    def stale_partial(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["dst_key"], "https://site-")
        f = t.filter(keep)
        src = f["src_key"].to_numpy(zero_copy_only=False)
        dst = f["dst_key"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"host": pc.list_element(pc.split_pattern(f["src_key"], "/"), 2),
             "n_links": pa.array(np.ones(len(src), np.int64)),
             "n_stale": pa.array((dst < src).astype(np.int64))}
        )

    stale = bucket_sum(
        _pages_links(n).map_batches(stale_partial, batch_format="pyarrow"),
        ["host"], ["n_links", "n_stale"], n_buckets,
    )

    j = bucket_join(
        mass, stale, left_on="host", right_on="host", n_buckets=n_buckets,
        left_schema=pa.schema([("host", pa.string()), ("mass_e8", pa.int64())]),
        right_schema=pa.schema(
            [("host", pa.string()), ("n_links", pa.int64()), ("n_stale", pa.int64())]
        ),
    )

    def fin(t: pa.Table) -> pa.Table:
        m = t["mass_e8"].to_numpy().astype(np.int64)
        nl = t["n_links"].to_numpy().astype(np.int64)
        ns = t["n_stale"].to_numpy().astype(np.int64)
        share = (1_000_000 * ns) // nl
        return pa.table(
            {"host": t["host"], "mass_e8": pa.array(m),
             "stale_share_e6": pa.array(share),
             "priority_x": pa.array((m * share) // 1_000_000)}
        )

    return (
        j.map_batches(fin, batch_format="pyarrow")
        .sort(["priority_x", "host"], descending=[True, False])
        .limit(top)
    )


def q_rank_gini(sf_dir: str, n: int = 2000, n_buckets: int = 8):
    """Gini coefficient of PageRank mass ACROSS HOSTS — the
    rank-inequality audit (is authority concentrated in a few domains
    or spread?), exact integers end-to-end like q_degree_gini: ONE
    engine PR run folds to per-host e8 masses (host-cardinality
    bounded), and the driver reduces the (mass, count) histogram with
    Python-int arithmetic to the half-up e6 Gini plus the raw moments.
    At open host cardinality the histogram pull swaps for the
    mergeable-sketch family, as documented for q_degree_gini."""
    import shutil

    from ..sources.pages import generate_pages
    from ..stages.join import bucket_sum
    from .graph import run_algorithm as _ra
    from .pages import build_link_graph

    root = f"/tmp/graft_rankgini_{n}"
    shutil.rmtree(root, ignore_errors=True)
    build_link_graph(generate_pages(n), f"{root}/graph", n_parts=8, n_buckets=16)
    res = _ra(f"{root}/graph", f"{root}/pr", "pagerank")

    def conv(t: pa.Table) -> pa.Table:
        url = t["vertex"].cast(pa.string())
        return pa.table(
            {"host": pc.list_element(pc.split_pattern(url, "/"), 2),
             "m": _score_e8(t["value"])}
        )

    hm = (
        bucket_sum(
            res.map_batches(conv, batch_format="pyarrow"), ["host"], ["m"],
            n_buckets,
        )
        .to_pandas()
        .sort_values(["m", "host"])
        .reset_index(drop=True)
    )
    v = [int(x) for x in hm["m"]]
    n_hosts = len(v)
    sm = sum(v)
    s = sum(val * (i + 1) for i, val in enumerate(v))
    num = 2 * s - (n_hosts + 1) * sm
    den = n_hosts * sm
    gini_e6 = 0 if den == 0 else (2 * num * 1_000_000 + den) // (2 * den)
    return pd.DataFrame(
        {"n_hosts": [n_hosts], "sum_mass_e8": [sm], "gini_e6": [int(gini_e6)]}
    ).astype("int64")


def q_host_rank_flow(sf_dir: str, n: int = 2000, n_buckets: int = 8):
    """Cross-host RANK-FLOW accounting: for every host, how much of its
    pages' PageRank mass sits on adjacency entries that leave the host
    — the "authority leakage" audit (a host whose rank mostly flows
    offsite is a conduit; one that keeps it is a sink). ONE engine PR
    run on the url-keyed page graph; per-vertex symmetrized degree and
    cross-host degree reduce in one url-bucket sum over the same
    distinct edge set the graph was built from; ONE bucket join pairs
    mass with degrees; leak_e8 is the exact per-vertex integer floor
    (m*cross)//deg summed per host, so the oracle reproduces it
    bit-for-bit. n PINNED to the fixed oracle's 2000."""
    from ..sources.pages import generate_pages
    from ..stages.join import bucket_join, bucket_sum
    from .pages import build_link_graph

    root = f"/tmp/graft_rankflow_{n}"
    shutil.rmtree(root, ignore_errors=True)
    build_link_graph(generate_pages(n), f"{root}/graph", n_parts=8, n_buckets=16)
    res = run_algorithm(f"{root}/graph", f"{root}/pr", "pagerank")

    def conv(t: pa.Table) -> pa.Table:
        return pa.table(
            {"url": t["vertex"].cast(pa.string()), "m": _score_e8(t["value"])}
        )

    mass = res.map_batches(conv, batch_format="pyarrow")

    def both_dirs(t: pa.Table) -> pa.Table:
        sh = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        dh = pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)
        x = pc.not_equal(sh, dh).cast(pa.int64())
        one = pa.array(np.ones(t.num_rows, np.int64))
        fwd = pa.table({"url": t["src_key"], "d": one, "x": x})
        rev = pa.table({"url": t["dst_key"], "d": one, "x": x})
        return pa.concat_tables([fwd, rev])

    deg = bucket_sum(
        _pages_links(n).map_batches(both_dirs, batch_format="pyarrow"),
        ["url"], ["d", "x"], n_buckets,
    )

    j = bucket_join(
        mass, deg, left_on="url", right_on="url", n_buckets=n_buckets,
        left_schema=pa.schema([("url", pa.string()), ("m", pa.int64())]),
        right_schema=pa.schema(
            [("url", pa.string()), ("d", pa.int64()), ("x", pa.int64())]
        ),
    )

    def per_vertex(t: pa.Table) -> pa.Table:
        m = t["m"].to_numpy().astype(np.int64)
        d = t["d"].to_numpy().astype(np.int64)
        x = t["x"].to_numpy().astype(np.int64)
        return pa.table(
            {"host": pc.list_element(pc.split_pattern(t["url"], "/"), 2),
             "m": pa.array(m), "leak": pa.array((m * x) // d)}
        )

    hostagg = bucket_sum(
        j.map_batches(per_vertex, batch_format="pyarrow"),
        ["host"], ["m", "leak"], n_buckets,
    )

    def fin(t: pa.Table) -> pa.Table:
        m = t["m"].to_numpy().astype(np.int64)
        lk = t["leak"].to_numpy().astype(np.int64)
        return pa.table(
            {"host": t["host"], "mass_e8": pa.array(m),
             "leak_e8": pa.array(lk),
             "leak_share_e6": pa.array((1_000_000 * lk) // m)}
        )

    return hostagg.map_batches(fin, batch_format="pyarrow")


def q_host_outlink_diversity(sf_dir: str, n: int = 2000, n_buckets: int = 8):
    """Outlink-diversity audit per host: the inverse-Simpson
    "effective number of link partners" over the host's distinct
    page-level edges grouped by target host — 1.0 means all links hit
    one host, n_partners means perfectly spread. Exact integers:
    inv_simpson_e6 = (1e6 * n^2) // sum(c_h^2), no logs, no floats.
    ONE (src_host, dst_host)-cell bucket_sum (cells are tiny), ONE
    host-bucket kernel. n PINNED to the fixed oracle's 2000."""
    from ..stages.join import add_bucket, bucket_sum

    def cells(t: pa.Table) -> pa.Table:
        return pa.table(
            {"host": pc.list_element(pc.split_pattern(t["src_key"], "/"), 2),
             "dh": pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2),
             "c": pa.array(np.ones(t.num_rows, np.int64))}
        )

    hc = bucket_sum(
        _pages_links(n).map_batches(cells, batch_format="pyarrow"),
        ["host", "dh"], ["c"], n_buckets,
    )

    def per_host(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("host", sort=False)["c"]
        nl = agg.sum().astype("int64")
        s2 = g.assign(c2=g["c"] * g["c"]).groupby("host", sort=False)["c2"].sum()
        npart = agg.size().astype("int64")
        nl_v = nl.to_numpy(np.int64)
        s2_v = s2.reindex(nl.index).to_numpy(np.int64)
        return pd.DataFrame(
            {"host": nl.index.to_numpy(), "n_partners": npart.to_numpy(np.int64),
             "n_links": nl_v,
             "inv_simpson_e6": (1_000_000 * nl_v * nl_v) // s2_v}
        )

    return _BMG(add_bucket(hc, ["host"], n_buckets), n_buckets, per_host, "pandas")


def q_link_crawl_lag(sf_dir: str, n: int = 2000, n_buckets: int = 8):
    """Crawl-order LAG profile per host: over its distinct onsite
    outlinks, how far ahead (+) or behind (-) in crawl order the
    targets sit — warc_ts is crawl-ordered (EPOCH + id seconds,
    sources/pages.py:43), so the lag in seconds is the page-id delta,
    computed IN PLACE from the urls like q_lang_link_matrix (no join,
    no broadcast). Pure integer sums — no mean division, so no
    negative-floor convention to pin. n PINNED to the oracle's 2000."""
    from ..stages.join import add_bucket

    def lags(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["dst_key"], "https://site-")
        f = t.filter(keep)
        if f.num_rows == 0:
            return pa.table(
                {"host": pa.array([], pa.string()),
                 "n_links": pa.array([], pa.int64()),
                 "sum_lag_sec": pa.array([], pa.int64()),
                 "n_fwd": pa.array([], pa.int64()),
                 "max_lag_sec": pa.array([], pa.int64()),
                 "min_lag_sec": pa.array([], pa.int64())}
            )

        def ids(arr) -> np.ndarray:
            a = arr.to_numpy(zero_copy_only=False).astype(str)
            site = np.char.partition(
                np.char.partition(a, "site-")[:, 2], "."
            )[:, 0].astype(np.int64)
            page = np.char.rpartition(a, "/")[:, 2].astype(np.int64)
            return site * 16 + page

        lag = ids(f["dst_key"]) - ids(f["src_key"])
        host = pc.list_element(pc.split_pattern(f["src_key"], "/"), 2)
        return pa.table(
            {"host": host,
             "n_links": pa.array(np.ones(len(lag), np.int64)),
             "sum_lag_sec": pa.array(lag),
             "n_fwd": pa.array((lag > 0).astype(np.int64)),
             "max_lag_sec": pa.array(lag),
             "min_lag_sec": pa.array(lag)}
        )

    def per_host(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("host", as_index=False, sort=False).agg(
            n_links=("n_links", "sum"),
            sum_lag_sec=("sum_lag_sec", "sum"),
            n_fwd=("n_fwd", "sum"),
            max_lag_sec=("max_lag_sec", "max"),
            min_lag_sec=("min_lag_sec", "min"),
        )
        return out

    part = _pages_links(n).map_batches(lags, batch_format="pyarrow")
    return _BMG(add_bucket(part, ["host"], n_buckets), n_buckets, per_host, "pandas")


def q_term_heavy_hitters(sf_dir: str, k: int = 40):
    """EXACT heavy hitters without a vocabulary shuffle: every term
    holding more than 1/k of the corpus token stream, with exact
    counts — the Misra-Gries two-pass (bounded summaries -> <= k
    candidates -> broadcast recount, stages/heavyhitters.py). The
    output is provably {t : f(t) > n//k} regardless of batch/block/
    merge order, so it hash-matches a plain GROUP BY ... HAVING
    oracle; the full-shuffle variant is q_top_terms."""
    from ..stages.heavyhitters import heavy_hitters

    def extract(t: pa.Table) -> np.ndarray:
        s = (
            pd.Series(t["text"].to_numpy(zero_copy_only=False))
            .astype(str)
            .str.split()
            .explode()
            .dropna()
        )
        return s.to_numpy()

    return heavy_hitters(_table(sf_dir, "documents", ["text"]), extract, k=k)


def q_cheirank(sf_dir: str):
    """CheiRank: PageRank on the TRANSPOSED directed graph — the
    communicativity twin of pagerank_directed (authorities vs
    spreaders; Chepelianskii 2010, Zhirov et al. 2010). Same engine,
    same recurrence, edges reversed at derivation time (zero extra
    machinery: the transpose is just a column swap before ingest)."""
    res = _run_cached(sf_dir, "lineitem_directed_rev", "pagerank")
    return _as_int_vertex(res, "score_e8", _score_e8)


def q_anchor_bm25(sf_dir: str, n: int = 2000, terms: tuple = ("3", "7", "12"), n_buckets: int = 16):
    """Inlink-ANCHOR retrieval: BM25-score every link target against a
    fixed query-term set over the text other pages use to link to it —
    the classic web-search signal (anchor text describes the target
    better than the target does; Brin & Page 1998). Anchor token
    streams aggregate per target in ONE dst-bucket shuffle (instances
    kept — duplicate links carry anchor weight, like q_anchor_stats);
    corpus stats (N, total_dl, df_t) reduce from bounded per-block
    partials; scoring is the same all-integer exact BM25 rational as
    q_doc_bm25 (k1=1.2, b=0.75, half-up e6). Rows keep targets whose
    anchors contain any query term. n PINNED to the fixed oracle's
    2000."""
    from ..functions.html import decode_html, extract_links_with_anchors
    from ..sources.pages import generate_pages
    from ..stages.join import add_bucket

    terms = list(terms)

    def inst(t: pa.Table) -> pa.Table:
        dsts, anchors = [], []
        for u, h in zip(t["url"].to_pylist(), t["html"].to_pylist()):
            for href, anch in extract_links_with_anchors(decode_html(h), u):
                dsts.append(href)
                anchors.append(anch)
        return pa.table(
            {"dst": pa.array(dsts, pa.string()),
             "anchor": pa.array(anchors, pa.string())}
        )

    def per_target(df: pd.DataFrame) -> pd.DataFrame:
        tok = df["anchor"].astype(str).str.split()
        lens = tok.str.len().to_numpy(np.int64)
        g = pd.DataFrame(
            {"dst": df["dst"].to_numpy().repeat(lens),
             "tok": np.concatenate(tok.to_numpy()) if lens.sum() else np.array([], object)}
        )
        agg = g.groupby("dst", sort=False)
        out = pd.DataFrame({"dst": agg.size().index, "dl": agg.size().to_numpy(np.int64)})
        for i, t in enumerate(terms):
            tf = g[g["tok"] == t].groupby("dst", sort=False).size()
            out[f"tf{i}"] = tf.reindex(out["dst"]).fillna(0).to_numpy(np.int64)
        return out

    doc = _BMG(
        add_bucket(
            generate_pages(n).map_batches(inst, batch_format="pyarrow"),
            ["dst"], n_buckets,
        ),
        n_buckets, per_target, "pandas",
    ).materialize()

    def stat_partial(df: pd.DataFrame) -> pd.DataFrame:
        row = {"n": [len(df)], "tot": [int(df["dl"].sum())]}
        for i in range(len(terms)):
            row[f"df{i}"] = [int((df[f"tf{i}"] > 0).sum())]
        return pd.DataFrame(row)

    stats = doc.map_batches(stat_partial, batch_format="pandas").to_pandas().sum()
    nn, tot = int(stats["n"]), int(stats["tot"])
    a = tot // nn
    idf6 = []
    for i in range(len(terms)):
        df_t = int(stats[f"df{i}"])
        idf6.append(((nn - df_t + 1) * 2_000_000 + (df_t + 1)) // (2 * (df_t + 1)))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        dl = df["dl"].to_numpy(np.int64)
        total = np.zeros(len(df), np.int64)
        anytf = np.zeros(len(df), bool)
        for i in range(len(terms)):
            tf = df[f"tf{i}"].to_numpy(np.int64)
            hit = tf > 0
            anytf |= hit
            num = idf6[i] * 22 * tf[hit] * a
            den = 10 * tf[hit] * a + 3 * a + 9 * dl[hit]
            total[hit] += (2 * num + den) // (2 * den)
        return pd.DataFrame(
            {"url": df["dst"].to_numpy()[anytf], "bm25_e6": total[anytf]}
        ).astype({"bm25_e6": "int64"})

    return doc.map_batches(score, batch_format="pandas")


def q_graph_patch_pr(sf_dir: str, n: int = 2000, n_base: int = 1600):
    """INCREMENTAL INGEST end-to-end proof: build the url page graph
    from the first 1600 crawl pages, patch_graph the remaining 400 in
    (only touched CSR partitions rebuild; untouched shards hardlink;
    existing vertex ids keep their ranks, new urls append), then run
    the full 30-iteration PageRank on the PATCHED build — the top-25
    must hash-match the SAME fixed oracle as the from-scratch flagship
    (pages_linkgraph_pagerank), i.e. incremental == full rebuild,
    through the engine, bit-for-bit at e8. n PINNED to the oracle's
    2000."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_links
    from .pages import build_link_graph
    from .patch import patch_graph

    root = f"/tmp/graft_patch_{n}_{n_base}"
    shutil.rmtree(root, ignore_errors=True)
    pages = generate_pages(n)

    def in_base(t: pa.Table) -> pa.Table:
        site = pc.list_element(pc.split_pattern(t["url"], "site-"), 1)
        sid = pc.cast(pc.list_element(pc.split_pattern(site, "."), 0), pa.int64())
        pid = pc.cast(
            pc.list_element(pc.split_pattern(t["url"], "/"), 4), pa.int64()
        )
        i = pc.add(pc.multiply(sid, 16), pid)
        return t.filter(pc.less(i, n_base))

    def in_inc(t: pa.Table) -> pa.Table:
        site = pc.list_element(pc.split_pattern(t["url"], "site-"), 1)
        sid = pc.cast(pc.list_element(pc.split_pattern(site, "."), 0), pa.int64())
        pid = pc.cast(
            pc.list_element(pc.split_pattern(t["url"], "/"), 4), pa.int64()
        )
        i = pc.add(pc.multiply(sid, 16), pid)
        return t.filter(pc.greater_equal(i, n_base))

    build_link_graph(
        pages.map_batches(in_base, batch_format="pyarrow"),
        f"{root}/g_base", n_parts=8, n_buckets=16,
    )
    # increment links dedup within the batch only — exactly the global
    # distinct here, since link instances are keyed by their source
    # page and the increment's source pages are disjoint from the base
    patch_graph(
        f"{root}/g_base",
        extract_links(pages.map_batches(in_inc, batch_format="pyarrow")),
        f"{root}/g_patch",
        dedup=True,
        n_buckets=16,
    )
    res = run_algorithm(f"{root}/g_patch", f"{root}/pr", "pagerank")

    def conv(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vertex": t["vertex"],
                "score_e8": _score_e8(t["value"]),
            }
        )

    return (
        res.map_batches(conv, batch_format="pyarrow")
        .sort(["score_e8", "vertex"], descending=[True, False])
        .limit(25)
    )


def q_graph_delete_degrees(sf_dir: str, n: int = 2000, n_keep: int = 1600):
    """EDGE DELETION end-to-end proof (the inverse of graph_patch_pr):
    build the full 2000-page url graph, delete_edges every link whose
    source page left the crawl (pages >= 1600 — a site-removal event),
    and read per-vertex degrees off the patched shards. The vertex
    universe stays (ids are stable identifiers; orphaned urls report
    degree 0), so the oracle is the FULL graph's endpoint set with
    degrees counted only over surviving directed edges — exact. Only
    partitions holding a deleted slot rebuild; the rest hardlink. n
    PINNED to the fixed oracle's 2000."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_links
    from .pages import build_link_graph
    from .patch import delete_edges

    root = f"/tmp/graft_del_{n}_{n_keep}"
    shutil.rmtree(root, ignore_errors=True)
    pages = generate_pages(n)
    build_link_graph(pages, f"{root}/g_full", n_parts=8, n_buckets=16)

    def gone_src(t: pa.Table) -> pa.Table:
        site = pc.list_element(pc.split_pattern(t["src_key"], "site-"), 1)
        sid = pc.cast(pc.list_element(pc.split_pattern(site, "."), 0), pa.int64())
        pid = pc.cast(
            pc.list_element(pc.split_pattern(t["src_key"], "/"), 4), pa.int64()
        )
        i = pc.add(pc.multiply(sid, 16), pid)
        return t.filter(pc.greater_equal(i, n_keep))

    delete_edges(
        f"{root}/g_full",
        _pages_links(n).map_batches(gone_src, batch_format="pyarrow"),
        f"{root}/g_del",
        n_buckets=16,
    )

    man = GraphManifest.load(f"{root}/g_del")

    def shard_degrees(t: pa.Table) -> pa.Table:
        outs_v, outs_d = [], []
        for p in t["id"].to_numpy():
            shard = load_shard(man, int(p))
            keys = load_vertex_keys(man, int(p))
            outs_v.append(keys)
            outs_d.append(shard.degrees().astype(np.int64))
        return pa.table(
            {"vertex": pa.array(np.concatenate(outs_v), pa.string()),
             "degree": pa.array(np.concatenate(outs_d))}
        )

    return rd.range(man.n_parts).map_batches(shard_degrees, batch_format="pyarrow")


def q_domain_hits(sf_dir: str, n: int = 2000, num_iters: int = 4):
    """WEIGHTED HITS on the contracted domain graph: which hosts are
    hub domains (link out to authoritative hosts) vs authority domains
    (linked from good hubs), with parallel page links carrying integer
    citation weight — Kleinberg 1999 over the host web. The doubled
    bipartite trick from q_hits, but the doubling happens on STRING
    keys ('h:'/'a:' prefixes) and the scatter multiplies by edge weight
    (algorithms.WeightedSumPropagation). Iterates stay exact integers
    (asserted < 2^53), one final half-up e8 normalization per family.
    n PINNED to the fixed oracle's 2000."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_links
    from ..stages.join import bucket_sum
    from .ingest import build_graph as _bg
    from .pages import contract_link_graph

    root = f"/tmp/graft_domhits_{n}"
    shutil.rmtree(root, ignore_errors=True)
    dom = contract_link_graph(extract_links(generate_pages(n)), 32)

    def double(df: pd.DataFrame) -> pd.DataFrame:
        h = "h:" + df["src_key"].astype(str)
        a = "a:" + df["dst_key"].astype(str)
        w = df["weight"].astype("float64")
        return pd.DataFrame(
            {
                "src_key": pd.concat([h, a], ignore_index=True),
                "dst_key": pd.concat([a, h], ignore_index=True),
                "weight": pd.concat([w, w], ignore_index=True),
            }
        )

    _bg(
        dom.map_batches(double, batch_format="pandas"),
        f"{root}/graph",
        n_parts=8,
        n_buckets=16,
        dedup=False,
        symmetrize_edges=False,
        source_info={"kind": "domain_hits", "n": n},
    )
    res = run_algorithm(
        f"{root}/graph", f"{root}/run", "sumprop_weighted", num_iters=num_iters
    )

    def pivot(t: pa.Table) -> pa.Table:
        key = t["vertex"].to_numpy(zero_copy_only=False).astype(str)
        val = t["value"].to_numpy()
        is_hub = np.char.startswith(key, "h:")
        host = pd.Series(key).str[2:].to_numpy()
        return pa.table(
            {
                "host": pa.array(host, pa.string()),
                "hub": pa.array(np.where(is_hub, val, 0.0)),
                "auth": pa.array(np.where(is_hub, 0.0, val)),
            }
        )

    piv = bucket_sum(
        res.map_batches(pivot, batch_format="pyarrow"), ["host"], ["hub", "auth"],
        n_buckets=16,
    ).materialize()
    totals = piv.sum(["hub", "auth"])
    hub_tot, auth_tot = int(totals["sum(hub)"]), int(totals["sum(auth)"])
    assert max(hub_tot, auth_tot) < 2**53, "weighted HITS iterate overflow"

    def scale(t: pa.Table) -> pa.Table:
        hub = t["hub"].to_numpy()
        auth = t["auth"].to_numpy()
        s = 100_000_000
        hub_e8 = [(2 * int(h) * s + hub_tot) // (2 * hub_tot) for h in hub]
        auth_e8 = [(2 * int(a) * s + auth_tot) // (2 * auth_tot) for a in auth]
        return pa.table(
            {
                "host": t["host"],
                "hub_e8": pa.array(hub_e8, pa.int64()),
                "auth_e8": pa.array(auth_e8, pa.int64()),
            }
        )

    return piv.map_batches(scale, batch_format="pyarrow")


def q_graph_patch_chain(sf_dir: str, n: int = 2000, waves: tuple = (1000, 1500, 2000)):
    """CHAINED incremental ingest: three crawl waves (pages [0,1000),
    [1000,1500), [1500,2000)) land as build -> patch -> patch, each
    patch hardlink-sharing untouched shards with its predecessor — the
    daily-increment lineage chain a rolling crawl maintains. PageRank
    on the final build must STILL hash-match the from-scratch flagship
    oracle (patch composition == full rebuild). n PINNED to the
    oracle's 2000."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_links
    from .pages import build_link_graph
    from .patch import patch_graph

    root = f"/tmp/graft_patchchain_{n}"
    shutil.rmtree(root, ignore_errors=True)
    pages = generate_pages(n)

    def band(lo: int, hi: int):
        def fn(t: pa.Table) -> pa.Table:
            site = pc.list_element(pc.split_pattern(t["url"], "site-"), 1)
            sid = pc.cast(pc.list_element(pc.split_pattern(site, "."), 0), pa.int64())
            pid = pc.cast(
                pc.list_element(pc.split_pattern(t["url"], "/"), 4), pa.int64()
            )
            i = pc.add(pc.multiply(sid, 16), pid)
            return t.filter(
                pc.and_(pc.greater_equal(i, lo), pc.less(i, hi))
            )

        return fn

    build_link_graph(
        pages.map_batches(band(0, waves[0]), batch_format="pyarrow"),
        f"{root}/g0", n_parts=8, n_buckets=16,
    )
    prev = f"{root}/g0"
    for w, hi in enumerate(waves[1:], 1):
        lo = waves[w - 1]
        patch_graph(
            prev,
            extract_links(pages.map_batches(band(lo, hi), batch_format="pyarrow")),
            f"{root}/g{w}",
            dedup=True,
            n_buckets=16,
        )
        prev = f"{root}/g{w}"

    res = run_algorithm(prev, f"{root}/pr", "pagerank")

    def conv(t: pa.Table) -> pa.Table:
        return pa.table(
            {"vertex": t["vertex"], "score_e8": _score_e8(t["value"])}
        )

    return (
        res.map_batches(conv, batch_format="pyarrow")
        .sort(["score_e8", "vertex"], descending=[True, False])
        .limit(25)
    )


def q_events_autocorr(sf_dir: str, n_buckets: int = 4):
    """Lag-1 AUTOCORRELATION of the value series per event type (the
    burst/momentum diagnostic), Box-Jenkins single-denominator form:
    rho1 = (m*Sxy - Sx*Sy) / (m*Sxx - Sx^2) over consecutive (ts,
    event_id)-ordered pairs. Event types are low-cardinality, so ONE
    type-bucket kernel sorts each type's rows once and emits int64
    moment rows (y in cents; Sxy <= ~1e16 at test sfs); the final
    blowup runs in driver Python ints with the truncate-toward-zero
    convention q_events_regression pinned against DuckDB's `//`."""
    from ..stages.join import add_bucket

    def per_type(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, df in g.groupby("event_type", sort=False):
            df = df.sort_values(["ts", "event_id"], kind="stable")
            y = np.round(df["value"].to_numpy() * 100).astype(np.int64)
            if len(y) < 2:
                rows.append((et, 0, 0, 0, 0, 0))
                continue
            a, b = y[:-1], y[1:]
            rows.append(
                (et, len(a), int(a.sum()), int(b.sum()),
                 int((a * b).sum()), int((a * a).sum()))
            )
        return pd.DataFrame(
            rows, columns=["event_type", "m", "sx", "sy", "sxy", "sxx"]
        )

    src = _table(sf_dir, "events", ["event_type", "ts", "event_id", "value"])
    s = (
        _BMG(add_bucket(src, ["event_type"], n_buckets), n_buckets, per_type, "pandas")
        .to_pandas()
    )
    out_rho = []
    for _, r in s.iterrows():
        m, sx, sy, sxy, sxx = (int(r[c]) for c in ("m", "sx", "sy", "sxy", "sxx"))
        num = m * sxy - sx * sy
        den = m * sxx - sx * sx
        if den == 0:
            out_rho.append(0)
            continue
        q = abs(num) * 1_000_000 // den
        out_rho.append(-q if num < 0 else q)
    return pd.DataFrame(
        {
            "event_type": s["event_type"],
            "n_pairs": s["m"].astype("int64"),
            "autocorr_e6": pd.Series(out_rho, dtype="int64"),
        }
    )


def q_index_shard_plan(sf_dir: str, n: int = 2000, n_shards: int = 8, n_buckets: int = 8):
    """Search-INDEX SHARD PLANNER: assign hosts to 8 index shards by
    LPT greedy bin packing (longest-processing-time: hosts in
    (inlink-weight DESC, host) order, each to the currently least-
    loaded shard, ties to the lowest shard id) — the 4/3-approximation
    (Graham 1969) every sharded index/crawler uses to balance posting
    costs. Weight = distinct inlinks to the host (posting-list cost
    proxy); weights reduce in ONE host-bucket sum; the sequential
    greedy itself runs on the driver over the host-cardinality-bounded
    list (at open cardinality you'd shard the plan hierarchically).
    The oracle replays the same greedy as a 900+-step recursive CTE
    carrying the shard-load LIST as state. n PINNED to the oracle's
    2000."""
    from ..stages.join import bucket_sum

    def dst_host(t: pa.Table) -> pa.Table:
        return pa.table(
            {"host": pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2),
             "w": pa.array(np.ones(t.num_rows, np.int64))}
        )

    hw = (
        bucket_sum(
            _pages_links(n).map_batches(dst_host, batch_format="pyarrow"),
            ["host"], ["w"], n_buckets,
        )
        .to_pandas()
        .sort_values(["w", "host"], ascending=[False, True], kind="stable")
    )
    loads = [0] * n_shards
    hosts, shards = [], []
    for host, w in zip(hw["host"], hw["w"]):
        k = min(range(n_shards), key=lambda j: loads[j])
        loads[k] += int(w)
        hosts.append(host)
        shards.append(k)
    return pd.DataFrame({"host": hosts, "shard": pd.Series(shards, dtype="int64")})


def q_rendezvous_shards(sf_dir: str, n: int = 2000, n_shards: int = 8):
    """STATELESS host->shard assignment via rendezvous (HRW) hashing
    (Thaler & Ravishankar 1998): shard = argmax over s of
    mix64(seed, hid*8+s) — the zero-coordination counterpart to
    q_index_shard_plan's LPT (any node computes any host's shard in
    place; adding a shard moves only ~1/S of keys). Same host
    universe (distinct link targets); hid decoded from the hostname,
    scores vectorized, first-max tie-break = lowest shard id on both
    sides. n PINNED to the oracle's 2000."""
    from ..stages.join import distinct
    from ..utils import mix64

    def dst_host(t: pa.Table) -> pa.Table:
        return pa.table(
            {"host": pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)}
        )

    hosts = distinct(
        _pages_links(n).map_batches(dst_host, batch_format="pyarrow"), ["host"]
    )

    def assign(t: pa.Table) -> pa.Table:
        h = t["host"].to_numpy(zero_copy_only=False).astype(str)
        is_site = np.char.startswith(h, "site-")
        num = np.where(
            is_site,
            np.char.partition(np.char.partition(h, "-")[:, 2], ".")[:, 0],
            np.char.partition(np.char.partition(h, "-")[:, 2], ".")[:, 0],
        ).astype(np.int64)
        hid = np.where(is_site, num, 100_000 + num).astype(np.uint64)
        scores = np.stack(
            [
                mix64(np.uint64(77), hid * np.uint64(8) + np.uint64(s))
                for s in range(n_shards)
            ],
            axis=1,
        )
        return pa.table(
            {"host": t["host"],
             "shard": pa.array(np.argmax(scores, axis=1).astype(np.int64))}
        )

    return hosts.map_batches(assign, batch_format="pyarrow")


def q_molloy_reed(sf_dir: str, n: int = 2000):
    """Molloy-Reed giant-component criterion on the symmetrized page
    graph: kappa = <k^2>/<k> (giant component exists iff kappa > 2 for
    a random graph with this degree sequence; Molloy & Reed 1995) —
    the one-number robustness summary a crawl monitors as the web
    fragment it sees grows. Exact integer moments from per-batch
    partials (degree sums reduce in one url-bucket sum first); one
    bounded driver reduce; kappa half-up e6. n PINNED to the oracle's
    2000."""
    from ..stages.join import bucket_sum

    def both(t: pa.Table) -> pa.Table:
        return pa.table(
            {"url": pa.chunked_array(
                [t["src_key"].combine_chunks(), t["dst_key"].combine_chunks()]
             ),
             "d": pa.array(np.ones(2 * t.num_rows, np.int64))}
        )

    deg = bucket_sum(
        _pages_links(n).map_batches(both, batch_format="pyarrow"),
        ["url"], ["d"], 8,
    )

    def moments(t: pa.Table) -> pa.Table:
        d = t["d"].to_numpy().astype(np.int64)
        return pa.table(
            {"nv": pa.array([len(d)]), "sd": pa.array([int(d.sum())]),
             "sd2": pa.array([int((d * d).sum())])}
        )

    s = deg.map_batches(moments, batch_format="pyarrow").to_pandas().sum()
    nv, sd, sd2 = int(s["nv"]), int(s["sd"]), int(s["sd2"])
    kappa_e6 = (2 * sd2 * 1_000_000 + sd) // (2 * sd)
    return pd.DataFrame(
        {"n_vertices": [nv], "sum_deg": [sd], "sum_deg2": [sd2],
         "kappa_e6": [kappa_e6]}
    ).astype("int64")


def q_eigen_centrality(sf_dir: str, num_iters: int = 4):
    """Eigenvector centrality via unnormalized power iteration on the
    symmetrized lineitem multigraph: x_t = A x_{t-1} from all-ones for
    4 supersteps (identity-sum propagation — the same exact-integer
    trick as q_hits, iterates asserted < 2^53), then ONE half-up e8
    normalization by the total. Bonacich 1987's measure in the
    engine's sum-combiner shape."""
    res = _run_cached(sf_dir, "lineitem", "sumprop", num_iters=num_iters)
    piv = res.materialize()
    tot = int(piv.sum("value"))
    assert tot < 2**53, "power-iteration overflow; reduce num_iters"

    def scale(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy()
        s = 100_000_000
        e8 = [(2 * int(x) * s + tot) // (2 * tot) for x in v]
        return pa.table(
            {"vertex": t["vertex"].cast(pa.int64()),
             "eig_e8": pa.array(e8, pa.int64())}
        )

    return piv.map_batches(scale, batch_format="pyarrow")


def q_corpus_mix_weights(sf_dir: str, n_buckets: int = 4):
    """TEMPERATURE-SAMPLED data-mixing weights per language (the
    multilingual-LM recipe: sample language i proportional to
    count^alpha with alpha=1/2 to up-weight low-resource langs —
    Conneau & Lample 2019). Exact integers: weight = isqrt(count)
    (floor square root — Python math.isqrt vs DuckDB floor(sqrt()),
    exact for counts << 2^52), share_e6 floored against the weight
    total. One lang bucket_sum, bounded driver reduce."""
    import math

    from ..stages.join import bucket_sum

    def partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {"lang": t["lang"], "n": pa.array(np.ones(t.num_rows, np.int64))}
        )

    c = bucket_sum(
        _table(sf_dir, "documents", ["lang"]).map_batches(
            partial, batch_format="pyarrow"
        ),
        ["lang"], ["n"], n_buckets,
    ).to_pandas()
    c["w_isqrt"] = [math.isqrt(int(x)) for x in c["n"]]
    tw = int(c["w_isqrt"].sum())
    return pd.DataFrame(
        {
            "lang": c["lang"],
            "n_docs": c["n"].astype("int64"),
            "w_isqrt": c["w_isqrt"].astype("int64"),
            "share_e6": ((1_000_000 * c["w_isqrt"].astype("int64")) // tw).astype("int64"),
        }
    )


def q_condensation_stats(sf_dir: str):
    """SCC CONDENSATION summary of the sparse directed graph: the DAG
    you get by contracting every strongly connected component — its
    vertex count (#SCCs), cross-component edge count, and the size of
    the largest SCC. Reuses the engine's SCC labels (q_scc's cached
    forward/backward reachability runs); component labels for the
    2000-id universe broadcast once and both edge endpoints relabel in
    place (at open cardinality this becomes two bucket joins, the
    documented swap)."""
    labels = q_scc(sf_dir).to_pandas()
    lab_ref = ray.put(
        pd.Series(labels["scc_id"].to_numpy(), index=labels["vertex"].to_numpy())
    )

    def cross(t: pa.Table) -> pa.Table:
        lm = ray.get(lab_ref)
        s = lm.reindex(t["src"].to_numpy()).to_numpy()
        d = lm.reindex(t["dst"].to_numpy()).to_numpy()
        keep = s != d
        return pa.table(
            {"cu": pa.array(s[keep].astype(np.int64)),
             "cv": pa.array(d[keep].astype(np.int64))}
        )

    from ..stages.join import distinct

    ce = distinct(
        edges_sparse_directed(sf_dir).map_batches(cross, batch_format="pyarrow"),
        ["cu", "cv"],
    )
    n_cond_edges = int(ce.count())
    sizes = labels.groupby("scc_id").size()
    return pd.DataFrame(
        {
            "n_vertices": [int(len(labels))],
            "n_sccs": [int(labels["scc_id"].nunique())],
            "n_cond_edges": [n_cond_edges],
            "max_scc_size": [int(sizes.max())],
        }
    ).astype("int64")


def q_shipping_priority(sf_dir: str, k: int = 10, n_buckets: int = 16):
    """TPC-H Q3 shape (shipping priority): revenue of orders placed
    before the cutoff with lineitems still shipping after it — top-10
    unshipped-revenue orders. Lineitem revenue integerizes per row
    BEFORE any sum (cents x (100-disc_bps) -> e4 units, the
    q_lineitem_semijoin convention) and pre-aggregates per batch; ONE
    orderkey bucket join against the filtered orders side, ONE
    bucket_sum, distributed sort + limit. Ties break on (revenue DESC,
    orderkey)."""
    from ..stages.join import bucket_join, bucket_sum

    cut_us = int(pd.Timestamp("1998-06-01").value // 1000)

    def ord_side(t: pa.Table) -> pa.Table:
        d = _ts_us(t["o_orderdate"].to_pandas())
        keep = d < cut_us
        return pa.table(
            {"o_orderkey": t["o_orderkey"].filter(pa.array(keep)),
             "o_date_us": pa.array(d[keep]),
             "o_orderpriority": t["o_orderpriority"].filter(pa.array(keep))}
        )

    def li_side(t: pa.Table) -> pa.Table:
        d = _ts_us(t["l_shipdate"].to_pandas())
        keep = d > cut_us
        ok = t["l_orderkey"].to_numpy()[keep]
        price_c = np.rint(t["l_extendedprice"].to_numpy()[keep] * 100).astype(np.int64)
        disc_b = np.rint(t["l_discount"].to_numpy()[keep] * 100).astype(np.int64)
        g = pd.DataFrame({"l_orderkey": ok, "revenue_e4": price_c * (100 - disc_b)})
        g = g.groupby("l_orderkey", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    orders = _table(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]).map_batches(
        ord_side, batch_format="pyarrow"
    )
    li = _table(
        sf_dir, "lineitem", ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(li_side, batch_format="pyarrow")

    j = bucket_join(
        li, orders, left_on="l_orderkey", right_on="o_orderkey", n_buckets=n_buckets,
        left_schema=pa.schema([("l_orderkey", pa.int64()), ("revenue_e4", pa.int64())]),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_date_us", pa.int64()),
             ("o_orderpriority", pa.string())]
        ),
    )

    def norm(t: pa.Table) -> pa.Table:
        return pa.table(
            {"l_orderkey": t["l_orderkey"].cast(pa.int64()),
             "o_date_us": t["o_date_us"].cast(pa.int64()),
             "o_orderpriority": t["o_orderpriority"],
             "revenue_e4": t["revenue_e4"].cast(pa.int64())}
        )

    agg = bucket_sum(
        j.map_batches(norm, batch_format="pyarrow"),
        ["l_orderkey", "o_date_us", "o_orderpriority"], ["revenue_e4"], n_buckets,
    )
    return agg.sort(["revenue_e4", "l_orderkey"], descending=[True, False]).limit(k)


def q_shard_balance(sf_dir: str, n: int = 2000, n_shards: int = 8, n_buckets: int = 8):
    """BALANCE AUDIT of the two sharding strategies: per shard, the
    total inlink-weight load under the stateful LPT plan
    (q_index_shard_plan) vs the stateless rendezvous plan
    (q_rendezvous_shards) — the quantified trade-off (LPT near-perfect
    balance vs HRW zero coordination + minimal resharding). One
    host-bucket weight sum feeds both assignments; exact integer
    loads. n PINNED to the oracle's 2000."""
    from ..stages.join import bucket_sum
    from ..utils import mix64

    def dst_host(t: pa.Table) -> pa.Table:
        return pa.table(
            {"host": pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2),
             "w": pa.array(np.ones(t.num_rows, np.int64))}
        )

    hw = (
        bucket_sum(
            _pages_links(n).map_batches(dst_host, batch_format="pyarrow"),
            ["host"], ["w"], n_buckets,
        )
        .to_pandas()
        .sort_values(["w", "host"], ascending=[False, True], kind="stable")
        .reset_index(drop=True)
    )
    # LPT
    loads = [0] * n_shards
    lpt = np.empty(len(hw), np.int64)
    for i, w in enumerate(hw["w"]):
        k = min(range(n_shards), key=lambda j: loads[j])
        loads[k] += int(w)
        lpt[i] = k
    # HRW
    h = hw["host"].to_numpy().astype(str)
    is_site = np.char.startswith(h, "site-")
    num = np.char.partition(np.char.partition(h, "-")[:, 2], ".")[:, 0].astype(np.int64)
    hid = np.where(is_site, num, 100_000 + num).astype(np.uint64)
    scores = np.stack(
        [mix64(np.uint64(77), hid * np.uint64(8) + np.uint64(s)) for s in range(n_shards)],
        axis=1,
    )
    hrw = np.argmax(scores, axis=1).astype(np.int64)
    w = hw["w"].to_numpy(np.int64)
    out = pd.DataFrame({"shard": np.arange(n_shards, dtype=np.int64)})
    out["lpt_load"] = np.bincount(lpt, weights=w, minlength=n_shards).astype(np.int64)
    out["lpt_hosts"] = np.bincount(lpt, minlength=n_shards).astype(np.int64)
    out["hrw_load"] = np.bincount(hrw, weights=w, minlength=n_shards).astype(np.int64)
    out["hrw_hosts"] = np.bincount(hrw, minlength=n_shards).astype(np.int64)
    return out


def q_lang_assortativity(sf_dir: str, n_pages: int = 2000, n_buckets: int = 4):
    """Newman ATTRIBUTE assortativity (Newman 2003, eq. 2) of page
    LANGUAGE over the directed link matrix: r = (sum_i e_ii - sum_i
    a_i b_i) / (1 - sum_i a_i b_i), where e is the lang x lang link
    fraction matrix — do pages cite their own language? Exact integer
    rational over the same (src_lang, dst_lang) cells as
    q_lang_link_matrix: with m total links, num = m*tr - sum(row_i *
    col_i), den = m*m - sum(row_i * col_i), r truncated e6 (both sides
    `//` after sign split, the events_regression convention). Langs
    computed in place from the url ids; one tiny cell bucket_sum."""
    from ..sources.pages import _LANGS
    from ..stages.join import bucket_sum
    from ..utils import mix64

    def url_ids(arr) -> np.ndarray:
        site = np.char.partition(
            np.char.partition(arr.astype(str), "site-")[:, 2], "."
        )[:, 0].astype(np.int64)
        page = np.char.rpartition(arr.astype(str), "/")[:, 2].astype(np.int64)
        return site * 16 + page

    langs = np.array(_LANGS)

    def cells(t: pa.Table) -> pa.Table:
        keep = pc.starts_with(t["dst_key"], "https://site-")
        f = t.filter(keep)
        if f.num_rows == 0:
            return pa.table(
                {"src_lang": pa.array([], pa.string()),
                 "dst_lang": pa.array([], pa.string()),
                 "n_links": pa.array([], pa.int64())}
            )
        s = url_ids(f["src_key"].to_numpy(zero_copy_only=False))
        d = url_ids(f["dst_key"].to_numpy(zero_copy_only=False))
        sl = langs[(mix64(np.uint64(44), s.astype(np.uint64)) % np.uint64(len(langs))).astype(np.int64)]
        dl = langs[(mix64(np.uint64(44), d.astype(np.uint64)) % np.uint64(len(langs))).astype(np.int64)]
        return pa.table(
            {"src_lang": pa.array(sl, pa.string()),
             "dst_lang": pa.array(dl, pa.string()),
             "n_links": pa.array(np.ones(len(s), np.int64))}
        )

    cm = bucket_sum(
        _pages_links(n_pages).map_batches(cells, batch_format="pyarrow"),
        ["src_lang", "dst_lang"], ["n_links"], n_buckets,
    ).to_pandas()
    m = int(cm["n_links"].sum())
    tr = int(cm.loc[cm["src_lang"] == cm["dst_lang"], "n_links"].sum())
    rows = cm.groupby("src_lang")["n_links"].sum()
    colsum = cm.groupby("dst_lang")["n_links"].sum()
    ab = sum(
        int(rows.get(lang, 0)) * int(colsum.get(lang, 0))
        for lang in set(rows.index) | set(colsum.index)
    )
    num = m * tr - ab
    den = m * m - ab
    q = abs(num) * 1_000_000 // den
    r_e6 = -q if num < 0 else q
    return pd.DataFrame(
        {"n_links": [m], "n_same_lang": [tr], "r_e6": [int(r_e6)]}
    ).astype("int64")


def q_web_triangle_locality(sf_dir: str, n: int = 2000):
    """TRIANGLE LOCALITY of the web graph: what share of triangles
    close entirely inside one host? (Web community structure is
    host-local — the classic finding behind host-blocked graph
    layouts.) A triangle has all corners on one host iff all three
    edges are intra-host, so the answer is TWO runs of the existing
    degree-oriented triangle pipeline — full graph and intra-host
    subgraph — with urls mapped to int ids in place (onsite
    site*16+page, offsite 1e7+num; the pipeline's int64 packing needs
    ids < 2^31). Exact e6 share."""
    from .triangles import triangle_count

    def ids_tab(t: pa.Table, intra: bool) -> pa.Table:
        s = t["src_key"].to_numpy(zero_copy_only=False).astype(str)
        d = t["dst_key"].to_numpy(zero_copy_only=False).astype(str)

        def to_id(a):
            on = np.char.startswith(a, "https://site-")
            num = np.char.partition(
                np.char.partition(a, "-")[:, 2], "."
            )[:, 0].astype(np.int64)
            page = np.char.rpartition(a, "/")[:, 2]
            # offsite urls end in '/x' (non-numeric) but take the
            # 1e7+num branch, so their page value is never used
            pv = np.where(np.char.isdigit(page), page, "0").astype(np.int64)
            return np.where(on, num * 16 + pv, 10_000_000 + num)

        si, di = to_id(s), to_id(d)
        if intra:
            keep = (si // 16 == di // 16) & (si < 10_000_000) & (di < 10_000_000)
            si, di = si[keep], di[keep]
        return pa.table({"src": pa.array(si), "dst": pa.array(di)})

    links = _pages_links(n)
    total, _ = triangle_count(
        links.map_batches(lambda t: ids_tab(t, False), batch_format="pyarrow"),
        n_buckets=16,
    )
    intra, _ = triangle_count(
        links.map_batches(lambda t: ids_tab(t, True), batch_format="pyarrow"),
        n_buckets=16,
    )
    share = 0 if total == 0 else (1_000_000 * int(intra)) // int(total)
    return pd.DataFrame(
        {"n_triangles": [int(total)], "n_intra": [int(intra)],
         "intra_share_e6": [share]}
    ).astype("int64")


def q_avg_neighbor_degree(sf_dir: str, n_buckets: int = 16):
    """Degree-correlation curve knn(d) (Pastor-Satorras et al. 2001):
    for each degree class d, the degree-weighted average neighbor
    degree — rising = assortative core, falling = hub-periphery
    (the web's signature). Exact integers: per vertex, s_u = sum of
    neighbor degrees over the symmetrized multigraph adjacency;
    knn(d) = (1e6 * sum_u s_u) // sum_u deg_u within the class (the
    weighted form keeps ONE rational). Degrees reduce in one vertex
    bucket_sum; neighbor-degree sums in ONE bucket join of the edge
    list against the degree table; degree classes are tiny."""
    from ..stages.join import bucket_join, bucket_sum

    edges = edges_lineitem(sf_dir)

    def both(t: pa.Table) -> pa.Table:
        s, d = t["src"].combine_chunks(), t["dst"].combine_chunks()
        return pa.table(
            {"u": pa.chunked_array([s, d]).cast(pa.int64()),
             "v": pa.chunked_array([d, s]).cast(pa.int64()),
             "one": pa.array(np.ones(2 * t.num_rows, np.int64))}
        )

    es = edges.map_batches(both, batch_format="pyarrow")
    deg = bucket_sum(
        es.map_batches(
            lambda t: pa.table({"u": t["u"], "d": t["one"]}), batch_format="pyarrow"
        ),
        ["u"], ["d"], n_buckets,
    )

    # join adjacency entries (u, v) with deg(v): per-entry neighbor
    # degree, then fold to per-u (m_u, s_u), then per degree class
    j = bucket_join(
        es.map_batches(lambda t: pa.table({"u": t["u"], "v": t["v"]}), batch_format="pyarrow"),
        deg.map_batches(lambda t: pa.table({"v": t["u"], "dv": t["d"]}), batch_format="pyarrow"),
        left_on="v", right_on="v", n_buckets=n_buckets,
        left_schema=pa.schema([("u", pa.int64()), ("v", pa.int64())]),
        right_schema=pa.schema([("v", pa.int64()), ("dv", pa.int64())]),
    )
    per_u = bucket_sum(
        j.map_batches(
            lambda t: pa.table(
                {"u": t["u"].cast(pa.int64()),
                 "m": pa.array(np.ones(t.num_rows, np.int64)),
                 "s": t["dv"].cast(pa.int64())}
            ),
            batch_format="pyarrow",
        ),
        ["u"], ["m", "s"], n_buckets,
    )

    def classes(t: pa.Table) -> pa.Table:
        return pa.table(
            {"degree": t["m"], "n_vertices": pa.array(np.ones(t.num_rows, np.int64)),
             "sum_m": t["m"], "sum_s": t["s"]}
        )

    cls = bucket_sum(
        per_u.map_batches(classes, batch_format="pyarrow"),
        ["degree"], ["n_vertices", "sum_m", "sum_s"], 4,
    ).to_pandas()
    cls["knn_e6"] = (1_000_000 * cls["sum_s"].astype("int64")) // cls["sum_m"].astype("int64")
    return cls[["degree", "n_vertices", "knn_e6"]].astype("int64")


def q_damping_sensitivity(sf_dir: str, n: int = 2000, k: int = 25):
    """RANKING ROBUSTNESS to the damping factor: PageRank at d=0.85 vs
    d=0.70 on the same page graph (one build, two engine runs — the
    hyperparameter A/B every ranking team runs before shipping a
    damping change), compared on the top-25: how many urls appear in
    both lists and the total absolute rank displacement over the
    common set. Ranks are positions in the (score_e8 DESC, vertex)
    order, so the comparison is exact integers end-to-end. n PINNED to
    the fixed oracle's 2000."""
    from ..sources.pages import generate_pages
    from .pages import build_link_graph

    root = f"/tmp/graft_damp_{n}"
    shutil.rmtree(root, ignore_errors=True)
    build_link_graph(generate_pages(n), f"{root}/graph", n_parts=8, n_buckets=16)

    def topk(damping: float, tag: str) -> pd.DataFrame:
        res = run_algorithm(
            f"{root}/graph", f"{root}/pr_{tag}", "pagerank", damping=damping
        )

        def conv(t: pa.Table) -> pa.Table:
            return pa.table(
                {"vertex": t["vertex"], "e8": _score_e8(t["value"])}
            )

        rows = (
            res.map_batches(conv, batch_format="pyarrow")
            .sort(["e8", "vertex"], descending=[True, False])
            .limit(k)
            .to_pandas()
        )
        rows["rank"] = np.arange(1, len(rows) + 1, dtype=np.int64)
        return rows

    a = topk(0.85, "d85")
    b = topk(0.70, "d70")
    m = a.merge(b, on="vertex", suffixes=("_a", "_b"))
    return pd.DataFrame(
        {
            "n_common": [int(len(m))],
            "sum_rank_disp": [int((m["rank_a"] - m["rank_b"]).abs().sum())],
        }
    ).astype("int64")


def q_pagerank_tol(sf_dir: str):
    """PageRank run to a CONVERGENCE TOLERANCE instead of a fixed
    iteration count: halts at the first checkpoint boundary whose last
    superstep moved no vertex by more than theta=3e-7 (the engine's
    global halt detection driving a numeric fixpoint — every vertex
    keeps scattering, the active flags are only the vote). The oracle
    replays the recurrence to the 60-iteration cap, finds the same
    boundary from per-iteration max movement, and reads the scores
    there — so the hash pins both the VALUES and the STOPPING RULE."""
    res = _run_cached(sf_dir, "lineitem", "pagerank_tol")
    return _as_int_vertex(res, "score_e8", _score_e8)


def q_patch_warm_pagerank(sf_dir: str, n: int = 2000, n_base: int = 1600, warm_iters: int = 10):
    """The REAL incremental-crawl re-rank loop, end to end: PR-30 on
    the 1600-page base graph -> patch_graph the 400-page wave in
    (existing dense ids keep their ranks — the property that makes the
    warm start valid WITHOUT any remapping) -> 10 warm iterations on
    the patched graph seeded from the base scores (new urls start 0)
    -> top-25. The oracle chains base-PR-30 and the 10-step warm
    recurrence over the full edge set, so the hash pins the whole
    composition: incremental build + id stability + warm convergence."""
    import pyarrow.dataset as pads

    from ..algorithms import PageRankWarmStart
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_links
    from .pages import build_link_graph
    from .patch import patch_graph

    root = f"/tmp/graft_patchwarm_{n}_{n_base}"
    shutil.rmtree(root, ignore_errors=True)
    pages = generate_pages(n)

    def band(lo: int, hi: int):
        def fn(t: pa.Table) -> pa.Table:
            site = pc.list_element(pc.split_pattern(t["url"], "site-"), 1)
            sid = pc.cast(pc.list_element(pc.split_pattern(site, "."), 0), pa.int64())
            pid = pc.cast(
                pc.list_element(pc.split_pattern(t["url"], "/"), 4), pa.int64()
            )
            i = pc.add(pc.multiply(sid, 16), pid)
            return t.filter(pc.and_(pc.greater_equal(i, lo), pc.less(i, hi)))

        return fn

    build_link_graph(
        pages.map_batches(band(0, n_base), batch_format="pyarrow"),
        f"{root}/g_base", n_parts=8, n_buckets=16,
    )
    run_algorithm(f"{root}/g_base", f"{root}/pr_base", "pagerank")
    import json as _json

    with open(os.path.join(f"{root}/pr_base", "run.json")) as f:
        final = _json.load(f)["final_iter"]
    st = pads.dataset(
        os.path.join(f"{root}/pr_base", "state", f"iter={final:04d}")
    ).to_table(columns=["id", "value"])
    prior_ids = st["id"].to_numpy()
    prior_vals = st["value"].to_numpy()

    patch_graph(
        f"{root}/g_base",
        extract_links(pages.map_batches(band(n_base, n), batch_format="pyarrow")),
        f"{root}/g_patch",
        dedup=True,
        n_buckets=16,
    )
    man = GraphManifest.load(f"{root}/g_patch")
    algo = PageRankWarmStart(
        prior_ids, prior_vals, n_vertices=man.n_vertices, num_iters=warm_iters
    )
    res = run_algorithm(f"{root}/g_patch", f"{root}/pr_warm", algo)

    def conv(t: pa.Table) -> pa.Table:
        return pa.table({"vertex": t["vertex"], "score_e8": _score_e8(t["value"])})

    return (
        res.map_batches(conv, batch_format="pyarrow")
        .sort(["score_e8", "vertex"], descending=[True, False])
        .limit(25)
    )


def q_doulion_triangles(sf_dir: str):
    """DOULION (Tsourakakis et al., KDD 2009) sampled triangle count —
    the documented scale path next to the exact q_triangle_count: keep
    each canonical edge independently with p = 1/2, decided by
    splitmix64 of the packed (a,b) key so the coin flip is a pure
    function of the edge (deterministic across batch boundaries and
    bit-replayable by the SQL oracle), count triangles EXACTLY on the
    sampled subgraph with the same bucketed wedge pipeline, and scale
    by 1/p^3 = 8 for the unbiased estimate. At 100 TB only the sample
    shuffles — a ~4x cut in wedge work per halving; the materialize
    here holds the p-fraction edge set in the OBJECT STORE (never the
    driver) so the count and the wedge pass share one execution."""
    from ..utils import splitmix64

    def sample(t: pa.Table) -> pa.Table:
        a = t["src"].to_numpy().astype(np.uint64)
        b = t["dst"].to_numpy().astype(np.uint64)
        h = splitmix64((a << np.uint64(32)) | b)
        return t.filter(pa.array((h % np.uint64(2)) == 0))

    sampled = (
        edges_orders(sf_dir)
        .map_batches(sample, batch_format="pyarrow")
        .materialize()
    )
    n_edges = sampled.count()
    total, _ = triangle_count(sampled, n_buckets=32)
    return pd.DataFrame(
        {
            "n_sampled_edges": [int(n_edges)],
            "n_sampled_triangles": [int(total)],
            "est_triangles": [int(total) * 8],
        }
    )


# ---------------------------------------------------------------------------
# TPC-H-flavored relational pipelines (round 4, session 4)
# ---------------------------------------------------------------------------


def _rev_e4(ep: np.ndarray, disc: np.ndarray) -> np.ndarray:
    """Exact integer line revenue: cents(extendedprice) * (100 - pct(discount)).

    floor(x*100 + 0.5) is IEEE-identical between numpy and DuckDB (both
    evaluate the same double expression), so the engine and the SQL
    oracle agree bit-for-bit with no half-even/half-away drift."""
    cents = np.floor(ep * 100.0 + 0.5).astype(np.int64)
    dpct = np.floor(disc * 100.0 + 0.5).astype(np.int64)
    return cents * (100 - dpct)


def q_promo_revenue(sf_dir: str):
    """TPC-H Q14-flavored promo revenue share per ship month: join
    lineitem to part, split revenue into PROMO vs total per yyyymm, and
    report the e6-scaled promo share. part is a DIMENSION: under the
    2M-row broadcast budget it ships ONCE via ray.put and the query is
    a single map_batches with per-batch partial aggregation (<= ~84
    month rows per block, driver-reduced); above it, one bucket_join
    shuffle on partkey feeds the same partial kernel. Revenue is the
    exact integer cents*(100-pct) product (_rev_e4), so promo_share_e6
    is a pure integer floor division on both sides of the oracle."""
    import pyarrow.dataset as pads

    from ..stages.join import bucket_join

    li = _table(
        sf_dir,
        "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def partial(df: pd.DataFrame, promo: pd.Series | None) -> pd.DataFrame:
        rev = _rev_e4(
            df["l_extendedprice"].to_numpy(), df["l_discount"].to_numpy()
        )
        if promo is not None:
            is_promo = (
                promo.reindex(df["l_partkey"].to_numpy())
                .fillna(False)
                .to_numpy(dtype=bool)
            )
        else:
            is_promo = (df["p_type"] == "PROMO").to_numpy()
        sd = df["l_shipdate"]
        ym = (sd.dt.year.to_numpy() * 100 + sd.dt.month.to_numpy()).astype(
            np.int64
        )
        g = pd.DataFrame(
            {"ym": ym, "rev": rev, "prev": np.where(is_promo, rev, 0)}
        )
        return g.groupby("ym", as_index=False).sum()

    n_part = pads.dataset(os.path.join(sf_dir, "part.parquet")).count_rows()
    if n_part <= BROADCAST_DIM_ROWS:
        part_df = _dim_table(sf_dir, "part", ["p_partkey", "p_type"])
        promo_ref = ray.put(
            pd.Series(
                (part_df["p_type"] == "PROMO").to_numpy(),
                index=part_df["p_partkey"].to_numpy(),
            )
        )
        partials = li.map_batches(
            lambda df: partial(df, ray.get(promo_ref)), batch_format="pandas"
        ).to_pandas()
    else:
        part = _table(sf_dir, "part", ["p_partkey", "p_type"])
        ii = pa.int64()
        joined = bucket_join(
            li, part, left_on="l_partkey", right_on="p_partkey", n_buckets=64,
            left_schema=pa.schema(
                [("l_partkey", ii), ("l_extendedprice", pa.float64()),
                 ("l_discount", pa.float64()),
                 ("l_shipdate", pa.timestamp("us"))]
            ),
            right_schema=pa.schema([("p_partkey", ii), ("p_type", pa.string())]),
        )
        partials = joined.map_batches(
            lambda df: partial(df, None), batch_format="pandas"
        ).to_pandas()

    agg = partials.groupby("ym", as_index=False).sum()
    return pd.DataFrame(
        {
            "ym": agg["ym"].astype("int64"),
            "promo_rev_e4": agg["prev"].astype("int64"),
            "total_rev_e4": agg["rev"].astype("int64"),
            "promo_share_e6": (
                agg["prev"] * 1_000_000 // agg["rev"]
            ).astype("int64"),
        }
    )


def q_returned_item_report(sf_dir: str, top: int = 20):
    """TPC-H Q10-flavored returned-item report: revenue lost to
    returned lineitems (l_returnflag = 'R') per customer, top 20 by
    revenue with the customer name and nation attached. lineitem and
    orders are both fact-sized, so the orderkey equi-join is ONE
    bucket_join shuffle; the per-customer rollup is ONE bucket_sum
    (both scale-honest at 100 TB). customer/nation are broadcast
    dimensions; the final top-20 is a per-block partial top-k whose
    driver fan-in is <= blocks x 20 rows. Ties break on c_custkey so
    the LIMIT is deterministic for the hash gate."""
    from ..stages.join import bucket_join, bucket_sum

    def returned(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        rev = _rev_e4(
            t["l_extendedprice"].to_numpy(), t["l_discount"].to_numpy()
        )
        return pa.table(
            {"l_orderkey": t["l_orderkey"], "rev_e4": pa.array(rev)}
        )

    li = _table(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    ).map_batches(returned, batch_format="pyarrow")
    orders = _table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    ii = pa.int64()
    joined = bucket_join(
        li, orders, left_on="l_orderkey", right_on="o_orderkey", n_buckets=64,
        left_schema=pa.schema([("l_orderkey", ii), ("rev_e4", ii)]),
        right_schema=pa.schema([("o_orderkey", ii), ("o_custkey", ii)]),
    )
    per_cust = bucket_sum(joined, ["o_custkey"], ["rev_e4"], n_buckets=32)

    cust_df = _dim_table(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    nat_df = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    nation = dict(zip(nat_df["n_nationkey"].astype(int), nat_df["n_name"]))
    cust_ref = ray.put(cust_df.set_index("c_custkey"))
    nation_ref = ray.put(nation)

    def attach_topk(df: pd.DataFrame) -> pd.DataFrame:
        cust = ray.get(cust_ref)
        nat = ray.get(nation_ref)
        df = df.sort_values(
            ["rev_e4", "o_custkey"], ascending=[False, True], kind="stable"
        ).head(top)
        rows = cust.reindex(df["o_custkey"].to_numpy())
        return pd.DataFrame(
            {
                "c_custkey": df["o_custkey"].to_numpy(),
                "c_name": rows["c_name"].to_numpy(),
                "n_name": [nat[int(k)] for k in rows["c_nationkey"]],
                "revenue_e4": df["rev_e4"].to_numpy(),
            }
        )

    parts = per_cust.map_batches(attach_topk, batch_format="pandas").to_pandas()
    out = parts.sort_values(
        ["revenue_e4", "c_custkey"], ascending=[False, True], kind="stable"
    ).head(top)
    return out.reset_index(drop=True)


def q_volume_shipping(sf_dir: str):
    """TPC-H Q7-flavored volume shipping: cross-nation trade volume per
    (supplier nation, customer nation, ship year), excluding domestic
    pairs. The only fact-fact join (lineitem x orders on orderkey) is
    ONE bucket_join shuffle; supplier/customer/nation are broadcast
    dimensions resolved inside the same per-batch partial kernel, which
    pre-aggregates to <= nations^2 x years rows per block before a
    driver reduce — no second shuffle. Volume is the exact integer
    _rev_e4 product."""
    from ..stages.join import bucket_join

    def prep(t: pa.Table) -> pa.Table:
        rev = _rev_e4(
            t["l_extendedprice"].to_numpy(), t["l_discount"].to_numpy()
        )
        yr = pc.year(t["l_shipdate"])
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_suppkey": t["l_suppkey"],
                "rev_e4": pa.array(rev),
                "l_year": yr.cast(pa.int64()),
            }
        )

    li = _table(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(prep, batch_format="pyarrow")
    orders = _table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    ii = pa.int64()
    joined = bucket_join(
        li, orders, left_on="l_orderkey", right_on="o_orderkey", n_buckets=64,
        left_schema=pa.schema(
            [("l_orderkey", ii), ("l_suppkey", ii), ("rev_e4", ii), ("l_year", ii)]
        ),
        right_schema=pa.schema([("o_orderkey", ii), ("o_custkey", ii)]),
    )

    supp_df = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    cust_df = _dim_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nat_df = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    s2n_ref = ray.put(
        pd.Series(
            supp_df["s_nationkey"].to_numpy(), index=supp_df["s_suppkey"].to_numpy()
        )
    )
    c2n_ref = ray.put(
        pd.Series(
            cust_df["c_nationkey"].to_numpy(), index=cust_df["c_custkey"].to_numpy()
        )
    )
    nation_ref = ray.put(
        dict(zip(nat_df["n_nationkey"].astype(int), nat_df["n_name"]))
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        s2n, c2n, nat = ray.get(s2n_ref), ray.get(c2n_ref), ray.get(nation_ref)
        sn = s2n.reindex(df["l_suppkey"].to_numpy()).to_numpy()
        cn = c2n.reindex(df["o_custkey"].to_numpy()).to_numpy()
        keep = (~pd.isna(sn)) & (~pd.isna(cn)) & (sn != cn)
        g = pd.DataFrame(
            {
                "sn": sn[keep].astype(np.int64),
                "cn": cn[keep].astype(np.int64),
                "l_year": df["l_year"].to_numpy()[keep],
                "volume_e4": df["rev_e4"].to_numpy()[keep],
            }
        ).groupby(["sn", "cn", "l_year"], as_index=False)["volume_e4"].sum()
        g["supp_nation"] = [nat[int(k)] for k in g["sn"]]
        g["cust_nation"] = [nat[int(k)] for k in g["cn"]]
        return g[["supp_nation", "cust_nation", "l_year", "volume_e4"]]

    parts = joined.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby(
        ["supp_nation", "cust_nation", "l_year"], as_index=False
    )["volume_e4"].sum()
    agg["l_year"] = agg["l_year"].astype("int64")
    agg["volume_e4"] = agg["volume_e4"].astype("int64")
    return agg


def q_opic_cash(sf_dir: str, n: int = 2000, num_rounds: int = 10):
    """OPIC crawl-priority (Abiteboul et al., WWW 2003): the cash
    history H_K after K synchronous rounds of cash flow on the DIRECTED
    page graph, dangling cash re-entering uniformly via the engine's
    aggregator channel. algorithms.OPIC reduces the history to the
    dangling-PageRank recurrence (teleport 1/N, damping 1), so this is
    ONE engine run — no second accumulator channel needed. Full table
    out (every url, offsite dangling urls included), e8-scaled. n
    PINNED to the fixed oracle's 2000."""
    import shutil

    from .graph import run_algorithm as _ra
    from .ingest import build_graph as _bg

    root = f"/tmp/graft_opic_{n}"
    shutil.rmtree(root, ignore_errors=True)
    _bg(
        _pages_links(n),
        f"{root}/graph",
        n_parts=8,
        n_buckets=16,
        dedup=False,
        symmetrize_edges=False,
        source_info={"kind": "pages_directed_opic", "n": n},
    )
    res = _ra(f"{root}/graph", f"{root}/opic", "opic", num_rounds=num_rounds)

    def conv(t: pa.Table) -> pa.Table:
        return pa.table(
            {"vertex": t["vertex"].cast(pa.string()),
             "cash_e8": _score_e8(t["value"])}
        )

    return res.map_batches(conv, batch_format="pyarrow")


def q_url_canonicalize(sf_dir: str, n_pages: int = 2000, n_buckets: int = 16):
    """URL-CANONICALIZATION audit per host: how much the crawl's
    normalization (resolve relative hrefs, strip fragments) collapses
    the raw href surface BEFORE any fetch/store happens — the dedup
    leverage every frontier scheduler banks on. One raw-extraction
    pass over pages(url, html) (functions/html.py::extract_hrefs_raw
    keeps the attribute exactly as written next to its canonical
    form), then ONE host-bucketed shuffle; per-host distinct counting
    happens inside the bucket kernel (a host's hrefs never cross
    buckets), so nothing global materializes. Output per source host:
    href instances, distinct raw strings, distinct canonical urls,
    fragment-carrying instances, relative-form instances. n_pages
    PINNED to the fixed oracle's 2000."""
    from ..sources.pages import generate_pages
    from ..stages.extract import extract_raw_hrefs
    from ..stages.join import add_bucket

    rows = extract_raw_hrefs(generate_pages(n_pages))

    def tag(t: pa.Table) -> pa.Table:
        host = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        return pa.table(
            {
                "host": host,
                "raw": t["raw"],
                "canon": t["canon"],
                "is_frag": pc.cast(pc.match_substring(t["raw"], "#"), pa.int64()),
                "is_rel": pc.cast(pc.starts_with(t["raw"], "/"), pa.int64()),
            }
        )

    tagged = rows.map_batches(tag, batch_format="pyarrow")

    def prof(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("host", sort=False).agg(
            n_hrefs=("raw", "size"),
            n_raw=("raw", "nunique"),
            n_canon=("canon", "nunique"),
            n_frag=("is_frag", "sum"),
            n_rel=("is_rel", "sum"),
        )
        return agg.reset_index().astype({c: "int64" for c in agg.columns})

    return _BMG(add_bucket(tagged, ["host"], n_buckets), n_buckets, prof, "pandas")


def q_cascade_ic(
    sf_dir: str, p_pct: int = 10, seeds: tuple = (0, 1, 2), coin_seed: int = 1234
):
    """INDEPENDENT-CASCADE influence spread (Kempe et al. 2003) with
    deterministic counter-based coins: directed edge (u, v) of the
    symmetrized lineitem graph is LIVE iff
    mix64(coin_seed, u, v) % 100 < p_pct (each direction flips its own
    coin — the classic live-edge reduction, which turns IC spread into
    plain BFS over the live subgraph). Seeds activate at round 0; the
    engine's multi-source min-combiner BFS does the cascade in one
    run. The coin filter is a stateless vectorized map (no shuffle, no
    driver state — at 100 TB the live subgraph never materializes
    outside the standard bucketed graph build), and the oracle replays
    the identical splitmix64 coins in SQL. Seed self-loops keep seeds
    in the vertex universe even if every coin near them fails."""
    from .graph import lookup_vertex_id
    from ..utils import mix64

    root = f"/tmp/graft_cascade_{p_pct}_{coin_seed}"
    shutil.rmtree(root, ignore_errors=True)
    edges = edges_lineitem(sf_dir)

    def sym_live(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy().astype(np.int64)
        d = t["dst"].to_numpy().astype(np.int64)
        u = np.concatenate([s, d])
        v = np.concatenate([d, s])
        h = mix64(np.uint64(coin_seed), u.astype(np.uint64), v.astype(np.uint64))
        keep = (h % np.uint64(100)) < np.uint64(p_pct)
        return pa.table(
            {
                "src_key": pa.array(u[keep].astype(str), pa.string()),
                "dst_key": pa.array(v[keep].astype(str), pa.string()),
            }
        )

    loops = rd.from_arrow(
        pa.table(
            {
                "src_key": pa.array([str(s) for s in seeds], pa.string()),
                "dst_key": pa.array([str(s) for s in seeds], pa.string()),
            }
        )
    )
    live = edges.map_batches(sym_live, batch_format="pyarrow").union(loops)
    man = build_graph(
        live,
        f"{root}/graph",
        n_parts=8,
        n_buckets=16,
        dedup=False,  # es is distinct per direction; live self-loops impossible
        symmetrize_edges=False,
        source_info={"kind": "cascade_ic", "p_pct": p_pct, "seed": coin_seed},
    )
    sids = tuple(sorted(lookup_vertex_id(man, str(int(s))) for s in seeds))
    res = run_algorithm(f"{root}/graph", f"{root}/run", "sssp_multi", source_ids=sids)

    def conv(t: pa.Table) -> pa.Table:
        val = t["value"].to_numpy()
        fin = np.isfinite(val)
        f = t.filter(pa.array(fin))
        return pa.table(
            {
                "vertex": pc.cast(f["vertex"].cast(pa.string()), pa.int64()),
                "round": pa.array(val[fin].astype(np.int64)),
            }
        )

    return res.map_batches(conv, batch_format="pyarrow")


def q_host_hopplot(
    sf_dir: str, n_pages: int = 2000, max_rounds: int = 20, n_buckets: int = 8
):
    """HOP PLOT of the contracted host graph: for every ordered host
    pair (s, v), s a host with >=1 cross-host outlink, the directed
    hop distance over distinct cross-host edges; output = the
    distance histogram (how much of the web is k clicks from a site —
    the classic small-world curve). The contracted graph is tiny
    relative to pages BY CONSTRUCTION (one node per host), so it
    broadcasts (ray.put once) and the per-source BFS partitions
    perfectly: one map_batches over source-host batches runs a
    vectorized boolean-matrix frontier sweep and emits per-batch
    histogram partials, merged by ONE tiny bucket_sum. Pairs needing
    more than max_rounds hops are excluded on both sides (the oracle's
    iteration-indexed Bellman-Ford recursion caps identically). Scale
    path above the broadcast cap: the engine's ANF-style bitmask BSP
    over the contracted graph."""
    from ..stages.join import bucket_sum

    names, A, src_codes = _host_graph(n_pages)
    state = ray.put(A)

    seeds = rd.from_arrow(pa.table({"s": pa.array(src_codes.astype(np.int64))}))

    def sweep(t: pa.Table) -> pa.Table:
        A_ = ray.get(state)
        s = t["s"].to_numpy().astype(np.int64)
        reached = np.zeros((len(s), A_.shape[0]), dtype=bool)
        reached[np.arange(len(s)), s] = True
        frontier = reached.copy()
        dists, counts = [], []
        for d in range(1, max_rounds + 1):
            frontier = ((frontier.astype(np.uint8) @ A_) > 0) & ~reached
            c = int(frontier.sum())
            if c == 0:
                break
            reached |= frontier
            dists.append(d)
            counts.append(c)
        return pa.table(
            {
                "dist": pa.array(np.array(dists, dtype=np.int64)),
                "n_pairs": pa.array(np.array(counts, dtype=np.int64)),
            }
        )

    return bucket_sum(
        seeds.map_batches(sweep, batch_format="pyarrow"), ["dist"], ["n_pairs"],
        n_buckets,
    )


MAX_DENSE_HOSTS = 4096  # dense uint8 A is n^2 bytes: 4096^2 = 16 MB


def _host_graph(n_pages: int = 2000):
    """Contracted host digraph of the page link graph as a dense
    boolean matrix: (names, A, src_codes) with A[i, j] = 1 iff host i
    has >=1 cross-host link to host j (distinct edges, self-host links
    dropped). One node per host, so the matrix is tiny relative to
    pages BY CONSTRUCTION and broadcasts via ray.put — the same
    contraction q_host_hopplot inlines (and the oracle's ``he`` CTE
    reproduces). Scale path above the broadcast cap: keep the host
    edge list as a Dataset and run the engine's BSP frontier joins."""
    from ..stages.join import distinct

    links = _pages_links(n_pages)

    def hosts(t: pa.Table) -> pa.Table:
        sh = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        dh = pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)
        tt = pa.table({"sh": sh, "dh": dh})
        return tt.filter(pc.not_equal(tt["sh"], tt["dh"]))

    he = distinct(
        links.map_batches(hosts, batch_format="pyarrow"), ["sh", "dh"], 16
    ).to_pandas()  # bounded by hosts^2 << pages
    names, codes = np.unique(
        np.concatenate([he["sh"].to_numpy(), he["dh"].to_numpy()]), return_inverse=True
    )
    n = len(names)
    if n > MAX_DENSE_HOSTS:
        # make the by-construction bound EXPLICIT (VERDICT r4 item #3):
        # a bigger corpus must fail loudly, not allocate O(n^2)
        raise ValueError(
            f"host graph has {n} hosts > MAX_DENSE_HOSTS={MAX_DENSE_HOSTS}; "
            "the dense-matrix kernels (hopplot/harmonic/betweenness/"
            "closed-walks/GN) need the sparse path instead: keep the "
            "host edge list as a Dataset and run the engine's BSP "
            "frontier joins (see q_host_hopplot docstring)"
        )
    A = np.zeros((n, n), dtype=np.uint8)
    A[codes[: len(he)], codes[len(he):]] = 1
    src_codes = np.unique(codes[: len(he)])
    return names, A, src_codes


def q_host_harmonic(sf_dir: str, n_pages: int = 2000, max_rounds: int = 20):
    """Harmonic centrality of every host over the contracted host
    digraph: harmonic(s) = sum over hosts v reachable from s within
    max_rounds hops of 1/dist(s, v), integer half-up e6 per distance
    term so the sum is exact on both sides (sum of rounded terms, NOT
    rounded sum — the oracle applies the identical per-term rounding).
    Also emits n_reached. Hosts with no outlinks report 0/0. One
    map_batches over source-host batches runs the vectorized
    boolean-matrix BFS (per-source newly-reached counts per distance);
    output is one bounded row per host — no shuffle at all."""
    names, A, _ = _host_graph(n_pages)
    n = len(names)
    state = ray.put((names, A))

    seeds = rd.from_arrow(pa.table({"s": pa.array(np.arange(n, dtype=np.int64))}))

    def sweep(t: pa.Table) -> pa.Table:
        names_, A_ = ray.get(state)
        s = t["s"].to_numpy().astype(np.int64)
        m = len(s)
        reached = np.zeros((m, A_.shape[0]), dtype=bool)
        reached[np.arange(m), s] = True
        frontier = reached.copy()
        harm = np.zeros(m, dtype=np.int64)
        nr = np.zeros(m, dtype=np.int64)
        for d in range(1, max_rounds + 1):
            frontier = ((frontier.astype(np.uint8) @ A_) > 0) & ~reached
            c = frontier.sum(axis=1).astype(np.int64)
            if not c.any():
                break
            reached |= frontier
            term = (2 * 1_000_000 + d) // (2 * d)  # half-up 1e6/d
            harm += c * term
            nr += c
        return pa.table(
            {
                "host": pa.array(names_[s]),
                "harmonic_e6": pa.array(harm),
                "n_reached": pa.array(nr),
            }
        )

    return seeds.map_batches(sweep, batch_format="pyarrow")


def q_host_closed_walks(sf_dir: str, n_pages: int = 2000, ks: tuple = (2, 3, 4)):
    """Closed-walk census of the contracted host digraph: n_walks(k) =
    trace(A^k) for k = 2..4 — the spectral moments of the web's
    host-level adjacency (trace(A^2) = reciprocal pairs x2 is the
    directed analogue of edge count; trace(A^3) counts directed
    triangles x3). Exact integer matrix powers over the broadcast
    host matrix: each source batch carries its rows of A^k forward one
    multiply at a time and reads off the diagonal entry, emitting
    per-batch (k, n_walks) partials merged by ONE tiny bucket_sum.
    The oracle is the k-fold self-join of the distinct host-edge
    table closed back to the start vertex."""
    from ..stages.join import bucket_sum

    names, A, _ = _host_graph(n_pages)
    n = len(names)
    state = ray.put(A.astype(np.int64))
    kmax = max(ks)

    seeds = rd.from_arrow(pa.table({"s": pa.array(np.arange(n, dtype=np.int64))}))

    def walks(t: pa.Table) -> pa.Table:
        A_ = ray.get(state)
        s = t["s"].to_numpy().astype(np.int64)
        rows = A_[s, :]  # A^1 rows for the batch's sources
        out_k, out_w = [], []
        for k in range(2, kmax + 1):
            rows = rows @ A_
            if k in ks:
                out_k.append(k)
                out_w.append(int(rows[np.arange(len(s)), s].sum()))
        return pa.table(
            {
                "k": pa.array(np.array(out_k, dtype=np.int64)),
                "n_walks": pa.array(np.array(out_w, dtype=np.int64)),
            }
        )

    return bucket_sum(
        seeds.map_batches(walks, batch_format="pyarrow"), ["k"], ["n_walks"], 4
    )


def q_lang_kmv(sf_dir: str, k: int = 64):
    """KMV (k-minimum-values) distinct-shingle sketch per language,
    side by side with the exact distinct count: the k smallest
    splitmix64(fnv1a64(shingle)) hashes per lang estimate the distinct
    token-trigram vocabulary as (k-1) * 2^64 / h_k (Bar-Yossef et al.
    2002) — the mergeable bottom-k sketch behind join-size / distinct
    estimation at 100 TB. Shingles are raw space-joined token
    trigrams (split on single space, empties kept — SQL parity).
    Per-batch partials keep only the k smallest hashes of the batch's
    DISTINCT shingles per lang (<= k x langs rows/block); the driver
    fan-in dedupes hashes and takes the global bottom-k (bounded:
    bottom-k of a union lives in the union of bottom-ks). The exact
    side is one distinct shuffle + per-lang count. Langs with < k
    distinct shingles drop out on both sides."""
    from ..functions.hashing import fnv1a64
    from ..stages.join import bucket_sum, distinct
    from ..utils import splitmix64

    docs = _table(sf_dir, "documents", ["lang", "text"])

    def tri_pairs(df: pd.DataFrame) -> pd.DataFrame:
        t = pd.DataFrame(
            {
                "lang": df["lang"].astype(str).to_numpy(),
                "l": df["text"].astype(str).str.split(" ", regex=False).to_numpy(),
            }
        )
        ex = t.explode("l")
        g = ex.groupby(level=0)
        t2 = g["l"].shift(-1)
        t3 = g["l"].shift(-2)
        keep = t2.notna() & t3.notna()
        out = pd.DataFrame(
            {
                "lang": ex["lang"][keep],
                "term": ex["l"][keep] + " " + t2[keep] + " " + t3[keep],
            }
        )
        return out.drop_duplicates()

    def kmv_partial(df: pd.DataFrame) -> pd.DataFrame:
        t = tri_pairs(df)
        if not len(t):
            return pd.DataFrame(
                {"lang": pd.Series([], dtype=str), "h": pd.Series([], dtype=np.uint64)}
            )
        t = t.copy()
        t["h"] = splitmix64(fnv1a64(t["term"].tolist()))
        t = t.drop_duplicates(["lang", "h"])
        t["rk"] = t.groupby("lang")["h"].rank(method="first")
        return t.loc[t["rk"] <= k, ["lang", "h"]]

    parts = (
        docs.map_batches(kmv_partial, batch_format="pandas").to_pandas()
    )  # bounded: <= k * n_langs rows per block
    parts = parts.drop_duplicates(["lang", "h"]).sort_values(["lang", "h"])
    parts["rk"] = parts.groupby("lang").cumcount() + 1
    kth = parts[parts["rk"] == k][["lang", "h"]]
    est = {r.lang: int(((k - 1) << 64) // int(r.h)) for r in kth.itertuples()}

    uniq = distinct(
        docs.map_batches(tri_pairs, batch_format="pandas"), ["lang", "term"], 16
    )

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {"lang": t["lang"], "one": pa.array(np.ones(t.num_rows, np.int64))}
        )

    exact = bucket_sum(
        uniq.map_batches(ones, batch_format="pyarrow"), ["lang"], ["one"], 4
    ).to_pandas()
    exact = exact.rename(columns={"one": "n_exact"})
    exact = exact[exact["lang"].isin(est)]
    exact["kmv_est"] = exact["lang"].map(est).astype("int64")
    exact["n_exact"] = exact["n_exact"].astype("int64")
    return exact[["lang", "kmv_est", "n_exact"]].reset_index(drop=True)


def q_events_attribution(sf_dir: str):
    """Multi-touch conversion attribution: each 'purchase' event is
    credited to the user's LAST non-purchase touch strictly before it
    (last-touch) and to the FIRST touch at-or-before it (first-touch);
    purchases with no prior touch are dropped on both sides. Output is
    one bounded row per channel (n_last, n_first). ONE user-bucket
    shuffle; the per-bucket kernel is a vectorized sorted scan
    (groupby-ffill for last-so-far, cumsum-of-notna==1 + ffill for
    first-so-far, shifted one row for strictness); channel counts are
    additive partials driver-summed (channels x buckets rows)."""
    from ..stages.join import add_bucket

    def attrib(df: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(df["ts"])
        order = np.lexsort((df["event_id"].to_numpy(), ts, df["user_id"].to_numpy()))
        uid = pd.Series(df["user_id"].to_numpy()[order])
        et = pd.Series(df["event_type"].to_numpy()[order])
        touch = et.where(et != "purchase")
        last_so_far = touch.groupby(uid, sort=False).ffill()
        last_before = last_so_far.groupby(uid, sort=False).shift(1)
        c = touch.notna().groupby(uid, sort=False).cumsum()
        v_first = touch.where(touch.notna() & (c == 1))
        first_so_far = v_first.groupby(uid, sort=False).ffill()
        first_before = first_so_far.groupby(uid, sort=False).shift(1)
        conv = (et == "purchase") & last_before.notna()
        l = last_before[conv].value_counts()
        f = first_before[conv].value_counts()
        out = pd.DataFrame({"n_last": l, "n_first": f}).fillna(0).astype("int64")
        out.index.name = "channel"
        return out.reset_index()

    src = _table(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    nb = _scaled_buckets(sf_dir, "events")
    s = (
        _BMG(add_bucket(src, ["user_id"], nb), nb, attrib, "pandas")
        .to_pandas()
        .groupby("channel", as_index=False)[["n_last", "n_first"]]
        .sum()
    )
    return s.astype({"n_last": "int64", "n_first": "int64"})


def q_events_top_paths(sf_dir: str, k: int = 10):
    """Top-k 3-step clickstream paths: consecutive event-type trigrams
    within each user's (ts, event_id)-ordered timeline, ranked by
    count (ties broken on the path string). The path alphabet is
    types^3 (bounded), so per-bucket counts are additive partials and
    the final rank is a driver step over <= types^3 rows. ONE
    user-bucket shuffle, vectorized shift-compare inside the bucket."""
    from ..stages.join import add_bucket

    def paths(df: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(df["ts"])
        order = np.lexsort((df["event_id"].to_numpy(), ts, df["user_id"].to_numpy()))
        uid = df["user_id"].to_numpy()[order]
        et = df["event_type"].to_numpy()[order].astype(object)
        if len(uid) < 3:
            return pd.DataFrame({"path": pd.Series([], dtype=str),
                                 "cnt": pd.Series([], dtype=np.int64)})
        same = (uid[2:] == uid[1:-1]) & (uid[1:-1] == uid[:-2])
        p = (et[:-2] + ">" + et[1:-1] + ">" + et[2:])[same]
        g = pd.DataFrame({"path": p, "cnt": np.ones(len(p), np.int64)})
        return g.groupby("path", as_index=False, sort=False).sum()

    src = _table(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])
    nb = _scaled_buckets(sf_dir, "events")
    s = (
        _BMG(add_bucket(src, ["user_id"], nb), nb, paths, "pandas")
        .to_pandas()
        .groupby("path", as_index=False)["cnt"]
        .sum()
    )
    s = s.sort_values(["cnt", "path"], ascending=[False, True]).head(k)
    return s.astype({"cnt": "int64"}).reset_index(drop=True)


def edges_lineitem_sparsified(sf_dir: str, k: int = 8, seed: int = 777):
    """Degree-capped hash sparsification of the directed 200-id
    lineitem graph: per source, keep only the k out-edges with the
    smallest counter-based priority mix64(seed, src, dst) (ties on
    dst) — the uniform-out-edge-sampling sparsifier used to bound
    supernode fan-out before an expensive pass at web scale. The
    priority is a pure function of the edge, so the sample is
    deterministic, partition-independent, and SQL-reproducible. ONE
    src-bucket shuffle; the per-bucket cap is a vectorized
    sort + cumcount."""
    from ..stages.join import add_bucket
    from ..utils import mix64

    eb = edges_lineitem_directed(sf_dir)

    def cap(df: pd.DataFrame) -> pd.DataFrame:
        h = mix64(
            np.uint64(seed),
            df["src"].to_numpy().astype(np.uint64),
            df["dst"].to_numpy().astype(np.uint64),
        )
        d = df.assign(h=h).sort_values(["src", "h", "dst"])
        d["rk"] = d.groupby("src", sort=False).cumcount()
        return d.loc[d["rk"] < k, ["src", "dst"]]

    nb = _scaled_buckets(sf_dir, "lineitem")
    return _BMG(add_bucket(eb, ["src"], nb), nb, cap, "pandas")


_DERIVATIONS["lineitem_sparsified"] = (edges_lineitem_sparsified, False)


def q_graph_sparsify_pr(sf_dir: str):
    """PageRank-30 over the hash-sparsified directed graph
    (edges_lineitem_sparsified): the standard scale move when hub
    fan-out makes the exact graph too expensive — cap out-degree with
    a deterministic edge sample, then run the same engine recurrence
    unchanged. Scores integer-scaled e8; the oracle replays the
    sparsifier (QUALIFY over the identical mix64 priority) and the
    directed LEFT-JOIN recurrence."""
    res = _run_cached(sf_dir, "lineitem_sparsified", "pagerank")
    return _as_int_vertex(res, "score_e8", _score_e8)


def q_doc_containment(sf_dir: str, threshold: float = 0.9):
    """Asymmetric shingle-containment join over the corpus: every doc
    pair (a < b) where either direction's containment
    |S(a) & S(b)| / |S(side)| clears 0.9 — the quote/superset
    detector that Jaccard dilutes when sizes differ (Broder 1997's
    second resemblance measure). Same single-shuffle inverted-index
    plan as the exhaustive Jaccard join (stages/dedup.py:
    ngram_jaccard_join mode="containment"): postings grouped by
    shingle hash with a GLOBAL df cap, per-group pair combiner,
    exact integer half-up e6 on both directions. Docs with < 3 words
    are excluded up front (they'd shingle to a sub-k stub on the
    engine side; the oracle's trigram window gives them no rows)."""
    from ..stages.dedup import ngram_jaccard_join

    docs = _table(sf_dir, "documents", ["doc_id", "text"])

    def long_enough(df: pd.DataFrame) -> pd.DataFrame:
        n = df["text"].astype(str).str.split().str.len()
        return df[n >= 3]

    return ngram_jaccard_join(
        docs.map_batches(long_enough, batch_format="pandas"),
        threshold=threshold,
        mode="containment",
    )


def q_host_neighbor_jaccard(
    sf_dir: str, n_pages: int = 2000, k: int = 16, n_buckets: int = 16
):
    """MinHash-estimated vs EXACT Jaccard of host out-neighbor sets,
    for every host pair sharing >= 1 out-neighbor — the sketch-accuracy
    eval for neighborhood similarity (the related-site signal). Slot
    i's permutation value for neighbor d is splitmix64-based
    mix64(i, fnv1a64(d)) (counter-based, SQL-reproducible); a host's
    signature is the per-slot MIN over its out-neighbors, built from
    per-batch partial mins (<= hosts x k rows/block, merged on the
    driver — the mergeable-sketch combiner). Exact intersections come
    from ONE dst-bucket pair expansion + bucket_sum (each shared
    neighbor lives in one bucket). Estimates and exact scores are
    integer half-up e6; all driver structures are host-scale (bounded
    by the contraction)."""
    from ..functions.hashing import fnv1a64
    from ..stages.join import add_bucket, bucket_sum, distinct
    from ..utils import mix64

    links = _pages_links(n_pages)

    def hosts(t: pa.Table) -> pa.Table:
        sh = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        dh = pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)
        tt = pa.table({"sh": sh, "dh": dh})
        return tt.filter(pc.not_equal(tt["sh"], tt["dh"]))

    he = distinct(links.map_batches(hosts, batch_format="pyarrow"), ["sh", "dh"], 16)

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="dh")
        m = m[m["sh_x"] < m["sh_y"]]
        g = m.groupby(["sh_x", "sh_y"], as_index=False).size()
        return g.rename(columns={"sh_x": "a", "sh_y": "b", "size": "i"})

    inter = bucket_sum(
        _BMG(add_bucket(he, ["dh"], n_buckets), n_buckets, pair_partial, "pandas"),
        ["a", "b"],
        ["i"],
        n_buckets,
    ).to_pandas()  # bounded by hosts^2

    def size_ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {"sh": t["sh"], "one": pa.array(np.ones(t.num_rows, np.int64))}
        )

    sizes = (
        bucket_sum(he.map_batches(size_ones, batch_format="pyarrow"),
                   ["sh"], ["one"], n_buckets)
        .to_pandas()
        .set_index("sh")["one"]
    )

    def sig_partial(df: pd.DataFrame) -> pd.DataFrame:
        hd = fnv1a64(df["dh"].tolist())
        out = []
        for i in range(k):
            pv = mix64(np.uint64(i), hd)
            out.append(pd.DataFrame({"sh": df["sh"], "slot": i, "pv": pv.astype(np.uint64)}))
        g = pd.concat(out).groupby(["sh", "slot"], as_index=False)["pv"].min()
        return g

    sig = (
        he.map_batches(sig_partial, batch_format="pandas")
        .to_pandas()  # bounded: hosts x k per block
        .groupby(["sh", "slot"], as_index=False)["pv"]
        .min()
        .pivot(index="sh", columns="slot", values="pv")
    )

    a = inter["a"].to_numpy()
    b = inter["b"].to_numpy()
    i = inter["i"].to_numpy().astype(np.int64)
    na = sizes.loc[a].to_numpy().astype(np.int64)
    nb = sizes.loc[b].to_numpy().astype(np.int64)
    u = na + nb - i
    je = (2 * i * 1_000_000 + u) // (2 * u)
    eq = (sig.loc[a].to_numpy() == sig.loc[b].to_numpy()).sum(axis=1).astype(np.int64)
    me = (2 * eq * 1_000_000 + k) // (2 * k)
    out = pd.DataFrame(
        {"a": a, "b": b, "jaccard_e6": je, "minhash_e6": me}
    ).sort_values(["a", "b"])
    return out.reset_index(drop=True)


def q_posting_list_bytes(sf_dir: str, n_buckets: int = 16):
    """Inverted-index size economics: per term, the document frequency
    and the byte cost of the VARINT-ENCODED GAP posting list (first
    gap = doc_id + 1, then sorted deltas; each gap costs
    ceil(bitlength/7) bytes) — the planner statistic that decides
    which terms get skip blocks vs bitmaps at index-build time.
    Bitlength is exact via frexp (no float log near power-of-two
    boundaries). Same single term-bucket shuffle as the index build
    itself (a term's whole posting list lands in one group)."""
    from ..stages.join import add_bucket

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].astype(str).str.strip()
        t = df.assign(text=s)[s != ""].set_index("doc_id")["text"].str.split().explode()
        return pd.DataFrame(
            {"doc_id": t.index.to_numpy(), "term": t.to_numpy()}
        ).drop_duplicates()

    def sizes(dfb: pd.DataFrame) -> pd.DataFrame:
        s = dfb.sort_values(["term", "doc_id"])
        doc = s["doc_id"].to_numpy().astype(np.int64)
        term = s["term"].to_numpy()
        first = np.ones(len(s), dtype=bool)
        first[1:] = term[1:] != term[:-1]
        gaps = np.where(first, doc + 1, doc - np.concatenate([[0], doc[:-1]]))
        bitlen = np.frexp(gaps.astype(np.float64))[1]  # exact for < 2^53
        nbytes = (bitlen + 6) // 7
        g = pd.DataFrame({"term": term, "df": 1, "bytes": nbytes})
        out = g.groupby("term", as_index=False).agg(
            df=("df", "sum"), bytes=("bytes", "sum")
        )
        return out.astype({"df": "int64", "bytes": "int64"})

    src = _table(sf_dir, "documents", ["doc_id", "text"])
    posts = src.map_batches(pairs, batch_format="pandas")
    return _BMG(add_bucket(posts, ["term"], n_buckets), n_buckets, sizes, "pandas")


def q_events_window_hll(sf_dir: str):
    """Distinct-users-per-day HLL: the register table of a
    HyperLogLog sketch per TUMBLING 1-day window (epoch-day) — the
    mergeable per-window distinct sketch a streaming dashboard keeps.
    Register max is duplicate-insensitive, so no distinct pass at all:
    per-batch (win, reg, rho) partials (<= windows x 256 rows/block)
    reduce through one groupby-max. Same FNV-1a + splitmix64 register
    derivation as q_user_hll."""
    from ray.data.aggregate import Max

    from ..functions.hashing import fnv1a64

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from ..utils import splitmix64

        win = _ts_us(df["ts"]) // 86_400_000_000
        ids = df["user_id"].astype("int64").to_numpy()
        h = splitmix64(fnv1a64([str(i) for i in ids]))
        reg, rho = _hll_reg_rho(h)
        g = (
            pd.DataFrame({"win": win, "reg": reg, "rho": rho})
            .groupby(["win", "reg"], as_index=False)
            .max()
        )
        return g.astype("int64")

    ds = _table(sf_dir, "events", ["ts", "user_id"]).map_batches(
        partial, batch_format="pandas"
    )
    agg = ds.groupby(["win", "reg"]).aggregate(Max("rho", alias_name="rho"))
    return agg.map_batches(
        lambda t: pa.table(
            {
                "win": t["win"].cast(pa.int64()),
                "reg": t["reg"].cast(pa.int64()),
                "rho": t["rho"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_rank_spearman(sf_dir: str):
    """Spearman rank correlation between directed PageRank and
    in-degree over the 200-id directed graph — "does degree predict
    rank here?", the sanity statistic behind degree-based crawl
    prioritization. Ranks are row_number ties broken on vertex id
    (deterministic, SQL row_number parity); the correlation is exact
    integer arithmetic: with D = n(n^2-1) and S = sum of squared rank
    differences, 6S <= 2D always, so rho_e6 is computed as the
    half-up NONNEGATIVE division of (2D - 6S)*1e6 by D, minus 1e6
    (Python floor vs DuckDB truncation never diverges on negatives
    because the division is nonnegative by construction). The score
    side reuses the cached engine run; in-degree is one bucket_sum;
    the correlate-and-rank step is a bounded driver table (200
    vertices, the graph's fixed id universe)."""
    from ..stages.join import bucket_sum

    res = _run_cached(sf_dir, "lineitem_directed", "pagerank")
    pr = _as_int_vertex(res, "score_e8", _score_e8).to_pandas()  # bounded: 200 ids

    eb = edges_lineitem_directed(sf_dir)

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {"dst": t["dst"], "one": pa.array(np.ones(t.num_rows, np.int64))}
        )

    indeg = (
        bucket_sum(eb.map_batches(ones, batch_format="pyarrow"), ["dst"], ["one"], 8)
        .to_pandas()
        .rename(columns={"dst": "vertex", "one": "indeg"})
    )
    m = pr.merge(indeg, on="vertex", how="left").fillna({"indeg": 0})
    m = m.astype({"vertex": "int64", "indeg": "int64"})
    # row_number ranks (ties on vertex id), via argsort inversion
    order_pr = np.lexsort((m["vertex"].to_numpy(), -m["score_e8"].to_numpy()))
    r_pr = np.empty(len(m), dtype=np.int64)
    r_pr[order_pr] = np.arange(1, len(m) + 1)
    order_dg = np.lexsort((m["vertex"].to_numpy(), -m["indeg"].to_numpy()))
    r_dg = np.empty(len(m), dtype=np.int64)
    r_dg[order_dg] = np.arange(1, len(m) + 1)
    n = len(m)
    s = int(((r_pr - r_dg) ** 2).sum())
    d = n * (n * n - 1)
    rho_e6 = (2 * (2 * d - 6 * s) * 1_000_000 + d) // (2 * d) - 1_000_000
    return pd.DataFrame(
        {
            "n": pd.Series([n], dtype="int64"),
            "sum_d2": pd.Series([s], dtype="int64"),
            "rho_e6": pd.Series([rho_e6], dtype="int64"),
        }
    )


def _host_fwd_sweep(state_ref, n: int, max_rounds: int):
    """Shared Brandes forward kernel over the dense host adjacency:
    per source batch, BFS layers + path counting, emitting
    (s, v, dist, sigma) rows for every reached vertex. Used by both
    q_host_betweenness and q_host_edge_betweenness (ADVICE r4: one
    kernel, no drift)."""

    def fwd(t: pa.Table) -> pa.Table:
        A_ = ray.get(state_ref).astype(np.int64)
        s = t["s"].to_numpy().astype(np.int64)
        m = len(s)
        dist = np.full((m, n), -1, np.int64)
        sig = np.zeros((m, n), np.int64)
        dist[np.arange(m), s] = 0
        sig[np.arange(m), s] = 1
        front = np.zeros((m, n), dtype=bool)
        front[np.arange(m), s] = True
        d = 0
        while front.any() and d < max_rounds:
            d += 1
            contrib = (sig * front) @ A_
            new = (contrib > 0) & (dist < 0)
            sig = sig + np.where(new, contrib, 0)
            dist[new] = d
            front = new
        rs, vs = np.nonzero(dist >= 0)
        return pa.table(
            {
                "s": pa.array(s[rs]),
                "v": pa.array(vs.astype(np.int64)),
                "dist": pa.array(dist[rs, vs]),
                "sigma": pa.array(sig[rs, vs]),
            }
        )

    return fwd


def q_host_betweenness(sf_dir: str, n_pages: int = 2000, max_rounds: int = 7):
    """EXACT directed betweenness centrality over the contracted host
    graph (Brandes' pair-dependency sum, NOT the all-integer stress
    variant): bc(v) = sum over (s, t), s != v != t, with
    dist(s,v) + dist(v,t) = dist(s,t), of sigma_sv * sigma_vt /
    sigma_st — each fractional term integer half-up e6 BEFORE the sum
    (sum of rounded terms, so a SQL oracle reproduces it term by term;
    classic Brandes' backward accumulation aggregates fractions and
    is not integer-replayable). Two phases, both over source batches:
    (1) forward BFS + path counting emits (s, v, dist, sigma) rows
    (bounded by the contraction's reachable pairs); (2) the assembled
    dist/sigma matrices broadcast back and each source batch
    vectorizes its own S x V x T dependency slab, emitting per-v
    additive partials merged by ONE tiny bucket_sum. Intermediates
    must have outlinks, so v ranges over source hosts only."""
    from ..stages.join import bucket_sum

    names, A, src_codes = _host_graph(n_pages)
    n = len(names)
    S = len(src_codes)
    state = ray.put(A)

    seeds = rd.from_arrow(pa.table({"s": pa.array(src_codes.astype(np.int64))}))

    rows = seeds.map_batches(
        _host_fwd_sweep(state, n, max_rounds), batch_format="pyarrow"
    ).to_pandas()
    # assemble bounded matrices (reachable pairs of the contraction)
    sidx = {int(c): i for i, c in enumerate(src_codes)}
    D = np.full((S, n), -1, np.int64)
    G = np.zeros((S, n), np.int64)
    ri = np.array([sidx[int(x)] for x in rows["s"]], dtype=np.int64)
    D[ri, rows["v"].to_numpy()] = rows["dist"].to_numpy()
    G[ri, rows["v"].to_numpy()] = rows["sigma"].to_numpy()
    assert G.max() < 1 << 30, "sigma too large for int64 term arithmetic"
    mstate = ray.put((src_codes.astype(np.int64), D, G))

    sbatch = rd.from_arrow(pa.table({"i": pa.array(np.arange(S, dtype=np.int64))}))

    def dep(t: pa.Table) -> pa.Table:
        codes, D_, G_ = ray.get(mstate)
        bc = np.zeros(len(codes), np.int64)
        cnt = np.zeros(len(codes), np.int64)
        for i in t["i"].to_numpy():
            ds = D_[i]  # dist s -> * (len n)
            gs = G_[i]
            dsv = ds[codes]  # dist s -> v for source-hosts v (len S)
            sig_sv = gs[codes]
            cond = (
                (dsv[:, None] > 0)
                & (D_ > 0)
                & (ds[None, :] > 0)
                & (dsv[:, None] + D_ == ds[None, :])
            )
            sig_st = gs[None, :]
            term = np.where(
                cond,
                (2 * sig_sv[:, None] * G_ * 1_000_000 + sig_st)
                // np.where(cond, 2 * sig_st, 1),
                0,
            )
            bc += term.sum(axis=1)
            cnt += cond.sum(axis=1)
        return pa.table(
            {
                "v": pa.array(codes),
                "bc_e6": pa.array(bc),
                "n_terms": pa.array(cnt),
            }
        )

    agg = bucket_sum(
        sbatch.map_batches(dep, batch_format="pyarrow"), ["v"], ["bc_e6", "n_terms"], 8
    ).to_pandas()  # bounded: one row per source host
    agg["host"] = names[agg["v"].to_numpy()]
    out = agg[["host", "bc_e6", "n_terms"]].sort_values("host").reset_index(drop=True)
    return out.astype({"bc_e6": "int64", "n_terms": "int64"})


def q_host_pagerank_push(sf_dir: str, n_pages: int = 2000, rounds: int = 12):
    """ALL-INTEGER local PageRank by synchronized forward push over
    the contracted host graph: fixed-point e12 mass starts on the
    lexicographically smallest source host; each round every host
    banks (15 * r) // 100 into p, sends (85 * r) // (100 * outdeg) to
    each out-neighbor (integer floor — the truncated remainder is the
    documented approximation error, which makes the recurrence
    bit-exact and summation-order-free, unlike float PageRank), and
    sinks drop their residual. Emits (host, p_e12, r_e12) after 12
    rounds. The whole state is host-scale (bounded by the
    contraction); scale path above the broadcast cap is the engine's
    integer-message BSP program."""
    names, A, src_codes = _host_graph(n_pages)
    n = len(names)
    seed = int(src_codes[np.argmin(names[src_codes])])
    Ai = A.astype(np.int64)
    deg = Ai.sum(axis=1)
    r = np.zeros(n, np.int64)
    p = np.zeros(n, np.int64)
    r[seed] = 1_000_000_000_000
    for _ in range(rounds):
        p = p + (15 * r) // 100
        share = np.where(deg > 0, (85 * r) // np.maximum(100 * deg, 1), 0)
        r = share @ Ai
    return pd.DataFrame(
        {
            "host": names,
            "p_e12": pd.Series(p, dtype="int64"),
            "r_e12": pd.Series(r, dtype="int64"),
        }
    ).sort_values("host").reset_index(drop=True)


def q_host_edge_betweenness(
    sf_dir: str, n_pages: int = 2000, n_sources: int = 10, max_rounds: int = 7
):
    """SAMPLED Girvan-Newman edge betweenness over the contracted
    host graph: for each directed host edge (u, w) and each of the
    n_sources lexicographically smallest source hosts s, the
    dependency sum over targets t of sigma_su * sigma_wt / sigma_st
    where dist(s,u) + 1 + dist(w,t) = dist(s,t) — the
    community-cutting signal of GN clustering, with each fractional
    term integer half-up e6 (SQL-replayable, like
    q_host_betweenness). Phase 1 reuses the forward BFS + path-count
    sweep; phase 2 distributes the per-source edge x target slab
    over source batches and merges per-edge partials with ONE
    bucket_sum. Sink hosts contribute only their self target
    (sigma = 1), mirrored by the oracle's sink self-rows."""
    from ..stages.join import bucket_sum

    names, A, src_codes = _host_graph(n_pages)
    n = len(names)
    S = len(src_codes)
    state = ray.put(A)
    sample = src_codes[np.argsort(names[src_codes])][:n_sources].astype(np.int64)

    seeds = rd.from_arrow(pa.table({"s": pa.array(src_codes.astype(np.int64))}))

    rows = seeds.map_batches(
        _host_fwd_sweep(state, n, max_rounds), batch_format="pyarrow"
    ).to_pandas()
    # full (n x n) dist/sigma: source-host rows from the sweep, sink
    # rows are diagonal-only (a sink reaches nothing but itself)
    Dx = np.full((n, n), -1, np.int64)
    Gx = np.zeros((n, n), np.int64)
    Dx[np.arange(n), np.arange(n)] = 0
    Gx[np.arange(n), np.arange(n)] = 1
    Dx[rows["s"].to_numpy(), rows["v"].to_numpy()] = rows["dist"].to_numpy()
    Gx[rows["s"].to_numpy(), rows["v"].to_numpy()] = rows["sigma"].to_numpy()
    assert Gx.max() < 1 << 30
    eu, ew = np.nonzero(A)
    mstate = ray.put((Dx, Gx, eu.astype(np.int64), ew.astype(np.int64)))

    sbatch = rd.from_arrow(pa.table({"s": pa.array(sample)}))

    def dep(t: pa.Table) -> pa.Table:
        Dx_, Gx_, eu_, ew_ = ray.get(mstate)
        bc = np.zeros(len(eu_), np.int64)
        for s in t["s"].to_numpy():
            ds = Dx_[s]  # dist s -> * (len n)
            gs = Gx_[s]
            dsu = ds[eu_]  # dist s -> u per edge
            sig_su = gs[eu_]
            dwt = Dx_[ew_, :]  # (edges, n) dist w -> t
            sig_wt = Gx_[ew_, :]
            cond = (
                (dsu[:, None] >= 0)
                & (dwt >= 0)
                & (ds[None, :] >= 1)
                & (dsu[:, None] + 1 + dwt == ds[None, :])
            )
            sig_st = gs[None, :]
            term = np.where(
                cond,
                (2 * sig_su[:, None] * sig_wt * 1_000_000 + sig_st)
                // np.where(cond, 2 * sig_st, 1),
                0,
            )
            bc += term.sum(axis=1)
        return pa.table(
            {
                "u": pa.array(eu_),
                "w": pa.array(ew_),
                "bc_e6": pa.array(bc),
            }
        )

    agg = bucket_sum(
        sbatch.map_batches(dep, batch_format="pyarrow"), ["u", "w"], ["bc_e6"], 8
    ).to_pandas()  # bounded: one row per contracted edge
    out = pd.DataFrame(
        {
            "src_host": names[agg["u"].to_numpy()],
            "dst_host": names[agg["w"].to_numpy()],
            "bc_e6": agg["bc_e6"].astype("int64"),
        }
    )
    return out.sort_values(["src_host", "dst_host"]).reset_index(drop=True)


def q_events_dedup_replay(sf_dir: str, n_buckets: int = 8):
    """Exactly-once accounting under at-least-once delivery: 10% of
    events are redelivered (retry iff mix64(99, event_id) % 10 == 0 —
    the planted-duplicate harness, reproduced verbatim in SQL), every delivery carries a counter-based arrival key
    (splitmix64(event_id) for the original, mix64(98, event_id) —
    which itself ends in one splitmix64 — for the retry), and the
    consumer keeps the FIRST
    arrival per event_id. Per event type: deliveries, unique events,
    the duplicate rate (half-up e6), and a survivor checksum
    (sum of min-arrival-key >> 32) that pins WHICH copy won — the
    keep-first semantics is hash-checked, not just the counts. A
    delivery pair shares its input row, so survivors resolve locally
    (zero shuffles); per-type partials driver-reduce."""
    from ..utils import mix64, splitmix64

    ds = _table(sf_dir, "events", ["event_id", "event_type"])

    def part(df: pd.DataFrame) -> pd.DataFrame:
        eid = df["event_id"].to_numpy().astype(np.uint64)
        et = df["event_type"].astype(str).to_numpy()
        ak1 = splitmix64(eid)
        retried = mix64(np.uint64(99), eid) % np.uint64(10) == 0
        ak2 = mix64(np.uint64(98), eid)
        min_ak = np.where(retried, np.minimum(ak1, ak2), ak1)
        g = pd.DataFrame(
            {
                "event_type": et,
                "n_deliveries": 1 + retried.astype(np.int64),
                "n_unique": np.ones(len(eid), np.int64),
                "survivor_sum": (min_ak >> np.uint64(32)).astype(np.int64),
            }
        )
        return g.groupby("event_type", as_index=False).sum()

    s = (
        ds.map_batches(part, batch_format="pandas")
        .to_pandas()
        .groupby("event_type", as_index=False)
        .sum()
    )
    d = s["n_deliveries"].to_numpy().astype(np.int64)
    u = s["n_unique"].to_numpy().astype(np.int64)
    s["dup_e6"] = (2 * (d - u) * 1_000_000 + d) // (2 * d)
    return s.astype(
        {"n_deliveries": "int64", "n_unique": "int64",
         "survivor_sum": "int64", "dup_e6": "int64"}
    )


def q_term_position_stats(sf_dir: str, terms: tuple = ("hash", "join", "vector")):
    """Lead-bias statistics for a fixed query-term set: per term, how
    many documents contain it and the average FIRST-occurrence
    position (1-based token index, integer half-up e6) — whether a
    term is headline material or buried. Vectorized explode +
    per-doc min inside each batch; per-term (n_docs, sum_pos)
    partials driver-reduce (bounded by |terms|)."""
    terms_l = list(terms)

    def part(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].astype(str).str.strip()
        keep = s != ""
        toks = s[keep].str.split()
        ex = toks.explode()
        pos = ex.groupby(level=0).cumcount() + 1  # 1-based
        rows = []
        for t in terms_l:
            hit = ex == t
            if hit.any():
                first = pos[hit].groupby(level=0).min()
                rows.append((t, len(first), int(first.sum())))
            else:
                rows.append((t, 0, 0))
        return pd.DataFrame(rows, columns=["term", "n_docs", "sum_pos"])

    s = (
        _table(sf_dir, "documents", ["text"])
        .map_batches(part, batch_format="pandas")
        .to_pandas()
        .groupby("term", as_index=False)
        .sum()
    )
    s = s[s["n_docs"] > 0]
    n = s["n_docs"].to_numpy().astype(np.int64)
    sp = s["sum_pos"].to_numpy().astype(np.int64)
    s["avg_pos_e6"] = (2 * sp * 1_000_000 + n) // (2 * n)
    return s.astype(
        {"n_docs": "int64", "sum_pos": "int64", "avg_pos_e6": "int64"}
    ).sort_values("term").reset_index(drop=True)


def q_lang_confusion(sf_dir: str):
    """Confusion matrix of the n-gram language-ID heuristic against
    the generator's true lang label: (true_lang, pred_lang, n_docs) —
    the eval artifact that decides whether the cheap classifier is
    good enough to gate a 100 TB corpus. Same stopword-hit kernel as
    q_doc_langid (functions/text.py::lang_id_counts), regrouped per
    batch into bounded langs^2 partials, driver-reduced."""
    from ..functions.text import lang_id_counts

    def part(df: pd.DataFrame) -> pd.DataFrame:
        pred = [lang_id_counts(t)[0] for t in df["text"].astype(str)]
        g = pd.DataFrame(
            {"true_lang": df["lang"].astype(str).to_numpy(), "pred_lang": pred}
        )
        out = g.groupby(["true_lang", "pred_lang"], as_index=False).size()
        return out.rename(columns={"size": "n_docs"})

    s = (
        _table(sf_dir, "documents", ["lang", "text"])
        .map_batches(part, batch_format="pandas")
        .to_pandas()
        .groupby(["true_lang", "pred_lang"], as_index=False)["n_docs"]
        .sum()
    )
    return s.astype({"n_docs": "int64"})


def q_cms_error(sf_dir: str, k: int = 10):
    """Count-Min sketch accuracy eval on the stream's heaviest keys:
    the top-k users by EXACT event count (ties on user_id), each with
    the CMS point estimate (min over the d=4 rows of the same
    register table q_cms_user_counts builds) and the overcount
    est - exact (>= 0 by the CMS guarantee — asserted). Exact counts
    are one user-bucket_sum + a distributed sort-limit; the k probes
    then read <= d*k registers via a broadcast coordinate filter —
    the sketch is never materialized on the driver."""
    from ..stages.join import bucket_sum
    from ..utils import splitmix64

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": t["user_id"], "c": pa.array(np.ones(t.num_rows, np.int64))}
        )

    exact = bucket_sum(
        _table(sf_dir, "events", ["user_id"]).map_batches(ones, batch_format="pyarrow"),
        ["user_id"],
        ["c"],
        16,
    )
    top = (
        exact.sort(["c", "user_id"], descending=[True, False]).limit(k).to_pandas()
    )
    uid = top["user_id"].to_numpy().astype(np.uint64)
    with np.errstate(over="ignore"):
        base = uid * np.uint64(1099511628211)
    coords = set()
    want = {}
    for r in range(_CMS_D):
        reg = (splitmix64(base ^ np.uint64(r)) % np.uint64(_CMS_W)).astype(np.int64)
        for u, g in zip(top["user_id"], reg):
            coords.add((r, int(g)))
            want.setdefault(int(u), []).append((r, int(g)))
    regs = q_cms_user_counts(sf_dir)
    cset = ray.put(coords)

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        cs = ray.get(cset)
        m = [(int(r), int(g)) in cs for r, g in zip(df["r"], df["reg"])]
        return df[np.array(m, dtype=bool)] if len(df) else df

    hit = regs.map_batches(pick, batch_format="pandas").to_pandas()  # <= d*k rows
    table = {(int(r), int(g)): int(c) for r, g, c in zip(hit["r"], hit["reg"], hit["cnt"])}
    est = np.array(
        [min(table[c] for c in want[int(u)]) for u in top["user_id"]], dtype=np.int64
    )
    ex = top["c"].to_numpy().astype(np.int64)
    assert (est >= ex).all(), "CMS underestimated — hash mismatch"
    return pd.DataFrame(
        {
            "user_id": top["user_id"].astype("int64"),
            "exact": ex,
            "cms_est": est,
            "overcount": est - ex,
        }
    )


def q_customer_rfm(sf_dir: str, n_buckets: int = 16):
    """RFM segmentation (recency / frequency / monetary) with
    per-nation NTILE(4) quartile codes — the classic customer-scoring
    mart. Per-customer aggregates come from ONE custkey-bucket
    shuffle (a customer's orders land whole); the global max order
    date is a per-batch max driver-reduce; nation attaches from the
    broadcast dims; the three NTILEs run in ONE nation-bucket shuffle
    with the bit-exact first-groups-get-the-remainder sizing
    (q_order_quartiles' kernel), R ordered (r_days ASC, custkey), F/M
    ordered (metric DESC, custkey). rfm_code = R*100 + F*10 + M."""
    from ..stages.join import add_bucket

    src = _table(sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderdate"])

    mx = int(
        src.map_batches(
            lambda df: pd.DataFrame({"m": [_ts_us(df["o_orderdate"]).max()]}),
            batch_format="pandas",
        )
        .to_pandas()["m"]
        .max()
    )

    def cust_agg(g: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(g["o_orderdate"])
        cents = np.rint(g["o_totalprice"].to_numpy() * 100).astype(np.int64)
        d = pd.DataFrame(
            {"o_custkey": g["o_custkey"].to_numpy(), "cents": cents, "ts": ts}
        )
        out = d.groupby("o_custkey", as_index=False).agg(
            freq=("cents", "size"), monet_cents=("cents", "sum"), mts=("ts", "max")
        )
        out["r_days"] = (mx - out["mts"]) // 86_400_000_000
        return out[["o_custkey", "r_days", "freq", "monet_cents"]].astype("int64")

    agg = _BMG(add_bucket(src, ["o_custkey"], n_buckets), n_buckets, cust_agg, "pandas")

    cust_df = _dim_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nat_df = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    c2n = pd.Series(cust_df["c_nationkey"].to_numpy(), index=cust_df["c_custkey"].to_numpy())
    nk2name = dict(zip(nat_df["n_nationkey"].astype(int), nat_df["n_name"]))
    c2n_ref = ray.put(c2n)
    n2n_ref = ray.put(nk2name)

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        c2n_l = ray.get(c2n_ref)
        names = ray.get(n2n_ref)
        nk = c2n_l.reindex(df["o_custkey"].to_numpy()).to_numpy()
        keep = ~pd.isna(nk)
        out = df[keep].copy()
        out["nation"] = [names[int(x)] for x in nk[keep]]
        return out

    def _ntile4(r: np.ndarray, n: int) -> np.ndarray:
        big = n % 4
        sb = n // 4 + 1
        q = np.where(
            r <= big * sb,
            (r - 1) // sb,
            big + (r - big * sb - 1) // max(n // 4, 1),
        )
        return (q + 1).astype(np.int64)

    def rfm_kernel(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("nation", sort=False):
            n = len(grp)
            ck = grp["o_custkey"].to_numpy()
            rq = np.empty(n, np.int64)
            rq[np.lexsort((ck, grp["r_days"].to_numpy()))] = _ntile4(
                np.arange(1, n + 1), n
            )
            fq = np.empty(n, np.int64)
            fq[np.lexsort((ck, -grp["freq"].to_numpy()))] = _ntile4(
                np.arange(1, n + 1), n
            )
            mq = np.empty(n, np.int64)
            mq[np.lexsort((ck, -grp["monet_cents"].to_numpy()))] = _ntile4(
                np.arange(1, n + 1), n
            )
            outs.append(
                pd.DataFrame(
                    {
                        "c_custkey": ck,
                        "nation": grp["nation"].to_numpy(),
                        "r_days": grp["r_days"].to_numpy(),
                        "freq": grp["freq"].to_numpy(),
                        "monet_cents": grp["monet_cents"].to_numpy(),
                        "rfm_code": rq * 100 + fq * 10 + mq,
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "c_custkey": pd.Series([], dtype="int64"),
                    "nation": pd.Series([], dtype=str),
                    "r_days": pd.Series([], dtype="int64"),
                    "freq": pd.Series([], dtype="int64"),
                    "monet_cents": pd.Series([], dtype="int64"),
                    "rfm_code": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    with_nat = agg.map_batches(attach, batch_format="pandas")
    return _BMG(add_bucket(with_nat, ["nation"], 8), 8, rfm_kernel, "pandas")


def q_shingle_df_curve(sf_dir: str, n_buckets: int = 16):
    """Document-frequency histogram of word trigram shingles: how
    many shingles occur in exactly df documents — the curve that sets
    the dedup joins' df_cap (the [2, 128] window in doc_containment /
    ngram_jaccard). Postings are (doc, shingle-hash) distinct; ONE
    shingle-bucket shuffle computes df, one tiny df-bucket sum builds
    the histogram. The oracle counts over trigram STRINGS — identical
    groups barring 64-bit collisions."""
    from ..functions.text import shingle_hashes
    from ..stages.join import bucket_sum

    def postings(t: pa.Table) -> pa.Table:
        out_sh = []
        for txt in t["text"].to_pylist():
            sh = shingle_hashes(str(txt), 3)
            out_sh.append(sh.astype(np.int64))
        cat = np.concatenate(out_sh) if out_sh else np.empty(0, np.int64)
        return pa.table(
            {"sh": pa.array(cat), "one": pa.array(np.ones(len(cat), np.int64))}
        )

    dfs = bucket_sum(
        _table(sf_dir, "documents", ["text"]).map_batches(
            postings, batch_format="pyarrow"
        ),
        ["sh"],
        ["one"],
        n_buckets,
    )

    def hist(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "df": t["one"],
                "n_shingles": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )

    return bucket_sum(
        dfs.map_batches(hist, batch_format="pyarrow"), ["df"], ["n_shingles"], 4
    )


def q_events_state_violations(sf_dir: str, n_buckets: int = 8):
    """Protocol-order audit: users whose FIRST purchase precedes
    their FIRST signup (or who purchase without ever signing up) —
    the state-machine validity check a clickstream warehouse runs on
    ingest. First-by-(ts, event_id) per type inside ONE user-bucket
    shuffle; output one row per violating user with both event ids
    (first_signup_id = -1 when absent)."""
    from ..stages.join import add_bucket

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "user_id": pd.Series([], dtype="int64"),
                "first_purchase_id": pd.Series([], dtype="int64"),
                "first_signup_id": pd.Series([], dtype="int64"),
            }
        )
        ts = _ts_us(g["ts"])
        order = np.lexsort((g["event_id"].to_numpy(), ts, g["user_id"].to_numpy()))
        d = pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy()[order],
                "event_id": g["event_id"].to_numpy()[order],
                "ts_us": ts[order],
                "et": g["event_type"].to_numpy()[order],
            }
        )
        firsts = (
            d[d["et"].isin(["purchase", "signup"])]
            .groupby(["user_id", "et"], as_index=False)
            .first()  # rows already in (ts, event_id) order per user
            .pivot(index="user_id", columns="et", values=["event_id", "ts_us"])
        )
        if ("event_id", "purchase") not in firsts.columns:
            return empty
        p_id = firsts[("event_id", "purchase")]
        p_ts = firsts[("ts_us", "purchase")]
        if ("event_id", "signup") in firsts.columns:
            s_id = firsts[("event_id", "signup")]
            s_ts = firsts[("ts_us", "signup")]
        else:
            s_id = pd.Series(np.nan, index=firsts.index)
            s_ts = pd.Series(np.nan, index=firsts.index)
        # violation: purchased, and first purchase (ts, id) < first signup
        bad = p_id.notna() & (
            s_id.isna()
            | (p_ts < s_ts)
            | ((p_ts == s_ts) & (p_id < s_id))
        )
        return pd.DataFrame(
            {
                "user_id": firsts.index.to_numpy()[bad].astype(np.int64),
                "first_purchase_id": p_id[bad].astype("int64").to_numpy(),
                "first_signup_id": s_id[bad].fillna(-1).astype("int64").to_numpy(),
            }
        )

    src = _table(sf_dir, "events", ["user_id", "event_id", "event_type", "ts"])
    return _BMG(add_bucket(src, ["user_id"], n_buckets), n_buckets, kernel, "pandas")


def q_gn_communities(
    sf_dir: str, n_pages: int = 2000, n_cut: int = 20, rounds: int = 20
):
    """ONE Girvan-Newman step: delete the n_cut host edges with the
    highest sampled edge betweenness (ties bc DESC, src, dst — the
    community-cutting edges), then label the remaining UNDIRECTED
    host graph by min-label propagation run a FIXED `rounds` rounds
    (fixpoint-stable: both sides apply identical updates, so an
    unconverged cap still matches; observed undirected diameter is
    far below 20). community = lexicographically smallest reachable
    host. Reuses the q_host_edge_betweenness pipeline for scores;
    the cut + propagation run on the bounded contracted graph."""
    ebt = q_host_edge_betweenness(sf_dir, n_pages=n_pages)
    order = np.lexsort(
        (ebt["dst_host"].to_numpy(), ebt["src_host"].to_numpy(),
         -ebt["bc_e6"].to_numpy())
    )
    cut = set(
        zip(
            ebt["src_host"].to_numpy()[order[:n_cut]],
            ebt["dst_host"].to_numpy()[order[:n_cut]],
        )
    )
    keep = [
        (s, d)
        for s, d in zip(ebt["src_host"], ebt["dst_host"])
        if (s, d) not in cut
    ]
    names, _, _ = _host_graph(n_pages)
    code = {h: i for i, h in enumerate(names)}
    n = len(names)
    U = np.zeros((n, n), dtype=bool)
    for s, d in keep:
        U[code[s], code[d]] = True
        U[code[d], code[s]] = True
    lab = np.arange(n, dtype=np.int64)
    for _ in range(rounds):
        m = np.where(U, lab[None, :], n).min(axis=1)
        lab = np.minimum(lab, m)
    return pd.DataFrame(
        {"host": names, "community": names[lab]}
    ).sort_values("host").reset_index(drop=True)


def q_orders_yoy(sf_dir: str, n_buckets: int = 8):
    """Year-over-year revenue growth per calendar month: revenue in
    cents per (year, month) plus yoy_e6 = half-up rev * 1e6 /
    same-month-previous-year revenue (rows without a prior year are
    emitted with yoy_e6 = -1) — the seasonality-corrected trend
    readout. ONE (year, month)-bucket sum; the YoY self-join runs on
    the bounded month table."""
    from ..stages.join import bucket_sum

    def part(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.to_datetime(df["o_orderdate"])
        cents = np.rint(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame({"y": d.dt.year.astype(np.int64),
                          "m": d.dt.month.astype(np.int64), "rev_cents": cents})
        return g.groupby(["y", "m"], as_index=False).sum()

    s = bucket_sum(
        _table(sf_dir, "orders", ["o_orderdate", "o_totalprice"]).map_batches(
            part, batch_format="pandas"
        ),
        ["y", "m"],
        ["rev_cents"],
        n_buckets,
    ).to_pandas()  # bounded: one row per calendar month
    prev = s.rename(columns={"rev_cents": "prev_cents"}).assign(y=s["y"] + 1)
    m = s.merge(prev, on=["y", "m"], how="left")
    rev = m["rev_cents"].to_numpy().astype(np.int64)
    pv = m["prev_cents"].fillna(0).astype("int64").to_numpy()
    yoy = np.where(pv > 0, (2 * rev * 1_000_000 + np.maximum(pv, 1)) // (2 * np.maximum(pv, 1)), -1)
    out = pd.DataFrame(
        {"y": m["y"].astype("int64"), "m": m["m"].astype("int64"),
         "rev_cents": rev, "yoy_e6": yoy}
    )
    return out.sort_values(["y", "m"]).reset_index(drop=True)


def q_host_sim_topk(sf_dir: str, n_pages: int = 2000):
    """Related-site recommendation: for every host with >= 1 candidate
    (a host sharing an out-neighbor), its MOST similar host by exact
    out-neighbor Jaccard (ties: higher jaccard first, then
    lexicographically smallest partner). Reuses the
    q_host_neighbor_jaccard pair pipeline (one dst-bucket pair
    expansion), symmetrizes the bounded pair table, and takes the
    per-host argmax."""
    pairs = q_host_neighbor_jaccard(sf_dir, n_pages=n_pages)
    sym = pd.concat(
        [
            pairs.rename(columns={"a": "host", "b": "other"}),
            pairs.rename(columns={"b": "host", "a": "other"}),
        ],
        ignore_index=True,
    )[["host", "other", "jaccard_e6"]]
    sym = sym.sort_values(
        ["host", "jaccard_e6", "other"], ascending=[True, False, True]
    )
    best = sym.groupby("host", as_index=False).first()
    return best.rename(columns={"other": "best_match"}).astype(
        {"jaccard_e6": "int64"}
    )


def q_events_hll_error(sf_dir: str):
    """HyperLogLog accuracy eval per tumbling day: the ALL-INTEGER
    HLL estimate vs the exact distinct-user count. The harmonic sum
    is computed as the exact integer sum of 2^(57 - rho) (rho <= 57
    for p=8), and the estimate as alpha_e6 * m^2 * 2^57 //
    (1e6 * sum_scaled) with alpha_e6 = 721253 (the 0.7213/(1 +
    1.079/m) constant fixed at e6) — float-free, so the SQL oracle
    replays it bit-for-bit (a float harmonic mean would be
    summation-order-sensitive: powers of two spanning 56 bits do not
    sum exactly in doubles). Missing registers contribute rho = 0
    (2^57 each). Registers reuse q_events_window_hll's partials;
    exact counts are one (win, user) distinct + count."""
    from ..stages.join import bucket_sum, distinct

    regs = q_events_window_hll(sf_dir).to_pandas()  # bounded: days x 256
    m = 1 << _HLL_P
    sum_scaled = {}
    for win, g in regs.groupby("win"):
        s = int((1 << (57 - g["rho"].to_numpy().astype(np.int64))).sum())
        s += (m - len(g)) * (1 << 57)  # absent registers: rho = 0
        sum_scaled[int(win)] = s

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        win = _ts_us(df["ts"]) // 86_400_000_000
        return pd.DataFrame(
            {"win": win, "user_id": df["user_id"].astype("int64")}
        ).drop_duplicates()

    uniq = distinct(
        _table(sf_dir, "events", ["ts", "user_id"]).map_batches(
            pairs, batch_format="pandas"
        ),
        ["win", "user_id"],
        8,
    )

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {"win": t["win"], "one": pa.array(np.ones(t.num_rows, np.int64))}
        )

    exact = (
        bucket_sum(uniq.map_batches(ones, batch_format="pyarrow"), ["win"], ["one"], 4)
        .to_pandas()
        .rename(columns={"one": "exact_users"})
        .sort_values("win")
    )
    alpha_e6 = 721_253
    est = np.array(
        [
            (alpha_e6 * m * m * (1 << 57)) // (1_000_000 * sum_scaled[int(w)])
            for w in exact["win"]
        ],
        dtype=np.int64,
    )
    ex = exact["exact_users"].to_numpy().astype(np.int64)
    return pd.DataFrame(
        {
            "win": exact["win"].astype("int64"),
            "exact_users": ex,
            "hll_est": est,
            "err": est - ex,
        }
    ).reset_index(drop=True)


def q_page_host_rank_corr(sf_dir: str, n: int = 2000, n_buckets: int = 32):
    """Does host-level PageRank approximate page-level rank? Spearman
    rank correlation between every page's url-keyed PageRank (the
    flagship pipeline's scores) and its HOST's weighted domain-graph
    PageRank (q_domain_pagerank's scores), ranks tie-broken on the
    page url — the web-science question behind crawling at host
    granularity. Both engine runs are the existing cached pipelines;
    the correlate step is a bounded driver table (the generator's
    page universe). Integer Spearman via the nonnegative (2D - 6S)
    form (q_rank_spearman)."""
    import shutil

    from ..sources.pages import generate_pages
    from .pages import build_link_graph

    root = f"/tmp/graft_pagehost_{n}"
    shutil.rmtree(root, ignore_errors=True)
    build_link_graph(generate_pages(n), f"{root}/pg", n_parts=8, n_buckets=16)
    pres = run_algorithm(f"{root}/pg", f"{root}/ppr", "pagerank")

    _build_domain_graph(n, f"{root}/dg", "domain_graph_corr", n_buckets)
    dres = run_algorithm(f"{root}/dg", f"{root}/dpr", "pagerank_weighted")

    def conv(t: pa.Table) -> pa.Table:
        return pa.table({"vertex": t["vertex"], "e8": _score_e8(t["value"])})

    pages = pres.map_batches(conv, batch_format="pyarrow").to_pandas()
    doms = (
        dres.map_batches(conv, batch_format="pyarrow")
        .to_pandas()
        .rename(columns={"vertex": "host", "e8": "hs"})
    )
    pages["host"] = pages["vertex"].str.split("/").str[2]
    j = pages.merge(doms, on="host", how="inner")
    v = j["vertex"].to_numpy()
    r1 = np.empty(len(j), np.int64)
    r1[np.lexsort((v, -j["e8"].to_numpy()))] = np.arange(1, len(j) + 1)
    r2 = np.empty(len(j), np.int64)
    r2[np.lexsort((v, -j["hs"].to_numpy()))] = np.arange(1, len(j) + 1)
    nn = len(j)
    s = int(((r1 - r2) ** 2).sum())
    d = nn * (nn * nn - 1)
    rho_e6 = (2 * (2 * d - 6 * s) * 1_000_000 + d) // (2 * d) - 1_000_000
    return pd.DataFrame(
        {
            "n": pd.Series([nn], dtype="int64"),
            "sum_d2": pd.Series([s], dtype="int64"),
            "rho_e6": pd.Series([rho_e6], dtype="int64"),
        }
    )


def q_langid_calibration(sf_dir: str):
    """Calibration curve of the language-ID heuristic: bucket the
    classifier's confidence into fixed-width deciles (conf_e6 //
    100000, top-capped at 9) and report per-decile volume and
    accuracy against the generator's true label — is high confidence
    actually right more often? Per-batch bounded partials (10 rows),
    accuracy half-up e6 on the driver-reduced sums."""
    from ..functions.text import lang_id_counts

    def part(df: pd.DataFrame) -> pd.DataFrame:
        out = [lang_id_counts(t) for t in df["text"].astype(str)]
        conf = np.array(
            [0 if (h == 0 or n == 0) else (h * 2_000_000 + n) // (2 * n)
             for (_, h, n) in out],
            dtype=np.int64,
        )
        pred = np.array([o[0] for o in out])
        dec = np.minimum(conf // 100_000, 9)
        ok = (pred == df["lang"].astype(str).to_numpy()).astype(np.int64)
        g = pd.DataFrame({"decile": dec, "n_docs": 1, "n_correct": ok})
        return g.groupby("decile", as_index=False).sum()

    s = (
        _table(sf_dir, "documents", ["lang", "text"])
        .map_batches(part, batch_format="pandas")
        .to_pandas()
        .groupby("decile", as_index=False)
        .sum()
    )
    n = s["n_docs"].to_numpy().astype(np.int64)
    c = s["n_correct"].to_numpy().astype(np.int64)
    s["acc_e6"] = (2 * c * 1_000_000 + n) // (2 * n)
    return s.astype({"decile": "int64", "n_docs": "int64",
                     "n_correct": "int64", "acc_e6": "int64"})


def q_quality_deciles(sf_dir: str):
    """Quality-score profile: fixed-width score deciles (quality_e6
    // 100000, capped at 9) x document volume and mean length — the
    threshold-picking table for a quality-gated corpus filter.
    Per-batch bounded partials; avg_chars_e2 half-up on the reduced
    sums."""
    from ..functions.text import quality_score

    def part(df: pd.DataFrame) -> pd.DataFrame:
        q = np.round(
            [quality_score(t) * 1e6 for t in df["text"].astype(str)]
        ).astype(np.int64)
        dec = np.minimum(q // 100_000, 9)
        g = pd.DataFrame(
            {"decile": dec, "n_docs": 1,
             "sum_chars": df["n_chars"].astype("int64").to_numpy()}
        )
        return g.groupby("decile", as_index=False).sum()

    s = (
        _table(sf_dir, "documents", ["text", "n_chars"])
        .map_batches(part, batch_format="pandas")
        .to_pandas()
        .groupby("decile", as_index=False)
        .sum()
    )
    n = s["n_docs"].to_numpy().astype(np.int64)
    sc = s["sum_chars"].to_numpy().astype(np.int64)
    s["avg_chars_e2"] = (2 * sc * 100 + n) // (2 * n)
    return s.astype({"decile": "int64", "n_docs": "int64",
                     "sum_chars": "int64", "avg_chars_e2": "int64"})


def q_market_hhi(sf_dir: str, n_buckets: int = 16):
    """Supplier-market concentration per nation: the Herfindahl index
    HHI = sum over suppliers of (revenue share)^2, each squared share
    integer half-up e6 BEFORE the sum (per-term rounding — the
    SQL-replayable convention), over lineitem extended-price cents.
    ONE suppkey-bucket revenue sum; nation attaches from the
    broadcast supplier/nation dims; the share arithmetic runs on the
    bounded supplier table in exact Python ints (rev^2 exceeds
    int64)."""
    from ..stages.join import bucket_sum

    def part(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame({"s": df["l_suppkey"].astype("int64"), "rev": cents})
        return g.groupby("s", as_index=False).sum()

    rev = bucket_sum(
        _table(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice"]).map_batches(
            part, batch_format="pandas"
        ),
        ["s"],
        ["rev"],
        n_buckets,
    ).to_pandas()  # bounded: one row per supplier (dim-scale)

    sup = _dim_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    nat = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    s2n = dict(zip(sup["s_suppkey"].astype(int), sup["s_nationkey"].astype(int)))
    nk2 = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    rev["nation"] = [nk2[s2n[int(s)]] for s in rev["s"]]
    rows = []
    for nm, g in rev.groupby("nation"):
        tot = int(g["rev"].sum())
        hhi = sum(
            (2 * 1_000_000 * int(r) * int(r) + tot * tot) // (2 * tot * tot)
            for r in g["rev"]
        )
        rows.append((nm, len(g), int(tot), int(hhi)))
    out = pd.DataFrame(rows, columns=["nation", "n_suppliers", "rev_cents", "hhi_e6"])
    return out.sort_values("nation").reset_index(drop=True).astype(
        {"n_suppliers": "int64", "rev_cents": "int64", "hhi_e6": "int64"}
    )


def q_supplier_ship_lag(sf_dir: str, late_days: int = 60, n_buckets: int = 16):
    """Supplier fulfilment scorecard: per supplier, line count, the
    EXACT median ship lag in days (l_shipdate minus the order's
    o_orderdate — one orderkey bucket join), and the share of lines
    later than `late_days` (half-up e6). Lag days live in a small
    bounded domain (TPC-H ships within ~4 months), so the median is
    exact bounded-domain histogram selection (lower median, the
    row_number convention): per-(supplier, lag) counts are additive
    partials, the select runs on the bounded (suppliers x lags)
    table."""
    from ..stages.join import bucket_join, bucket_sum

    li = _table(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
    od = _table(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def li_prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t["l_orderkey"].cast(pa.int64()),
                "s": t["l_suppkey"].cast(pa.int64()),
                "ship_us": pa.array(_ts_us(t["l_shipdate"].to_pandas())),
            }
        )

    def od_prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t["o_orderkey"].cast(pa.int64()),
                "ord_us": pa.array(_ts_us(t["o_orderdate"].to_pandas())),
            }
        )

    j = bucket_join(
        li.map_batches(li_prep, batch_format="pyarrow"),
        od.map_batches(od_prep, batch_format="pyarrow"),
        "k",
        "k",
        n_buckets,
    )

    def lag_part(df: pd.DataFrame) -> pd.DataFrame:
        lag = (df["ship_us"].to_numpy() - df["ord_us"].to_numpy()) // 86_400_000_000
        g = pd.DataFrame({"s": df["s"].astype("int64"), "lag": lag.astype(np.int64),
                          "n": np.ones(len(df), np.int64)})
        return g.groupby(["s", "lag"], as_index=False).sum()

    hist = bucket_sum(
        j.map_batches(lag_part, batch_format="pandas"), ["s", "lag"], ["n"], n_buckets
    ).to_pandas()  # bounded: suppliers x lag-days
    rows = []
    for s, g in hist.groupby("s"):
        g = g.sort_values("lag")
        n = int(g["n"].sum())
        cum = g["n"].cumsum().to_numpy()
        med = int(g["lag"].to_numpy()[np.searchsorted(cum, (n + 1) // 2)])
        late = int(g.loc[g["lag"] > late_days, "n"].sum())
        rows.append((int(s), n, med, (2 * late * 1_000_000 + n) // (2 * n)))
    out = pd.DataFrame(
        rows, columns=["s_suppkey", "n_lines", "median_lag_days", "late_share_e6"]
    )
    return out.sort_values("s_suppkey").reset_index(drop=True).astype("int64")


def q_embedding_drift(sf_dir: str, q_scale: int = 1000):
    """Training-data drift detector: split the embedding corpus into
    two cohorts (vec_id parity), and per label report both cohort
    sizes and the integer drift statistic sum_d (sa_d*nb - sb_d*na)^2
    over e3-quantized (floor) coordinate sums — the exact numerator
    of ||mean_a - mean_b||^2 * (na*nb)^2, float-free so the oracle
    replays it. Per-batch (label, cohort) coordinate-sum partials
    (bounded labels x dims rows) reduce once; the statistic runs on
    the bounded label table."""

    def part(df: pd.DataFrame) -> pd.DataFrame:
        lab = df["label"].astype("int64").to_numpy()
        coh = (df["vec_id"].astype("int64").to_numpy() % 2).astype(np.int64)
        E = np.floor(
            np.stack(df["embedding"].to_numpy()).astype(np.float64) * q_scale
        ).astype(np.int64)
        g = pd.DataFrame({"label": lab, "coh": coh, "n": 1})
        for d in range(E.shape[1]):
            g[f"s{d}"] = E[:, d]
        return g.groupby(["label", "coh"], as_index=False).sum()

    s = (
        _table(sf_dir, "embeddings", ["vec_id", "label", "embedding"])
        .map_batches(part, batch_format="pandas")
        .to_pandas()
        .groupby(["label", "coh"], as_index=False)
        .sum()
    )  # bounded: labels x 2 rows
    dims = [c for c in s.columns if c.startswith("s")]
    rows = []
    for lab, g in s.groupby("label"):
        a = g[g["coh"] == 0]
        b = g[g["coh"] == 1]
        if not len(a) or not len(b):
            continue
        na, nb = int(a["n"].iloc[0]), int(b["n"].iloc[0])
        drift = sum(
            (int(a[d].iloc[0]) * nb - int(b[d].iloc[0]) * na) ** 2 for d in dims
        )
        rows.append((int(lab), na, nb, drift))
    out = pd.DataFrame(rows, columns=["label", "n_even", "n_odd", "drift_num"])
    return out.sort_values("label").reset_index(drop=True).astype("int64")


def q_events_error_trend(sf_dir: str, n_buckets: int = 8):
    """Error-rate trend per day: events, errors, and the error share
    (half-up e6) per epoch-day — the on-call burn-down chart. One
    (day)-bucket sum of per-batch partials."""
    from ..stages.join import bucket_sum

    def part(df: pd.DataFrame) -> pd.DataFrame:
        win = _ts_us(df["ts"]) // 86_400_000_000
        err = (df["event_type"].astype(str) == "error").astype(np.int64)
        g = pd.DataFrame({"win": win, "n_events": 1, "n_errors": err.to_numpy()})
        return g.groupby("win", as_index=False).sum()

    s = bucket_sum(
        _table(sf_dir, "events", ["ts", "event_type"]).map_batches(
            part, batch_format="pandas"
        ),
        ["win"],
        ["n_events", "n_errors"],
        n_buckets,
    ).to_pandas()
    n = s["n_events"].to_numpy().astype(np.int64)
    e = s["n_errors"].to_numpy().astype(np.int64)
    s["err_share_e6"] = (2 * e * 1_000_000 + n) // (2 * n)
    return s.sort_values("win").reset_index(drop=True).astype("int64")


def q_spam_exposure(sf_dir: str, n_pages: int = 2000, thr: int = 405_000):
    """Spam-neighborhood exposure: for every host with cross-host
    outlinks, the share of its distinct out-edges that point at
    SPAM-FLAGGED hosts (q_host_spam_heuristic composite >= thr) —
    the guilt-by-association feature TrustRank seeds from. The flag
    table is host-scale and broadcasts; exposure is one host-keyed
    count over the contracted edge table, half-up e6."""
    from ..stages.join import bucket_sum, distinct

    flags = q_host_spam_heuristic(sf_dir, n_pages=n_pages)
    if not isinstance(flags, pd.DataFrame):
        flags = flags.to_pandas()
    spam = set(flags.loc[flags["spam_score_e6"] >= thr, "host"])
    sref = ray.put(spam)

    links = _pages_links(n_pages)

    def hosts(t: pa.Table) -> pa.Table:
        sh = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        dh = pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)
        tt = pa.table({"sh": sh, "dh": dh})
        return tt.filter(pc.not_equal(tt["sh"], tt["dh"]))

    he = distinct(links.map_batches(hosts, batch_format="pyarrow"), ["sh", "dh"], 16)

    def part(df: pd.DataFrame) -> pd.DataFrame:
        sp = ray.get(sref)
        to_spam = df["dh"].isin(sp).astype(np.int64)
        g = pd.DataFrame(
            {"host": df["sh"], "n_out": 1, "n_to_spam": to_spam.to_numpy()}
        )
        return g.groupby("host", as_index=False).sum()

    s = bucket_sum(
        he.map_batches(part, batch_format="pandas"), ["host"], ["n_out", "n_to_spam"], 8
    ).to_pandas()
    n = s["n_out"].to_numpy().astype(np.int64)
    ts_ = s["n_to_spam"].to_numpy().astype(np.int64)
    s["exposure_e6"] = (2 * ts_ * 1_000_000 + n) // (2 * n)
    s["is_spam"] = s["host"].isin(spam).astype("int64")
    return (
        s[["host", "is_spam", "n_out", "n_to_spam", "exposure_e6"]]
        .sort_values("host")
        .reset_index(drop=True)
        .astype({"is_spam": "int64", "n_out": "int64",
                 "n_to_spam": "int64", "exposure_e6": "int64"})
    )


def q_host_spectral_radius(sf_dir: str, n_pages: int = 2000):
    """Spectral-radius estimate of the host adjacency via the
    closed-walk ratio trace(A^5) / trace(A^4) (the power-method
    Rayleigh quotient on traces, exact integers; ratio half-up e6) —
    the connectivity temperature of the host web. Reuses the
    closed-walk census sweep with ks=(4, 5)."""
    w = q_host_closed_walks(sf_dir, n_pages=n_pages, ks=(4, 5)).to_pandas()
    w4 = int(w.loc[w["k"] == 4, "n_walks"].iloc[0])
    w5 = int(w.loc[w["k"] == 5, "n_walks"].iloc[0])
    return pd.DataFrame(
        {
            "w4": pd.Series([w4], dtype="int64"),
            "w5": pd.Series([w5], dtype="int64"),
            "radius_e6": pd.Series(
                [(2 * w5 * 1_000_000 + w4) // (2 * w4)], dtype="int64"
            ),
        }
    )


def q_events_weekday_profile(sf_dir: str, n_buckets: int = 8):
    """Traffic calendar: events per (ISO weekday 0=Mon..6=Sun, event
    type) plus each cell's share of its weekday (half-up e6) — the
    staffing/capacity heatmap. One (weekday, type)-bucket sum of
    per-batch partials; the share normalization runs on the bounded
    7 x types table."""
    from ..stages.join import bucket_sum

    def part(df: pd.DataFrame) -> pd.DataFrame:
        day = _ts_us(df["ts"]) // 86_400_000_000
        wd = (day + 3) % 7  # 1970-01-01 was a Thursday -> Mon=0
        g = pd.DataFrame(
            {"weekday": wd, "event_type": df["event_type"].astype(str), "n": 1}
        )
        return g.groupby(["weekday", "event_type"], as_index=False).sum()

    s = bucket_sum(
        _table(sf_dir, "events", ["ts", "event_type"]).map_batches(
            part, batch_format="pandas"
        ),
        ["weekday", "event_type"],
        ["n"],
        n_buckets,
    ).to_pandas()
    tot = s.groupby("weekday")["n"].transform("sum").to_numpy().astype(np.int64)
    n = s["n"].to_numpy().astype(np.int64)
    s["share_e6"] = (2 * n * 1_000_000 + tot) // (2 * tot)
    return (
        s.sort_values(["weekday", "event_type"])
        .reset_index(drop=True)
        .astype({"weekday": "int64", "n": "int64", "share_e6": "int64"})
    )


def q_ab_test_lift(sf_dir: str, n_buckets: int = 8):
    """Deterministic A/B readout: users assigned to arms by user_id
    parity, conversion = user has >= 1 purchase; per arm the user
    count, converters, and conversion rate (half-up e6), plus the
    B-over-A lift ratio (half-up e6) replicated on both rows for a
    fixed schema. Per-user conversion folds inside ONE user-bucket
    shuffle; the lift runs on the bounded 2-row arm table."""
    from ..stages.join import add_bucket

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        conv = (
            g.assign(p=(g["event_type"].astype(str) == "purchase").astype(np.int64))
            .groupby("user_id", as_index=False)["p"]
            .max()
        )
        conv["arm"] = (conv["user_id"].astype("int64") % 2).astype(np.int64)
        out = conv.groupby("arm", as_index=False).agg(
            n_users=("p", "size"), n_converted=("p", "sum")
        )
        return out.astype("int64")

    src = _table(sf_dir, "events", ["user_id", "event_type"])
    s = (
        _BMG(add_bucket(src, ["user_id"], n_buckets), n_buckets, kernel, "pandas")
        .to_pandas()
        .groupby("arm", as_index=False)
        .sum()
    )
    n = s["n_users"].to_numpy().astype(np.int64)
    c = s["n_converted"].to_numpy().astype(np.int64)
    s["rate_e6"] = (2 * c * 1_000_000 + n) // (2 * n)
    ra = int(s.loc[s["arm"] == 0, "rate_e6"].iloc[0])
    rb = int(s.loc[s["arm"] == 1, "rate_e6"].iloc[0])
    s["lift_e6"] = (2 * rb * 1_000_000 + ra) // (2 * ra)
    return s.astype(
        {"arm": "int64", "n_users": "int64", "n_converted": "int64",
         "rate_e6": "int64", "lift_e6": "int64"}
    )


def q_nation_top_customers(sf_dir: str, k: int = 3, n_buckets: int = 16):
    """Grouped top-k join: per nation the k highest-revenue customers
    (revenue = order totalprice cents; ties broken on custkey) — the
    per-group-rank-after-join relational shape (QUALIFY over a join).
    Revenue folds in ONE custkey-bucket sum; nation attaches from the
    broadcast dims; the per-nation top-k runs inside ONE nation-bucket
    kernel (a nation's customers land whole)."""
    from ..stages.join import add_bucket, bucket_sum

    def part(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        g = pd.DataFrame({"c": df["o_custkey"].astype("int64"), "rev": cents})
        return g.groupby("c", as_index=False).sum()

    rev = bucket_sum(
        _table(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
            part, batch_format="pandas"
        ),
        ["c"],
        ["rev"],
        n_buckets,
    )

    cust_df = _dim_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nat_df = _dim_table(sf_dir, "nation", ["n_nationkey", "n_name"])
    c2n = pd.Series(cust_df["c_nationkey"].to_numpy(), index=cust_df["c_custkey"].to_numpy())
    nk2 = dict(zip(nat_df["n_nationkey"].astype(int), nat_df["n_name"]))
    c2n_ref = ray.put(c2n)
    n2n_ref = ray.put(nk2)

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        nk = ray.get(c2n_ref).reindex(df["c"].to_numpy()).to_numpy()
        keep = ~pd.isna(nk)
        out = df[keep].copy()
        names = ray.get(n2n_ref)
        out["nation"] = [names[int(x)] for x in nk[keep]]
        return out

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.sort_values(["nation", "rev", "c"], ascending=[True, False, True])
        s["rk"] = s.groupby("nation", sort=False).cumcount() + 1
        s = s[s["rk"] <= k]
        return pd.DataFrame(
            {
                "nation": s["nation"].to_numpy(),
                "rk": s["rk"].astype("int64").to_numpy(),
                "c_custkey": s["c"].astype("int64").to_numpy(),
                "rev_cents": s["rev"].astype("int64").to_numpy(),
            }
        )

    with_nat = rev.map_batches(attach, batch_format="pandas")
    return _BMG(add_bucket(with_nat, ["nation"], 8), 8, topk, "pandas")


def q_events_user_lifespan(sf_dir: str, n_buckets: int = 8):
    """User lifespan histogram: days between a user's first and last
    event (floor of the microsecond span), bucketed -> how long users
    stay active. Per-user min/max fold inside ONE user-bucket shuffle;
    the histogram is a bounded second reduce."""
    from ..stages.join import add_bucket, bucket_sum

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(g["ts"])
        d = pd.DataFrame({"u": g["user_id"].to_numpy(), "ts": ts})
        mm = d.groupby("u").agg(lo=("ts", "min"), hi=("ts", "max"))
        span = ((mm["hi"] - mm["lo"]) // 86_400_000_000).astype(np.int64)
        out = pd.DataFrame({"span_days": span, "n_users": 1})
        return out.groupby("span_days", as_index=False).sum()

    src = _table(sf_dir, "events", ["user_id", "ts"])
    return bucket_sum(
        _BMG(add_bucket(src, ["user_id"], n_buckets), n_buckets, kernel, "pandas"),
        ["span_days"],
        ["n_users"],
        4,
    )


def q_host_resource_allocation(sf_dir: str, n_pages: int = 2000, k: int = 50):
    """Link prediction by the RESOURCE-ALLOCATION index (Zhou, Lü,
    Zhang 2009 — the rational cousin of Adamic-Adar, no logarithm):
    for host pairs (a < b) sharing >= 1 common out-neighbor, RA =
    sum over common neighbors z of 1/indeg(z), each term integer
    half-up e6 (per-term rounding, SQL-replayable); top-k pairs by
    (ra DESC, a, b). Terms are ADDITIVE per (pair, z), so ONE
    dst-bucket pair expansion emits per-z-weighted partials and ONE
    pair-keyed bucket_sum reduces them — same plan as cocitation,
    weights riding along."""
    from ..stages.join import add_bucket, bucket_sum, distinct

    links = _pages_links(n_pages)

    def hosts(t: pa.Table) -> pa.Table:
        sh = pc.list_element(pc.split_pattern(t["src_key"], "/"), 2)
        dh = pc.list_element(pc.split_pattern(t["dst_key"], "/"), 2)
        tt = pa.table({"sh": sh, "dh": dh})
        return tt.filter(pc.not_equal(tt["sh"], tt["dh"]))

    he = distinct(links.map_batches(hosts, batch_format="pyarrow"), ["sh", "dh"], 16)

    def pair_terms(df: pd.DataFrame) -> pd.DataFrame:
        # within a dst bucket, each z carries its FULL in-list (dh
        # is the bucket key), so indeg(z) is exact here
        indeg = df.groupby("dh")["sh"].transform("size").to_numpy().astype(np.int64)
        term = (2 * 1_000_000 + indeg) // (2 * indeg)
        d = df.assign(term=term)
        m = d.merge(d, on="dh")
        m = m[m["sh_x"] < m["sh_y"]]
        g = (
            m.groupby(["sh_x", "sh_y"], as_index=False)
            .agg(ra_e6=("term_x", "sum"), n_common=("term_x", "size"))
        )
        return g.rename(columns={"sh_x": "a", "sh_y": "b"}).astype(
            {"ra_e6": "int64", "n_common": "int64"}
        )

    agg = bucket_sum(
        _BMG(add_bucket(he, ["dh"], 16), 16, pair_terms, "pandas"),
        ["a", "b"],
        ["ra_e6", "n_common"],
        16,
    ).to_pandas()  # bounded by hosts^2
    agg = agg.sort_values(["ra_e6", "a", "b"], ascending=[False, True, True]).head(k)
    return agg.reset_index(drop=True).astype({"ra_e6": "int64", "n_common": "int64"})


def q_user_concentration(sf_dir: str, pct: int = 10, n_buckets: int = 16):
    """Traffic concentration: what share of all events do the top
    pct% most active users generate (users ranked by event count,
    ties on user_id; n_top = ceil(pct% of users))? One user-bucket
    count; the rank step runs on the bounded per-user table (users
    are dim-scale here; at web scale this becomes the pareto
    prefix-sum pattern of q_customer_pareto). share half-up e6."""
    from ..stages.join import bucket_sum

    def ones(t: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": t["user_id"], "c": pa.array(np.ones(t.num_rows, np.int64))}
        )

    cnt = bucket_sum(
        _table(sf_dir, "events", ["user_id"]).map_batches(ones, batch_format="pyarrow"),
        ["user_id"],
        ["c"],
        n_buckets,
    ).to_pandas()
    cnt = cnt.sort_values(["c", "user_id"], ascending=[False, True])
    n_users = len(cnt)
    n_top = -(-n_users * pct // 100)  # ceil
    total = int(cnt["c"].sum())
    top = int(cnt["c"].head(n_top).sum())
    return pd.DataFrame(
        {
            "n_users": pd.Series([n_users], dtype="int64"),
            "n_top": pd.Series([n_top], dtype="int64"),
            "n_events": pd.Series([total], dtype="int64"),
            "top_events": pd.Series([top], dtype="int64"),
            "share_e6": pd.Series(
                [(2 * top * 1_000_000 + total) // (2 * total)], dtype="int64"
            ),
        }
    )


def q_mixture_weights(
    sf_dir: str, cap_mult: int = 2, n_buckets: int = 8, cap_den: int = 1
):
    """TRAINING-MIXTURE PLANNER (capped-proportional rule): per
    source, whitespace token counts -> sampling weight under a
    per-source token CAP of ``cap_mult * total // n_sources`` — the
    "cap oversampled sources" mixture rule of LLM data recipes
    (oversampling temperature without float pow, so the arithmetic is
    exact integers on both sides). Outputs per source: raw tokens,
    capped tokens, weight_e6 = capped share of the capped total, and
    epochs_e6 = capped/raw (how much of the source one epoch of the
    mixture consumes). Token counting is one per-batch combiner +
    a source-bucket sum; the planner itself runs on the bounded
    per-source table. All divisions half-up integer e6."""
    from ..stages.join import bucket_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].astype(str).str.split().str.len().astype("int64")
        g = pd.DataFrame({"source": df["source"].astype(str), "tokens": toks})
        return g.groupby("source", as_index=False).sum()

    per_src = bucket_sum(
        _table(sf_dir, "documents", ["source", "text"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["source"],
        ["tokens"],
        n_buckets,
    ).to_pandas()  # bounded: one row per source
    per_src = per_src.sort_values("source").reset_index(drop=True)
    total = int(per_src["tokens"].sum())
    n_src = len(per_src)
    cap = cap_mult * total // (cap_den * n_src)
    raw = per_src["tokens"].to_numpy().astype(np.int64)
    capped = np.minimum(raw, cap)
    cap_total = int(capped.sum())
    return pd.DataFrame(
        {
            "source": per_src["source"],
            "tokens": pd.Series(raw, dtype="int64"),
            "capped_tokens": pd.Series(capped, dtype="int64"),
            "weight_e6": pd.Series(
                (2 * capped * 1_000_000 + cap_total) // (2 * cap_total),
                dtype="int64",
            ),
            "epochs_e6": pd.Series(
                (2 * capped * 1_000_000 + raw) // (2 * raw), dtype="int64"
            ),
        }
    )


def q_term_and_query(sf_dir: str, min_df: int = 10, n_buckets: int = 16):
    """CONJUNCTIVE (AND) POSTING-LIST INTERSECTION — the lookup side
    of the inverted index: the two lexicographically smallest terms
    with df >= ``min_df`` are the query (both engines derive the same
    pair deterministically from the corpus), and the answer is every
    doc containing BOTH. The distinct (doc, term) pair table streams
    through ONE doc-bucket shuffle where per-doc term counts == 2
    select the hits — the bucketed form of a posting-list merge; the
    2-term query itself is a broadcast-scale constant."""
    from ..stages.join import bucket_sum

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        t = df.set_index("doc_id")["text"].astype(str).str.split().explode().dropna()
        return pd.DataFrame(
            {"doc_id": t.index.to_numpy(), "term": t.to_numpy()}
        ).drop_duplicates()

    src = _table(sf_dir, "documents", ["doc_id", "text"])
    pr = src.map_batches(pairs, batch_format="pandas").materialize()
    df_tbl = bucket_sum(
        pr.map_batches(
            lambda d: d.assign(one=np.ones(len(d), np.int64))[["term", "one"]],
            batch_format="pandas",
        ),
        ["term"],
        ["one"],
        n_buckets,
    ).to_pandas()
    elig = df_tbl.loc[df_tbl["one"] >= min_df, "term"].sort_values()
    qa, qb = str(elig.iloc[0]), str(elig.iloc[1])
    qref = ray.put((qa, qb))

    def hit_partial(d: pd.DataFrame) -> pd.DataFrame:
        a, b = ray.get(qref)
        sel = d[d["term"].isin((a, b))]
        return pd.DataFrame(
            {"doc_id": sel["doc_id"].astype("int64"), "one": 1}
        )

    hits = bucket_sum(
        pr.map_batches(hit_partial, batch_format="pandas"),
        ["doc_id"],
        ["one"],
        n_buckets,
    ).to_pandas()
    docs = np.sort(hits.loc[hits["one"] == 2, "doc_id"].to_numpy().astype(np.int64))
    return pd.DataFrame(
        {
            "doc_id": pd.Series(docs, dtype="int64"),
            "term_a": pd.Series([qa] * len(docs), dtype="object"),
            "term_b": pd.Series([qb] * len(docs), dtype="object"),
        }
    )


def q_textrank_terms(
    sf_dir: str, rounds: int = 12, window: int = 2, max_terms: int = 200_000
):
    """TEXTRANK KEYWORD SCORES (Mihalcea & Tarau 2004) as ALL-INTEGER
    synchronized forward-push PageRank over the corpus-wide term
    co-occurrence graph: vertices = terms, edges = DISTINCT ordered
    term pairs within +-``window`` positions inside a document
    (self-pairs dropped; symmetric by construction, so no sinks).
    Fixed-point e12 mass starts uniform (1e12 // n per term); each
    round every term banks (15 * r) // 100 and sends
    (85 * r) // (100 * outdeg) to each out-neighbor — integer floor,
    so the recurrence is bit-exact and summation-order-free (the
    q_host_pagerank_push arithmetic on a corpus-derived graph).
    Emits (term, p_e12, r_e12) after ``rounds``. The pair extraction
    is the skipgram combiner + one bucket distinct; the push runs as
    one vectorized task over the vocabulary-bounded edge list
    (asserted <= ``max_terms`` vertices — above it, the scale path is
    the engine's integer-message BSP program over the same edges)."""
    from ..stages.join import distinct

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        sa, sb = [], []
        for text in df["text"].astype(str):
            toks = np.array(text.split(), dtype=object)
            for d in range(1, window + 1):
                if len(toks) <= d:
                    continue
                sa.append(toks[:-d])
                sb.append(toks[d:])
                sa.append(toks[d:])
                sb.append(toks[:-d])
        if not sa:
            return pd.DataFrame(
                {"s": pd.Series([], dtype=str), "d": pd.Series([], dtype=str)}
            )
        g = pd.DataFrame({"s": np.concatenate(sa), "d": np.concatenate(sb)})
        g = g[g["s"] != g["d"]]
        return g.drop_duplicates()

    src = _table(sf_dir, "documents", ["text"])
    ep = distinct(
        src.map_batches(pairs, batch_format="pandas"), ["s", "d"], 16
    ).to_pandas()  # vocabulary-bounded co-occurrence edge list
    terms, codes = np.unique(
        np.concatenate([ep["s"].to_numpy(), ep["d"].to_numpy()]), return_inverse=True
    )
    n = len(terms)
    if n > max_terms:
        raise ValueError(
            f"textrank vocabulary {n} > max_terms={max_terms}; run the "
            "engine's integer-message BSP program over the pair edges "
            "instead of the vocabulary-bounded kernel"
        )
    es = codes[: len(ep)].astype(np.int64)
    ed = codes[len(ep):].astype(np.int64)
    deg = np.bincount(es, minlength=n).astype(np.int64)
    r = np.full(n, 1_000_000_000_000 // n, dtype=np.int64)
    p = np.zeros(n, np.int64)
    for _ in range(rounds):
        p = p + (15 * r) // 100
        share = (85 * r) // (100 * deg)  # symmetric graph: deg >= 1
        r = np.zeros(n, np.int64)
        np.add.at(r, ed, share[es])
    return pd.DataFrame(
        {
            "term": pd.Series(terms, dtype="object"),
            "p_e12": pd.Series(p, dtype="int64"),
            "r_e12": pd.Series(r, dtype="int64"),
        }
    )


def q_neardup_cluster_sizes(sf_dir: str):
    """Dedup observability: the near-dup CLUSTER-SIZE HISTOGRAM
    (cluster_size, n_clusters) over the MinHash-LSH + exact-verify +
    distributed-CC pipeline's output — the first chart a dedup tuning
    pass reads (a fat tail = boilerplate families, all-2s = true
    pairs). The clustering streams through the full distributed
    pipeline (stages/dedup.py); the histogram itself reduces the
    bounded (doc_id, cluster_id) result."""
    cl = q_doc_minhash_dedup(sf_dir)
    if not isinstance(cl, pd.DataFrame):
        cl = cl.to_pandas()
    sizes = cl.groupby("cluster_id").size()
    hist = sizes.value_counts().sort_index()
    return pd.DataFrame(
        {
            "cluster_size": pd.Series(hist.index.to_numpy(), dtype="int64"),
            "n_clusters": pd.Series(hist.to_numpy(), dtype="int64"),
        }
    )


def q_neardup_retention_by_source(sf_dir: str, n_buckets: int = 8):
    """Dedup survivorship per SOURCE: total docs, docs dropped by
    near-dup collapse (cluster members that are not their cluster's
    min-id winner), and the retention rate (half-up e6) — the
    per-snapshot yield report a corpus-curation run publishes.
    Dropped ids come out of the distributed dedup pipeline; the
    per-source counts are one doc-bucket join + bucket_sum each; the
    final arithmetic runs on the bounded per-source table."""
    from ..stages.join import bucket_join, bucket_sum

    cl = q_doc_minhash_dedup(sf_dir)
    if not isinstance(cl, pd.DataFrame):
        cl = cl.to_pandas()
    dropped_ids = cl.loc[cl["doc_id"] != cl["cluster_id"], "doc_id"].to_numpy()
    dropped = rd.from_arrow(
        pa.table({"doc_id": pa.array(np.sort(dropped_ids).astype(np.int64))})
    )

    docs = _table(sf_dir, "documents", ["doc_id", "source"])
    totals = bucket_sum(
        docs.map_batches(
            lambda d: pd.DataFrame(
                {"source": d["source"].astype(str), "n_docs": np.int64(1)}
            ).groupby("source", as_index=False).sum(),
            batch_format="pandas",
        ),
        ["source"],
        ["n_docs"],
        n_buckets,
    ).to_pandas()

    joined = bucket_join(
        docs,
        dropped,
        left_on="doc_id",
        right_on="doc_id",
        n_buckets=n_buckets,
        left_schema=pa.schema([("doc_id", pa.int64()), ("source", pa.string())]),
        right_schema=pa.schema([("doc_id", pa.int64())]),
    )
    drops = bucket_sum(
        joined.map_batches(
            lambda d: pd.DataFrame(
                {"source": d["source"].astype(str), "n_dropped": np.int64(1)}
            ).groupby("source", as_index=False).sum(),
            batch_format="pandas",
        ),
        ["source"],
        ["n_dropped"],
        n_buckets,
    ).to_pandas()

    out = totals.merge(drops, on="source", how="left").fillna({"n_dropped": 0})
    nd = out["n_docs"].to_numpy().astype(np.int64)
    dr = out["n_dropped"].to_numpy().astype(np.int64)
    return pd.DataFrame(
        {
            "source": out["source"],
            "n_docs": pd.Series(nd, dtype="int64"),
            "n_dropped": pd.Series(dr, dtype="int64"),
            "retained_e6": pd.Series(
                (2 * (nd - dr) * 1_000_000 + nd) // (2 * nd), dtype="int64"
            ),
        }
    ).sort_values("source").reset_index(drop=True)


def q_filter_funnel(
    sf_dir: str,
    min_words: int = 20,
    lang: str = "en",
    max_rep_e6: int = 200_000,
    min_quality_e6: int = 700_000,
):
    """QUALITY-FILTER FUNNEL (C4/Gopher-style cleaning observability):
    how many documents survive each CUMULATIVE stage of the standard
    cleaning cascade — (0) all, (1) >= ``min_words`` words, (2)
    language == ``lang``, (3) trigram-duplicate share <=
    ``max_rep_e6`` (the q_doc_repetition signal), (4) quality score >=
    ``min_quality_e6`` (functions/text.quality_score). One streaming
    pass computes every per-doc predicate vectorized and emits a
    5-number partial per batch; the funnel is the driver sum. Rates
    are half-up e6 against the TOTAL (yield curve, not step rate)."""
    from ..functions.text import quality_score

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype(str)
        nw = texts.str.split().str.len().fillna(0).astype(np.int64).to_numpy()
        s1 = nw >= min_words
        s2 = s1 & (df["lang"].astype(str).to_numpy() == lang)
        rep_ok = np.zeros(len(df), dtype=bool)
        for i, t in enumerate(texts):
            if not s2[i]:
                continue
            toks = t.split()
            n = len(toks) - 2
            if n <= 0:
                rep_ok[i] = True
                continue
            tri = pd.Series(
                [" ".join(toks[j : j + 3]) for j in range(n)], dtype="object"
            )
            dup = n - tri.nunique()
            rep_ok[i] = (2 * dup * 1_000_000 + n) // (2 * n) <= max_rep_e6
        s3 = s2 & rep_ok
        q = np.array(
            [
                int(round(quality_score(t) * 1e6)) if s3[i] else 0
                for i, t in enumerate(texts)
            ],
            dtype=np.int64,
        )
        s4 = s3 & (q >= min_quality_e6)
        return pd.DataFrame(
            {
                "n": pd.Series([len(df)], dtype="int64"),
                "p1": pd.Series([int(s1.sum())], dtype="int64"),
                "p2": pd.Series([int(s2.sum())], dtype="int64"),
                "p3": pd.Series([int(s3.sum())], dtype="int64"),
                "p4": pd.Series([int(s4.sum())], dtype="int64"),
            }
        )

    parts = (
        _table(sf_dir, "documents", ["doc_id", "text", "lang"])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()
    )  # bounded: one 5-int row per batch
    tot = parts.sum()
    n = int(tot["n"])
    stages = [
        (0, "all", n),
        (1, "min_words", int(tot["p1"])),
        (2, "lang", int(tot["p2"])),
        (3, "low_repetition", int(tot["p3"])),
        (4, "quality", int(tot["p4"])),
    ]
    return pd.DataFrame(
        {
            "stage": pd.Series([s for s, _, _ in stages], dtype="int64"),
            "name": pd.Series([m for _, m, _ in stages], dtype="object"),
            "n_pass": pd.Series([c for _, _, c in stages], dtype="int64"),
            "yield_e6": pd.Series(
                [(2 * c * 1_000_000 + n) // (2 * n) for _, _, c in stages],
                dtype="int64",
            ),
        }
    )


def q_mixture_sample(sf_dir: str, cap_mult: int = 2, cap_den: int = 3):
    """EXECUTE the training-mixture plan (q_mixture_weights) as a
    deterministic counter-based Bernoulli sample: a document survives
    iff mix64(71, doc_id) % 1e6 < its source's epochs_e6 — so
    oversized sources are downsampled to their cap and everything
    else passes whole, bit-reproducibly at any parallelism (the
    counter-based sampling discipline of events_sample, and
    SQL-replayable through the HUGEINT splitmix64 mirror). The
    per-source rate table is bounded (broadcast via ray.put); the
    sample is one streaming filter pass."""
    from ..utils import mix64

    # cap at 2/3 of the average source size so the downsampling
    # actually bites on a balanced corpus (every source trims to
    # ~2/3, rate varying per source with its exact token count)
    plan = q_mixture_weights(sf_dir, cap_mult=cap_mult, cap_den=cap_den)
    rates = dict(zip(plan["source"], plan["epochs_e6"].astype(np.int64)))
    rref = ray.put(rates)

    def keep(t: pa.Table) -> pa.Table:
        r = ray.get(rref)
        ids = t["doc_id"].to_numpy().astype(np.uint64)
        h = mix64(np.uint64(71), ids) % np.uint64(1_000_000)
        thr = np.array(
            [r[s] for s in t["source"].to_pylist()], dtype=np.uint64
        )
        m = h < thr
        return pa.table(
            {
                "doc_id": t["doc_id"].filter(pa.array(m)),
                "source": t["source"].filter(pa.array(m)),
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "source"]).map_batches(
        keep, batch_format="pyarrow"
    )


def q_span_corruption(sf_dir: str, mask_pct: int = 15):
    """T5-STYLE SPAN-CORRUPTION PLAN: per document, token i is masked
    iff mix64(29, doc_id, i) % 100 < ``mask_pct`` (counter-based, so
    the plan is bit-reproducible at any parallelism and batch size —
    the pretraining-data masking pass without materializing masked
    text). Contiguous masked runs form SPANS (what the denoiser
    predicts); output per doc: n_tokens, n_masked, n_spans — the
    audit a span-corruption pipeline publishes (mask rate ~ pct,
    span-length geometry). One streaming pass, vectorized per doc;
    the oracle replays the hash via the HUGEINT splitmix mirror and
    finds span starts with a window lag."""
    from ..utils import mix64

    def plan(df: pd.DataFrame) -> pd.DataFrame:
        ids_out, nt, nm, ns = [], [], [], []
        for doc_id, text in zip(df["doc_id"].astype(np.int64), df["text"].astype(str)):
            toks = text.split()
            n = len(toks)
            if n == 0:
                continue
            i = np.arange(n, dtype=np.uint64)
            h = mix64(np.uint64(29), np.uint64(doc_id), i)
            masked = (h % np.uint64(100)) < np.uint64(mask_pct)
            starts = masked & ~np.concatenate([[False], masked[:-1]])
            ids_out.append(doc_id)
            nt.append(n)
            nm.append(int(masked.sum()))
            ns.append(int(starts.sum()))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids_out, dtype="int64"),
                "n_tokens": pd.Series(nt, dtype="int64"),
                "n_masked": pd.Series(nm, dtype="int64"),
                "n_spans": pd.Series(ns, dtype="int64"),
            }
        )

    return _table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        plan, batch_format="pandas"
    )


def q_dict_frontcoding(sf_dir: str, max_vocab: int = 2_000_000):
    """TERM-DICTIONARY FRONT-CODING AUDIT (the index-compression
    sibling of posting_list_bytes): over the globally sorted distinct
    part-name strings, each entry stores only its suffix after the
    longest common prefix with its predecessor (the first entry is
    stored whole). Output: one summary row (n_terms, raw_bytes,
    prefix_saved, fc_bytes, savings_e6 half-up). The distinct + the
    byte accounting partials are distributed (hash-bucket distinct);
    the sorted prefix scan runs on the vocabulary-bounded term list
    (asserted <= ``max_vocab``; above it, front-code per sorted
    range partition with full first-entry-per-block semantics — the
    standard block boundary rule). Prefix lengths are computed
    vectorized over a padded byte matrix, not a per-pair loop."""
    from ..stages.join import distinct

    names = distinct(
        _table(sf_dir, "part", ["p_name"]).map_batches(
            lambda t: pa.table({"s": t["p_name"].cast(pa.string())}),
            batch_format="pyarrow",
        ),
        ["s"],
    ).to_pandas()["s"]
    if len(names) > max_vocab:
        raise ValueError(
            f"dictionary of {len(names)} terms > max_vocab={max_vocab}; "
            "front-code per sorted range partition instead"
        )
    s = np.sort(names.to_numpy().astype(str))
    n = len(s)
    bs = [x.encode("utf-8") for x in s]
    raw = sum(len(b) for b in bs)
    if n < 2:
        saved = 0
    else:
        maxlen = max(len(b) for b in bs)
        M = np.zeros((n, maxlen), dtype=np.uint8)
        for i, b in enumerate(bs):
            M[i, : len(b)] = np.frombuffer(b, dtype=np.uint8)
        lens = np.array([len(b) for b in bs], dtype=np.int64)
        eq = M[1:] == M[:-1]
        # common prefix: run of equal NON-PAD bytes from position 0
        limit = np.minimum(lens[1:], lens[:-1])
        pos = np.arange(maxlen)[None, :]
        run = np.cumprod(eq & (pos < limit[:, None]), axis=1, dtype=bool)
        saved = int(run.sum())
    fc = raw - saved
    return pd.DataFrame(
        {
            "n_terms": pd.Series([n], dtype="int64"),
            "raw_bytes": pd.Series([raw], dtype="int64"),
            "prefix_saved": pd.Series([saved], dtype="int64"),
            "fc_bytes": pd.Series([fc], dtype="int64"),
            "savings_e6": pd.Series(
                [(2 * saved * 1_000_000 + raw) // (2 * raw)], dtype="int64"
            ),
        }
    )


def q_host_ppr_sweepcut(sf_dir: str, n_pages: int = 2000, rounds: int = 12):
    """SWEEP-CUT LOCAL COMMUNITY DETECTION (the Andersen-Chung-Lang
    finishing step) over the contracted host graph: rank hosts by the
    all-integer push-PageRank mass from the lexicographically
    smallest source host (the q_host_pagerank_push recurrence,
    identical arithmetic), then for every prefix S_r of the ranking
    report the UNDIRECTED cut size, volume, and conductance
    cut/min(vol, 2E - vol) (half-up e6) — argmin row = the seed's
    local community. The cut curve is computed with the +1/-1 event
    trick (one cumsum, no per-prefix edge scan); everything is exact
    integers so the oracle replays rank ties and divisions bit-for-
    bit. Bounded by the host contraction (MAX_DENSE_HOSTS)."""
    names, A, src_codes = _host_graph(n_pages)
    n = len(names)
    seed = int(src_codes[np.argmin(names[src_codes])])
    Ai = A.astype(np.int64)
    deg_out = Ai.sum(axis=1)
    r = np.zeros(n, np.int64)
    p = np.zeros(n, np.int64)
    r[seed] = 1_000_000_000_000
    for _ in range(rounds):
        p = p + (15 * r) // 100
        share = np.where(deg_out > 0, (85 * r) // np.maximum(100 * deg_out, 1), 0)
        r = share @ Ai

    # rank by (p desc, name asc); ranks 1-based
    order = np.lexsort((names, -p))
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(1, n + 1)

    U = ((A | A.T) != 0)
    iu, ju = np.nonzero(np.triu(U, k=1))
    udeg = U.sum(axis=1).astype(np.int64)
    two_e = int(udeg.sum())

    lo = np.minimum(rank[iu], rank[ju])
    hi = np.maximum(rank[iu], rank[ju])
    starts = np.bincount(lo, minlength=n + 1)
    ends = np.bincount(hi, minlength=n + 1)
    cut = np.cumsum(starts - ends)[1:]  # cut[r-1] = cut size of prefix r
    vol = np.cumsum(udeg[order])
    rr = np.arange(1, n, dtype=np.int64)  # skip r = n (denominator 0)
    denom = np.minimum(vol[:-1], two_e - vol[:-1])
    keep = denom > 0
    rr, c, v, d = rr[keep], cut[:-1][keep], vol[:-1][keep], denom[keep]
    return pd.DataFrame(
        {
            "r": pd.Series(rr, dtype="int64"),
            "host": pd.Series(names[order][: n - 1][keep], dtype="object"),
            "cut": pd.Series(c, dtype="int64"),
            "vol": pd.Series(v, dtype="int64"),
            "conductance_e6": pd.Series(
                (2 * c * 1_000_000 + d) // (2 * d), dtype="int64"
            ),
        }
    )


def q_dataset_card(sf_dir: str, n_buckets: int = 8):
    """DATASET CARD / DATASHEET ROLLUP per source — the summary table
    a corpus release publishes: docs, whitespace tokens, distinct
    languages, dominant language (mode, ties to the lexicographically
    smallest), its share (half-up e6), and mean quality score
    (half-up e6 of the quality_e6 sum — functions/text.quality_score,
    the SQL-mirrored scorer). One streaming pass emits per-batch
    (source, lang) partials with token + quality sums; two bounded
    bucket_sums and the final arithmetic on the per-source table."""
    from ..functions.text import quality_score
    from ..stages.join import bucket_sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        texts = df["text"].astype(str)
        toks = texts.str.split().str.len().fillna(0).astype("int64")
        q = pd.Series(
            [int(round(quality_score(t) * 1e6)) for t in texts], dtype="int64"
        )
        g = pd.DataFrame(
            {
                "source": df["source"].astype(str),
                "lang": df["lang"].astype(str),
                "n_docs": np.int64(1),
                "n_tokens": toks.to_numpy(),
                "q_sum": q.to_numpy(),
            }
        )
        return g.groupby(["source", "lang"], as_index=False).sum()

    sl = bucket_sum(
        _table(sf_dir, "documents", ["doc_id", "text", "source", "lang"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["source", "lang"],
        ["n_docs", "n_tokens", "q_sum"],
        n_buckets,
    ).to_pandas()  # bounded: sources x langs

    rows = []
    for src_name, g in sl.groupby("source"):
        nd = int(g["n_docs"].sum())
        nt = int(g["n_tokens"].sum())
        qs = int(g["q_sum"].sum())
        g2 = g.sort_values(["n_docs", "lang"], ascending=[False, True])
        top_lang = str(g2["lang"].iloc[0])
        top_n = int(g2["n_docs"].iloc[0])
        rows.append(
            (
                src_name,
                nd,
                nt,
                int(g["lang"].nunique()),
                top_lang,
                (2 * top_n * 1_000_000 + nd) // (2 * nd),
                (2 * qs + nd) // (2 * nd),
            )
        )
    rows.sort()
    return pd.DataFrame(
        {
            "source": pd.Series([r[0] for r in rows], dtype="object"),
            "n_docs": pd.Series([r[1] for r in rows], dtype="int64"),
            "n_tokens": pd.Series([r[2] for r in rows], dtype="int64"),
            "n_langs": pd.Series([r[3] for r in rows], dtype="int64"),
            "top_lang": pd.Series([r[4] for r in rows], dtype="object"),
            "top_lang_share_e6": pd.Series([r[5] for r in rows], dtype="int64"),
            "mean_quality_e6": pd.Series([r[6] for r in rows], dtype="int64"),
        }
    )


def q_ngram_novelty_curve(sf_dir: str, max_n: int = 5, n_buckets: int = 16):
    """CORPUS N-GRAM NOVELTY CURVE: for each n in 1..``max_n``, total
    word n-gram occurrences vs distinct n-grams corpus-wide and the
    duplicate share (half-up e6) — the repetition profile that decides
    how aggressive span-level dedup should be (a corpus whose 5-gram
    dup share is high is boilerplate-heavy even if doc-level dedup is
    clean). Totals are per-batch combiner sums; distinct counts are
    ONE hash-bucket distinct over (n, gram) pairs — gram strings
    shuffle once, pre-deduped per batch."""
    from ..stages.join import bucket_sum, distinct

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        out_n, out_g = [], []
        for text in df["text"].astype(str):
            toks = text.split()
            for n in range(1, max_n + 1):
                if len(toks) < n:
                    continue
                s = pd.Series(toks, dtype="object")
                if n == 1:
                    g = s
                else:
                    g = s[: len(toks) - n + 1].reset_index(drop=True).str.cat(
                        [
                            s[j : len(toks) - n + 1 + j].reset_index(drop=True)
                            for j in range(1, n)
                        ],
                        sep=" ",
                    )
                out_n.append(np.full(len(g), n, dtype=np.int64))
                out_g.append(g.to_numpy())
        if not out_n:
            return pd.DataFrame(
                {"n": pd.Series([], dtype="int64"), "gram": pd.Series([], dtype=str)}
            )
        return pd.DataFrame(
            {"n": np.concatenate(out_n), "gram": np.concatenate(out_g)}
        )

    occ = _table(sf_dir, "documents", ["text"]).map_batches(
        grams, batch_format="pandas"
    ).materialize()

    def tot_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(total=np.int64(1))[["n", "total"]]
        return g.groupby("n", as_index=False).sum()

    totals = bucket_sum(
        occ.map_batches(tot_partial, batch_format="pandas"), ["n"], ["total"], 4
    ).to_pandas()

    def dist_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df[["n", "gram"]].drop_duplicates()

    uniq = distinct(
        occ.map_batches(dist_partial, batch_format="pandas"), ["n", "gram"], n_buckets
    )

    def uniq_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(n_distinct=np.int64(1))[["n", "n_distinct"]]
        return g.groupby("n", as_index=False).sum()

    uniq_n = bucket_sum(
        uniq.map_batches(uniq_partial, batch_format="pandas"), ["n"], ["n_distinct"], 4
    ).to_pandas()

    out = totals.merge(uniq_n, on="n").sort_values("n").reset_index(drop=True)
    t = out["total"].to_numpy().astype(np.int64)
    u = out["n_distinct"].to_numpy().astype(np.int64)
    return pd.DataFrame(
        {
            "n": out["n"].astype("int64"),
            "total": pd.Series(t, dtype="int64"),
            "n_distinct": pd.Series(u, dtype="int64"),
            "dup_share_e6": pd.Series(
                (2 * (t - u) * 1_000_000 + t) // (2 * t), dtype="int64"
            ),
        }
    )


def q_term_branching(sf_dir: str, n_buckets: int = 16):
    """TERM CONTEXT-BRANCHING PROFILE (the integer core of branching-
    entropy segmentation / template detection): per term, total
    occurrences, distinct LEFT-neighbor terms and distinct RIGHT-
    neighbor terms within documents — templated/boilerplate text shows
    high frequency with low branching; natural text branches. Adjacent
    (prev, next) pairs come from one vectorized shift per batch;
    distinct-neighbor counts are one hash-bucket distinct + sum per
    direction; occurrences are a per-batch combiner + bucket sum."""
    from ..stages.join import bucket_sum, distinct

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        ls, rs = [], []
        for text in df["text"].astype(str):
            toks = np.array(text.split(), dtype=object)
            if len(toks) >= 2:
                ls.append(toks[:-1])
                rs.append(toks[1:])
        if not ls:
            return pd.DataFrame(
                {"l": pd.Series([], dtype=str), "r": pd.Series([], dtype=str)}
            )
        return pd.DataFrame(
            {"l": np.concatenate(ls), "r": np.concatenate(rs)}
        ).drop_duplicates()

    def occ(df: pd.DataFrame) -> pd.DataFrame:
        c = df["text"].astype(str).str.split().explode().value_counts()
        return pd.DataFrame(
            {"term": c.index.astype(str), "n_occur": c.to_numpy().astype("int64")}
        )

    src = _table(sf_dir, "documents", ["text"]).materialize()
    up = distinct(src.map_batches(pairs, batch_format="pandas"), ["l", "r"], n_buckets)
    up = up.materialize()

    occs = bucket_sum(
        src.map_batches(occ, batch_format="pandas"), ["term"], ["n_occur"], n_buckets
    ).to_pandas()

    nr = bucket_sum(
        up.map_batches(
            lambda d: pd.DataFrame({"term": d["l"].astype(str), "n_right": np.int64(1)})
            .groupby("term", as_index=False)
            .sum(),
            batch_format="pandas",
        ),
        ["term"],
        ["n_right"],
        n_buckets,
    ).to_pandas()
    nl = bucket_sum(
        up.map_batches(
            lambda d: pd.DataFrame({"term": d["r"].astype(str), "n_left": np.int64(1)})
            .groupby("term", as_index=False)
            .sum(),
            batch_format="pandas",
        ),
        ["term"],
        ["n_left"],
        n_buckets,
    ).to_pandas()

    out = occs.merge(nl, on="term", how="left").merge(nr, on="term", how="left")
    out = out.fillna({"n_left": 0, "n_right": 0}).sort_values("term")
    return pd.DataFrame(
        {
            "term": out["term"].astype(str),
            "n_occur": out["n_occur"].astype("int64"),
            "n_left": out["n_left"].astype("int64"),
            "n_right": out["n_right"].astype("int64"),
        }
    ).reset_index(drop=True)


def q_incremental_neardup(sf_dir: str, mod: int = 5, n_buckets: int = 32):
    """INCREMENTAL NEAR-DUP CHECK — the production shape of dedup on
    a growing corpus: "new" documents (doc_id % ``mod`` == 0, the
    fresh-crawl stand-in) probe the band-hash buckets of the WHOLE
    corpus, and only pairs touching a new doc are generated and
    verified (exact 3-shingle Jaccard >= 0.8) — the old corpus is
    never re-paired against itself, so per-increment work is
    O(new x bucket neighbors), not O(corpus^2). Same MinHash bands +
    exact verify as doc_minhash_dedup (recall at J >= 0.8 covered by
    the banding, checked there); hot buckets use the chunked exact
    sweep. Output: the qualifying (a < b) pairs with new-side flags."""
    from ..stages.dedup import (
        MAX_BUCKET_PAIRS,
        _MINHASH_STAGES,
        MinHashStage,
        iter_triu_blocks,
        verify_jaccard,
    )
    from ..stages.join import add_bucket, bucket_map_groups, distinct

    docs = _table(sf_dir, "documents", ["doc_id", "text"]).materialize()
    mh_key = ("doc_id", "text", 128, 16, 3)

    def mh_batch(t: pa.Table) -> pa.Table:
        st = _MINHASH_STAGES.get(mh_key)
        if st is None:
            st = _MINHASH_STAGES[mh_key] = MinHashStage()
        return st(t)

    bands = docs.map_batches(mh_batch, batch_format="pyarrow")

    def pairs(df: pd.DataFrame, _mod=mod) -> pd.DataFrame:
        out_a, out_b = [], []
        for (_, _), g in df.groupby(["band_id", "band_hash"]):
            ids = np.sort(g["doc_id"].unique())
            n = len(ids)
            if n < 2:
                continue
            newm = (ids % _mod) == 0
            if not newm.any():
                continue
            if n * (n - 1) // 2 > MAX_BUCKET_PAIRS:
                print(f"incremental_neardup: hot bucket of {n} docs -> chunked sweep")
            for i, j in iter_triu_blocks(n):
                keep = newm[i] | newm[j]
                out_a.extend(ids[i][keep])
                out_b.extend(ids[j][keep])
        return pd.DataFrame(
            {"a": pd.Series(out_a, dtype="int64"), "b": pd.Series(out_b, dtype="int64")}
        )

    cand = distinct(
        bucket_map_groups(
            add_bucket(bands, ["band_id", "band_hash"], n_buckets), n_buckets, pairs
        ),
        ["a", "b"],
        n_buckets,
    )
    ver = verify_jaccard(cand, docs)

    def finish(t: pa.Table, _mod=mod) -> pa.Table:
        keep = t["jaccard_e6"].to_numpy() >= 800_000
        a = t["a"].to_numpy()[keep]
        b = t["b"].to_numpy()[keep]
        return pa.table(
            {
                "a": pa.array(a.astype(np.int64)),
                "b": pa.array(b.astype(np.int64)),
                "a_is_new": pa.array((a % _mod == 0).astype(np.int64)),
                "b_is_new": pa.array((b % _mod == 0).astype(np.int64)),
            }
        )

    return ver.map_batches(finish, batch_format="pyarrow")


def q_neardup_threshold_curve(sf_dir: str):
    """Dedup tuning curve: for Jaccard thresholds {0.80, 0.85, 0.90},
    the verified near-dup pair count, docs touched, cluster count and
    retained corpus size (total - touched + one representative per
    cluster) — the numbers a pipeline owner reads before picking the
    dedup threshold. Pair generation is the SAME banded-LSH + exact
    verify as doc_minhash_dedup (its recall at J >= 0.8 is checked
    there; higher thresholds are subsets, so no extra recall
    assumption); clustering per threshold runs the ENGINE'S OWN
    distributed CC on each thresholded pair graph (pair graphs are
    collapse residue — bounded, but never driver-side). Scalars leave
    the cluster table via Dataset count()s, not take_all."""
    import shutil as _sh

    from ..stages.dedup import minhash_candidates, verify_jaccard
    from ..stages.join import distinct
    from .graph import run_algorithm
    from .ingest import build_graph

    ds = _table(sf_dir, "documents", ["doc_id", "text"]).materialize()
    n_total = ds.count()
    cand = minhash_candidates(ds)
    ver = verify_jaccard(cand, ds).materialize()
    rows = []
    for thr in (800_000, 850_000, 900_000):
        edges = ver.map_batches(
            lambda t, thr=thr: t.filter(pa.compute.greater_equal(t["jaccard_e6"], thr)),
            batch_format="pyarrow",
        ).materialize()
        n_pairs = edges.count()
        if n_pairs == 0:
            rows.append((thr, 0, 0, 0, n_total))
            continue
        gdir = _cache(sf_dir, f"ndtc_graph_{thr}")
        _sh.rmtree(gdir, ignore_errors=True)
        build_graph(
            edges.map_batches(
                lambda t: pa.table(
                    {
                        "src_key": t["a"].cast(pa.string()),
                        "dst_key": t["b"].cast(pa.string()),
                    }
                ),
                batch_format="pyarrow",
            ),
            gdir,
            n_parts=2,
            n_buckets=4,
            dedup=True,
        )
        cc = run_algorithm(gdir, _cache(sf_dir, f"ndtc_cc_{thr}"), "cc").materialize()
        n_docs = cc.count()
        n_clusters = distinct(
            cc.map_batches(
                lambda t: pa.table({"lab": t["value"].cast(pa.int64())}),
                batch_format="pyarrow",
            ),
            ["lab"],
            4,
        ).count()
        rows.append((thr, n_pairs, n_docs, n_clusters, n_total - n_docs + n_clusters))
    return pa.table(
        {
            "threshold_e6": pa.array([r[0] for r in rows], pa.int64()),
            "n_pairs": pa.array([r[1] for r in rows], pa.int64()),
            "n_docs_in_pairs": pa.array([r[2] for r in rows], pa.int64()),
            "n_clusters": pa.array([r[3] for r in rows], pa.int64()),
            "n_retained": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


def q_lsh_bucket_stats(sf_dir: str, n_buckets: int = 16):
    """LSH candidate-generation cost model over the simhash 4x16-bit
    sub-bands: per band, the bucket-size histogram and the candidate
    pair count each size class contributes (n_buckets_of_size *
    C(size, 2)) — what you read to predict verify-stage cost and spot
    degenerate bands before running the full pair sweep. One bucketed
    shuffle on (band, key) for sizes, one tiny histogram sum."""
    from ..stages.dedup import simhash_signatures
    from ..stages.join import add_bucket, bucket_sum

    docs = _table(sf_dir, "documents", ["doc_id", "text"])
    sigs = simhash_signatures(docs)

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "band": pa.array(np.repeat(np.arange(4, dtype=np.int64), n)),
                "key": pa.array(
                    np.concatenate([t[f"sb{b}"].to_numpy() for b in range(4)])
                ),
                "one": pa.array(np.ones(4 * n, dtype=np.int64)),
            }
        )

    sizes = bucket_sum(
        sigs.map_batches(explode, batch_format="pyarrow"),
        ["band", "key"],
        ["one"],
        n_buckets,
    )

    def hist(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "band": t["band"],
                "bucket_size": t["one"],
                "n_buckets": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )

    out = bucket_sum(
        sizes.map_batches(hist, batch_format="pyarrow"),
        ["band", "bucket_size"],
        ["n_buckets"],
        4,
    )
    return out.map_batches(
        lambda t: pa.table(
            {
                "band": t["band"],
                "bucket_size": t["bucket_size"],
                "n_buckets": t["n_buckets"],
                "n_cand_pairs": pa.array(
                    t["n_buckets"].to_numpy()
                    * (
                        t["bucket_size"].to_numpy()
                        * (t["bucket_size"].to_numpy() - 1)
                        // 2
                    )
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_page_analyze_rollup(sf_dir: str, n_pages: int = 2000):
    """The FUSED page-analysis stage (stages/analyze.py — the scaling
    benchmark's flagship kernel), SQL-gated END-TO-END for the first
    time: html -> extracted text -> langid/quality/token counts/link
    counts, rolled up per predicted language. The oracle reconstructs
    the extracted text byte-identically from the generator recurrence
    (the same _page_text_cte the page_text_stats gate uses) and
    recomputes language id, the quality composite, BPE-ish token
    counts and per-page link counts independently in SQL — so a
    regression anywhere in decode -> extract -> tokenize -> score now
    trips a hash gate, not just the per-doc parity test."""
    from ..sources.pages import generate_pages
    from ..stages.analyze import analyze_pages
    from ..stages.join import bucket_sum

    res = analyze_pages(generate_pages(n_pages))

    def pre(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang_pred": t["lang_pred"],
                "n_links": t["n_links"],
                "n_pages": pa.array(np.ones(t.num_rows, np.int64)),
                "sum_tokens": t["n_tokens"],
                "sum_bpe_tokens": t["n_bpe_tokens"],
                "sum_quality_e6": t["quality_e6"],
            }
        )

    # (lang, link-count) grid: 12 distinct link counts in the corpus,
    # so the gate checks the full per-page link distribution alongside
    # the token/quality sums, not one collapsed row
    return bucket_sum(
        res.map_batches(pre, batch_format="pyarrow"),
        ["lang_pred", "n_links"],
        ["n_pages", "sum_tokens", "sum_bpe_tokens", "sum_quality_e6"],
        4,
    )


def q_page_simhash_bands(sf_dir: str, n_pages: int = 2000):
    """The fused analyze stage's SIMHASH column, SQL-gated: per
    16-bit sub-band, the bucket-size histogram over every page's
    simhash (the exact near-dup banding surface the flagship kernel
    emits). The oracle rebuilds page text from the generator
    recurrence and recomputes the FNV-token simhash bit-for-bit in
    SQL (same chain the doc_simhash_pairs gate uses) — combined with
    page_analyze_rollup this puts every analyze output column except
    the 128-perm MinHash bands behind a hash gate."""
    from ..sources.pages import generate_pages
    from ..stages.analyze import analyze_pages
    from ..stages.join import bucket_sum

    res = analyze_pages(generate_pages(n_pages))

    def explode(t: pa.Table) -> pa.Table:
        from ..stages.dedup import simhash_band_keys

        sig = t["simhash"].to_numpy().astype(np.int64).view(np.uint64)
        n = len(sig)
        return pa.table(
            {
                "band": pa.array(np.repeat(np.arange(4, dtype=np.int64), n)),
                "key": pa.array(simhash_band_keys(sig).ravel()),
                "one": pa.array(np.ones(4 * n, dtype=np.int64)),
            }
        )

    sizes = bucket_sum(
        res.map_batches(explode, batch_format="pyarrow"), ["band", "key"], ["one"], 8
    )

    def hist(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "band": t["band"],
                "bucket_size": t["one"],
                "n_buckets": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )

    return bucket_sum(
        sizes.map_batches(hist, batch_format="pyarrow"),
        ["band", "bucket_size"],
        ["n_buckets"],
        4,
    )


def q_page_minhash_bands(sf_dir: str, n_pages: int = 2000):
    """The fused analyze stage's MinHash BAND HASHES, SQL-gated
    bit-for-bit: every page's 16 LSH band keys (128-perm MinHash over
    word-3-shingle FNV hashes, 8 rows folded per band) — the exact
    candidate-generation surface the near-dup pipeline consumes. The
    oracle rebuilds page text from the generator recurrence, recomputes
    shingle FNV, all 128 permutations ((a*x mod 2^64 + b) mod 2^64
    mod M61 — HUGEINT holds the 122-bit products), the per-perm min,
    and the band fold (wraparound-multiply chain) in SQL. Completes
    end-to-end hash-gate coverage of every analyze output column."""
    from ..sources.pages import generate_pages
    from ..stages.analyze import analyze_pages

    res = analyze_pages(generate_pages(n_pages))
    return res.map_batches(_explode_band_hashes, batch_format="pyarrow")


def _explode_band_hashes(t: pa.Table) -> pa.Table:
    """(url, band_id, band_hash) rows from each page's ``band_hashes``
    list. Every list must have the same length (the band count); a
    ragged or null list raises ValueError instead of shifting band ids
    across pages."""
    n = t.num_rows
    bh = t["band_hashes"]
    lens = pc.list_value_length(bh).to_numpy(zero_copy_only=False)
    if n and (bh.null_count or (lens != lens[0]).any()):
        raise ValueError(f"ragged band_hashes: {n} pages hold null lists or lists of unequal length")
    n_bands = int(lens[0]) if n else 0
    return pa.table(
        {
            "url": pa.array(np.repeat(t["url"].to_numpy(zero_copy_only=False), n_bands)),
            "band_id": pa.array(np.tile(np.arange(n_bands, dtype=np.int64), n)),
            "band_hash": pc.list_flatten(bh),
        }
    )
