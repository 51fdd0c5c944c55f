"""Strongly connected components on a directed graph.

The reference ships no directed-graph algorithms (its loader always
symmetrizes, worker/worker.go:150-170), but SCC is THE classic web
link-graph decomposition (the Broder et al. 2000 "bow-tie": one giant
core SCC plus IN/OUT periphery), so the target engine needs it.

Algorithm: iterated forward-backward min-label intersection (the
label-based SCC used by Pregel-family systems, cf. Yan et al. 2014
"Pregel algorithms for graph connectivity problems"):

  round r over the still-undecided subgraph:
    fwd(v) = min vertex id that reaches v      (forward min propagation)
    bwd(v) = min vertex id reachable from v    (backward min propagation)
    fwd(v) == bwd(v) == c  <=>  c reaches v and v reaches c
                           <=>  v is in SCC(c)   (never a false positive)

Both propagations run as ONE engine CC run on the DOUBLED graph: each
directed edge (u, v) becomes 2u -> 2v (forward plane) and
2v+1 -> 2u+1 (backward plane). The planes never interact, labels stay
even (2*fwd) / odd (2*bwd + 1), and the engine's existing min-label
fixpoint (`algorithms.ConnectedComponents`) decodes with a shift — no
new vertex program needed. Every round decides at least the SCC of
each weak component's minimum undecided vertex, so the loop
terminates; like all label-propagation SCC it needs O(k) rounds for a
chain of k SCCs (a path graph is the worst case — the standard trim
step for that case falls out for free here because degree-0-in-plane
vertices decide as singletons when their edges vanish).

Scale notes (100 TB): decided rows never touch the driver — each
round's decided assignment stays a Dataset and the final result is
their union. Only the *undecided frontier* (vertex ids still in play)
is driver-held and broadcast via ``ray.put`` to filter edges, the same
bounded-frontier pattern as q_kcore's peeling; it shrinks every round
and is capped (`max_frontier`) — past the cap the edge filter should
become a bucket join against a distributed frontier Dataset instead.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..stages.join import bucket_sum


def _distinct_endpoints(edges: rd.Dataset) -> np.ndarray:
    """Sorted distinct vertex ids of an edge Dataset (per-block unique
    partials, tiny driver merge — same shape as the dictionary build)."""

    def part(t: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [
                    t["src"].to_numpy().astype(np.int64),
                    t["dst"].to_numpy().astype(np.int64),
                ]
            )
        )
        return pa.table({"id": pa.array(u)})

    parts = edges.map_batches(part, batch_format="pyarrow").take_all()
    if not parts:
        return np.array([], dtype=np.int64)
    return np.unique(np.array([r["id"] for r in parts], dtype=np.int64))


def strongly_connected_components(
    edges: rd.Dataset,
    work_dir: str,
    *,
    max_rounds: int = 64,
    max_frontier: int = 20_000_000,
) -> rd.Dataset:
    """-> Dataset[(vertex: int64, scc_id: int64)] with
    scc_id = min vertex id in the strongly connected component."""
    from .graph import run_algorithm
    from .ingest import build_graph

    shutil.rmtree(work_dir, ignore_errors=True)
    edges = edges.materialize()
    undec = _distinct_endpoints(edges)
    decided_parts: list[rd.Dataset] = []
    singles: list[np.ndarray] = []

    for rnd in range(max_rounds):
        if len(undec) == 0:
            break
        if len(undec) > max_frontier:
            raise ValueError(
                f"SCC frontier {len(undec)} exceeds max_frontier="
                f"{max_frontier}; use a bucket-join edge filter for "
                "graphs this hard (see module docstring)"
            )
        undec_ref = ray.put(undec)

        def keep(t: pa.Table, _ref=undec_ref) -> pa.Table:
            und = ray.get(_ref)  # sorted -> np.isin takes the searchsorted path
            s = t["src"].to_numpy().astype(np.int64)
            d = t["dst"].to_numpy().astype(np.int64)
            return t.filter(pa.array(np.isin(s, und) & np.isin(d, und)))

        sub = edges.map_batches(keep, batch_format="pyarrow").materialize()
        present = _distinct_endpoints(sub)
        lone = np.setdiff1d(undec, present)
        if len(lone):
            singles.append(lone)  # no in-play edges -> singleton SCCs
        if len(present) == 0:
            undec = present
            break

        def double(t: pa.Table) -> pa.Table:
            x = t["src"].to_numpy().astype(np.int64)
            y = t["dst"].to_numpy().astype(np.int64)
            return pa.table(
                {
                    "src_key": pa.array(np.concatenate([2 * x, 2 * y + 1])).cast(
                        pa.string()
                    ),
                    "dst_key": pa.array(np.concatenate([2 * y, 2 * x + 1])).cast(
                        pa.string()
                    ),
                }
            )

        rdir = os.path.join(work_dir, f"round{rnd:02d}")
        n_e = sub.count()
        n_parts = max(2, min(64, -(-n_e // 250_000)))
        build_graph(
            sub.map_batches(double, batch_format="pyarrow"),
            os.path.join(rdir, "graph"),
            n_parts=n_parts,
            n_buckets=2 * n_parts,
            dedup=False,  # doubling a distinct edge set stays distinct
            symmetrize_edges=False,
        )
        res = run_algorithm(os.path.join(rdir, "graph"), os.path.join(rdir, "cc"), "cc")

        def pivot(t: pa.Table) -> pa.Table:
            dv = t["vertex"].cast(pa.int64()).to_numpy()
            lab = t["value"].to_numpy().astype(np.int64)
            # even plane carries 2*fwd, odd plane 2*bwd+1; >>1 decodes both
            even = (dv & 1) == 0
            return pa.table(
                {
                    "v": pa.array(dv >> 1),
                    "fwd": pa.array(np.where(even, lab >> 1, 0)),
                    "bwd": pa.array(np.where(even, 0, lab >> 1)),
                }
            )

        piv = bucket_sum(
            res.map_batches(pivot, batch_format="pyarrow"),
            ["v"],
            ["fwd", "bwd"],
            n_buckets=max(8, n_parts),
        ).materialize()

        def decided(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            d = t.filter(pc.equal(t["fwd"], t["bwd"]))
            return pa.table({"vertex": d["v"], "scc_id": d["fwd"]})

        def undecided(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return pa.table({"v": t.filter(pc.not_equal(t["fwd"], t["bwd"]))["v"]})

        decided_parts.append(piv.map_batches(decided, batch_format="pyarrow"))
        undec = np.sort(
            np.array(
                [
                    r["v"]
                    for r in piv.map_batches(
                        undecided, batch_format="pyarrow"
                    ).take_all()
                ],
                dtype=np.int64,
            )
        )
    else:
        if len(undec):
            raise RuntimeError(f"SCC did not converge in {max_rounds} rounds")

    if singles:
        s = np.concatenate(singles)
        decided_parts.append(
            rd.from_arrow(pa.table({"vertex": pa.array(s), "scc_id": pa.array(s)}))
        )
    if not decided_parts:
        return rd.from_arrow(
            pa.table(
                {
                    "vertex": pa.array([], pa.int64()),
                    "scc_id": pa.array([], pa.int64()),
                }
            )
        )
    out = decided_parts[0]
    for p in decided_parts[1:]:
        out = out.union(p)
    return out
