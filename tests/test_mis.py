"""Luby maximal independent set: the engine's two-phase rounds
(algorithms.MaximalIndependentSet) must reproduce an independent
set-based Python implementation of Luby 1986 exactly, and the result
must be a correct MIS (independent + maximal). Both engine executors."""

import shutil
from collections import defaultdict

import numpy as np
import ray.data as rd

from distributed_graph_computing_platform_ray.algorithms import make_algorithm
from distributed_graph_computing_platform_ray.engine import BSPEngine
from distributed_graph_computing_platform_ray.pipelines.graph import result_dataset
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest
from distributed_graph_computing_platform_ray.utils import mix64

TMP = "/tmp/graft_tests/mis"
SEED = 7


def _prio(r: int, v: int) -> int:
    return int(mix64(np.uint64(SEED + r), np.uint64(v))) >> 11


def luby_oracle(edges):
    """Set-based Luby rounds: v joins iff its round-priority is a
    strict minimum over its still-undecided neighbors (vertices with
    no undecided neighbors join); neighbors of joiners go out."""
    adj = defaultdict(set)
    verts = set()
    for u, v in edges:
        verts |= {u, v}
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    und = set(verts)
    mis = set()
    r = 0
    while und:
        p = {v: _prio(r, v) for v in und}
        joined = {
            v
            for v in und
            if all(p[v] < p[u] for u in adj[v] if u in und)
        }
        out = {v for v in und - joined if adj[v] & joined}
        mis |= joined
        und -= joined | out
        r += 1
        assert r < 200, "oracle failed to converge"
    return mis


def _check(edges, mis):
    adj_pairs = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}
    for u, v in adj_pairs:
        assert not (u in mis and v in mis and u != v), f"not independent: {u},{v}"
    verts = {x for e in edges for x in e}
    for v in verts - mis:
        nbrs = {b for a, b in adj_pairs if a == v}
        assert nbrs & mis, f"not maximal: {v} has no MIS neighbor"


def test_mis_matches_luby_oracle_both_backends(use_executor):
    # ring + chords + a star hub + an isolated edge: mixes degrees
    edges = [(i, (i + 1) % 20) for i in range(20)]
    edges += [(0, 10), (3, 13), (5, 17), (2, 8)]
    edges += [(30, i) for i in range(9)]  # hub
    edges += [(40, 41)]
    exp = luby_oracle(edges)
    _check(edges, exp)

    ds = rd.from_items(
        [{"src_key": str(u), "dst_key": str(v)} for u, v in edges]
    )
    gdir = f"{TMP}/graph"
    shutil.rmtree(TMP, ignore_errors=True)
    build_graph(ds, gdir, n_parts=2, n_buckets=4, dedup=False)
    man = GraphManifest.load(gdir)

    for executor in ("tasks", "local"):
        use_executor(executor)
        eng = BSPEngine(man, f"{TMP}/run_{executor}")
        final = eng.run(
            make_algorithm("mis", seed=SEED),
            checkpoint_interval=3,
        )
        res = result_dataset(man, eng.iter_dir(final)).to_pandas()
        states = {int(v): x for v, x in zip(res["vertex"], res["value"])}
        assert set(states.values()) <= {1.0, 2.0}, (executor, "undecided left")
        got = {v for v, s in states.items() if s == 1.0}
        assert got == exp, (executor, sorted(got ^ exp))
        _check(edges, got)
