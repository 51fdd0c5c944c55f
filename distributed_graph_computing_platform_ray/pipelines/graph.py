"""High-level graph-algorithm entry points over a built graph.

``run_algorithm`` plays the reference client+master roles
(/root/reference/client/client.go:31-106, master/master.go:391-453):
submit an algorithm against a graph directory, loop supersteps, and
expose results as a Dataset of (vertex, value) decoded back to the
original keys. ``top_k`` reproduces the master's top-25-by-value
report (master/master.go:307-341, utility/heap/heap.go:9-27) as a
Ray Data sort+limit.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..algorithms import Algorithm, make_algorithm
from ..engine import BSPEngine
from ..state.csr import load_vertex_keys
from ..state.manifest import GraphManifest


def run_algorithm(
    graph_dir: str,
    work_dir: str,
    algo: Algorithm | str,
    *,
    resume: bool = False,
    keep_iters: int | None = None,
    checkpoint_interval: int = 5,
    **params,
) -> rd.Dataset:
    """Run to termination; return Dataset[(vertex: str, value: float64)]."""
    manifest = GraphManifest.load(graph_dir)
    if isinstance(algo, str):
        if algo in ("pagerank", "pagerank_weighted", "pagerank_dangling", "pagerank_tol", "opic") and "n_vertices" not in params:
            params["n_vertices"] = manifest.n_vertices
        algo = make_algorithm(algo, **params)
    engine = BSPEngine(manifest, work_dir, keep_iters=keep_iters)
    final = engine.run(algo, resume=resume, checkpoint_interval=checkpoint_interval)
    return result_dataset(manifest, engine.iter_dir(final))


def keys_of_ids(manifest: GraphManifest, ids: np.ndarray) -> pa.Array:
    """Dense vertex ids -> their keys, read from each id's partition's
    (cached) vertices file."""
    keys = np.empty(len(ids), dtype=object)
    parts = ids // manifest.part_size
    for p in np.unique(parts):
        sel = parts == p
        keys[sel] = load_vertex_keys(manifest, int(p))[ids[sel] - int(p) * manifest.part_size]
    return pa.array(keys, pa.string())


def result_dataset(manifest: GraphManifest, state_dir: str) -> rd.Dataset:
    """Decode (id, value) -> (vertex key, value) without a shuffle.

    Vertices files are range-partitioned exactly like state, so the
    key lookup is a per-batch array index against the partition's
    (cached, mmap-friendly) key array — the no-op analog of the
    reference workers returning results straight from their own
    partitions (worker/worker.go:320-365).
    """

    def attach(t: pa.Table) -> pa.Table:
        return pa.table({"vertex": keys_of_ids(manifest, t["id"].to_numpy()), "value": t["value"]})

    return rd.read_parquet(state_dir).map_batches(attach, batch_format="pyarrow")


def decode_label_values(manifest: GraphManifest, result: rd.Dataset) -> rd.Dataset:
    """For CC/LP on NON-numeric key universes (urls): the propagated
    labels are dense vertex ids — map the value column back to the
    labeled vertex's key so components read as urls."""

    def attach(t: pa.Table) -> pa.Table:
        lab = t["value"].to_numpy().astype(np.int64)
        return pa.table({"vertex": t["vertex"], "label": keys_of_ids(manifest, lab)})

    return result.map_batches(attach, batch_format="pyarrow")


def lookup_vertex_id(manifest: GraphManifest, key: str) -> int:
    """key -> dense vertex id.

    Scans the (small) vertices files with a predicate; at 10^12-vertex
    scale use the dictionary's hash bucket to read one partition only.
    """
    import pyarrow.dataset as pads

    vdir = os.path.join(manifest.graph_dir, "vertices")
    t = pads.dataset(vdir).to_table(filter=pads.field("key") == key)
    if t.num_rows == 0:
        raise KeyError(f"vertex key {key!r} not in graph")
    return int(t["id"][0].as_py())


def top_k(result: rd.Dataset, k: int = 25) -> rd.Dataset:
    """Top-k by value desc (reference prints top-25); ties break by
    vertex key asc so output is deterministic."""
    return result.sort(["value", "vertex"], descending=[True, False]).limit(k)
