"""User-extension surface (reference api.Vertex parity, SURVEY.md §2.10):
a NEW algorithm is just an Algorithm subclass with three numpy hooks —
no engine changes. Implements max-value propagation as the demo."""

import shutil

import numpy as np
import ray.data as rd

from distributed_graph_computing_platform_ray.algorithms import Algorithm, ScatterOut
from distributed_graph_computing_platform_ray.engine import BSPEngine
from distributed_graph_computing_platform_ray.pipelines.graph import result_dataset
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

TMP = "/tmp/graft_tests/custom_algo"


class MaxValue(Algorithm):
    """Every vertex converges to the max original id in its component.

    combine='min' over NEGATED values == max propagation — showing that
    the three hooks + a fold combiner cover algorithms the engine has
    never seen.
    """

    combine = "min"

    def __init__(self):
        self.name = "maxvalue"

    def init(self, ids, n_vertices, keys=None, keys_numeric=False):
        vals = np.asarray(keys, dtype=np.float64) if keys_numeric else ids.astype(np.float64)
        return -vals, np.ones(len(ids), dtype=bool)

    def message_base(self, ids, values, degrees, superstep):
        return ScatterOut(base=values)

    def apply(self, old_values, agg, has_msg, superstep):
        new = np.minimum(old_values, agg)
        changed = new < old_values
        return new, changed.copy(), changed


def test_custom_algorithm_runs_on_engine(use_executor):
    edges = [(1, 2), (2, 3), (7, 9), (9, 42)]
    ds = rd.from_items([{"src_key": str(u), "dst_key": str(v)} for u, v in edges])
    gdir = f"{TMP}/graph"
    shutil.rmtree(TMP, ignore_errors=True)
    build_graph(ds, gdir, n_parts=2, n_buckets=4, dedup=False)
    man = GraphManifest.load(gdir)

    for executor in ("tasks", "local"):
        use_executor(executor)
        eng = BSPEngine(man, f"{TMP}/run_{executor}")
        final = eng.run(MaxValue(), checkpoint_interval=2)
        res = result_dataset(man, eng.iter_dir(final)).to_pandas()
        got = {int(v): -x for v, x in zip(res["vertex"], res["value"])}
        assert got == {1: 3, 2: 3, 3: 3, 7: 42, 9: 42, 42: 42}
