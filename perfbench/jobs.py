"""One round of each workload's job, timed around the program's public calls.

A round function takes a ``Ctx`` and the workload's input directory and
returns a ``Round``: the end-to-end timings of the round, the per-layer
numbers the round produced, and the outputs the checks need. Every
timed block is a ``Tracer.span``; nothing inside the package is
changed or patched.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray.data as rd

from distributed_graph_computing_platform_ray.algorithms import ConnectedComponents, PageRank
from distributed_graph_computing_platform_ray.pipelines.graph import lookup_vertex_id, run_algorithm, top_k
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.pipelines.pages import build_link_graph, read_pages
from distributed_graph_computing_platform_ray.pipelines.triangles import canonical_edges, triangle_count
from distributed_graph_computing_platform_ray.stages.analyze import analyze_pages
from distributed_graph_computing_platform_ray.stages.extract import extract_links
from distributed_graph_computing_platform_ray.state.csr import load_shard
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

from spans import Tracer

N_PARTS = 4
N_BUCKETS = 16
PR_ITERS = {"crawl": 30, "powerlaw": 10, "resume": 30}
LP_ITERS = 10
RESUME_PR_STOP = 15  # PageRank leg 1 ends after this superstep
RESUME_CC_STOP = 3  # CC leg 1 ends after this superstep
TOP_K = 25
FLOOR_ITERS = 30  # PageRank supersteps timed on the floor graph

# operations per round: one stage or algorithm call each
OPS = {
    "crawl": ["analyze", "ingest", "pagerank", "cc", "lp", "sssp", "triangles", "top_k"],
    "powerlaw": ["ingest", "pagerank", "cc", "lp", "sssp"],
    "resume": ["ingest", "pagerank", "pagerank_resume", "cc", "cc_resume"],
}


@dataclass
class Ctx:
    tracer: Tracer
    work: str  # root of the run's graph and state directories
    done_ops: int = 0


@dataclass
class Round:
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


class ConnectedComponentsStopAt(ConnectedComponents):
    """CC that stops after ``stop`` supersteps: the first leg of a resume."""

    def __init__(self, stop: int):
        super().__init__()
        self.stop = stop

    def max_supersteps(self):
        return self.stop


def _manifest_layers(man: GraphManifest) -> dict:
    edges = np.array([p["n_edges"] for p in man.parts], dtype=np.float64)
    return {
        "ingest.vertices": man.n_vertices,
        "ingest.edges_directed": man.n_edges_directed,
        "ingest.parts": man.n_parts,
        "ingest.part_edges_max_over_mean": float(edges.max() / edges.mean()),
    }


def _run_json(work_dir: str) -> dict:
    with open(os.path.join(work_dir, "run.json")) as f:
        return json.load(f)


def _checkpoints(work_dir: str) -> tuple[int, int]:
    """(complete iter= directories, bytes under state/)."""
    root = os.path.join(work_dir, "state")
    count = size = 0
    for name in os.listdir(root):
        d = os.path.join(root, name)
        if os.path.exists(os.path.join(d, "_DONE.json")):
            count += 1
        for f in os.listdir(d):
            size += os.path.getsize(os.path.join(d, f))
    return count, size


def graph_edges(man: GraphManifest) -> rd.Dataset:
    """The graph's directed adjacency as an (src, dst) int64 Dataset."""
    src, dst = [], []
    for p in range(man.n_parts):
        sh = load_shard(man, p)
        src.append(np.repeat(np.arange(sh.lo, sh.hi, dtype=np.int64), np.diff(np.asarray(sh.indptr))))
        dst.append(np.asarray(sh.indices, dtype=np.int64))
    return rd.from_arrow(pa.table({"src": np.concatenate(src), "dst": np.concatenate(dst)}))


def _engine_layers(lay: dict, runs: list[tuple[str, dict]], work_dirs: list[str]) -> None:
    """Engine and checkpoint numbers from the engine's run.json records
    and its state directories; ``lay`` already holds engine.<algo>_s."""
    for name, run in runs:
        lay["engine.msg_rows"] = lay.get("engine.msg_rows", 0) + sum(h.get("msg_rows", 0) for h in run["history"])
        if name == "pagerank":
            lay["engine.scatter_slices"] = sum(run["scatter_slices"] or [1] * N_PARTS)
        if name in ("cc", "sssp"):
            lay[f"engine.{name}_supersteps"] = run["final_iter"]
    count = size = 0
    for wd in work_dirs:
        c, b = _checkpoints(wd)
        count, size = count + c, size + b
    lay["checkpoint.count"], lay["checkpoint.bytes"] = count, size


def sssp_source(inputs: str) -> str:
    """The vertex key the generator chose as the SSSP source."""
    with open(os.path.join(inputs, "meta.json")) as f:
        return json.load(f)["sssp_source"]


def _algorithms(ctx: Ctx, r: Round, graph: str, wd: str, algos: list[tuple[str, dict]], source: str) -> None:
    """Run each algorithm to its end, then decode its (vertex, value) rows."""
    sp = ctx.tracer.span
    t, lay = r.e2e, r.layers
    runs = []
    for name, params in algos:
        awd = os.path.join(wd, name)
        if name == "sssp":
            with sp("results.lookup", t, "lookup_s"):
                params = {"source_id": lookup_vertex_id(GraphManifest.load(graph), source)}
        with sp(f"engine.{name}", lay, f"engine.{name}_s"):
            ds = run_algorithm(graph, awd, name, **params)
        with sp("results.decode", lay, "results.decode_s"):
            r.outputs[name] = ds.to_pandas()
        ctx.done_ops += 1
        r.outputs[f"{name}_ds"] = ds
        runs.append((name, _run_json(awd)))
    t["iterate_s"] = sum(lay[f"engine.{n}_s"] for n, _ in algos)
    _engine_layers(lay, runs, [os.path.join(wd, n) for n, _ in algos])
    lay["engine.superstep_s"] = t["iterate_s"] / sum(run["final_iter"] for _, run in runs)


def crawl_round(ctx: Ctx, inputs: str, n: int) -> Round:
    """analyze -> link graph -> PageRank-30, CC, LP-10, SSSP -> triangles -> top-25."""
    r, sp = Round(), ctx.tracer.span
    t, lay = r.e2e, r.layers
    wd = os.path.join(ctx.work, f"crawl-r{n}")
    graph = os.path.join(wd, "graph")
    pages = os.path.join(inputs, "pages")
    source = sssp_source(inputs)
    with sp(f"round{n}", t, "job_s"):
        with sp("analyze", lay, "analyze.s"):
            r.outputs["analyze"] = analyze_pages(read_pages(pages, columns=["url", "html"])).materialize()
        ctx.done_ops += 1
        with sp("ingest", t, "ingest_s"):
            man = build_link_graph(pages, graph, n_parts=N_PARTS, n_buckets=N_BUCKETS)
        ctx.done_ops += 1
        _algorithms(
            ctx, r, graph, wd,
            [("pagerank", {"num_iters": PR_ITERS["crawl"]}), ("cc", {}), ("lp", {"num_iters": LP_ITERS}), ("sssp", {})],
            source,
        )
        with sp("triangles", lay, "triangles.s"):
            r.outputs["triangles"], _ = triangle_count(graph_edges(man), n_buckets=N_BUCKETS)
        ctx.done_ops += 1
        with sp("results.top_k", lay, "results.top_k_s"):
            r.outputs["top_k"] = top_k(r.outputs["pagerank_ds"], TOP_K).to_pandas()
        ctx.done_ops += 1
    n_pages = r.outputs["analyze"].count()
    lay.update(_manifest_layers(man))
    lay["ingest.build_graph_s"] = t["ingest_s"]
    lay["analyze.pages"] = n_pages
    lay["analyze.pages_per_s"] = n_pages / lay["analyze.s"]
    lay["triangles.total"] = r.outputs["triangles"]
    t["pagerank_edges_per_s"] = man.n_edges_directed * PR_ITERS["crawl"] / lay["engine.pagerank_s"]
    r.outputs["manifest"] = man
    return r


def powerlaw_round(ctx: Ctx, inputs: str, n: int) -> Round:
    """build_graph -> PageRank-10, CC, LP-10, SSSP."""
    r, sp = Round(), ctx.tracer.span
    t, lay = r.e2e, r.layers
    wd = os.path.join(ctx.work, f"powerlaw-r{n}")
    graph = os.path.join(wd, "graph")
    source = sssp_source(inputs)
    with sp(f"round{n}", t, "job_s"):
        with sp("ingest", t, "ingest_s"):
            man = build_graph(
                rd.read_parquet(os.path.join(inputs, "edges")), graph, n_parts=N_PARTS, n_buckets=N_BUCKETS
            )
        ctx.done_ops += 1
        _algorithms(
            ctx, r, graph, wd,
            [("pagerank", {"num_iters": PR_ITERS["powerlaw"]}), ("cc", {}), ("lp", {"num_iters": LP_ITERS}), ("sssp", {})],
            source,
        )
    lay.update(_manifest_layers(man))
    lay["ingest.build_graph_s"] = t["ingest_s"]
    t["pagerank_edges_per_s"] = man.n_edges_directed * PR_ITERS["powerlaw"] / lay["engine.pagerank_s"]
    r.outputs["manifest"] = man
    return r


def plant_partial_checkpoint(work_dir: str, k: int) -> None:
    """Leave iter=k as a crashed writer would: half a state file, no _DONE.json."""
    state = os.path.join(work_dir, "state")
    src = os.path.join(state, f"iter={k - 1:04d}", "part-00000.parquet")
    with open(src, "rb") as f:
        data = f.read()
    os.makedirs(os.path.join(state, f"iter={k:04d}"))
    with open(os.path.join(state, f"iter={k:04d}", "part-00000.parquet"), "wb") as f:
        f.write(data[: len(data) // 2])


def resume_round(ctx: Ctx, inputs: str, n: int) -> Round:
    """Link graph; PageRank-30 and CC, each checkpointed every superstep,
    stopped part-way, given a half-written checkpoint, then resumed."""
    r, sp = Round(), ctx.tracer.span
    t, lay = r.e2e, r.layers
    wd = os.path.join(ctx.work, f"resume-r{n}")
    graph = os.path.join(wd, "graph")
    with sp(f"round{n}", t, "job_s"):
        with sp("ingest", t, "ingest_s"):
            man = build_link_graph(os.path.join(inputs, "pages"), graph, n_parts=N_PARTS, n_buckets=N_BUCKETS)
        ctx.done_ops += 1
        legs = [
            ("pagerank", PageRank(man.n_vertices, num_iters=RESUME_PR_STOP), RESUME_PR_STOP,
             {"num_iters": PR_ITERS["resume"]}),
            ("cc", ConnectedComponentsStopAt(RESUME_CC_STOP), RESUME_CC_STOP, {}),
        ]
        leg, runs = {}, []
        for name, first, stop, params in legs:
            awd = os.path.join(wd, name)
            with sp(f"engine.{name}", leg, f"{name}.first"):
                run_algorithm(graph, awd, first, checkpoint_interval=1)
            ctx.done_ops += 1
            runs.append((name, _run_json(awd)))
            plant_partial_checkpoint(awd, stop + 1)
            with sp(f"engine.{name}", leg, f"{name}.second"):
                ds = run_algorithm(graph, awd, name, resume=True, checkpoint_interval=1, **params)
            with sp("results.decode", lay, "results.decode_s"):
                r.outputs[name] = ds.to_pandas()
            ctx.done_ops += 1
            runs.append((name, _run_json(awd)))
            r.outputs[f"{name}_legs"] = (runs[-2][1]["final_iter"], runs[-1][1]["history"][0]["superstep"])
    lay.update(_manifest_layers(man))
    lay["ingest.build_graph_s"] = t["ingest_s"]
    lay["resume.first_leg_s"] = leg["pagerank.first"] + leg["cc.first"]
    lay["resume.second_leg_s"] = leg["pagerank.second"] + leg["cc.second"]
    for name in ("pagerank", "cc"):
        lay[f"engine.{name}_s"] = leg[f"{name}.first"] + leg[f"{name}.second"]
    t["iterate_s"] = sum(leg.values())
    _engine_layers(lay, runs, [os.path.join(wd, "pagerank"), os.path.join(wd, "cc")])
    lay["engine.superstep_s"] = t["iterate_s"] / (PR_ITERS["resume"] + runs[-1][1]["final_iter"])
    t["pagerank_edges_per_s"] = man.n_edges_directed * PR_ITERS["resume"] / lay["engine.pagerank_s"]
    r.outputs["manifest"] = man
    return r


def layer_extras(ctx: Ctx, r: Round, inputs: str, floor_graph: str) -> dict:
    """Traced runs only, after the rounds: layers the job reaches only
    from inside another public call, timed by calling them on their own."""
    sp, lay = ctx.tracer.span, {}
    pages = os.path.join(inputs, "pages")
    if os.path.isdir(pages):
        with sp("extract", lay, "extract.links_s"):
            links = extract_links(read_pages(pages, columns=["url", "html"])).materialize()
        lay["extract.links_rows"] = links.count()
    if "triangles" in r.outputs:
        with sp("triangles.canonical_edges", lay, "triangles.canonical_edges_s"):
            canonical_edges(graph_edges(r.outputs["manifest"]), N_BUCKETS).materialize()
    floor = {}
    with sp("engine.floor", floor, "s"):
        run_algorithm(floor_graph, os.path.join(ctx.work, "floor-pr"), "pagerank", num_iters=FLOOR_ITERS)
    lay["engine.floor_superstep_s"] = floor["s"] / FLOOR_ITERS
    return lay


def build_floor_graph(path: str) -> GraphManifest:
    """A ring of 2 x N_PARTS vertices split into N_PARTS parts: PageRank
    on it costs the engine's fixed per-superstep price and little else."""
    n = 2 * N_PARTS
    ring = pa.table(
        {
            "src_key": pa.array([f"v{i}" for i in range(n)]),
            "dst_key": pa.array([f"v{(i + 1) % n}" for i in range(n)]),
        }
    )
    return build_graph(rd.from_arrow(ring), path, n_parts=N_PARTS, n_buckets=N_BUCKETS)


def warm_up(work: str) -> str:
    """Start and import into the Ray workers every layer the jobs use:
    a tiny analyze, the floor graph's build and a short PageRank on it.
    Returns the floor graph's directory."""
    page = pa.table({"url": ["https://w.test/a"], "html": [b"<p>warm up</p><a href='/b'>b</a>"]})
    analyze_pages(rd.from_arrow(page)).materialize()
    floor = os.path.join(work, "floor-graph")
    build_floor_graph(floor)
    run_algorithm(floor, os.path.join(work, "floor-warm"), "pagerank", num_iters=2).to_pandas()
    return floor


ROUNDS = {"crawl": crawl_round, "powerlaw": powerlaw_round, "resume": resume_round}
