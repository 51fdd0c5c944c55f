"""Link-graph benchmark: run one workload end to end, check it, print one JSON line.

    python3 perfbench/run.py --workload crawl|powerlaw|resume --seed N --seconds S --trace 0|1

Set-up (timed from process start as ``setup_s``): generate the seeded
inputs in a child process, start Ray with as many logical CPUs as
``nproc`` reports, and warm the workers up. Then the workload's job runs in
whole rounds until ``--seconds`` of job time have passed and at least
MIN_ROUNDS rounds have run; each end-to-end metric is the best round's
(BEST). Every round's outputs are checked against references
computed by this directory's own code.
With ``--trace 1`` the last line carries the per-layer metrics instead
and the spans are written to .perfbench/traces/. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "distributed_graph_computing_platform_ray"
OUT = os.path.join(ROOT, ".perfbench")

CRAWL_PAGES = 2000
POWERLAW = (30_000, 300_000)  # vertices, edges drawn (before dedup)
PROBE_PAGES = 1000  # traced runs: input for layers the workload's job does not run
MIN_ROUNDS = 3  # rounds every run makes at least, for BEST to choose from
# The host's speed drifts: a slow spell of 20-60 s, longer than a
# round, lifts every round it covers, and it only ever adds time. The
# best round of a run is the one least touched by it; a change in the
# program moves every round, the best one too.
BEST = {"job_s": min, "ingest_s": min, "iterate_s": min, "pagerank_edges_per_s": max}
DEADLINE_S = 170
OBJECT_STORE_BYTES = 512 << 20
RAY_STARTS = 2  # ray.init attempts before the run fails
# a Unix socket path holds at most 107 bytes; Ray's longest socket
# sits this far below its temp dir (only the length counts)
RAY_SOCKET_MAX = 107
RAY_SOCKET_TAIL = "/session_YYYY-MM-DD_hh-mm-ss_ffffff_{pid}/sockets/plasma_store"

E2E = ["setup_s", "job_s", "ingest_s", "iterate_s", "pagerank_edges_per_s", "peak_rss_mb"]
E2E_UNITS = {"pagerank_edges_per_s": "edges/s", "peak_rss_mb": "MB"}
STAGES = ["analyze", "ingest", "engine", "triangles", "results"]
LAYERS = [
    "analyze.s", "analyze.pages_per_s", "analyze.pages",
    "extract.links_s", "extract.links_rows",
    "ingest.build_graph_s", "ingest.vertices", "ingest.edges_directed", "ingest.parts",
    "ingest.part_edges_max_over_mean",
    "engine.pagerank_s", "engine.cc_s", "engine.lp_s", "engine.sssp_s",
    "engine.cc_supersteps", "engine.sssp_supersteps", "engine.superstep_s",
    "engine.msg_rows", "engine.scatter_slices", "engine.floor_superstep_s",
    "checkpoint.count", "checkpoint.bytes", "resume.first_leg_s", "resume.second_leg_s",
    "triangles.s", "triangles.canonical_edges_s", "triangles.total",
    "results.decode_s", "results.top_k_s",
    *[f"dataset.executions.{s}" for s in STAGES],
    "trace.job_s",
]


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("max_over_mean"):
        return "ratio"
    return "count"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["crawl", "powerlaw", "resume"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def generate(kind: str, seed: int, size: tuple, inputs_root: str) -> str:
    """Write one input set in a child process; returns its directory,
    named by kind, size and seed, which appears only once complete."""
    name = f"{kind}-n{'x'.join(map(str, size))}-s{seed}"
    final = os.path.join(inputs_root, name)
    tmp = f"{final}.tmp"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), kind, *map(str, size), str(seed), tmp],
        check=True,
    )
    os.rename(tmp, final)
    return final


def ray_temp_dir(d: str) -> str | None:
    """``d`` as Ray's temp dir when the socket paths Ray makes below it
    fit in a Unix socket path; otherwise None (Ray's default)."""
    below = len(RAY_SOCKET_TAIL.format(pid=os.getpid()))
    return d if len(d) + below <= RAY_SOCKET_MAX else None


def nproc() -> int:
    """The cores this run is given, as ``nproc`` counts them. ``nproc``
    honours OMP_NUM_THREADS, which a shared host may set to a tenant's
    share while the affinity mask still shows every core; Ray tasks
    beyond that share would measure the host's scheduler."""
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def start_ray(run_dir: str, since: float):
    """Start Ray with its object store in a file under ``run_dir``.

    A raylet that has not registered within Ray's fixed 30 s makes
    ``ray.init`` raise; then the processes of that attempt are stopped
    and Ray is started once more, the time counted in set-up."""
    import ray

    ncpu = nproc()
    for attempt in range(RAY_STARTS):
        d = os.path.join(run_dir, f"ray{attempt}")
        os.makedirs(os.path.join(d, "plasma"))
        try:
            ray.init(
                address="local",
                num_cpus=ncpu,
                include_dashboard=False,
                logging_level="ERROR",
                log_to_driver=False,
                object_store_memory=OBJECT_STORE_BYTES,
                _temp_dir=ray_temp_dir(d),
                _plasma_directory=os.path.join(d, "plasma"),
                # workers must import the package and this directory's
                # modules whatever directory the command was started from
                runtime_env={"env_vars": {"PYTHONPATH": os.pathsep.join([ROOT, HERE])}},
            )
            break
        except Exception:
            if attempt == RAY_STARTS - 1:
                raise
            traceback.print_exc()
            print("Ray did not start; stopping its processes and starting it again", file=sys.stderr)
            stop_ray(since, grace=2.0)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def stop_ray(since: float, grace: float = 15.0) -> None:
    """Shut Ray down if this process imported it, wait for every process
    below this one to end (killing any left after ``grace`` seconds),
    and remove the session directories this process had Ray make outside
    the checkout since ``since`` (a session's name ends in the pid of the
    process that started it)."""
    from spans import descendants, stop_all

    started = [p for p in descendants(os.getpid()) if p != os.getpid()]
    ray = sys.modules.get("ray")
    if ray is not None:
        ray.shutdown()
    stop_all(started, grace)
    if ray is None:
        return
    from ray._common.utils import get_ray_temp_dir

    root = get_ray_temp_dir()  # Ray's default, used when the checkout's path is too long
    if not os.path.isdir(root):
        return
    for name in os.listdir(root):
        path = os.path.join(root, name)
        if (
            name.startswith("session_")
            and name.endswith(f"_{os.getpid()}")
            and not os.path.islink(path)
            and os.path.getmtime(path) >= since
        ):
            shutil.rmtree(path, ignore_errors=True)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def main(argv) -> int:
    from spans import Tracer, adopt_orphans, descendants, peak_rss_mb, process_start_time

    t_proc = process_start_time()
    adopt_orphans()
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    if importlib.util.find_spec(PACKAGE) is None:
        print(f"{PACKAGE} is not importable from {ROOT}", file=sys.stderr)
        return 2

    def on_deadline(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)

    run_dir = os.path.join(OUT, f"r{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "work"))
    tracer = Tracer(keep=bool(args.trace))
    try:
        w = args.workload
        size = POWERLAW if w == "powerlaw" else (CRAWL_PAGES,)
        kind = "powerlaw" if w == "powerlaw" else "crawl"
        inputs_root = os.path.join(run_dir, "inputs")
        t0 = time.time()
        inputs = generate(kind, args.seed, size, inputs_root)
        t1 = time.time()
        start_ray(run_dir, t_proc)
        import jobs
        from checks import References

        t2 = time.time()
        floor_graph = jobs.warm_up(os.path.join(run_dir, "work"))
        setup_s = time.time() - t_proc
        print(
            f"set-up {setup_s:.2f} s: start {t0 - t_proc:.2f}, inputs {t1 - t0:.2f}, "
            f"ray {t2 - t1:.2f}, warm-up {time.time() - t2:.2f}",
            file=sys.stderr,
        )
        if args.trace:
            tracer.count_executions()

        ctx = jobs.Ctx(tracer, os.path.join(run_dir, "work"))
        rounds, attempted, failed = [], 0, 0
        job_time = 0.0
        while job_time < args.seconds or len(rounds) < MIN_ROUNDS:
            n_ops = len(jobs.OPS[w])
            attempted += n_ops
            ctx.done_ops = 0
            tracer.executions.clear()
            gc.collect()  # not inside a timed block
            try:
                r = jobs.ROUNDS[w](ctx, inputs, len(rounds))
            except TimeoutError:
                raise
            except Exception:
                traceback.print_exc()
                failed += n_ops - ctx.done_ops
                break
            r.layers.update(stage_executions(tracer))
            job_time += r.e2e["job_s"]
            rounds.append(r)
            print(f"round {len(rounds) - 1}: " + ", ".join(f"{k} {v:.4g}" for k, v in r.e2e.items()), file=sys.stderr)
        rss = peak_rss_mb(descendants(os.getpid()))
        # checks run after the memory reading: their arrays are the
        # benchmark's, not the program's
        refs = References(kind, inputs, jobs.PR_ITERS[w], jobs.LP_ITERS)
        problems = [p for r in rounds for p in check_round(w, refs, r)]

        if not args.trace:
            metrics = {"setup_s": setup_s, "peak_rss_mb": rss}
            for k, best in BEST.items():
                metrics[k] = best(r.e2e[k] for r in rounds) if rounds else 0.0
            units = {k: E2E_UNITS.get(k, "s") for k in E2E}
        else:
            metrics = layer_metrics(rounds)
            metrics.update(jobs.layer_extras(ctx, rounds[-1], inputs, floor_graph) if rounds else {})
            missing = [k for k in LAYERS if k not in metrics]
            if missing:
                probe = probe_layers(w, args.seed, missing, ctx, inputs_root, problems)
                metrics.update({k: probe[k] for k in missing if k in probe})
            units = {k: layer_unit(k) for k in LAYERS}
            metrics = {k: metrics.get(k, 0.0) for k in LAYERS}
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        signal.alarm(0)
        tracer.close()
        if args.trace:
            tracer.dump(
                os.path.join(OUT, "traces", f"{args.workload}-s{args.seed}-{os.getpid()}.jsonl"),
                {"workload": args.workload, "seed": args.seed, "seconds": args.seconds},
            )
        stop_ray(t_proc)
        shutil.rmtree(run_dir, ignore_errors=True)


def check_round(w: str, refs, r) -> list[str]:
    import jobs

    man = r.outputs["manifest"]
    out = refs.check_graph(man)
    out += refs.check_algorithms(r.outputs, man.graph_dir)
    if "analyze" in r.outputs:
        out += refs.check_analyze(r.outputs["analyze"].to_pandas())
    if w == "resume":
        out += refs.check_resume(r.outputs, {"pagerank": jobs.RESUME_PR_STOP, "cc": jobs.RESUME_CC_STOP})
    return out


def stage_executions(tracer) -> dict:
    """Dataset executions per stage the round ran (traced runs only)."""
    return {f"dataset.executions.{s}": n for s, n in tracer.executions.items() if s in STAGES}


def layer_metrics(rounds) -> dict:
    """Median over rounds of every per-layer number the rounds produced;
    ``trace.job_s`` is taken like the untraced ``job_s``, to compare."""
    keys = set().union(*(r.layers for r in rounds)) if rounds else set()
    out = {k: median([r.layers[k] for r in rounds if k in r.layers]) for k in keys}
    if rounds:
        out["trace.job_s"] = BEST["job_s"](r.e2e["job_s"] for r in rounds)
    return out


def probe_layers(w: str, seed: int, missing: list[str], ctx, inputs_root: str, problems: list) -> dict:
    """Layers this workload's job does not run, measured on a small
    crawl made from the same seed: one crawl round (analyze, triangles,
    top-k, LP, SSSP) and, where resume numbers are missing, one resume
    round."""
    import jobs
    from checks import References

    inputs = generate("crawl", seed, (PROBE_PAGES,), inputs_root)
    out: dict = {}
    for kind in ("crawl", "resume"):
        wanted = [k for k in missing if k not in out]
        if kind == "resume" and not any(k.startswith("resume.") for k in wanted):
            continue
        ctx.tracer.executions.clear()
        r = jobs.ROUNDS[kind](ctx, inputs, 1000 + len(out))
        r.layers.update(stage_executions(ctx.tracer))
        problems += check_round(kind, References("crawl", inputs, jobs.PR_ITERS[kind], jobs.LP_ITERS), r)
        extras = jobs.layer_extras(ctx, r, inputs, os.path.join(ctx.work, "floor-graph"))
        for k, v in {**r.layers, **extras}.items():
            out.setdefault(k, v)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
