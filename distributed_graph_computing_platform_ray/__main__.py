"""Job-submission CLI — the reference client's role
(/root/reference/client/client.go:31-106: prompt for "<App> <file>"
[+ SSSP source], ship the dataset, wait for results) as one command:

  python -m distributed_graph_computing_platform_ray ingest  --edges FILE --graph DIR [--dedup]
  python -m distributed_graph_computing_platform_ray pages   --pages DIR --graph DIR
  python -m distributed_graph_computing_platform_ray run     --graph DIR --work DIR --algo pagerank|sssp|cc|lp
                                 [--source KEY] [--iters N] [--resume] [--out DIR]

Prints the top-25 by value (the reference master's report,
master/master.go:307-341) and optionally writes the full result to
Parquet. Owns its Ray session (library code never calls ray.init).
Designed to be launched directly or via `ray job submit -- python -m ...`.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None):
    p = argparse.ArgumentParser(prog="distributed_graph_computing_platform_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pi = sub.add_parser("ingest", help="edge-list text file -> CSR graph dir")
    pi.add_argument("--edges", required=True)
    pi.add_argument("--graph", required=True)
    pi.add_argument("--dedup", action="store_true")
    pi.add_argument("--parts", type=int, default=32)

    pp = sub.add_parser("pages", help="pages parquet dir -> link graph dir")
    pp.add_argument("--pages", required=True)
    pp.add_argument("--graph", required=True)
    pp.add_argument("--parts", type=int, default=32)

    pe = sub.add_parser(
        "extract",
        help="pages parquet dir -> resumable partitioned (url, text) parquet",
    )
    pe.add_argument("--pages", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--partitions", type=int, default=64)

    pf = sub.add_parser(
        "fsck", help="verify a graph dir's CSR/vertex files against manifest CRCs"
    )
    pf.add_argument("--graph", required=True)

    pr = sub.add_parser("run", help="run an algorithm on a built graph")
    pr.add_argument("--graph", required=True)
    pr.add_argument("--work", required=True)
    pr.add_argument(
        "--algo",
        required=True,
        choices=[
            "pagerank", "pagerank_weighted", "ppr", "sssp", "sssp_multi", "earliest",
            "cc", "lp", "mis", "katz", "coloring", "dag_longest", "sumprop", "anf",
            "absorption",
        ],
    )
    pr.add_argument("--source", help="SSSP source vertex key")
    pr.add_argument(
        "--seeds", help="comma-separated vertex keys (ppr teleport set / sssp_multi sources)"
    )
    pr.add_argument("--iters", type=int)
    pr.add_argument("--resume", action="store_true")
    pr.add_argument("--out", help="write full (vertex,value) result parquet here")

    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    try:
        if args.cmd == "ingest":
            from .pipelines.ingest import build_graph
            from .sources.edge_list import read_edge_list

            man = build_graph(
                read_edge_list(args.edges), args.graph,
                n_parts=args.parts, dedup=args.dedup,
            )
            print(f"built graph: {man.n_vertices} vertices, "
                  f"{man.n_edges_directed} directed edges, {man.n_parts} partitions")
        elif args.cmd == "pages":
            from .pipelines.pages import build_link_graph

            man = build_link_graph(args.pages, args.graph, n_parts=args.parts)
            print(f"built link graph: {man.n_vertices} vertices, "
                  f"{man.n_edges_directed} directed edges")
        elif args.cmd == "fsck":
            from .pipelines.ingest import fsck_graph

            df = fsck_graph(args.graph)
            bad = df[~(df["crc_ok"] & df["vertices_ok"])]
            print(df.to_string(index=False))
            if len(bad):
                print(f"FSCK FAILED: {len(bad)} partition(s) corrupt or missing")
                sys.exit(3)
            print(f"fsck OK: {len(df)} partitions verified")
        elif args.cmd == "extract":
            import numpy as np
            import pyarrow as pa

            from .pipelines.pages import extract_text_table
            from .stages.sink import write_partitioned
            from .utils import stable_hash_array

            nparts = args.partitions

            def with_part(t: pa.Table) -> pa.Table:
                b = (stable_hash_array(t["url"]) % np.uint64(nparts)).astype(np.int64)
                return t.append_column("part", pa.array(b))

            ds = extract_text_table(args.pages).map_batches(
                with_part, batch_format="pyarrow"
            )
            r = write_partitioned(ds, args.out)
            print(
                f"extracted text: wrote partitions {r['written']}, "
                f"skipped finished {r['skipped']}"
            )
        else:
            from .pipelines.graph import lookup_vertex_id, run_algorithm, top_k
            from .state.manifest import GraphManifest

            params = {}
            if args.algo == "sssp":
                if not args.source:
                    p.error("--source is required for sssp")
                man = GraphManifest.load(args.graph)
                params["source_id"] = lookup_vertex_id(man, args.source)
            if args.algo in ("ppr", "sssp_multi", "absorption"):
                if not args.seeds:
                    p.error(f"--seeds is required for {args.algo}")
                man = GraphManifest.load(args.graph)
                sids = tuple(
                    sorted(lookup_vertex_id(man, k.strip()) for k in args.seeds.split(","))
                )
                params["source_ids" if args.algo == "sssp_multi" else "seed_ids"] = sids
            if args.iters:
                # round-bounded algorithms name the knob max_rounds
                rounds_knob = args.algo in ("mis", "coloring", "dag_longest")
                params["max_rounds" if rounds_knob else "num_iters"] = args.iters
            if args.algo == "sssp_multi" and "num_iters" in params:
                params.pop("num_iters")  # runs to fixpoint
            res = run_algorithm(
                args.graph, args.work, args.algo,
                resume=args.resume, checkpoint_interval=5, **params,
            )
            if args.out:
                res.write_parquet(args.out)
                res = __import__("ray").data.read_parquet(args.out)
            print("top-25 by value:")  # reference master report parity
            for row in top_k(res, 25).take_all():
                print(f"  {row['vertex']}\t{row['value']}")
    finally:
        ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
