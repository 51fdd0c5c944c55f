"""Distributed Boruvka minimum-spanning-forest kernel — the
web-scale fallback for q_msf_boruvka's per-round O(V) component-label
broadcast (VERDICT r4 next-round item #1, "the labels broadcast in
q_msf_boruvka").

Component labels live in a Dataset[(vertex, label)] — never a driver
array, never a ``ray.put`` O(V) broadcast. Per round:

1. relabel: two hash-bucket joins attach each edge's endpoint labels
   (the dst-bucket value-join pattern, stages/coreness.py);
2. select: per-batch groupby-min partials over both endpoint labels
   (a true combiner — at most one row per label per batch crosses
   the wire) + one bucket min => the per-component min crossing edge
   under the strict total key order (w, a, b);
3. accumulate: newly selected keys found by a bucketed ANTI-join
   against the taken-so-far key Dataset;
4. contract: the selected edges, mapped to LABEL space, feed the
   engine's own distributed connected components (the minhash-dedup
   pattern, stages/dedup.py:295-330) whose value is the min member
   label — exactly the broadcast path's union-find +
   relabel-to-min-member, computed without driver state;
5. comp update: inner-join (relabeled) + anti-join (untouched)
   union — exact, no float-padding left join.

Every "min edge leaving a label group" is an MSF edge by the cut
property for ANY grouping that is a union along already-taken edges,
so this converges to the IDENTICAL unique forest as the broadcast
path (strict total edge order) — parity-tested in
tests/test_distributed_fallbacks.py.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

_COMP_SCHEMA = pa.schema([("vertex", pa.int64()), ("label", pa.int64())])


def msf_boruvka_distributed(
    ewk: rd.Dataset,
    work_dir: str,
    max_rounds: int = 96,
    n_buckets: int = 8,
) -> pd.DataFrame:
    """``ewk``: Dataset[(a, b, w, k)] with the strict total edge key
    k = w*2^20 + a*2^10 + b (ids < 1024 as asserted by the caller —
    the packing, not the label state, bounds the id width). Returns
    DataFrame[(a, b, w)] of the unique MSF, sorted by key.
    """
    from ..pipelines.graph import run_algorithm
    from ..pipelines.ingest import build_graph
    from .join import add_bucket, bucket_join, bucket_map_groups, distinct

    ewk = ewk.materialize()
    ewk_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("k", pa.int64())]
    )

    def pick_abk(t: pa.Table) -> pa.Table:
        return pa.table({"a": t["a"], "b": t["b"], "k": t["k"]})

    eab = ewk.map_batches(pick_abk, batch_format="pyarrow").materialize()

    def comp_as(name: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"vertex": t["vertex"], name: t["label"]})

        return f

    def init_comp(t: pa.Table) -> pa.Table:
        v = t["vertex"]
        return pa.table({"vertex": v, "label": v})

    verts = distinct(
        eab.map_batches(
            lambda t: pa.table(
                {
                    "vertex": pa.chunked_array(
                        [t["a"].combine_chunks(), t["b"].combine_chunks()]
                    )
                }
            ),
            batch_format="pyarrow",
        ),
        ["vertex"],
        n_buckets,
    )
    comp = verts.map_batches(init_comp, batch_format="pyarrow").materialize()

    taken: rd.Dataset | None = None
    key_schema = pa.schema([("k", pa.int64())])

    for rnd in range(max_rounds):
        # 1. relabel both endpoints (edge table streams, labels join in)
        e1 = bucket_join(
            eab,
            comp.map_batches(comp_as("la"), batch_format="pyarrow"),
            left_on="a",
            right_on="vertex",
            n_buckets=n_buckets,
            left_schema=ewk_schema,
            right_schema=pa.schema([("vertex", pa.int64()), ("la", pa.int64())]),
        )
        e2 = bucket_join(
            e1,
            comp.map_batches(comp_as("lb"), batch_format="pyarrow"),
            left_on="b",
            right_on="vertex",
            n_buckets=n_buckets,
            left_schema=pa.schema(
                [("a", pa.int64()), ("b", pa.int64()), ("k", pa.int64()), ("la", pa.int64())]
            ),
            right_schema=pa.schema([("vertex", pa.int64()), ("lb", pa.int64())]),
        )

        # 2. per-label min crossing edge: per-batch combiner + bucket min
        def sel_partial(df: pd.DataFrame) -> pd.DataFrame:
            la = df["la"].to_numpy()
            lb = df["lb"].to_numpy()
            k = df["k"].to_numpy()
            cross = la != lb
            lab = np.concatenate([la[cross], lb[cross]])
            kk = np.concatenate([k[cross], k[cross]])
            if not len(lab):
                return pd.DataFrame(
                    {"lab": pd.Series([], dtype="int64"), "k": pd.Series([], dtype="int64")}
                )
            return (
                pd.DataFrame({"lab": lab, "k": kk})
                .groupby("lab", as_index=False, sort=False)["k"]
                .min()
            )

        def bucket_min(g: pd.DataFrame) -> pd.DataFrame:
            return g.groupby("lab", as_index=False, sort=False)["k"].min()

        sel = bucket_map_groups(
            add_bucket(
                e2.map_batches(sel_partial, batch_format="pandas"), ["lab"], n_buckets
            ),
            n_buckets,
            bucket_min,
            "pandas",
        ).materialize()
        if sel.count() == 0:
            break

        keys = distinct(
            sel.map_batches(
                lambda t: pa.table({"k": t["k"]}), batch_format="pyarrow"
            ),
            ["k"],
            n_buckets,
        ).materialize()

        # 3. new keys this round (bucketed anti-join vs taken-so-far)
        if taken is None:
            new = keys
        else:
            new = bucket_join(
                keys,
                taken,
                left_on="k",
                right_on="k",
                n_buckets=n_buckets,
                how="anti",
                left_schema=key_schema,
                right_schema=key_schema,
            ).materialize()
        n_new = new.count()
        taken = new if taken is None else taken.union(new).materialize()

        # 4. contract via the engine's own distributed CC over the
        # selected edges in LABEL space
        def decode(t: pa.Table) -> pa.Table:
            k = t["k"].to_numpy()
            return pa.table(
                {"ka": pa.array((k >> 10) & 1023), "kb": pa.array(k & 1023)}
            )

        kk = keys.map_batches(decode, batch_format="pyarrow")
        s1 = bucket_join(
            kk,
            comp.map_batches(comp_as("la"), batch_format="pyarrow"),
            left_on="ka",
            right_on="vertex",
            n_buckets=n_buckets,
            left_schema=pa.schema([("ka", pa.int64()), ("kb", pa.int64())]),
            right_schema=pa.schema([("vertex", pa.int64()), ("la", pa.int64())]),
        )
        s2 = bucket_join(
            s1,
            comp.map_batches(comp_as("lb"), batch_format="pyarrow"),
            left_on="kb",
            right_on="vertex",
            n_buckets=n_buckets,
            left_schema=pa.schema(
                [("ka", pa.int64()), ("kb", pa.int64()), ("la", pa.int64())]
            ),
            right_schema=pa.schema([("vertex", pa.int64()), ("lb", pa.int64())]),
        )

        gdir = os.path.join(work_dir, f"msf_cc_{rnd}")
        cdir = os.path.join(work_dir, f"msf_cc_run_{rnd}")
        shutil.rmtree(gdir, ignore_errors=True)
        shutil.rmtree(cdir, ignore_errors=True)
        build_graph(
            s2.map_batches(
                lambda t: pa.table(
                    {
                        "src_key": t["la"].cast(pa.string()),
                        "dst_key": t["lb"].cast(pa.string()),
                    }
                ),
                batch_format="pyarrow",
            ),
            gdir,
            n_parts=2,
            n_buckets=4,
            dedup=True,
        )
        cc = run_algorithm(gdir, cdir, "cc")
        def to_map(t: pa.Table) -> pa.Table:
            # engine vertex keys are stringified labels; CC value is the
            # min original (numeric) member label (algorithms.py:413)
            lab = np.array([int(x) for x in t["vertex"].to_pylist()], np.int64)
            return pa.table(
                {"label": pa.array(lab), "newlab": t["value"].cast(pa.int64())}
            )

        newmap = cc.map_batches(to_map, batch_format="pyarrow").materialize()

        # 5. comp(v) = newlab[comp(v)] where mapped, else unchanged —
        # inner + anti union (exact; avoids float-padded left joins)
        comp_schema = _COMP_SCHEMA
        map_schema = pa.schema([("label", pa.int64()), ("newlab", pa.int64())])
        touched = bucket_join(
            comp,
            newmap,
            left_on="label",
            right_on="label",
            n_buckets=n_buckets,
            left_schema=comp_schema,
            right_schema=map_schema,
        ).map_batches(
            lambda t: pa.table({"vertex": t["vertex"], "label": t["newlab"]}),
            batch_format="pyarrow",
        )
        untouched = bucket_join(
            comp,
            newmap,
            left_on="label",
            right_on="label",
            n_buckets=n_buckets,
            how="anti",
            left_schema=comp_schema,
            right_schema=map_schema,
        )
        comp = touched.union(untouched).materialize()

        if n_new == 0:
            break

    if taken is None:
        return pd.DataFrame(
            {
                "a": pd.Series([], dtype="int64"),
                "b": pd.Series([], dtype="int64"),
                "w": pd.Series([], dtype="int64"),
            }
        )
    kk = np.sort(taken.to_pandas()["k"].to_numpy().astype(np.int64))
    return pd.DataFrame(
        {"a": (kk >> 10) & 1023, "b": kk & 1023, "w": kk >> 20}
    ).astype(np.int64)
