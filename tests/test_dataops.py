"""Unit tests for the round-2 data operators: as-of join, integer
k-means, PII scrub, and the rollup/semi-join helpers."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from distributed_graph_computing_platform_ray.functions.pii import scrub_frame
from distributed_graph_computing_platform_ray.stages.asof import asof_join
from distributed_graph_computing_platform_ray.stages.kmeans import (
    _trunc_div,
    kmeans,
    seed_centroids,
)


def _ts(*days):
    return pd.to_datetime([f"2024-01-{d:02d}" for d in days]).astype("datetime64[us]")


def test_asof_join_backward_semantics():
    left = pd.DataFrame(
        {"eid": [1, 2, 3, 4, 5], "k": [10, 10, 10, 20, 30], "lts": _ts(5, 2, 1, 9, 4)}
    )
    right = pd.DataFrame(
        {"k2": [10, 10, 20], "rts": _ts(2, 4, 7), "payload": [100, 200, 300]}
    )
    out = asof_join(
        rd.from_pandas(left),
        rd.from_pandas(right),
        left_on="k",
        right_on="k2",
        left_ts="lts",
        right_ts="rts",
        n_buckets=4,
    ).to_pandas()
    got = dict(zip(out["eid"], out["payload"]))
    # eid1 (day5,k10) -> rts day4 => 200; eid2 (day2) exact match day2 => 100
    # eid3 (day1) no prior row -> dropped; eid4 (day9,k20) -> 300
    # eid5 (k30) no right rows -> dropped
    assert got == {1: 200, 2: 100, 4: 300}
    assert out["payload"].dtype == np.int64


def test_trunc_div_matches_duckdb():
    s = np.array([7, -7, 9, -9, 0])
    c = np.array([2, 2, 3, 3, 5])
    # DuckDB `//` truncates toward zero: -7//2 = -3
    assert _trunc_div(s, c).tolist() == [3, -3, 3, -3, 0]


def test_kmeans_recovers_planted_clusters():
    rng = np.random.RandomState(7)
    centers = np.array([[5.0] * 4, [-5.0] * 4, [0.0, 5.0, -5.0, 0.0]])
    rows = []
    for i in range(90):
        c = i % 3
        rows.append(centers[c] + rng.normal(0, 0.05, 4))
    # put one point of each cluster first so seed ids 0..2 hit all three
    vecs = pd.DataFrame(
        {
            "vec_id": np.arange(90, dtype=np.int64),
            "embedding": [r.astype(np.float32) for r in rows],
        }
    )
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(vecs["vec_id"]),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs["embedding"]],
                    pa.list_(pa.float32()),
                ),
            }
        )
    )
    cent0 = seed_centroids(ds, 3)
    out = kmeans(ds, cent0, num_iters=3).to_pandas().sort_values("vec_id")
    lab = out["cluster"].to_numpy()
    # every planted cluster maps to exactly one k-means cluster
    for c in range(3):
        assert len(set(lab[np.arange(90) % 3 == c])) == 1
    assert len(set(lab)) == 3
    # deterministic re-run
    out2 = kmeans(ds, cent0, num_iters=3).to_pandas().sort_values("vec_id")
    assert (out2["cluster"].to_numpy() == lab).all()
    assert (out2["dist"].to_numpy() == out["dist"].to_numpy()).all()


def test_pii_scrub_counts_and_redacts():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": [
                "mail a.b+c@x-site.org and d@e.io, call 555-1234, from 10.0.0.7 ok",
                "no pii here",
            ],
        }
    )
    out = scrub_frame(df)
    assert out.loc[0, ["n_emails", "n_phones", "n_ips"]].tolist() == [2, 1, 1]
    assert out.loc[1, ["n_emails", "n_phones", "n_ips"]].tolist() == [0, 0, 0]
    # digests: stable sha256 of the redacted text
    import hashlib

    red = "mail <EMAIL> and <EMAIL>, call <PHONE>, from <IP> ok"
    assert out.loc[0, "digest"] == hashlib.sha256(red.encode()).hexdigest()


def test_random_walks_deterministic_and_valid():
    from distributed_graph_computing_platform_ray.stages.walks import random_walks
    from distributed_graph_computing_platform_ray.utils import mix64

    # small symmetric graph: 6-cycle + chord
    und = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]
    src = [a for a, b in und] + [b for a, b in und]
    dst = [b for a, b in und] + [a for a, b in und]
    ds = rd.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    )
    out = random_walks(ds, num_steps=6, walker_mod=2).to_pandas()
    # walkers 0,2,4; 7 rows each (step 0..6)
    assert sorted(out["walker"].unique()) == [0, 2, 4]
    assert len(out) == 3 * 7
    # replay walker 0 by hand
    adj = {}
    for a, b in zip(src, dst):
        adj.setdefault(a, []).append(b)
    for a in adj:
        adj[a].sort()
    cur = 0
    for s in range(6):
        h = int(mix64(np.uint64(0), np.uint64(s), np.uint64(cur)))
        cur = adj[cur][h % len(adj[cur])]
        got = out[(out.walker == 0) & (out.step == s + 1)]["vertex"].iloc[0]
        assert got == cur
    # every step follows an existing edge
    m = out.sort_values(["walker", "step"])
    for w in [0, 2, 4]:
        seq = m[m.walker == w]["vertex"].tolist()
        for a, b in zip(seq, seq[1:]):
            assert b in adj[a]


def test_hash_classifier_deterministic_and_exact():
    from distributed_graph_computing_platform_ray.functions.hashing import fnv1a64
    from distributed_graph_computing_platform_ray.stages.classify import HashClassifier
    from distributed_graph_computing_platform_ray.utils import splitmix64

    df = pa.table({"doc_id": pa.array([7, 8], pa.int64()),
                   "text": pa.array(["alpha beta alpha", ""], pa.string())})
    out = HashClassifier()(df)
    # empty doc drops
    assert out["doc_id"].to_pylist() == [7]
    # replay by hand: 2x alpha + 1x beta
    score = {}
    for c in range(4):
        w = {tok: int((splitmix64(fnv1a64([tok]) ^ np.uint64(c)) % np.uint64(1001))[0]) - 500
             for tok in ("alpha", "beta")}
        score[c] = 2 * w["alpha"] + w["beta"]
    best = max(range(4), key=lambda c: (score[c], -c))
    assert out["label"].to_pylist() == [best]
    assert out["score"].to_pylist() == [score[best]]


_CLASSIFY_1CPU = """
import sys
import ray
from ray.data import DataContext
from distributed_graph_computing_platform_ray.pipelines.testdata import q_doc_classify
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
out = q_doc_classify(sys.argv[1]).to_pandas()
print("LABELS", sorted(zip(out["doc_id"].tolist(), out["label"].tolist(), out["score"].tolist())))
ray.shutdown()
"""


def test_doc_classify_finishes_on_one_cpu(tmp_path):
    """q_doc_classify over a Parquet read must not need a second CPU:
    at num_cpus=1 an actor pool's actor would hold the only CPU while
    the read task feeding it waits. Run in a fresh process that owns a
    1-CPU cluster; kill its process group if it has not finished in
    time."""
    import os
    import signal
    import subprocess
    import sys

    import pytest

    from distributed_graph_computing_platform_ray.stages.classify import HashClassifier

    docs = pa.table(
        {
            "doc_id": pa.array(range(600), pa.int64()),
            "text": [f"doc {i} words {i % 7} alpha beta {i % 13}" for i in range(600)],
        }
    )
    import pyarrow.parquet as pq

    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo, RAY_ADDRESS="local")
    p = subprocess.Popen(
        [sys.executable, "-c", _CLASSIFY_1CPU, str(tmp_path)], cwd=repo, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = p.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail("q_doc_classify did not finish within 240 s at num_cpus=1")
    assert p.returncode == 0, err[-2000:]
    want = HashClassifier()(docs)
    want = sorted(zip(want["doc_id"].to_pylist(), want["label"].to_pylist(), want["score"].to_pylist()))
    assert len(want) == 600
    assert f"LABELS {want}" in out


def test_partitioned_sink_resumes_skipping_done():
    import json, os, shutil

    from distributed_graph_computing_platform_ray.stages.sink import (
        finished_partitions,
        read_partitioned,
        write_partitioned,
    )

    out = "/tmp/graft_tests/sink"
    shutil.rmtree(out, ignore_errors=True)
    df = pd.DataFrame(
        {"part": np.arange(1000) % 7, "v": np.arange(1000, dtype=np.int64)}
    )
    ds = rd.from_pandas(df)
    r1 = write_partitioned(ds, out)
    assert r1["written"] == list(range(7)) and r1["skipped"] == []
    assert finished_partitions(out) == set(range(7))

    # simulate a crashed partition: marker + file gone
    shutil.rmtree(os.path.join(out, "part=00003"))
    mtimes = {
        p: os.path.getmtime(os.path.join(out, f"part={p:05d}", "data.parquet"))
        for p in [0, 1, 2, 4, 5, 6]
    }
    r2 = write_partitioned(ds, out)
    assert r2["written"] == [3] and r2["skipped"] == [0, 1, 2, 4, 5, 6]
    # untouched partitions were not rewritten
    for p, m in mtimes.items():
        assert os.path.getmtime(os.path.join(out, f"part={p:05d}", "data.parquet")) == m

    back = read_partitioned(out).to_pandas().sort_values("v").reset_index(drop=True)
    assert len(back) == 1000
    assert (back["v"].to_numpy() == np.arange(1000)).all()


def test_partitioned_sink_exchange_path_matches_groupby():
    """n_parts routes through the no-sort exchange; files must be
    identical (same rows, same resume semantics) to the groupby path."""
    import os, shutil

    from distributed_graph_computing_platform_ray.stages.sink import (
        finished_partitions,
        read_partitioned,
        write_partitioned,
    )

    df = pd.DataFrame(
        {"part": np.arange(1000) % 7, "v": np.arange(1000, dtype=np.int64)}
    )
    outs = {}
    for name, kw in [("gb", {}), ("xc", {"n_parts": 7})]:
        out = f"/tmp/graft_tests/sink_{name}"
        shutil.rmtree(out, ignore_errors=True)
        r = write_partitioned(rd.from_pandas(df), out, sort_by=["v"], **kw)
        assert r["written"] == list(range(7))
        assert finished_partitions(out) == set(range(7))
        outs[name] = (
            read_partitioned(out).to_pandas().sort_values("v").reset_index(drop=True)
        )
    pd.testing.assert_frame_equal(outs["gb"], outs["xc"])
    # resume on the exchange path skips done partitions too
    out = "/tmp/graft_tests/sink_xc"
    shutil.rmtree(os.path.join(out, "part=00002"))
    r2 = write_partitioned(rd.from_pandas(df), out, sort_by=["v"], n_parts=7)
    assert r2["written"] == [2] and r2["skipped"] == [0, 1, 3, 4, 5, 6]


def test_asof_join_string_keys():
    left = pd.DataFrame({"eid": [1, 2], "k": ["x", "y"], "lts": _ts(5, 5)})
    right = pd.DataFrame({"k2": ["x", "y"], "rts": _ts(2, 8), "payload": [10, 20]})
    out = asof_join(
        rd.from_pandas(left), rd.from_pandas(right),
        left_on="k", right_on="k2", left_ts="lts", right_ts="rts", n_buckets=2,
    ).to_pandas()
    # y's only right row is AFTER the left ts -> dropped
    assert dict(zip(out["eid"], out["payload"])) == {1: 10}


def test_bucket_sum_survives_worker_kill():
    """Data-path fault tolerance: a task that SIGKILLs its own worker
    process mid-shuffle is retried by Ray lineage and the reduction
    still produces the exact result (the reference restarts the whole
    job from scratch on any worker death)."""
    import os, signal

    from distributed_graph_computing_platform_ray.stages.join import bucket_sum

    marker = "/tmp/graft_tests/killed_bucket_sum"
    if os.path.exists(marker):
        os.remove(marker)

    df = pd.DataFrame({"k": np.arange(5000) % 97, "v": np.ones(5000, dtype=np.int64)})
    ds = rd.from_pandas(df).repartition(8)

    def maybe_kill(t: pa.Table) -> pa.Table:
        if not os.path.exists(marker):
            open(marker, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return t

    out = (
        bucket_sum(
            ds.map_batches(maybe_kill, batch_format="pyarrow"), ["k"], ["v"], n_buckets=8
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert os.path.exists(marker), "kill was never triggered"
    exp = df.groupby("k", as_index=False)["v"].sum().sort_values("k").reset_index(drop=True)
    assert (out["k"].to_numpy() == exp["k"].to_numpy()).all()
    assert (out["v"].to_numpy() == exp["v"].to_numpy()).all()


def test_bucket_sum_hot_key_bounded():
    """Skew: one key holding 50% of all rows still reduces exactly —
    the hot key costs its own bucket only (documented skew contract)."""
    from distributed_graph_computing_platform_ray.stages.join import bucket_sum

    n = 200_000
    k = np.where(np.arange(n) % 2 == 0, 7, np.arange(n) % 1000)
    df = pd.DataFrame({"k": k.astype(np.int64), "v": np.ones(n, dtype=np.int64)})
    out = bucket_sum(rd.from_pandas(df).repartition(16), ["k"], ["v"], n_buckets=32).to_pandas()
    exp = df.groupby("k", as_index=False)["v"].sum()
    m = out.merge(exp, on="k", suffixes=("_got", "_exp"))
    assert len(m) == len(exp) == len(out)
    assert (m["v_got"] == m["v_exp"]).all()
    assert int(out.loc[out["k"] == 7, "v"].iloc[0]) == int(exp.loc[exp["k"] == 7, "v"].iloc[0])


def test_dup_ngrams_fingerprint_path_matches_strings():
    """The u64-fingerprint gram shuffle (the 100 TB path) must produce
    the same per-doc dup statistics as the verbatim-string shuffle."""
    from distributed_graph_computing_platform_ray.pipelines.testdata import q_doc_dup_ngrams

    sf = "/root/testdata/sf0.001"
    a = (
        q_doc_dup_ngrams(sf, fingerprint=False).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        q_doc_dup_ngrams(sf, fingerprint=True).to_pandas()
        .sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_kcore_rounds_cap_matches_oracle_semantics():
    """When peeling hits max_rounds before fixpoint, vertices still
    present at the cap must report in_core=1 / peel_round=0 — exactly
    what the capped recursive-CTE oracle reports (last_it == cap).
    Verified against an independent dense replay of the oracle's
    round semantics (E_{r+1} = edges with min-endpoint-degree >= k in
    E_r, presence replicated through the cap)."""
    from distributed_graph_computing_platform_ray.pipelines import testdata as T

    sf = "/root/testdata/sf0.001"
    k, cap = 3, 1  # at k=3 a core survives round 1, so the cap is hit
    got = T.q_kcore_rounds(sf, k=k, max_rounds=cap)
    got = got.sort_values("vertex").reset_index(drop=True)

    e = T.edges_lineitem(sf).to_pandas()
    u = np.concatenate([e["src"].to_numpy(), e["dst"].to_numpy()])
    v = np.concatenate([e["dst"].to_numpy(), e["src"].to_numpy()])
    last: dict[int, int] = {}
    for r in range(cap + 1):
        if len(u) == 0:
            break
        for x in np.unique(u):
            last[int(x)] = r
        if r == cap:
            break
        uu = np.unique(u)
        deg = np.bincount(np.searchsorted(uu, u))
        keep = (deg[np.searchsorted(uu, u)] >= k) & (deg[np.searchsorted(uu, v)] >= k)
        u, v = u[keep], v[keep]
    verts = sorted(last)
    exp = pd.DataFrame(
        {
            "vertex": pd.Series(verts, dtype="int64"),
            "peel_round": pd.Series(
                [0 if last[x] == cap else last[x] + 1 for x in verts], dtype="int64"
            ),
            "in_core": pd.Series(
                [1 if last[x] == cap else 0 for x in verts], dtype="int64"
            ),
        }
    )
    assert int(exp["in_core"].sum()) > 0, "cap not hit — test is vacuous"
    assert int((exp["peel_round"] == 1).sum()) > 0
    pd.testing.assert_frame_equal(got, exp)


def test_heavy_hitters_exact_vs_counter():
    """Planted Zipf-ish skew across many small batches: the MG two-pass
    output must equal the exact {t : f(t) > n//k} set with exact
    counts, for a k small enough that summaries genuinely compress."""
    from collections import Counter

    from distributed_graph_computing_platform_ray.stages.heavyhitters import (
        heavy_hitters,
        mg_compress,
    )

    rng = np.random.default_rng(7)
    # 400 distinct terms, a few very hot ones
    vocab = np.array([f"t{i:03d}" for i in range(400)])
    weights = 1.0 / (np.arange(1, 401) ** 1.5)
    toks = rng.choice(vocab, size=20_000, p=weights / weights.sum())
    exact = Counter(toks.tolist())
    n = len(toks)

    ds = rd.from_pandas(pd.DataFrame({"tok": toks})).repartition(16)

    def extract(t: pa.Table) -> np.ndarray:
        return t["tok"].to_numpy(zero_copy_only=False)

    for k in (5, 20, 60):
        got = heavy_hitters(ds, extract, k=k, n_merge_blocks=4)
        want = {t: c for t, c in exact.items() if c > n // k}
        assert dict(zip(got["term"], got["cnt"])) == want, k

    # compress bound: kept count never exceeds true, deficit <= n/(k+1)
    terms, counts = np.unique(toks, return_counts=True)
    kt, kc = mg_compress(terms, counts.astype(np.int64), 10)
    assert len(kt) <= 10
    tru = np.array([exact[t] for t in kt])
    assert (kc <= tru).all()
    assert ((tru - kc) <= n // 11 + 1).all()


def test_inverted_index_blocked_parity():
    """Hot-term split: concatenating a term's posting blocks in
    block_id order reproduces the unblocked postings bit-for-bit,
    with df = total term df on every block row."""
    import pandas as pd

    from distributed_graph_computing_platform_ray.pipelines.testdata import (
        q_inverted_index,
        q_inverted_index_blocked,
    )

    sf = "/root/testdata/sf0.001"
    full = q_inverted_index(sf).to_pandas().set_index("term").sort_index()
    blk = q_inverted_index_blocked(sf, block_size=8).to_pandas()
    assert (blk["block_id"] > 0).any()  # the split actually fires
    rebuilt = (
        blk.sort_values(["term", "block_id"])
        .groupby("term")
        .agg(df=("df", "first"), postings=("postings", ",".join))
        .sort_index()
    )
    pd.testing.assert_frame_equal(full, rebuilt)
    # every non-final block is exactly block_size postings
    sizes = blk["postings"].str.count(",") + 1
    last = blk.groupby("term")["block_id"].transform("max") == blk["block_id"]
    assert (sizes[~last] == 8).all()
