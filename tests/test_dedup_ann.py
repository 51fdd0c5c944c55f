"""Dedup family + similarity search + multimodal stubs vs oracles."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from distributed_graph_computing_platform_ray.functions.text import (
    jaccard,
    lang_id,
    quality_score,
    rolling_fingerprint,
    shingle_hashes,
    token_count_bpe_ish,
)
from distributed_graph_computing_platform_ray.stages.ann import (
    brute_force_topk,
    embedding_neardup,
    ivf_topk,
)
from distributed_graph_computing_platform_ray.stages.dedup import (
    exact_dedup,
    minhash_candidates,
    minhash_dedup,
    simhash_dedup,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from the warm windowsill and the birds sing in the garden trees "
    "as morning light spreads slowly across the quiet village square"
)


def _docs():
    """12 docs: 0-2 identical; 3,4 near-dups of 0 (1-2 word edits);
    5..11 distinct."""
    docs = {
        0: BASE,
        1: BASE,
        2: BASE,
        3: BASE.replace("lazy", "sleepy"),
        4: BASE.replace("morning light", "evening glow"),
    }
    rng = np.random.default_rng(9)
    vocab = BASE.split()
    for i in range(5, 12):
        docs[i] = " ".join(rng.choice(vocab, size=40)) + f" unique token{i}"
    return pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})


def test_exact_dedup():
    out = exact_dedup(rd.from_pandas(_docs()), n_buckets=8).to_pandas()
    row = out[out["n_copies"] == 3]
    assert len(row) == 1 and row["winner_id"].iloc[0] == 0
    assert out["n_copies"].sum() == 12


def test_minhash_finds_neardups():
    df = _docs()
    cand = minhash_candidates(rd.from_pandas(df), n_buckets=8).to_pandas()
    pairs = set(map(tuple, cand[["a", "b"]].to_numpy()))
    # identical docs + close edits must be candidates
    for expect in [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)]:
        assert expect in pairs, f"missing candidate {expect}"


def test_minhash_dedup_clusters(tmp_path):
    df = _docs()
    out = minhash_dedup(
        rd.from_pandas(df), str(tmp_path / "w"), threshold=0.7, n_buckets=8
    ).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    # docs 0..4 form one near-dup cluster rooted at 0
    for d in [0, 1, 2, 3, 4]:
        assert got.get(d) == 0, (d, got)
    assert all(got.get(d) is None or got[d] >= 5 for d in range(5, 12))


def test_ngram_jaccard_join_exhaustive():
    """The inverted-index similarity join finds EVERY pair at or above
    the threshold — compare against brute-force jaccard over all
    pairs (no LSH recall caveat to tolerate)."""
    from itertools import combinations

    from distributed_graph_computing_platform_ray.stages.dedup import ngram_jaccard_join

    df = _docs()
    out = ngram_jaccard_join(
        rd.from_pandas(df), threshold=0.5, df_cap=128, n_buckets=8
    ).to_pandas()
    got = {(int(r.a), int(r.b)): int(r.jaccard_e6) for r in out.itertuples()}

    texts = dict(zip(df["doc_id"], df["text"]))
    expect = {}
    for a, b in combinations(sorted(texts), 2):
        sa, sb = shingle_hashes(texts[a]), shingle_hashes(texts[b])
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        union = len(sa) + len(sb) - inter
        je = (2 * inter * 1_000_000 + union) // (2 * union)
        if je >= 500_000:
            expect[(a, b)] = je
    assert got == expect
    assert (0, 1) in got and got[(0, 1)] == 1_000_000  # identical docs


def test_ngram_jaccard_df_cap_drops_ubiquitous_shingles():
    """A shingle present in more docs than df_cap contributes no pairs
    (and the pair may then fall under threshold) — deterministic."""
    from distributed_graph_computing_platform_ray.stages.dedup import ngram_jaccard_join

    common = "alpha beta gamma"
    docs = pd.DataFrame(
        {"doc_id": range(6), "text": [f"{common} unique{i} filler{i}" for i in range(6)]}
    )
    # with the shared 3-shingle capped away (df=6 > cap=4), pairs lose
    # their only intersection and vanish
    out = ngram_jaccard_join(
        rd.from_pandas(docs), threshold=0.1, df_cap=4, n_buckets=4
    ).to_pandas()
    assert len(out) == 0


def test_fnv1a64_reference_values():
    """Vectorized FNV-1a matches the published test vectors and a
    byte-at-a-time reference implementation."""
    from distributed_graph_computing_platform_ray.functions.hashing import fnv1a64

    def ref(s: str) -> int:
        h = 14695981039346656037
        for c in s.encode("utf-8"):
            h = ((h ^ c) * 1099511628211) % (1 << 64)
        return h

    cases = ["", "a", "foobar", "the quick brown fox", "tokén", "x" * 100]
    got = fnv1a64(cases)
    for s, g in zip(cases, got):
        assert int(g) == ref(s), s
    # published FNV-1a 64 vectors
    assert int(fnv1a64([""])[0]) == 0xCBF29CE484222325
    assert int(fnv1a64(["a"])[0]) == 0xAF63DC4C8601EC8C


def test_doc_split_deterministic_and_partition_invariant():
    from distributed_graph_computing_platform_ray.pipelines.testdata import q_doc_split

    a = q_doc_split("/root/testdata/sf0.001").to_pandas().sort_values("doc_id")
    b = q_doc_split("/root/testdata/sf0.001").to_pandas().sort_values("doc_id")
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
    frac_train = (a["split"] == "train").mean()
    assert 0.7 < frac_train < 0.9  # 8/10 expected


def test_hll_estimate_close_to_exact():
    """The register table yields a standard HLL estimate within the
    expected error band (~1.04/sqrt(256) ≈ 6.5%) of the true distinct
    user count."""
    import duckdb

    from distributed_graph_computing_platform_ray.pipelines.testdata import _HLL_P, q_user_hll

    sf = "/root/testdata/sf0.01"
    regs = q_user_hll(sf).to_pandas()
    m = 1 << _HLL_P
    rho = np.zeros(m)
    rho[regs["reg"].to_numpy()] = regs["rho"].to_numpy()
    raw = (0.7213 / (1 + 1.079 / m)) * m * m / np.sum(2.0 ** -rho)
    zeros = m - len(regs)
    est = m * np.log(m / zeros) if (raw < 2.5 * m and zeros > 0) else raw
    exact = duckdb.sql(
        f"SELECT count(DISTINCT user_id) FROM read_parquet('{sf}/events.parquet')"
    ).fetchone()[0]
    assert abs(est - exact) / exact < 0.2, (est, exact)


def test_jaccard_exact_values():
    a = shingle_hashes(BASE, 3)
    b = shingle_hashes(BASE.replace("lazy", "sleepy"), 3)
    j = jaccard(a, b)
    assert 0.7 < j < 1.0
    assert jaccard(a, a) == 1.0


def test_simhash_pairs():
    df = _docs()
    out = simhash_dedup(rd.from_pandas(df), n_buckets=8).to_pandas()
    pairs = {(r.a, r.b): r.hamming for r in out.itertuples()}
    assert pairs.get((0, 1)) == 0  # identical
    assert pairs.get((0, 3), 99) <= 3  # one-word edit


_SIMHASH_1CPU = """
import sys
import ray, ray.data as rd
from ray.data import DataContext
from distributed_graph_computing_platform_ray.stages.dedup import simhash_dedup
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
out = simhash_dedup(rd.read_parquet(sys.argv[1]), n_buckets=8).to_pandas()
print("PAIRS", sorted(zip(out["a"].tolist(), out["b"].tolist(), out["hamming"].tolist())))
ray.shutdown()
"""


def test_simhash_pairs_finish_on_one_cpu(tmp_path):
    """simhash_dedup over a Parquet read must not need a second CPU:
    at num_cpus=1 an actor pool's actor would hold the only CPU while
    the read task feeding it waits. Run in a fresh process that owns a
    1-CPU cluster; kill its process group if it has not finished in
    time."""
    import os
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo, RAY_ADDRESS="local")
    path = str(tmp_path / "docs.parquet")
    _docs().to_parquet(path)
    p = subprocess.Popen(
        [sys.executable, "-c", _SIMHASH_1CPU, path], cwd=repo, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = p.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        pytest.fail("simhash_dedup did not finish within 240 s at num_cpus=1")
    assert p.returncode == 0, err[-2000:]
    want = simhash_dedup(rd.from_pandas(_docs()), n_buckets=8).to_pandas()
    want = sorted(zip(want["a"].tolist(), want["b"].tolist(), want["hamming"].tolist()))
    assert (0, 1, 0) in want
    assert f"PAIRS {want}" in out


def test_text_functions():
    assert lang_id("the cat is on the mat and it is warm")[0] == "en"
    assert lang_id("der hund ist nicht mit der katze und das ist gut")[0] == "de"
    assert lang_id("")[0] == "und"
    assert token_count_bpe_ish("hello, world 123") == 4  # hello , world 123
    assert 0.0 <= quality_score("x") <= 1.0
    assert rolling_fingerprint(BASE) == rolling_fingerprint(BASE)
    # winnowing keeps the smallest k-gram hashes: robust to local edits
    assert rolling_fingerprint(BASE) == rolling_fingerprint(BASE + " tail")
    assert rolling_fingerprint(BASE) != rolling_fingerprint("completely different words here")


def _emb_table(n=300, dim=16, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim)).astype(np.float32)
    # plant near-dups: 10 pairs of nearly-identical vectors
    for i in range(10):
        X[n - 1 - i] = X[i] + rng.normal(scale=1e-3, size=dim).astype(np.float32)
    return pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64), "embedding": list(X)})


def _brute_numpy(df, qids, k=10):
    X = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    out = {}
    for q in qids:
        s = Xn @ Xn[q]
        order = np.lexsort((df["vec_id"].to_numpy(), -s))
        out[q] = list(df["vec_id"].to_numpy()[order][:k])
    return out


def test_brute_force_topk_matches_numpy():
    df = _emb_table()
    qids = [0, 5, 17]
    Q = np.stack(df[df["vec_id"].isin(qids)].sort_values("vec_id")["embedding"].to_numpy())
    got = brute_force_topk(rd.from_pandas(df), Q, np.array(sorted(qids)), k=10).to_pandas()
    exp = _brute_numpy(df, sorted(qids))
    for q in sorted(qids):
        g = got[got["query_id"] == q].sort_values(["score", "vec_id"], ascending=[False, True])
        assert list(g["vec_id"]) == exp[q]


def test_ivf_recall_vs_brute():
    df = _emb_table(600)
    qids = list(range(8))
    Q = np.stack(df[df["vec_id"].isin(qids)].sort_values("vec_id")["embedding"].to_numpy())
    brute = _brute_numpy(df, qids, k=10)
    got = ivf_topk(rd.from_pandas(df), Q, np.array(qids), k=10, n_centroids=12, nprobe=4).to_pandas()
    recalls = []
    for q in qids:
        g = set(got[got["query_id"] == q]["vec_id"])
        recalls.append(len(g & set(brute[q])) / 10)
    assert float(np.mean(recalls)) >= 0.8, recalls


def test_ivf_index_matches_scan_and_reads_partial(tmp_path):
    """The materialized IVF index must (a) reproduce query-time-scan
    ivf_topk exactly (same centroids => same assignment), and (b) at
    nprobe < nlist actually READ fewer rows than the corpus — the
    asymptotic point of IVF."""
    from distributed_graph_computing_platform_ray.stages.ann import (
        build_ivf_index,
        ivf_topk_indexed,
        probed_partition_paths,
    )
    from distributed_graph_computing_platform_ray.stages.sink import (
        finished_partitions,
        read_partitioned,
    )

    df = _emb_table(600)
    ds = rd.from_pandas(df)
    qids = list(range(6))
    Q = np.stack(
        df[df["vec_id"].isin(qids)].sort_values("vec_id")["embedding"].to_numpy()
    )
    idx = str(tmp_path / "ivf")
    C = build_ivf_index(ds, idx, n_centroids=12)
    assert len(finished_partitions(idx)) > 1

    for nprobe in (12, 4):  # full probe and partial probe
        a = (
            ivf_topk_indexed(idx, Q, np.array(qids), k=10, nprobe=nprobe)
            .to_pandas()
            .sort_values(["query_id", "score", "vec_id"])
            .reset_index(drop=True)
        )
        b = (
            ivf_topk(ds, Q, np.array(qids), k=10, n_centroids=12, nprobe=nprobe)
            .to_pandas()
            .sort_values(["query_id", "score", "vec_id"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)

    # partial-read property: the probed partitions hold fewer rows
    # than the corpus (and the path list is a strict subset)
    Cn = C / np.linalg.norm(C, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    probe = np.argsort(-(Qn @ Cn.T), axis=1)[:, :4]
    paths = probed_partition_paths(idx, probe)
    assert len(paths) < len(finished_partitions(idx))
    import pyarrow.parquet as pq

    probed_rows = sum(pq.read_metadata(p).num_rows for p in paths)
    total_rows = read_partitioned(idx).count()
    assert total_rows == len(df)
    assert probed_rows < total_rows


def test_embedding_neardup_finds_planted():
    df = _emb_table()
    n = len(df)
    out = embedding_neardup(rd.from_pandas(df), threshold=0.99, n_planes=8, n_buckets=8).to_pandas()
    pairs = set(map(tuple, out[["a", "b"]].to_numpy()))
    found = sum((i, n - 1 - i) in pairs for i in range(10))
    assert found >= 8  # LSH recall; planted pairs are ~identical


def test_embedding_neardup_degenerate_bucket_exact_chunked():
    """Near-constant embeddings collapse into ONE LSH bucket; the
    chunked exact sweep must bound MEMORY (per-block allocations)
    while emitting EVERY qualifying pair — the round-5 semantics
    replacing the truncating cap, which silently dropped qualifying
    pairs (caught by the sf0.1 simhash oracle row)."""
    rng = np.random.default_rng(3)
    base = rng.normal(size=32)
    X = base + rng.normal(scale=1e-4, size=(300, 32))  # all ~identical
    df = pd.DataFrame({"vec_id": np.arange(300), "embedding": list(X)})
    out = embedding_neardup(
        rd.from_pandas(df), threshold=0.9, n_planes=8, n_buckets=8
    ).to_pandas()
    assert len(out) == 300 * 299 // 2  # ALL pairs, none dropped
    assert (out["cos_e6"] >= 900_000).all()


def test_lineitem_antijoin_distributed_parity():
    """Forcing the bucketed anti-join path (broadcast_limit=0) must
    reproduce the broadcast path bit-for-bit."""
    from distributed_graph_computing_platform_ray.pipelines.testdata import (
        q_lineitem_antijoin,
    )

    sf = "/root/testdata/sf0.001"
    a = (
        q_lineitem_antijoin(sf)
        .to_pandas()
        .sort_values("l_orderkey")
        .reset_index(drop=True)
    )
    b = (
        q_lineitem_antijoin(sf, broadcast_limit=0)
        .to_pandas()
        .sort_values("l_orderkey")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_multimodal_stub_plumbing():
    import pyarrow as pa

    from distributed_graph_computing_platform_ray.stages.multimodal import (
        DecodeMedia,
        decode_media,
        frame_sample,
        media_features,
    )

    media = rd.from_items(
        [
            {"media_id": i, "media_type": ["image", "audio", "video"][i % 3],
             "payload": bytes([i]) * (100 + i)}
            for i in range(9)
        ]
    )
    dec = decode_media(media, stub=True).to_pandas()
    assert set(dec.columns) == {"media_id", "media_type", "width", "height", "n_frames", "duration_ms", "n_bytes"}
    assert (dec["n_bytes"].to_numpy() == np.arange(100, 109)).all()
    # deterministic: same payload -> same fake decode
    dec2 = decode_media(media, stub=True).to_pandas()
    pd.testing.assert_frame_equal(dec.sort_values("media_id").reset_index(drop=True),
                                  dec2.sort_values("media_id").reset_index(drop=True))

    feats = media_features(media, dim=8, stub=True).to_pandas()
    assert len(feats) == 9 and len(feats["feature"].iloc[0]) == 8

    frames = frame_sample(media, n_samples=4, stub=True).to_pandas()
    assert len(frames) == 36

    with pytest.raises(NotImplementedError):
        DecodeMedia(deterministic_stub=False)


def test_decontaminate_counts_exact():
    # 3 docs: doc 1 fully shares a 4-gram window with the benchmark
    # doc 0, doc 2 shares nothing, doc 3 is too short for any 4-gram.
    from distributed_graph_computing_platform_ray.stages.decontaminate import (
        benchmark_ngrams,
        decontaminate,
    )

    bench = benchmark_ngrams(["the quick brown fox jumps"], n=4)
    assert bench == {"the quick brown fox", "quick brown fox jumps"}
    corpus = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "see the quick brown fox jumps high",  # 4 positions, 2 hits
                "a totally different sentence with words",  # 3 positions, 0 hits
                "too short",  # no positions -> dropped
            ],
        }
    )
    out = (
        decontaminate(rd.from_pandas(corpus), bench, n=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2]
    assert out["n_grams"].tolist() == [4, 3]
    assert out["n_hits"].tolist() == [2, 0]


def test_strip_dup_spans_removes_planted_spans():
    """A 5-gram shared by two docs is removed from BOTH (all covered
    positions, including overlapping occurrences); unique text and
    short/empty docs pass through untouched."""
    import ray.data as rd

    from distributed_graph_computing_platform_ray.stages.dedup import strip_dup_spans

    span = "alpha beta gamma delta epsilon"
    docs = [
        {"doc_id": 0, "text": f"intro {span} outro"},
        {"doc_id": 1, "text": f"{span} tail words here now"},
        {"doc_id": 2, "text": "totally unique text with enough tokens"},
        {"doc_id": 3, "text": "tiny doc"},
        {"doc_id": 4, "text": ""},
    ]
    out = (
        strip_dup_spans(rd.from_items(docs), n=5, n_buckets=4)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert len(out) == 5
    assert out.loc[0, "clean_text"] == "intro outro"
    assert out.loc[0, "n_removed"] == 5 and out.loc[0, "n_tokens"] == 7
    assert out.loc[1, "clean_text"] == "tail words here now"
    assert out.loc[1, "n_removed"] == 5
    assert out.loc[2, "clean_text"] == docs[2]["text"]
    assert out.loc[2, "n_removed"] == 0
    assert out.loc[3, "clean_text"] == "tiny doc"
    assert out.loc[4, "clean_text"] == "" and out.loc[4, "n_tokens"] == 0


def test_iter_triu_blocks_exact_cover():
    """Chunked pair sweep covers EVERY unordered pair exactly once at
    any bucket size (the old truncating cap dropped pairs past ~64
    docs — caught by the round-5 sf0.1 sweep: simhash 388 vs 416)."""
    import numpy as np

    from distributed_graph_computing_platform_ray.stages.dedup import iter_triu_blocks

    for n in (2, 3, 64, 65, 155, 301):
        seen = set()
        for i, j in iter_triu_blocks(n, max_pairs=500):
            assert len(i) <= 500 + n  # block-bounded allocation
            assert (j > i).all()
            for a, b in zip(i.tolist(), j.tolist()):
                assert (a, b) not in seen
                seen.add((a, b))
        assert len(seen) == n * (n - 1) // 2


def test_simhash_hot_bucket_no_pair_loss():
    """A fully-colliding 80-doc bucket (identical text => identical
    simhash => every band collides) must emit all C(80,2) pairs."""
    import pandas as pd
    import ray.data as rd

    from distributed_graph_computing_platform_ray.stages.dedup import simhash_dedup

    n = 80
    df = pd.DataFrame(
        {"doc_id": range(n), "text": ["same exact text content here"] * n}
    )
    out = simhash_dedup(rd.from_pandas(df)).to_pandas()
    assert len(out) == n * (n - 1) // 2
    assert (out["hamming"] == 0).all()


def test_batched_pair_jaccard_matches_perdoc_spec():
    """The vectorized verify_jaccard score kernel (|A∩B| via one
    segment-unique over per-pair concatenations) must equal the
    per-pair exact integer half-up spec (_jaccard_e6 over
    shingle_hashes of each side)."""
    import random

    import numpy as np

    from distributed_graph_computing_platform_ray.functions.text import shingle_hashes
    from distributed_graph_computing_platform_ray.stages.dedup import (
        _jaccard_e6,
        _shingle_segments,
        unique_segments,
    )

    random.seed(3)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]

    def mk(n):
        return " ".join(random.choice(vocab) for _ in range(n))

    ta = [mk(random.randint(0, 30)) for _ in range(150)] + ["", "", "one two three"]
    tb = [mk(random.randint(0, 30)) for _ in range(150)] + ["", "x y z", ""]
    want = [
        _jaccard_e6(shingle_hashes(x, 3), shingle_hashes(y, 3)) for x, y in zip(ta, tb)
    ]
    sha, offa = _shingle_segments(ta, 3)
    shb, offb = _shingle_segments(tb, 3)
    ca, cb = np.diff(offa), np.diff(offb)
    coff = np.zeros(len(ta) + 1, np.int64)
    np.cumsum(ca + cb, out=coff[1:])
    comb = np.empty(len(sha) + len(shb), np.uint64)
    comb[np.arange(len(sha)) + np.repeat(coff[:-1] - offa[:-1], ca)] = sha
    comb[np.arange(len(shb)) + np.repeat(coff[:-1] + ca - offb[:-1], cb)] = shb
    _, uoff = unique_segments(comb, coff)
    union = np.diff(uoff)
    inter = ca + cb - union
    got = list(
        np.where(
            union > 0,
            (2 * inter * 1_000_000 + union) // (2 * np.maximum(union, 1)),
            1_000_000,
        ).astype(np.int64)
    )
    assert got == want
    # half-up at an exact tie: inter=5, union=128 -> 39062.5 -> 39063
    assert _jaccard_e6(np.arange(5, dtype=np.uint64), np.arange(128, dtype=np.uint64)) == 39063


def test_verify_jaccard_distributed_matches_broadcast():
    """broadcast_limit=0 forces the two-bucket-join + batched score
    path; results must equal the broadcast fast path exactly."""
    import pandas as pd
    import ray.data as rd

    from distributed_graph_computing_platform_ray.stages.dedup import verify_jaccard

    vocab = ["red", "green", "blue", "cyan", "teal", "plum"]
    docs = pd.DataFrame(
        {
            "doc_id": range(40),
            "text": [
                " ".join(vocab[(i + j) % len(vocab)] for j in range(3 + i % 7))
                for i in range(40)
            ],
        }
    )
    prs = pd.DataFrame({"a": [0, 1, 2, 5, 8, 0], "b": [6, 7, 8, 11, 14, 39]})
    got_b = (
        verify_jaccard(rd.from_pandas(prs), rd.from_pandas(docs))
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    got_d = (
        verify_jaccard(rd.from_pandas(prs), rd.from_pandas(docs), broadcast_limit=0)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got_b, got_d)
    assert (got_b["jaccard_e6"] > 0).any()
