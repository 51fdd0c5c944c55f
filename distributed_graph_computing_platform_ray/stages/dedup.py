"""Deduplication pipelines over a documents table.

Five flavors, each a Ray Data pipeline (SURVEY.md 'beyond the
reference' requirements):

  exact            content-hash partition + per-group min-id winner
  minhash_lsh      shingle -> MinHash -> banded LSH buckets ->
                   candidate pairs -> exact-Jaccard verify ->
                   clusters via THE ENGINE'S OWN connected components
  simhash          64-bit SimHash, 4-band exact-match candidates,
                   Hamming<=3 verify
  ngram_jaccard    exact Jaccard scoring for candidate pairs
  embedding cosine near-dup lives in stages/ann.py (same shape:
                   hyperplane-LSH buckets -> cosine verify)

Scale: every stage is a map_batches or one hash-partition shuffle;
LSH bucket fan-out bounds candidate-pair blowup (bucket size capped,
cap logged); clustering reuses the BSP CC engine, so the pair graph
never has to fit on the driver.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..functions.hashing import (
    band_hashes_batch,
    fnv1a64,
    fnv1a64_gram_segments,
    hamming64,
    minhash_params,
    minhash_signatures_segments,
    simhash64_segments,
    unique_segments,
)
from ..stages.join import _BUCKET, add_bucket, bucket_join, bucket_map_groups


def _flat_lower_words(texts: list) -> tuple[list[str], np.ndarray]:
    """Concatenated lowercased whitespace tokens of every doc + per-doc
    offsets — the input shape of the segment-batched hash kernels.
    A null text is an EMPTY doc (no tokens): the old str(None) path
    hashed the literal token 'none', which would cluster every
    null-text row as mutual near-dups at web scale."""
    flat: list[str] = []
    woff = np.zeros(len(texts) + 1, dtype=np.int64)
    for i, txt in enumerate(texts):
        if txt is not None:
            flat.extend(w.lower() for w in str(txt).split())
        woff[i + 1] = len(flat)
    return flat, woff


def simhash_band_keys(sig: np.ndarray) -> np.ndarray:
    """(4, n) int64 16-bit sub-band keys of uint64 simhashes — THE
    banding layout (exact for Hamming <= 3 by pigeonhole) shared by
    SimHashStage, simhash_dedup's exchange and the band-bucket-stats
    queries; change it here and every consumer moves together."""
    return np.stack(
        [
            ((sig >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
            for b in range(4)
        ]
    )


def _jaccard_e6(a: np.ndarray, b: np.ndarray) -> int:
    """Exact integer half-up of |A∩B|/|A∪B| * 1e6 over sorted-unique
    hash sets — matches DuckDB ROUND (half-away on nonnegatives);
    float rounding is half-even (CLAUDE.md hard rule). Both-empty
    pairs score 1e6 (jaccard of two empty sets is 1)."""
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    if union == 0:
        return 1_000_000
    return (2 * inter * 1_000_000 + union) // (2 * union)


def _shingle_segments(texts: list, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc sorted-unique shingle FNV hashes (uint64) + offsets —
    elementwise identical to ``shingle_hashes(str(t), k)`` per doc
    (segment-kernel parity tests in tests/test_analyze.py), computed
    in one vectorized pass per batch."""
    flat, woff = _flat_lower_words(texts)
    gh, goff = fnv1a64_gram_segments(flat, woff, k)
    return unique_segments(gh, goff)


MAX_BUCKET_PAIRS = 2000  # per-ALLOCATION pair-block bound for hot LSH buckets


def iter_triu_blocks(n: int, max_pairs: int | None = None):
    """Yield (i, j) index blocks covering ALL n*(n-1)/2 unordered
    pairs of range(n), each block bounded near ``max_pairs`` — the
    memory-bounded EXACT replacement for the old truncating
    hot-bucket cap. The cap bounds ALLOCATIONS, never the result:
    truncation silently dropped qualifying pairs once a bucket grew
    past ~64 docs, caught by the round-5 sf0.1 oracle sweep
    (doc_simhash_pairs 388 vs 416 rows). Work stays O(n^2) — that is
    inherent to exact verification of a fully-colliding bucket — but
    memory is O(block) and every pair is emitted exactly once."""
    cap = MAX_BUCKET_PAIRS if max_pairs is None else max_pairs
    block = max(1, cap // max(1, n - 1))
    for r0 in range(0, n - 1, block):
        rows = np.arange(r0, min(r0 + block, n - 1))
        cols = np.arange(r0 + 1, n)
        grid_i = np.repeat(rows, len(cols)).reshape(len(rows), len(cols))
        grid_j = np.tile(cols, (len(rows), 1))
        m = grid_j > grid_i
        yield grid_i[m], grid_j[m]

# per-worker-process caches for the stateless-task stage variants
_MINHASH_STAGES: dict = {}
_SHINGLE_SETS: dict = {}


def exact_dedup(ds: rd.Dataset, id_col: str = "doc_id", text_col: str = "text", n_buckets: int = 64) -> rd.Dataset:
    """(winner_id, n_copies, content_hash) per distinct text."""

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_col: df[id_col].astype("int64"),
                "h": [hashlib.md5(t.encode()).hexdigest() for t in df[text_col].astype(str)],
            }
        )

    hashed = ds.map_batches(pre, batch_format="pandas")

    def group(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("h", as_index=False).agg(
            winner_id=(id_col, "min"), n_copies=(id_col, "size")
        )
        return g[["winner_id", "n_copies", "h"]]

    return bucket_map_groups(add_bucket(hashed, ["h"], n_buckets), n_buckets, group)


class MinHashStage:
    """Actor stage: text -> (doc_id, band_id, band_hash) rows."""

    def __init__(self, id_col="doc_id", text_col="text", n_perm=128, n_bands=16, shingle_k=3, seed=7):
        self.id_col, self.text_col = id_col, text_col
        self.a, self.b = minhash_params(n_perm, seed)
        self.n_bands = n_bands
        self.k = shingle_k

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t[self.id_col].to_numpy()
        texts = t[self.text_col].to_pylist()
        n = len(texts)
        # the raw gram multiset, not _shingle_segments' sets: MinHash's
        # per-permutation minimum is the same either way
        flat, woff = _flat_lower_words(texts)
        gh, goff = fnv1a64_gram_segments(flat, woff, self.k)
        sigs = minhash_signatures_segments(gh, goff, self.a, self.b)
        bh = band_hashes_batch(sigs, self.n_bands).view(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids.astype(np.int64), self.n_bands)),
                "band_id": pa.array(np.tile(np.arange(self.n_bands, dtype=np.int64), n)),
                "band_hash": pa.array(bh.ravel()),
            }
        )


def minhash_candidates(
    ds: rd.Dataset,
    id_col="doc_id",
    text_col="text",
    n_perm=128,
    n_bands=16,
    shingle_k=3,
    n_buckets=64,
    dedup: bool = True,
) -> rd.Dataset:
    """Candidate near-dup pairs (a < b) from banded MinHash LSH.

    ``dedup=False`` skips the global pair-distinct shuffle: a pair
    surfacing in several bands is emitted once per band. Callers that
    dedup downstream anyway (minhash_dedup: the graph build dedups
    edges; the join-mode verify fuses dedup into its first shuffle)
    save a whole all-to-all this way."""
    # stateless-task variant of MinHashStage: the stage object (minhash
    # params) is cached per WORKER PROCESS, so short executions skip
    # the actor-pool ramp-up (~0.5-1 s x pool size) while long ones
    # still amortize setup — workers outlive executions (NOTES.md).
    mh_key = (id_col, text_col, n_perm, n_bands, shingle_k)

    def mh_batch(t: pa.Table) -> pa.Table:
        st = _MINHASH_STAGES.get(mh_key)
        if st is None:
            st = _MINHASH_STAGES[mh_key] = MinHashStage(
                id_col=id_col, text_col=text_col, n_perm=n_perm,
                n_bands=n_bands, shingle_k=shingle_k,
            )
        return st(t)

    bands = ds.map_batches(mh_batch, batch_format="pyarrow")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for (_, _), g in df.groupby(["band_id", "band_hash"]):
            ids = np.sort(g["doc_id"].unique())
            n = len(ids)
            if n < 2:
                continue
            if n * (n - 1) // 2 > MAX_BUCKET_PAIRS:
                print(f"minhash_lsh: hot bucket of {n} docs -> chunked exact sweep")
            for i, j in iter_triu_blocks(n):
                out_a.extend(ids[i])
                out_b.extend(ids[j])
        return pd.DataFrame({"a": pd.Series(out_a, dtype="int64"), "b": pd.Series(out_b, dtype="int64")})

    cand = bucket_map_groups(
        add_bucket(bands, ["band_id", "band_hash"], n_buckets), n_buckets, pairs
    )
    if not dedup:
        return cand
    from ..stages.join import distinct

    return distinct(cand, ["a", "b"], n_buckets)


BROADCAST_SHINGLE_DOCS = 20_000  # docs; ~50 MB of shingle sets


def verify_jaccard(
    pairs: rd.Dataset, docs: rd.Dataset, id_col="doc_id", text_col="text", shingle_k=3,
    n_buckets=64, broadcast_limit: int = BROADCAST_SHINGLE_DOCS,
) -> rd.Dataset:
    """(a, b, jaccard_e6) — exact n-gram Jaccard per candidate pair.

    Small-side fast path: when the doc count fits ``broadcast_limit``,
    the per-doc shingle sets are broadcast once (ray.put) and pairs are
    scored in a single map — no join shuffles. Larger inputs fall back
    to two hash-partitioned joins on the text table.
    """
    import ray

    if docs.count() <= broadcast_limit:
        # shingle ONLY docs that appear in a candidate pair — the pair
        # id set is bounded by the (gated) doc count, so collecting it
        # driver-side is safe inside this branch, and it cuts the
        # shingle pass from O(corpus) to O(candidates) (measured: the
        # corpus-wide pass dominated verify at 5 k docs / 256 pairs)
        pairs = pairs.materialize()
        id_chunks = [
            np.concatenate([b["a"].to_numpy(), b["b"].to_numpy()])
            for b in pairs.iter_batches(batch_format="pyarrow", batch_size=None)
            if b.num_rows
        ]
        cand_ids = (
            np.unique(np.concatenate(id_chunks)).astype(np.int64)
            if id_chunks
            else np.empty(0, dtype=np.int64)
        )
        cand_ref = ray.put(cand_ids)

        def shingle_batch(t: pa.Table) -> pa.Table:
            want = ray.get(cand_ref)
            ids = t[id_col].to_numpy().astype(np.int64)
            keep = np.isin(ids, want)
            ids = ids[keep]
            texts = t.filter(pa.array(keep))[text_col].to_pylist()
            sh, soff = _shingle_segments(texts, shingle_k)
            sh_col = pa.ListArray.from_arrays(
                pa.array(soff, pa.int32()), pa.array(sh.view(np.int64))
            )
            return pa.table({"jid": pa.array(ids), "sh": sh_col})

        lookup: dict[int, np.ndarray] = {}
        if len(cand_ids):
            for b in docs.map_batches(
                shingle_batch, batch_format="pyarrow"
            ).iter_batches(batch_format="pyarrow"):
                for i, lst in zip(b["jid"].to_pylist(), b["sh"].to_pylist()):
                    lookup[int(i)] = np.asarray(lst, dtype=np.int64).astype(np.uint64)
        ref = ray.put(lookup)

        def score_pairs(t: pa.Table) -> pa.Table:
            # per-worker cache keyed by the object ref: tasks skip both
            # the actor ramp-up and repeated lookup deserialization
            key = ref.hex()
            sets = _SHINGLE_SETS.get(key)
            if sets is None:
                sets = _SHINGLE_SETS[key] = ray.get(ref)
            a = t["a"].to_numpy().astype(np.int64)
            b2 = t["b"].to_numpy().astype(np.int64)
            js = [_jaccard_e6(sets[int(x)], sets[int(y)]) for x, y in zip(a, b2)]
            return pa.table(
                {"a": pa.array(a), "b": pa.array(b2), "jaccard_e6": pa.array(js, pa.int64())}
            )

        return pairs.map_batches(score_pairs, batch_format="pyarrow")

    texts = docs.map_batches(
        # cast to large_string so the declared join schemas hold for
        # string-typed corpora too (from_pandas gives string; parquet
        # gives large_string — the exchange merge needs one type)
        lambda t: pa.table(
            {"jid": t[id_col].cast(pa.int64()), "jtext": t[text_col].cast(pa.large_string())}
        ),
        batch_format="pyarrow",
    )
    # explicit schemas: both join inputs are lazy shuffle outputs, and
    # Dataset.schema() would execute them just for column discovery
    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    txt_schema = lambda c: pa.schema([("jid", pa.int64()), (c, pa.large_string())])  # noqa: E731
    j1 = bucket_join(pairs, texts.map_batches(
        lambda t: pa.table({"jid": t["jid"], "text_a": t["jtext"]}), batch_format="pyarrow"
    ), left_on="a", right_on="jid", n_buckets=n_buckets,
        left_schema=pair_schema, right_schema=txt_schema("text_a"),
        left_dedup_cols=["a", "b"])  # free global pair dedup (bucket = f(a))
    j2 = bucket_join(j1, texts.map_batches(
        lambda t: pa.table({"jid": t["jid"], "text_b": t["jtext"]}), batch_format="pyarrow"
    ), left_on="b", right_on="jid", n_buckets=n_buckets,
        left_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()), ("text_a", pa.large_string())]),
        right_schema=txt_schema("text_b"))

    def score(t: pa.Table) -> pa.Table:
        # batched: shingle both sides once per batch, then per-pair
        # |A∩B| = |A|+|B|-|A∪B| via one more segment-unique over the
        # per-pair concatenations — same integer counts as per-pair
        # shingle_hashes(x)/shingle_hashes(y), scored with the exact
        # half-up integer formula (_jaccard_e6 semantics)
        a = t["a"].to_numpy().astype(np.int64)
        b = t["b"].to_numpy().astype(np.int64)
        sha, offa = _shingle_segments(t["text_a"].to_pylist(), shingle_k)
        shb, offb = _shingle_segments(t["text_b"].to_pylist(), shingle_k)
        ca, cb = np.diff(offa), np.diff(offb)
        coff = np.zeros(len(a) + 1, dtype=np.int64)
        np.cumsum(ca + cb, out=coff[1:])
        comb = np.empty(len(sha) + len(shb), dtype=np.uint64)
        comb[np.arange(len(sha)) + np.repeat(coff[:-1] - offa[:-1], ca)] = sha
        comb[np.arange(len(shb)) + np.repeat(coff[:-1] + ca - offb[:-1], cb)] = shb
        _, uoff = unique_segments(comb, coff)
        union = np.diff(uoff)
        inter = ca + cb - union
        # exact integer half-up of inter/union * 1e6 (matches DuckDB
        # ROUND; numpy float round is half-even — CLAUDE.md hard rule)
        js = np.where(
            union > 0,
            (2 * inter * 1_000_000 + union) // (2 * np.maximum(union, 1)),
            1_000_000,
        ).astype(np.int64)
        return pa.table(
            {"a": pa.array(a), "b": pa.array(b), "jaccard_e6": pa.array(js, pa.int64())}
        )

    return j2.map_batches(score, batch_format="pyarrow")


def minhash_dedup(
    ds: rd.Dataset,
    work_dir: str,
    id_col="doc_id",
    text_col="text",
    threshold: float = 0.8,
    **lsh_kwargs,
) -> rd.Dataset:
    """Full near-dup dedup: (doc_id, cluster_id) for every doc in a
    verified near-dup cluster; cluster_id = min doc_id in cluster.

    Clustering runs the ENGINE'S OWN connected-components on the
    verified pair graph — no driver-side union-find, so the pair set
    can be arbitrarily large.
    """
    # keep dedup=True: true near-dups collide in MOST of the 16 bands,
    # so skipping the distinct multiplies verify work ~band-fold
    # (measured 15 -> 40 s at sf0.1) — the one distinct shuffle is the
    # cheaper side of that trade at every scale where LSH makes sense.
    # No materialize: the candidate chain has exactly one consumer
    # (verify -> threshold filter), which materializes downstream.
    cand = minhash_candidates(ds, id_col=id_col, text_col=text_col, **lsh_kwargs)
    verified = verify_jaccard(cand, ds, id_col=id_col, text_col=text_col,
                              shingle_k=lsh_kwargs.get("shingle_k", 3))
    thr = int(threshold * 1e6)
    edges = verified.map_batches(
        lambda t: t.filter(pa.compute.greater_equal(t["jaccard_e6"], thr)),
        batch_format="pyarrow",
    ).materialize()  # consumed by count + graph build
    n_pair_edges = edges.count()
    if n_pair_edges == 0:
        return rd.from_items([]).map_batches(
            lambda df: pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                     "cluster_id": pd.Series([], dtype="int64")}),
            batch_format="pandas",
        )

    from ..pipelines.graph import run_algorithm
    from ..pipelines.ingest import build_graph

    gdir = os.path.join(work_dir, "pair_graph")
    shutil.rmtree(gdir, ignore_errors=True)
    # size the pair graph to the surviving edge count — near-dup pair
    # graphs are collapse residue (usually tiny), and a fixed 8-part
    # build pays ~4x its useful task overhead at small counts
    n_parts = max(2, min(64, -(-n_pair_edges // 250_000)))
    build_graph(
        edges.map_batches(
            lambda t: pa.table(
                {"src_key": t["a"].cast(pa.string()), "dst_key": t["b"].cast(pa.string())}
            ),
            batch_format="pyarrow",
        ),
        gdir,
        n_parts=n_parts,
        n_buckets=2 * n_parts,
        dedup=True,
    )
    cc = run_algorithm(gdir, os.path.join(work_dir, "cc"), "cc")
    return cc.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["vertex"].cast(pa.int64()),
                "cluster_id": t["value"].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def ngram_jaccard_join(
    ds: rd.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    threshold: float = 0.5,
    shingle_k: int = 3,
    df_cap: int = 128,
    n_buckets: int = 64,
    mode: str = "jaccard",
) -> rd.Dataset:
    """EXHAUSTIVE n-gram similarity join: every (a < b) pair with word
    k-shingle Jaccard >= threshold, via an inverted-index join — no
    LSH, no recall loss, the exact-similarity counterpart to minhash.

    ``mode="containment"`` scores ASYMMETRIC containment instead:
    cont(a->b) = |S(a) & S(b)| / |S(a)| (how much of a is inside b) —
    the signal for detecting quotes/supersets that Jaccard dilutes
    when sizes differ; a pair is kept when EITHER direction clears
    the threshold, and both directions are emitted.

    Scale shape: ONE shuffle groups postings by shingle hash (a
    shingle's full posting list lands in one group, so the df cap is
    GLOBAL document frequency); per-doc set sizes are DENORMALIZED
    onto the postings (8 extra bytes/posting buys away two hash joins
    and a sizes pass — each doc's size is known in the batch that
    shingles it); pair counts are pre-aggregated per group (combiner)
    before the one (a, b) groupby. Shingles with df > df_cap are
    dropped and logged — ubiquitous shingles cost O(df^2) pairs and
    carry no similarity signal (standard prefix/df filtering).
    jaccard_e6 uses exact integer half-up arithmetic so a SQL oracle
    reproduces it.
    """

    def postings(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy()
        sh_all, soff = _shingle_segments(t[text_col].to_pylist(), shingle_k)
        counts = np.diff(soff)
        out_id = [np.repeat(ids.astype(np.int64), counts)]
        out_sh = [sh_all.view(np.int64)]
        out_n = [np.repeat(counts.astype(np.int64), counts)]
        cat = lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64)  # noqa: E731
        return pa.table(
            {
                "doc": pa.array(cat(out_id), pa.int64()),
                "sh": pa.array(cat(out_sh), pa.int64()),
                "n": pa.array(cat(out_n), pa.int64()),
            }
        )

    posts = ds.map_batches(postings, batch_format="pyarrow")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        """Vectorized all-pairs within each shingle's posting list: no
        per-shingle Python loop — groups are batched by DISTINCT SIZE
        (few distinct sizes, bounded by df_cap) and expanded with one
        triu per size over a (groups, size) matrix."""
        empty = pd.DataFrame(
            {c: pd.Series([], dtype="int64") for c in ("a", "b", "na", "nb", "cnt")}
        )
        if not len(df):
            return empty
        sh = df["sh"].to_numpy()
        doc = df["doc"].to_numpy()
        nn = df["n"].to_numpy()
        order = np.lexsort((doc, sh))  # group by shingle, docs sorted (a < b)
        sh, doc, nn = sh[order], doc[order], nn[order]
        change = np.ones(len(sh), dtype=bool)
        change[1:] = sh[1:] != sh[:-1]
        gid = np.cumsum(change) - 1
        sizes = np.bincount(gid)
        n_big = int((sizes > df_cap).sum())
        if n_big:
            print(f"ngram_jaccard: dropping {n_big} shingles with df > cap {df_cap}")
        keep_g = (sizes >= 2) & (sizes <= df_cap)
        keep_row = keep_g[gid]
        if not keep_row.any():
            return empty
        doc, nn = doc[keep_row], nn[keep_row]
        gid = np.unique(gid[keep_row], return_inverse=True)[1]
        sizes = np.bincount(gid)
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        out_a, out_b, out_na, out_nb = [], [], [], []
        for m in np.unique(sizes):
            gsel = np.flatnonzero(sizes == m)
            rows = starts[gsel][:, None] + np.arange(m)[None, :]
            D, N = doc[rows], nn[rows]
            i, j = np.triu_indices(int(m), k=1)
            out_a.append(D[:, i].ravel())
            out_b.append(D[:, j].ravel())
            out_na.append(N[:, i].ravel())
            out_nb.append(N[:, j].ravel())
        dfp = pd.DataFrame(
            {
                "a": np.concatenate(out_a),
                "b": np.concatenate(out_b),
                "na": np.concatenate(out_na),
                "nb": np.concatenate(out_nb),
            }
        )
        g = dfp.groupby(["a", "b", "na", "nb"], as_index=False).size()  # combiner
        return g.rename(columns={"size": "cnt"}).astype("int64")

    def sum_pairs(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "b", "na", "nb"], as_index=False)["cnt"].sum()
        return g.rename(columns={"cnt": "inter"}).astype("int64")

    # cross-block combine via the bucket pattern (hash of (a,b) -> one
    # int key, pandas does the vectorized aggregation per bucket) —
    # Dataset.groupby's multi-key sample/sort path is orders of
    # magnitude slower at millions of pair rows (measured; NOTES.md)
    inter = bucket_map_groups(
        add_bucket(
            bucket_map_groups(add_bucket(posts, ["sh"], n_buckets), n_buckets, pairs),
            ["a", "b"],
            n_buckets,
        ),
        n_buckets,
        sum_pairs,
    )

    thr = int(threshold * 1e6)

    def score(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy().astype(np.int64)
        b = t["b"].to_numpy().astype(np.int64)
        i = t["inter"].to_numpy().astype(np.int64)
        u = t["na"].to_numpy().astype(np.int64) + t["nb"].to_numpy().astype(np.int64) - i
        # exact integer half-up of inter/union * 1e6
        je = (2 * i * 1_000_000 + u) // (2 * u)
        keep = je >= thr
        return pa.table(
            {
                "a": pa.array(a[keep]),
                "b": pa.array(b[keep]),
                "jaccard_e6": pa.array(je[keep], pa.int64()),
            }
        )

    def score_containment(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy().astype(np.int64)
        b = t["b"].to_numpy().astype(np.int64)
        i = t["inter"].to_numpy().astype(np.int64)
        na = t["na"].to_numpy().astype(np.int64)
        nb = t["nb"].to_numpy().astype(np.int64)
        cab = (2 * i * 1_000_000 + na) // (2 * na)  # half-up inter/na
        cba = (2 * i * 1_000_000 + nb) // (2 * nb)
        keep = np.maximum(cab, cba) >= thr
        return pa.table(
            {
                "a": pa.array(a[keep]),
                "b": pa.array(b[keep]),
                "cont_ab_e6": pa.array(cab[keep], pa.int64()),
                "cont_ba_e6": pa.array(cba[keep], pa.int64()),
            }
        )

    fn = score_containment if mode == "containment" else score
    return inter.map_batches(fn, batch_format="pyarrow")


class SimHashStage:
    """Batch stage: text -> (doc_id, simhash, 4x16-bit sub-bands)."""

    def __init__(self, id_col="doc_id", text_col="text"):
        self.id_col, self.text_col = id_col, text_col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t[self.id_col].to_numpy()
        flat, woff = _flat_lower_words(t[self.text_col].to_pylist())
        h = fnv1a64(flat) if flat else np.empty(0, dtype=np.uint64)
        sig = simhash64_segments(h, woff).view(np.uint64)
        cols = {"doc_id": pa.array(ids.astype(np.int64)), "simhash": pa.array(sig.astype(np.int64))}
        keys = simhash_band_keys(sig)  # Hamming<=3 => some band matches exactly
        for band in range(4):
            cols[f"sb{band}"] = pa.array(keys[band])
        return pa.table(cols)


def simhash_signatures(ds: rd.Dataset, id_col="doc_id", text_col="text") -> rd.Dataset:
    """SimHashStage over every batch as a plain task. Its only state is
    two column names, so an actor pool gains nothing — and on a 1-CPU
    cluster the pool's actor holds the only CPU while the read task
    feeding it waits forever."""
    key = ("simhash", id_col, text_col)

    def batch(t: pa.Table) -> pa.Table:
        from .taskify import worker_cached

        return worker_cached(key, lambda: SimHashStage(id_col, text_col))(t)

    return ds.map_batches(batch, batch_format="pyarrow")


def simhash_dedup(ds: rd.Dataset, id_col="doc_id", text_col="text", max_hamming=3, n_buckets=64) -> rd.Dataset:
    """(a, b, hamming) pairs with Hamming distance <= max_hamming.

    Pigeonhole over 4 16-bit bands: any pair within distance 3 agrees
    exactly on >=1 band, so banding finds all such pairs.
    """
    sigs = simhash_signatures(ds, id_col, text_col)

    # ONE exchange for all 4 bands: explode each doc into
    # (band, key=its 16-bit sub-band, doc_id, simhash) rows and bucket
    # on (band, key) — identical groups to the old per-band shuffles
    # (same key => same group), but 1 shuffle + 1 distinct instead of
    # 4 shuffles + union + distinct (each Dataset execution has a fixed
    # cost, ~0.09 s measured on a 1-CPU host; at 100 TB it is 3 fewer
    # full passes).
    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        ids = t["doc_id"].to_numpy()
        sh = t["simhash"].to_numpy()
        return pa.table(
            {
                "band": pa.array(np.repeat(np.arange(4, dtype=np.int64), n)),
                "key": pa.array(np.concatenate([t[f"sb{b}"].to_numpy() for b in range(4)])),
                "doc_id": pa.array(np.tile(ids, 4)),
                "simhash": pa.array(np.tile(sh, 4)),
            }
        )

    rows = sigs.map_batches(explode, batch_format="pyarrow")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_h = [], [], []
        for _, g in df.groupby(["band", "key"]):
            sub = g.drop_duplicates("doc_id").sort_values("doc_id")
            ids = sub["doc_id"].to_numpy()
            sh = sub["simhash"].to_numpy().astype(np.uint64)
            n = len(ids)
            if n < 2:
                continue
            if n * (n - 1) // 2 > MAX_BUCKET_PAIRS:
                print(f"simhash: hot bucket of {n} docs -> chunked exact sweep")
            for i, j in iter_triu_blocks(n):
                hd = hamming64(sh[i], sh[j])
                keep = hd <= max_hamming
                out_a.extend(ids[i][keep])
                out_b.extend(ids[j][keep])
                out_h.extend(hd[keep])
        return pd.DataFrame(
            {
                "a": pd.Series(out_a, dtype="int64"),
                "b": pd.Series(out_b, dtype="int64"),
                "hamming": pd.Series(out_h, dtype="int64"),
            }
        )

    allpairs = bucket_map_groups(
        add_bucket(rows, ["band", "key"], n_buckets), n_buckets, pairs
    )
    from ..stages.join import distinct

    return distinct(allpairs, ["a", "b", "hamming"], n_buckets)


def strip_dup_spans(
    docs: rd.Dataset,
    n: int = 5,
    df_min: int = 2,
    n_buckets: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Corpus-level duplicate-SPAN removal (exact substring dedup at
    word n-gram granularity, a la Lee et al. 2021 "Deduplicating
    Training Data Makes Language Models Better"): every token position
    covered by a word n-gram that occurs in >= ``df_min`` DISTINCT
    documents is removed; the cleaned text is the surviving tokens
    joined by single spaces.

    Shape (100 TB): two bucketed shuffles, no all-pairs work —
      1. flat-map docs -> (gram, doc_id, pos) occurrences;
      2. gram-hash buckets: per bucket, grams with >= df_min distinct
         docs select their occurrence positions (factorize + bincount,
         no string groupby);
      3. ONE doc-bucket shuffle of the tagged union (documents +
         duplicate positions); per bucket the covered mask is a
         vectorized scatter and the text is rebuilt per doc.
    At 100 TB the gram strings would be FNV-fingerprinted to u64
    before shuffle 2 (as minhash does); strings are shuffled here so
    the SQL oracle can group on them verbatim.

    Output: (doc_id, n_tokens, n_removed, clean_text) for EVERY input
    document (empty/short docs pass through unchanged).
    """

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        out_d, out_p, out_g = [], [], []
        for doc_id, text in zip(df[id_col], df[text_col].astype(str)):
            ts = text.split()
            m = len(ts) - n + 1
            if m <= 0:
                continue
            out_g.extend(" ".join(ts[i : i + n]) for i in range(m))
            out_d.extend([doc_id] * m)
            out_p.extend(range(m))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(out_d, dtype="int64"),
                "pos": pd.Series(out_p, dtype="int64"),
                "gram": out_g,
            }
        )

    occ = docs.map_batches(grams, batch_format="pandas")

    def dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        codes, _ = pd.factorize(g["gram"], sort=False)
        pairs = pd.DataFrame({"c": codes, "d": g["doc_id"].to_numpy()}).drop_duplicates()
        ndocs = np.bincount(pairs["c"].to_numpy(), minlength=len(np.unique(codes)))
        keep = ndocs[codes] >= df_min
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy()[keep],
                "pos": g["pos"].to_numpy()[keep],
            }
        )

    dup = bucket_map_groups(
        add_bucket(occ, ["gram"], n_buckets), n_buckets, dup_positions
    )

    # tagged union in ARROW (null padding through pandas would float-cast
    # the int columns — NOTES.md gotcha), bucketed by doc id
    def tag_docs(t: pa.Table) -> pa.Table:
        m = len(t)
        return pa.table(
            {
                "doc_id": t[id_col].cast(pa.int64()),
                "pos": pa.nulls(m, pa.int64()),
                "text": t[text_col].cast(pa.large_string()),
                "tag": pa.array(np.zeros(m, dtype=np.int8)),
            }
        )

    def tag_dup(t: pa.Table) -> pa.Table:
        m = len(t)
        return pa.table(
            {
                "doc_id": t["doc_id"].cast(pa.int64()),
                "pos": t["pos"].cast(pa.int64()),
                "text": pa.nulls(m, pa.large_string()),
                "tag": pa.array(np.ones(m, dtype=np.int8)),
            }
        )

    uni = docs.map_batches(tag_docs, batch_format="pyarrow").union(
        dup.map_batches(tag_dup, batch_format="pyarrow")
    )

    def rebuild(t: pa.Table) -> pa.Table:
        tag = t["tag"].to_numpy()
        dt = t.filter(pa.array(tag == 0))
        pt = t.filter(pa.array(tag == 1))
        pos_by_doc: dict[int, list] = {}
        if len(pt):
            # the union's null padding can surface these as float/object
            pdoc = pt["doc_id"].to_numpy().astype(np.int64)
            ppos = pt["pos"].to_numpy().astype(np.int64)
            order = np.argsort(pdoc, kind="stable")
            pdoc, ppos = pdoc[order], ppos[order]
            bounds = np.flatnonzero(np.r_[True, pdoc[1:] != pdoc[:-1], True])
            for i in range(len(bounds) - 1):
                lo, hi = bounds[i], bounds[i + 1]
                pos_by_doc[int(pdoc[lo])] = ppos[lo:hi]
        out_id, out_nt, out_nr, out_tx = [], [], [], []
        offs = np.arange(n)
        for doc_id, text in zip(dt["doc_id"].to_numpy(), dt["text"].to_pylist()):
            ts = str(text).split()
            mask = np.ones(len(ts), dtype=bool)
            hits = pos_by_doc.get(int(doc_id))
            if hits is not None and len(ts):
                mask[(hits[:, None] + offs).ravel()] = False
            out_id.append(int(doc_id))
            out_nt.append(len(ts))
            out_nr.append(int((~mask).sum()))
            out_tx.append(" ".join(np.asarray(ts, dtype=object)[mask]))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "n_tokens": pa.array(out_nt, pa.int64()),
                "n_removed": pa.array(out_nr, pa.int64()),
                "clean_text": pa.array(out_tx, pa.large_string()),
            }
        )

    return bucket_map_groups(
        add_bucket(uni, ["doc_id"], n_buckets), n_buckets, rebuild, "pyarrow"
    )
