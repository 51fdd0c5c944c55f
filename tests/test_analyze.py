"""Parity gates for the batched fused-analyze kernel and the href
fast-resolver: both must be bit-identical to the per-doc composition
of the public functions (the spec path)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distributed_graph_computing_platform_ray.functions import html as H
from distributed_graph_computing_platform_ray.functions.hashing import (
    band_hashes_batch,
    minhash_params,
    minhash_signatures_segments,
    simhash64_segments,
    unique_segments,
)
from distributed_graph_computing_platform_ray.functions.text import (
    lang_id_counts_lwords,
    quality_score_words,
    shingle_hashes_lwords,
    token_count_bpe_ish,
)
from distributed_graph_computing_platform_ray.stages.analyze import PageAnalyze
from distributed_graph_computing_platform_ray.utils import stable_hash_array

from .oracle import band_hashes, minhash_signature, simhash64


def _analyze_perdoc_spec(t: pa.Table, n_perm=128, n_bands=16, k=3) -> pa.Table:
    """The original per-doc reference composition (spec)."""
    a, b = minhash_params(n_perm)
    urls = t["url"].to_pylist()
    htmls = t["html"].to_pylist()
    n = len(urls)
    out = {
        "url": urls,
        "n_links": np.zeros(n, dtype=np.int64),
        "lang_pred": [""] * n,
        "quality_e6": np.zeros(n, dtype=np.int64),
        "n_tokens": np.zeros(n, dtype=np.int64),
        "n_bpe_tokens": np.zeros(n, dtype=np.int64),
        "simhash": np.zeros(n, dtype=np.int64),
        "band_hashes": [None] * n,
    }
    for i in range(n):
        html = H.decode_html(htmls[i])
        text = H.extract_text(html)
        links = [
            r
            for r in (
                H._resolve_href_slow(urls[i], raw)
                for raw in _raw_hrefs(html)
            )
            if r is not None
        ]
        words = text.split()
        lwords = [w.lower() for w in words]
        out["n_links"][i] = len(links)
        out["lang_pred"][i] = lang_id_counts_lwords(lwords)[0]
        out["quality_e6"][i] = int(quality_score_words(text, words, lwords) * 1e6)
        out["n_tokens"][i] = len(words)
        out["n_bpe_tokens"][i] = token_count_bpe_ish(text)
        from distributed_graph_computing_platform_ray.functions.hashing import fnv1a64

        th = fnv1a64(lwords) if lwords else np.empty(0, dtype=np.uint64)
        out["simhash"][i] = np.int64(np.uint64(simhash64(th)).astype(np.int64))
        sig = minhash_signature(shingle_hashes_lwords(lwords, k), a, b)
        out["band_hashes"][i] = band_hashes(sig, n_bands).astype(np.int64)
    return pa.table(
        {
            "url": pa.array(out["url"], pa.string()),
            "n_links": pa.array(out["n_links"]),
            "lang_pred": pa.array(out["lang_pred"], pa.string()),
            "quality_e6": pa.array(out["quality_e6"]),
            "n_tokens": pa.array(out["n_tokens"]),
            "n_bpe_tokens": pa.array(out["n_bpe_tokens"]),
            "simhash": pa.array(out["simhash"]),
            "band_hashes": pa.array([list(b) for b in out["band_hashes"]], pa.list_(pa.int64())),
        }
    )


def _raw_hrefs(html_text: str):
    import html as _htmlmod

    for tag in H._A_TAG.findall(html_text):
        m = H._HREF.search(tag)
        if not m:
            continue
        raw = _htmlmod.unescape(m.group(1) or m.group(2) or m.group(3) or "").strip()
        if raw:
            yield raw


EDGE_PAGES = [
    ("https://base.example/dir/page", b""),
    ("https://base.example/dir/page", b"<a href='/root/x#frag'>a</a><a href=rel/y>b</a>"),
    (
        "https://base.example/p",
        b"<a href='http://other.example/q?x=1'>q</a>"
        b"<a href='HTTP://upper.example/'>u</a>"
        b"<a href='//proto.example/z'>p</a>"
        b"<a href='mailto:x@y'>m</a>"
        b"<a href='https://h.example/a/../b'>dots</a>"
        b"<a href='/p/./q'>dotrel</a>"
        b"<a href='https://h.example/x?'>emptyq</a>"
        b"<a href='/x?'>emptyq2</a>"
        b"<a href='https://h.example/a;'>semi</a>"
        b"<a href='#'>fragonly</a>"
        b"<a href='https://h.example'>bare</a>"
        b"<a href='https://'>nonet</a>"
        b"<a href='&#104;ttps://esc.example/e'>esc</a>",
    ),
    ("https://base.example/p", "<a href='/x'>é café İstanbul Σ αΣ</a>".encode()),
    ("https://base.example/p", b"<p>plain text only no links at all</p>"),
]


def test_fused_analyze_matches_perdoc_spec():
    from distributed_graph_computing_platform_ray.sources.pages import _page_html, url_of

    urls = [url_of(i) for i in range(400)]
    htmls = [_page_html(i, 400, seed=42).encode("utf-8") for i in range(400)]
    urls += [u for u, _ in EDGE_PAGES]
    htmls += [h for _, h in EDGE_PAGES]
    t = pa.table({"url": pa.array(urls, pa.string()), "html": pa.array(htmls, pa.binary())})
    got = PageAnalyze()(t)
    want = _analyze_perdoc_spec(t)
    assert got.schema.equals(want.schema), f"{got.schema} != {want.schema}"
    for col in want.column_names:
        assert got[col].equals(want[col]), f"column {col} differs"


def test_fused_analyze_empty_batch():
    t = pa.table({"url": pa.array([], pa.string()), "html": pa.array([], pa.binary())})
    got = PageAnalyze()(t)
    assert got.num_rows == 0
    assert "band_hashes" in got.column_names


BASES = [
    "https://base.example/dir/page",
    "http://h.example/",
    "https://u:p@host.example:8443/a/b?q=1",
    "HTTPS://upper.example/x",
    "ftp://nope.example/x",
    "http:/no-netloc-path",
    "http://[badhost/page",
    "http://[::1/x",
    "https://[::1]/ok",
]

HREFS = [
    "https://h.example/x",
    "http://h.example/x",
    "HTTP://h.example/x",
    "https://h.example",
    "https://",
    "https://h.example/x?",
    "https://h.example/x?#f",
    "https://h.example/x??",
    "https://h.example/x?a?",
    "https://h.example/a;",
    "https://h.example/a;b",
    "https://h.example/a;/b",
    "https://h.example/a/../b",
    "https://h.example/.",
    "https://h.example/#f",
    "https://h;x@h.example/p",
    "/root/x",
    "/root/x#f",
    "/x?",
    "/x?q",
    "/a;",
    "/a;b",
    "/a/../b",
    "/a/./b",
    "/.",
    "//proto.example/z",
    "rel/y",
    "../up",
    "./here",
    "#frag",
    "?q=2",
    "mailto:x@y",
    "javascript:void(0)",
    "a:b/c",
    "/a:b",
    "http://h.example/%20x",
    "https://h.example/é",
    "http://[x",
    "http://[::1]/x",
    "https://h.example/x\tq",
    "https://h.example/x\x00",
]


def test_malformed_ipv6_href_dropped_not_raised():
    html = b"<a href='http://[x'>bad</a><a href='https://ok.example/y'>ok</a>"
    links = H.extract_links(html.decode(), "https://base.example/p")
    assert links == ["https://ok.example/y"]


def test_resolve_href_parity_matrix():
    for base in BASES:
        for raw in HREFS:
            assert H._resolve_href(base, raw) == H._resolve_href_slow(base, raw), (
                base,
                raw,
            )


@settings(max_examples=400, deadline=None)
@given(
    base=st.sampled_from(BASES),
    raw=st.text(
        alphabet="abxh:/?#;.&%=@ \t" + "é",
        min_size=1,
        max_size=25,
    ).map(lambda s: s.strip()),
)
def test_resolve_href_parity_fuzz(base, raw):
    assert H._resolve_href(base, raw) == H._resolve_href_slow(base, raw)


def test_resolve_href_empty_matches_slow_path():
    for base in BASES:
        assert H._resolve_href(base, "") == H._resolve_href_slow(base, "")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=30),
        min_size=0,
        max_size=20,
    )
)
def test_unique_segments_property(segs):
    vals = np.array([x for s in segs for x in s], dtype=np.uint64)
    offs = np.zeros(len(segs) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in segs], out=offs[1:]) if segs else None
    uv, uo = unique_segments(vals, offs)
    for i, s in enumerate(segs):
        want = np.unique(np.array(s, dtype=np.uint64))
        got = uv[uo[i] : uo[i + 1]]
        assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=" \t\n\r"),
                min_size=1,
                max_size=12,
            ),
            min_size=0,
            max_size=15,
        ),
        min_size=0,
        max_size=8,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_fnv_gram_segments_property(docs, k):
    from distributed_graph_computing_platform_ray.functions.hashing import (
        fnv1a64,
        fnv1a64_gram_segments,
    )
    from distributed_graph_computing_platform_ray.functions.text import word_ngrams

    flat = [w for d in docs for w in d]
    woff = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum([len(d) for d in docs], out=woff[1:])
    gh, goff = fnv1a64_gram_segments(flat, woff, k)
    for i, d in enumerate(docs):
        grams = word_ngrams(d, k)
        want = fnv1a64(grams) if grams else np.empty(0, np.uint64)
        got = gh[goff[i] : goff[i + 1]]
        assert np.array_equal(got, want), (i, d, k)


def test_sketch_segment_kernels_match_perdoc():
    rng = np.random.default_rng(5)
    a, b = minhash_params(128)
    segs = [rng.integers(0, 2**63, size=m, dtype=np.uint64) for m in [0, 1, 5, 200, 0, 33]]
    vals = np.concatenate(segs) if segs else np.empty(0, np.uint64)
    offs = np.zeros(len(segs) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in segs], out=offs[1:])
    # minhash
    uvals, uoffs = unique_segments(vals, offs)
    sigs = minhash_signatures_segments(uvals, uoffs, a, b)
    for i, s in enumerate(segs):
        want = minhash_signature(np.unique(s), a, b)
        assert np.array_equal(sigs[i], want), i
    # bands
    bb = band_hashes_batch(sigs, 16)
    for i in range(len(segs)):
        assert np.array_equal(bb[i], band_hashes(sigs[i], 16)), i
    # simhash
    sh = simhash64_segments(vals, offs)
    for i, s in enumerate(segs):
        want = np.int64(np.uint64(simhash64(s)).astype(np.int64))
        assert sh[i] == want, i


M61 = (1 << 61) - 1


def _segments(segs):
    vals = np.concatenate([np.asarray(s, dtype=np.uint64) for s in segs] + [np.empty(0, np.uint64)])
    offs = np.zeros(len(segs) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in segs], out=offs[1:])
    return vals, offs


def test_minhash_fold_subtract_branch():
    """Shingles whose permuted value a*x + b wraps to 2^64-1-k (k <= 7)
    fold to 2^61+6-k >= M61, the rare case that needs the conditional
    subtract. For odd a the shingle is x = (2^64-1-k - b) * a^-1 mod
    2^64, kept when x < M61 (so x mod M61 is x itself). Each such
    shingle alone, and all of them in one segment, must hash as the
    oracle's plain ``% M61``."""
    a, b = minhash_params(128)
    forced, perms = [], set()
    for i in range(len(a)):
        ai, bi = int(a[i]), int(b[i])
        if ai % 2 == 0:
            continue
        inv = pow(ai, -1, 1 << 64)
        for k in range(8):
            x = ((2**64 - 1 - k - bi) * inv) % (1 << 64)
            if x < M61:
                y = (ai * x + bi) % (1 << 64)
                assert (y >> 61) + (y & M61) >= M61
                forced.append(x)
                perms.add(i)
    assert len(perms) == 44
    segs = [[x] for x in forced] + [forced, forced[::-1] + [5, 2**63]]
    sigs = minhash_signatures_segments(*_segments(segs), a, b)
    for i, s in enumerate(segs):
        assert np.array_equal(sigs[i], minhash_signature(np.array(s, dtype=np.uint64), a, b)), i


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from([0, 1, 7, M61 - 1, M61, M61 + 3, 2**63, 2**64 - 1]), max_size=12),
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
def test_minhash_multiset_equals_set(segs, rnd):
    """A segment with repeated shingles, in any order, has the signature
    of its ``np.unique`` set (the analyze stages skip the dedup)."""
    a, b = minhash_params(128)
    segs = [rnd.sample(s, len(s)) for s in segs]
    got = minhash_signatures_segments(*_segments(segs), a, b)
    uniq = [np.unique(np.array(s, dtype=np.uint64)) for s in segs]
    want = minhash_signatures_segments(*_segments(uniq), a, b)
    assert np.array_equal(got, want)
    for i, u in enumerate(uniq):
        assert np.array_equal(got[i], minhash_signature(u, a, b)), i


def test_simhash_segments_edge_cases():
    """Bit-for-bit against the oracle: exact ones/zeros ties (a tie
    clears the bit), lengths 1, 2 and 1,000, empty segments between
    non-empty ones, and an all-empty batch."""
    rng = np.random.default_rng(11)
    h = rng.integers(0, 2**64 - 1, 8, dtype=np.uint64, endpoint=True)
    full = np.uint64(2**64 - 1)
    segs = [
        [h[0], h[0] ^ full],  # every bit a 1-1 tie
        [h[1], h[1] ^ full, h[2], h[2] ^ full],  # 2-2 ties
        [h[3], h[3] ^ full, h[3]],  # ties broken by a third copy
        [h[4]],
        [],
        [h[5], h[6]],
        [],
        [],
        list(rng.integers(0, 2**64 - 1, 1000, dtype=np.uint64, endpoint=True)),
        [np.uint64(0), full],
        [],
    ]
    got = simhash64_segments(*_segments(segs))
    for i, s in enumerate(segs):
        want = np.uint64(simhash64(np.array(s, dtype=np.uint64))).astype(np.int64)
        assert got[i] == want, i
    assert got[0] == 0 and got[2] == np.uint64(h[3]).astype(np.int64)
    empty = simhash64_segments(np.empty(0, np.uint64), np.zeros(4, dtype=np.int64))
    assert empty.dtype == np.int64 and np.array_equal(empty, np.zeros(3, dtype=np.int64))


def test_minhash_stage_matches_oracle():
    """MinHashStage hashes each text's raw gram multiset; its band keys
    equal the oracle's over the deduped shingle set."""
    from distributed_graph_computing_platform_ray.functions.text import shingle_hashes
    from distributed_graph_computing_platform_ray.stages.dedup import MinHashStage

    texts = ["a b c a b c a b c", "Two words", "", None, "x y z w x y z w q", "solo"]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts, pa.string())})
    got = MinHashStage()(t)["band_hash"].to_numpy().reshape(len(texts), 16)
    a, b = minhash_params(128, 7)
    for i, txt in enumerate(texts):
        want = band_hashes(minhash_signature(shingle_hashes(txt or "", 3), a, b), 16)
        assert np.array_equal(got[i], want.view(np.int64)), i


def test_page_minhash_bands_explode_rejects_ragged_lists():
    """The band count comes from each row's list length: equal lengths
    explode to (url, band_id, band_hash) rows, ragged or null lists
    raise instead of shifting band ids across pages."""
    from distributed_graph_computing_platform_ray.pipelines.testdata import _explode_band_hashes

    def table(lists):
        return pa.table(
            {
                "url": pa.array([f"u{i}" for i in range(len(lists))], pa.string()),
                "band_hashes": pa.array(lists, pa.list_(pa.int64())),
            }
        )

    out = _explode_band_hashes(table([[1, 2, 3], [4, 5, 6]]))
    assert out["url"].to_pylist() == ["u0"] * 3 + ["u1"] * 3
    assert out["band_id"].to_pylist() == [0, 1, 2] * 2
    assert out["band_hash"].to_pylist() == [1, 2, 3, 4, 5, 6]
    assert _explode_band_hashes(table([])).num_rows == 0
    for bad in ([[1, 2, 3], [4, 5]], [[1, 2], [3, 4, 5, 6]], [[1, 2], None]):
        with pytest.raises(ValueError, match="ragged band_hashes"):
            _explode_band_hashes(table(bad))


def test_fnv_gram_segments_chunked_array_input():
    """The kernel accepts a pyarrow ChunkedArray (combine_chunks path)
    and matches the list-input result."""
    import pyarrow as pa

    from distributed_graph_computing_platform_ray.functions.hashing import (
        fnv1a64_gram_segments,
    )

    words = ["alpha", "beta", "gamma", "delta", "eps"]
    woff = np.array([0, 3, 3, 5], dtype=np.int64)
    want_h, want_o = fnv1a64_gram_segments(words, woff, 3)
    chunked = pa.chunked_array(
        [pa.array(words[:2], pa.large_string()), pa.array(words[2:], pa.large_string())]
    )
    got_h, got_o = fnv1a64_gram_segments(chunked, woff, 3)
    assert np.array_equal(got_h, want_h) and np.array_equal(got_o, want_o)


def test_null_html_cell_analyzes_as_empty_page():
    t = pa.table(
        {
            "url": pa.array(["https://a.example/x", "https://a.example/y"], pa.string()),
            "html": pa.array([None, b"<p>ok words here</p>"], pa.binary()),
        }
    )
    got = PageAnalyze()(t)
    assert got.num_rows == 2
    assert got["n_tokens"].to_pylist()[0] == 0
    assert got["simhash"].to_pylist()[0] == 0
    assert got["n_tokens"].to_pylist()[1] == 3


def test_analyze_simhash_agrees_with_dedup_simhash_stage():
    """The fused analyze stage and the dedup SimHashStage must produce
    the SAME simhash for the same text — near-dup keys computed on
    either surface agree."""
    from distributed_graph_computing_platform_ray.stages.dedup import SimHashStage

    texts = ["the quick brown Fox jumps", "", "one two three four five six seven"]
    t_docs = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)}
    )
    want = SimHashStage()(t_docs)["simhash"].to_pylist()
    htmls = [f"<p>{x}</p>".encode() for x in texts]
    t_pages = pa.table(
        {
            "url": pa.array([f"https://h.example/{i}" for i in range(len(texts))]),
            "html": pa.array(htmls, pa.binary()),
        }
    )
    got = PageAnalyze()(t_pages)["simhash"].to_pylist()
    assert got == want


def test_fnv_gram_segments_sliced_array_input():
    """A zero-copy slice of an Arrow array (non-zero arr.offset) must
    hash the sliced window, not the parent's first elements."""
    from distributed_graph_computing_platform_ray.functions.hashing import (
        fnv1a64,
        fnv1a64_gram_segments,
    )

    parent = pa.array(["xx", "aa", "bb", "cc"], pa.large_string())
    sliced = parent.slice(1)
    woff = np.array([0, 3], dtype=np.int64)
    got_h, got_o = fnv1a64_gram_segments(sliced, woff, 3)
    want = fnv1a64(["aa bb cc"])
    assert np.array_equal(got_h, want), (got_h, want)
