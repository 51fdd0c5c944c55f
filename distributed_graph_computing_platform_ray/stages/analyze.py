"""Fused page-analysis stage: the flagship training-data pipeline.

One pass of plain Ray tasks over pages computing everything a
pretraining data pipeline wants per document:

  extracted text (byte-identical invariant), outgoing link count,
  language id, quality score, whitespace + BPE-ish token counts,
  MinHash band hashes (near-dup LSH keys), 64-bit SimHash.

Fusing these into ONE stage means the html bytes are decoded once and
never leave the worker — at 100 TB the html column is the dominant
IO, so every independent pass over it is a full re-read. This stage
is the unit the scaling benchmark times (CPU-bound per-doc work —
the part of the pipeline that actually buys more from 4x nodes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..functions import html as H
from ..functions.hashing import (
    band_hashes_batch,
    fnv1a64,
    fnv1a64_gram_segments,
    minhash_params,
    minhash_signatures_segments,
    simhash64_segments,
)
from ..functions.text import (
    lang_id_counts_lwords,
    quality_score_words,
    token_count_bpe_ish,
)


class PageAnalyze:
    def __init__(self, n_perm: int = 128, n_bands: int = 16, shingle_k: int = 3):
        self.a, self.b = minhash_params(n_perm)
        self.n_bands = n_bands
        self.k = shingle_k

    def __call__(self, t: pa.Table) -> pa.Table:
        """Batched kernel: the per-doc Python loop does only the work
        that is inherently per-document (decode, extract, split,
        lang/quality counts); every hash — token FNV, shingle FNV,
        MinHash, SimHash, band fold — runs ONCE per batch over the
        concatenated token/gram arrays with segment offsets, and
        MinHash reads the gram hashes as they come (duplicates
        included, no per-doc unique pass).
        Bit-identical to the per-doc composition of the public
        functions (tests/test_analyze.py parity test); ~2x fewer
        small allocations per doc, which is what limits per-core
        throughput at high concurrency on one socket (BASELINE.md
        scaling analysis). The simhash column uses the SAME FNV token
        hashing as stages/dedup.py::SimHashStage, so near-dup keys
        computed here agree with the dedup pipeline's (and stay
        SQL-reproducible)."""
        urls = t["url"].to_pylist()
        htmls = t["html"].to_pylist()
        n = len(urls)
        n_links = np.zeros(n, dtype=np.int64)
        lang_pred = [""] * n
        quality_e6 = np.zeros(n, dtype=np.int64)
        n_tokens = np.zeros(n, dtype=np.int64)
        n_bpe_tokens = np.zeros(n, dtype=np.int64)
        flat_words: list[str] = []
        woff = np.zeros(n + 1, dtype=np.int64)
        for i in range(n):
            html = H.decode_html(htmls[i])
            text = H.extract_text(html)
            links = H.extract_links(html, urls[i])
            # split/lowercase ONCE per doc; all consumers share the
            # precomputed lists (identical outputs, conformance-tested)
            words = text.split()
            lwords = [w.lower() for w in words]
            n_links[i] = len(links)
            lang_pred[i] = lang_id_counts_lwords(lwords)[0]
            quality_e6[i] = int(quality_score_words(text, words, lwords) * 1e6)
            n_tokens[i] = len(words)
            n_bpe_tokens[i] = token_count_bpe_ish(text)
            flat_words.extend(lwords)
            woff[i + 1] = len(flat_words)
        th_all = fnv1a64(flat_words) if flat_words else np.empty(0, dtype=np.uint64)
        simhash = simhash64_segments(th_all, woff)
        # MinHash takes the raw gram multiset: a minimum over repeated
        # grams is the minimum over their set, so no per-doc dedup
        gh_all, goff = fnv1a64_gram_segments(flat_words, woff, self.k)
        sigs = minhash_signatures_segments(gh_all, goff, self.a, self.b)
        bands = band_hashes_batch(sigs, self.n_bands).view(np.int64)
        band_col = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int64) * self.n_bands, pa.int32()),
            pa.array(bands.ravel()),
        )
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "n_links": pa.array(n_links),
                "lang_pred": pa.array(lang_pred, pa.string()),
                "quality_e6": pa.array(quality_e6),
                "n_tokens": pa.array(n_tokens),
                "n_bpe_tokens": pa.array(n_bpe_tokens),
                "simhash": pa.array(simhash),
                "band_hashes": band_col,
            }
        )


_ANALYZER = None


def _analyze_batch(t: pa.Table) -> pa.Table:
    # stateless-task variant: the analyzer (minhash params etc.) is
    # cached per WORKER PROCESS, so tasks skip the actor-pool ramp-up
    # while still amortizing setup — workers outlive executions.
    global _ANALYZER
    if _ANALYZER is None:
        _ANALYZER = PageAnalyze()
    return _ANALYZER(t)


def analyze_pages(pages: rd.Dataset, batch_size: int = 128) -> rd.Dataset:
    return pages.map_batches(_analyze_batch, batch_format="pyarrow", batch_size=batch_size)
