"""Time the fused analyze kernel layer by layer, in-process, no Ray.

Reads the pages that the benchmark's generator wrote and runs
``PageAnalyze``'s steps one after another over batches of pages, the
batch size ``analyze_pages`` uses:

    python3 perfbench/gen.py crawl 2000 8001 /tmp/crawl
    python3 tools/analyze_layers.py /tmp/crawl [reps] [batch_size]

Layers: decode, text (extract + split + lowercase), links, lang+quality
(language id, quality score and the two token counts), token hash,
gram hash, MinHash, SimHash and band fold. Each layer's time is summed
over the batches and the minimum over ``reps`` passes (default 5) is
kept, next to the minimum of the whole ``PageAnalyze`` call. Then one
more pass runs under ``tracemalloc`` and reports, per layer and for the
whole call, the peak bytes allocated per page (the mean over batches
of a batch's peak divided by its page count): a proxy for allocation
churn that does not depend on the host's speed.

The layers' simhash and band hashes are checked against the
``PageAnalyze`` columns, so the breakdown cannot drift from the kernel
it describes. Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from distributed_graph_computing_platform_ray.functions import html as H  # noqa: E402
from distributed_graph_computing_platform_ray.functions.hashing import (  # noqa: E402
    band_hashes_batch,
    fnv1a64,
    fnv1a64_gram_segments,
    minhash_signatures_segments,
    simhash64_segments,
)
from distributed_graph_computing_platform_ray.functions.text import (  # noqa: E402
    lang_id_counts_lwords,
    quality_score_words,
    token_count_bpe_ish,
)
from distributed_graph_computing_platform_ray.stages.analyze import PageAnalyze  # noqa: E402

LAYERS = [
    "decode",
    "text",
    "links",
    "lang+quality",
    "token_hash",
    "gram_hash",
    "minhash",
    "simhash",
    "band_fold",
]


def _layer_steps(kernel: PageAnalyze, t: pa.Table):
    """PageAnalyze.__call__ cut at its layer boundaries: (layer, thunk)
    pairs to run in order; the last thunk returns (simhash, band
    hashes)."""
    urls = t["url"].to_pylist()
    htmls = t["html"].to_pylist()
    st: dict = {}

    def decode():
        st["html"] = [H.decode_html(h) for h in htmls]

    def text():
        st["text"] = [H.extract_text(h) for h in st["html"]]
        st["words"] = [x.split() for x in st["text"]]
        st["lwords"] = [[w.lower() for w in ws] for ws in st["words"]]

    def links():
        st["n_links"] = [len(H.extract_links(h, u)) for h, u in zip(st["html"], urls)]

    def lang_quality():
        for x, ws, lws in zip(st["text"], st["words"], st["lwords"]):
            lang_id_counts_lwords(lws)
            int(quality_score_words(x, ws, lws) * 1e6)
            token_count_bpe_ish(x)
        st["flat"] = [w for lws in st["lwords"] for w in lws]
        st["woff"] = np.zeros(len(urls) + 1, dtype=np.int64)
        np.cumsum([len(lws) for lws in st["lwords"]], out=st["woff"][1:])

    def token_hash():
        st["th"] = fnv1a64(st["flat"]) if st["flat"] else np.empty(0, dtype=np.uint64)

    def gram_hash():
        st["gh"], st["goff"] = fnv1a64_gram_segments(st["flat"], st["woff"], kernel.k)

    def minhash():
        st["sigs"] = minhash_signatures_segments(st["gh"], st["goff"], kernel.a, kernel.b)

    def simhash():
        st["simhash"] = simhash64_segments(st["th"], st["woff"])

    def band_fold():
        return st["simhash"], band_hashes_batch(st["sigs"], kernel.n_bands).view(np.int64)

    return list(zip(LAYERS, [decode, text, links, lang_quality, token_hash, gram_hash, minhash, simhash, band_fold]))


def _run_layers(kernel: PageAnalyze, t: pa.Table):
    for _, step in _layer_steps(kernel, t):
        out = step()
    return out


def _check(kernel: PageAnalyze, t: pa.Table, simhash: np.ndarray, bands: np.ndarray) -> None:
    want = kernel(t)
    want_bands = np.asarray(want["band_hashes"].combine_chunks().flatten()).reshape(bands.shape)
    if not (np.array_equal(want["simhash"].to_numpy(), simhash) and np.array_equal(want_bands, bands)):
        raise RuntimeError("the layers' simhash or band hashes differ from PageAnalyze's")


def main(inputs: str, reps: int = 5, batch_size: int = 128) -> dict:
    pages = pq.read_table(os.path.join(inputs, "pages"), columns=["url", "html"])
    batches = [pages.slice(i, batch_size) for i in range(0, pages.num_rows, batch_size)]
    kernel = PageAnalyze()
    for t in batches:
        _check(kernel, t, *_run_layers(kernel, t))

    best = dict.fromkeys(LAYERS, float("inf"))
    best_call = float("inf")
    for _ in range(reps):
        spent = dict.fromkeys(LAYERS, 0.0)
        for t in batches:
            for name, step in _layer_steps(kernel, t):
                t0 = time.perf_counter()
                step()
                spent[name] += time.perf_counter() - t0
        for name in LAYERS:
            best[name] = min(best[name], spent[name])
        t0 = time.perf_counter()
        for t in batches:
            kernel(t)
        best_call = min(best_call, time.perf_counter() - t0)

    peaks = dict.fromkeys([*LAYERS, "analyze"], 0.0)
    tracemalloc.start()
    for t in batches:
        for name, step in _layer_steps(kernel, t):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            step()
            peaks[name] += (tracemalloc.get_traced_memory()[1] - base) / t.num_rows
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kernel(t)
        peaks["analyze"] += (tracemalloc.get_traced_memory()[1] - base) / t.num_rows
    tracemalloc.stop()
    return {
        "pages": pages.num_rows,
        "batches": len(batches),
        "reps": reps,
        "layers_s": {k: round(v, 4) for k, v in best.items()},
        "layers_sum_s": round(sum(best.values()), 4),
        "analyze_s": round(best_call, 4),
        "alloc_peak_bytes_per_page": {k: round(v / len(batches)) for k, v in peaks.items()},
    }


if __name__ == "__main__":
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    print(json.dumps(main(args[0], *(int(a) for a in args[1:3]))))
