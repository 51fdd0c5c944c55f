"""Extraction stages: pages table -> links table / text table.

Callable-class stages run as STATELESS TASKS with a per-worker-process
instance cache (stages/taskify.py): regexes compile once per worker,
the per-batch ``__call__`` loops pages — per-row Python is unavoidable
for HTML scanning without external libs, but the state setup is
amortized and the batch size is kept small because html payloads are
wide binary rows (bound block memory; the streaming executor
backpressures upstream reads).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from ..functions import html as H


class ExtractLinks:
    """pages(url, html) -> exploded links(src_url, dst_url)."""

    def __init__(self):
        # touch the compiled module-level patterns once per actor
        self._extract = H.extract_links
        self._decode = H.decode_html

    def __call__(self, t: pa.Table) -> pa.Table:
        urls = t["url"].to_pylist()
        htmls = t["html"].to_pylist()
        src, dst = [], []
        for u, hb in zip(urls, htmls):
            for link in self._extract(self._decode(hb), u):
                src.append(u)
                dst.append(link)
        return pa.table(
            {"src_key": pa.array(src, pa.string()), "dst_key": pa.array(dst, pa.string())}
        )


class ExtractText:
    """pages(url, html) -> (url, text) — the byte-identical surface."""

    def __init__(self):
        self._extract = H.extract_text
        self._decode = H.decode_html

    def __call__(self, t: pa.Table) -> pa.Table:
        urls = t["url"]
        texts = [self._extract(self._decode(hb)) for hb in t["html"].to_pylist()]
        return pa.table(
            {"url": urls, "text": pa.array(texts, pa.large_string())}
        )


def _links_batch(t: pa.Table) -> pa.Table:
    from .taskify import worker_cached

    return worker_cached("extract_links", ExtractLinks)(t)


def _text_batch(t: pa.Table) -> pa.Table:
    from .taskify import worker_cached

    return worker_cached("extract_text", ExtractText)(t)


def extract_links(pages: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    # stateless tasks + per-worker stage cache (stages/taskify.py): the
    # compiled-regex state amortizes per worker process with no pool
    # ramp-up, and idle workers can join mid-execution
    return pages.map_batches(_links_batch, batch_format="pyarrow", batch_size=batch_size)


def extract_text(pages: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    return pages.map_batches(_text_batch, batch_format="pyarrow", batch_size=batch_size)


class ExtractRawHrefs:
    """pages(url, html) -> (src_key, raw, canon) per href instance —
    the pre-normalization audit surface (functions/html.py::
    extract_hrefs_raw)."""

    def __init__(self):
        self._extract = H.extract_hrefs_raw
        self._decode = H.decode_html

    def __call__(self, t: pa.Table) -> pa.Table:
        urls = t["url"].to_pylist()
        htmls = t["html"].to_pylist()
        src, raw, canon = [], [], []
        for u, hb in zip(urls, htmls):
            for r, c in self._extract(self._decode(hb), u):
                src.append(u)
                raw.append(r)
                canon.append(c)
        return pa.table(
            {
                "src_key": pa.array(src, pa.string()),
                "raw": pa.array(raw, pa.string()),
                "canon": pa.array(canon, pa.string()),
            }
        )


def _raw_hrefs_batch(t: pa.Table) -> pa.Table:
    from .taskify import worker_cached

    return worker_cached("extract_raw_hrefs", ExtractRawHrefs)(t)


def extract_raw_hrefs(pages: rd.Dataset, batch_size: int = 256) -> rd.Dataset:
    return pages.map_batches(_raw_hrefs_batch, batch_format="pyarrow", batch_size=batch_size)
