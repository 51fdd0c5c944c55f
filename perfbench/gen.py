"""Seeded input generators for the link-graph benchmark.

Nothing here imports the package under test: the inputs, and the
record of what they contain, come from this file alone, so a change to
the program cannot move them.

crawl_pages(n, seed)  Common-Crawl-style pages (url, warc_ts, html,
                      text, lang) plus a ``CrawlRecord`` of what every
                      href was written to mean.
powerlaw_edges(v, e, seed)
                      an (src_key, dst_key) numeric-string edge table
                      whose endpoints follow a Zipf-like weight law.
write_parquet_once(table, path)
                      write to a temporary name, rename when complete.

Run as a script it writes one workload's inputs into a directory:

    python3 perfbench/gen.py crawl <n_pages> <seed> <out_dir>
    python3 perfbench/gen.py powerlaw <n_vertices> <n_edges> <seed> <out_dir>
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

PAGE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us", tz="UTC")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

PAGES_PER_SITE = 16
DANGLING_SHARE = 0.15  # link targets beyond the crawled pages
EPOCH_US = 1_760_000_000_000_000
_LANGS = ["en", "en", "en", "en", "de", "fr", "es", "zh"]
_VOCAB = (
    "web crawl graph rank link data page site index query batch engine stream "
    "shard vertex edge node hub spider fetch parse token shuffle anchor frontier "
    "robots sitemap canonical redirect mirror archive snapshot record header "
    "body title meta script style table list image video audio feed news blog "
    "forum wiki shop price review search result cache proxy domain host path"
).split()

# href forms: (name, share). Each form is written so that what a
# correct resolver makes of it is known without resolving anything.
_FORMS = [
    ("abs", 0.36),
    ("root_rel", 0.10),  # "/p/07.html", same host only
    ("dir_rel", 0.06),  # "07.html", same host only
    ("dot_rel", 0.04),  # "../p/07.html", same host only
    ("proto_rel", 0.03),  # "//host/p/07.html"
    ("fragment", 0.08),  # abs + "#sec3"
    ("entity_slash", 0.05),  # "https:&#47;&#47;host&#47;p&#47;07.html"
    ("entity_query", 0.04),  # abs + "?a=1&amp;b=2" -> a distinct url
    ("self_frag", 0.03),  # "#top" -> the page itself
    ("self_abs", 0.03),
    ("duplicate", 0.08),  # repeat the page's previous href verbatim
    ("mailto", 0.03),  # dropped: not http(s)
    ("javascript", 0.03),  # dropped: not http(s)
    ("empty", 0.01),  # href="" -> dropped
]
_FORM_NAMES = [f for f, _ in _FORMS]
_FORM_P = np.array([p for _, p in _FORMS])
_FORM_P = _FORM_P / _FORM_P.sum()
# forms whose meaning does not depend on the page's own url; pages
# planted as byte-identical copies use only these
_BASE_FREE = {"abs", "fragment", "entity_slash", "entity_query", "duplicate", "mailto", "javascript", "empty"}


def host_of(i: int) -> str:
    return f"s{i // PAGES_PER_SITE:05d}.crawl.test"


def url_of(i: int) -> str:
    return f"https://{host_of(i)}/p/{i % PAGES_PER_SITE:02d}.html"


@dataclass
class CrawlRecord:
    """What the generator wrote, in the generator's own terms.

    ``links[i]`` lists, per href of page i in document order, the
    absolute url it must resolve to, or None when it must be dropped.
    ``dup_groups`` lists groups of page indices whose html bytes are
    identical.
    """

    urls: list[str]
    links: list[list[str | None]]
    dup_groups: list[list[int]]

    def edge_pairs(self) -> set[tuple[str, str]]:
        """Distinct (page url, target url) pairs: the link graph."""
        out = set()
        for u, targets in zip(self.urls, self.links):
            for t in targets:
                if t is not None:
                    out.add((u, t))
        return out

    def n_links(self) -> np.ndarray:
        """Per page: hrefs that resolve to an http(s) url, duplicates kept."""
        return np.array([sum(t is not None for t in ts) for ts in self.links], dtype=np.int64)


def _zipf_targets(rng: np.random.Generator, n: int, size: int, a: float) -> np.ndarray:
    """Indices in [0, n) with P(rank r) ~ (r+1)^-a, ranks scattered by a
    fixed permutation so hubs are not all low ids."""
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** a
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, rng.random(size), side="right")
    ranks = np.minimum(ranks, n - 1)
    return rng.permutation(n)[ranks]


def _href(form: str, i: int, t: int, k: int, prev: tuple[str, str | None] | None):
    """-> (raw attribute text as written in html, resolved url | None)."""
    tu = url_of(t)
    if form == "abs":
        return tu, tu
    if form == "root_rel":
        return f"/p/{t % PAGES_PER_SITE:02d}.html", tu
    if form == "dir_rel":
        return f"{t % PAGES_PER_SITE:02d}.html", tu
    if form == "dot_rel":
        return f"../p/{t % PAGES_PER_SITE:02d}.html", tu
    if form == "proto_rel":
        return f"//{host_of(t)}/p/{t % PAGES_PER_SITE:02d}.html", tu
    if form == "fragment":
        return f"{tu}#sec{k % 7}", tu
    if form == "entity_slash":
        return tu.replace("/", "&#47;"), tu
    if form == "entity_query":
        return f"{tu}?a={k % 3}&amp;b=2", f"{tu}?a={k % 3}&b=2"
    if form == "self_frag":
        return "#top", url_of(i)
    if form == "self_abs":
        return url_of(i), url_of(i)
    if form == "duplicate":
        return prev
    if form == "mailto":
        return f"mailto:ops{k}@crawl.test", None
    if form == "javascript":
        return "javascript:void(0)", None
    return "", None  # empty


def crawl_pages(n_pages: int, seed: int, dup_share: float = 0.01) -> tuple[pa.Table, CrawlRecord]:
    """n_pages pages; link targets are Zipf-skewed over the crawled
    pages plus DANGLING_SHARE more urls that are never crawled."""
    rng = np.random.default_rng([seed, 1])
    n_targets = int(n_pages * (1 + DANGLING_SHARE))
    n_links = rng.integers(4, 25, n_pages)
    n_words = rng.integers(40, 160, n_pages)
    targets = _zipf_targets(rng, n_targets, int(n_links.sum()), 0.9)
    forms = rng.choice(len(_FORMS), size=len(targets), p=_FORM_P)
    quotes = rng.choice(3, size=len(targets), p=[0.7, 0.2, 0.1])
    upper = rng.random(len(targets)) < 0.05
    words = rng.choice(len(_VOCAB), size=int(n_words.sum()), p=_vocab_p())
    langs = rng.integers(0, len(_LANGS), n_pages)
    # planted byte-identical copies: page j repeats the html of page src
    n_dup = int(n_pages * dup_share)
    copies = rng.choice(np.arange(1, n_pages), size=n_dup, replace=False) if n_dup else np.array([], int)
    sources = {int(j): int(rng.integers(0, j)) for j in np.sort(copies)}
    sources = {j: s for j, s in sources.items() if s not in sources}  # copy from originals only
    originals = set(sources.values())

    urls = [url_of(i) for i in range(n_pages)]
    htmls: list[bytes] = []
    texts: list[str] = []
    links: list[list[str | None]] = []
    lo = wo = 0
    for i in range(n_pages):
        nl, nw = int(n_links[i]), int(n_words[i])
        if i in sources:
            s = sources[i]
            htmls.append(htmls[s])
            texts.append(texts[s])
            links.append(list(links[s]))
            lo += nl
            wo += nw
            continue
        body = " ".join(_VOCAB[w] for w in words[wo : wo + nw])
        wo += nw
        parts = [
            f"<html><head><title>Page {i} &amp; co</title>",
            "<style>p { margin: 0 }</style><script>var skip = 'NOT_TEXT';</script>",
            f"</head><body><h1>Doc {i}</h1><!-- NOT_TEXT -->",
            f"<p>{body}</p>",
        ]
        page_links: list[str | None] = []
        prev = None
        for k in range(nl):
            j = lo + k
            form = _FORM_NAMES[forms[j]]
            t = int(targets[j])
            same_host = t // PAGES_PER_SITE == i // PAGES_PER_SITE
            if form in ("root_rel", "dir_rel", "dot_rel") and not same_host:
                form = "abs"
            if i in originals and form not in _BASE_FREE:
                form = "abs"
            if form == "duplicate" and prev is None:
                form = "abs"
            raw, resolved = _href(form, i, t, k, prev)
            prev = (raw, resolved)
            q = quotes[j]
            if q == 2 and (not raw or any(c in raw for c in " >'\"")):
                q = 0
            attr = f'"{raw}"' if q == 0 else (f"'{raw}'" if q == 1 else raw)
            tag = "A HREF" if upper[j] else 'a class="l" href'
            parts.append(f"<{tag}={attr}>link {k}</a>")
            page_links.append(resolved)
        lo += nl
        parts.append("</body></html>")
        htmls.append("\n".join(parts).encode("utf-8"))
        texts.append(body)
        links.append(page_links)

    ts = (EPOCH_US + np.arange(n_pages, dtype=np.int64) * 1_000_000).astype("datetime64[us]")
    table = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(ts).cast(pa.timestamp("us", tz="UTC")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([_LANGS[x] for x in langs], pa.string()),
        },
        schema=PAGE_SCHEMA,
    )
    groups: dict[int, list[int]] = {}
    for j, s in sources.items():
        groups.setdefault(s, [s]).append(j)
    return table, CrawlRecord(urls, links, sorted(groups.values()))


def _vocab_p() -> np.ndarray:
    w = 1.0 / np.arange(1, len(_VOCAB) + 1) ** 1.1
    return w / w.sum()


def powerlaw_edges(n_vertices: int, n_edges: int, seed: int, a: float = 0.8) -> pa.Table:
    """(src_key, dst_key) as decimal strings, the shape of a numeric
    edge list; both endpoints Zipf(a)-weighted, so a few hubs touch a
    large share of the edges. Duplicates and self-loops occur and are
    kept."""
    rng = np.random.default_rng([seed, 2])
    src = _zipf_targets(rng, n_vertices, n_edges, a)
    dst = _zipf_targets(rng, n_vertices, n_edges, a)
    return pa.table(
        {
            "src_key": pa.array(src, pa.int64()).cast(pa.string()),
            "dst_key": pa.array(dst, pa.int64()).cast(pa.string()),
        }
    )


def write_parquet_once(table: pa.Table, path: str, rows_per_file: int) -> str:
    """Write ``table`` as a directory of Parquet files at ``path``.

    Files go to ``path + ".tmp-<pid>"`` first and the directory is
    renamed into place only once every file is closed, so an
    interrupted run leaves no directory at ``path`` — only a temporary
    one that is never read.
    """
    if os.path.isdir(path):
        return path
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    for n, off in enumerate(range(0, table.num_rows, rows_per_file)):
        pq.write_table(table.slice(off, rows_per_file), os.path.join(tmp, f"part-{n:05d}.parquet"))
    os.rename(tmp, path)
    return path


def _write_json(obj, path: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.rename(tmp, path)


def write_crawl(n_pages: int, seed: int, out_dir: str) -> None:
    """<out>/pages/ (Parquet), <out>/record.json (the href record) and
    <out>/meta.json (the SSSP source: the page with most distinct in-links)."""
    table, rec = crawl_pages(n_pages, seed)
    os.makedirs(out_dir, exist_ok=True)
    inlinks: dict[str, int] = {}
    for _, d in rec.edge_pairs():
        inlinks[d] = inlinks.get(d, 0) + 1
    hub = min(inlinks, key=lambda u: (-inlinks[u], u))
    _write_json({"sssp_source": hub}, os.path.join(out_dir, "meta.json"))
    _write_json(
        {"urls": rec.urls, "links": rec.links, "dup_groups": rec.dup_groups},
        os.path.join(out_dir, "record.json"),
    )
    write_parquet_once(table, os.path.join(out_dir, "pages"), rows_per_file=1000)


def load_record(out_dir: str) -> CrawlRecord:
    with open(os.path.join(out_dir, "record.json")) as f:
        return CrawlRecord(**json.load(f))


def write_powerlaw(n_vertices: int, n_edges: int, seed: int, out_dir: str) -> None:
    """<out>/edges/ (Parquet) and <out>/meta.json (the SSSP source: the
    vertex on most edges)."""
    os.makedirs(out_dir, exist_ok=True)
    table = powerlaw_edges(n_vertices, n_edges, seed)
    ends = np.concatenate([table[c].to_numpy(zero_copy_only=False).astype(np.int64) for c in table.column_names])
    hub = int(np.argmax(np.bincount(ends)))
    _write_json({"sssp_source": str(hub)}, os.path.join(out_dir, "meta.json"))
    write_parquet_once(table, os.path.join(out_dir, "edges"), rows_per_file=max(1, n_edges // 4))


if __name__ == "__main__":
    kind, *args = sys.argv[1:]
    if kind == "crawl":
        write_crawl(int(args[0]), int(args[1]), args[2])
    elif kind == "powerlaw":
        write_powerlaw(int(args[0]), int(args[1]), int(args[2]), args[3])
    else:
        sys.exit(f"unknown input kind {kind!r}")
