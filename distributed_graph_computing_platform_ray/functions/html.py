"""Deterministic, dependency-free HTML link & text extraction.

The reference has NO html extractor — its only parser is the edge-list
loader (/root/reference/worker/worker.go:106-144). The north_star adds
one: link extraction from Common-Crawl-style pages with a
byte-identical-extracted-text-per-url invariant. These are pure
functions of the html bytes (+ base url), so the invariant holds at
any parallelism/partitioning; goldens are pinned in
tests/golden/extracted_text/ (FIXTURES.md §1).
"""

from __future__ import annotations

import html as _htmlmod
import re
from urllib.parse import urldefrag, urljoin, urlsplit

# <a ...> tags; href value quoted either way or bare
_A_TAG = re.compile(r"<a\b[^>]*>", re.IGNORECASE | re.DOTALL)
_HREF = re.compile(
    r"""href\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]+))""", re.IGNORECASE
)
_SCRIPT = re.compile(r"<script\b.*?</script\s*>", re.IGNORECASE | re.DOTALL)
_STYLE = re.compile(r"<style\b.*?</style\s*>", re.IGNORECASE | re.DOTALL)
_COMMENT = re.compile(r"<!--.*?-->", re.DOTALL)
_TAG = re.compile(r"<[^>]*>")

_KEEP_SCHEMES = ("http", "https")


def _resolve_href_slow(base_url: str, raw: str) -> str | None:
    """The specification path: urljoin -> urldefrag -> http(s) filter.
    Kept verbatim as the semantic ground truth; `_resolve_href` below
    must return byte-identical results (parity-fuzzed in
    tests/test_analyze.py)."""
    try:
        resolved = urljoin(base_url, raw)
        resolved, _frag = urldefrag(resolved)
        scheme = urlsplit(resolved).scheme.lower()
    except ValueError:
        # urlsplit raises on malformed IPv6 brackets ("http://[x") —
        # a real-web crawl WILL contain such hrefs; drop the link
        # rather than poisoning the whole batch.
        return None
    if scheme not in _KEEP_SCHEMES:
        return None
    return resolved


_BAD_BASE = object()  # sentinel: base_url failed to parse


def _split_base(base_url: str):
    """Parse the page's base url ONCE per page (callers hoist this out
    of the per-link loop); a malformed base (unbalanced IPv6 brackets)
    returns the sentinel so every link takes the slow path — which
    drops them all, byte-identical to urljoin raising."""
    try:
        return urlsplit(base_url)
    except ValueError:
        return _BAD_BASE


def _resolve_href(base_url: str, raw: str, bs=None) -> str | None:
    """Resolve one href against base_url, drop the fragment, keep only
    http(s) — byte-identical to ``_resolve_href_slow`` (fuzz-tested).

    Fast paths skip urllib's triple parse (urljoin + urldefrag +
    urlsplit each re-parse the url) for the two shapes that dominate
    real link corpora: absolute lowercase http(s) urls and
    root-relative paths. The gates below exclude exactly the inputs
    where urllib's parse/unparse round-trip is NOT the identity
    (empty query ``?`` at end, empty trailing ``;`` params, dot
    segments, empty netloc, non-lowercase scheme, WHATWG-stripped
    tab/CR/LF or edge control chars, malformed base) — those fall
    back. ``bs`` is ``_split_base(base_url)``, hoisted by per-page
    callers; computed here when omitted.
    """
    if not raw or "\t" in raw or "\n" in raw or "\r" in raw or raw[-1] <= " " or raw[0] <= " ":
        return _resolve_href_slow(base_url, raw)
    if bs is None:
        bs = _split_base(base_url)
    if bs is _BAD_BASE:
        return _resolve_href_slow(base_url, raw)
    if raw.startswith("http://") or raw.startswith("https://"):
        # absolute, lowercase scheme. urljoin either returns raw
        # unchanged (scheme != base's) or parse/unparses it; the
        # round trip is the identity given the gates below.
        sep = raw.index("//") + 2
        rest = raw[sep:]
        end = len(rest)
        for ch in "/?#":
            j = rest.find(ch)
            if j != -1 and j < end:
                end = j
        netloc = rest[:end]
        if end > 0 and "[" not in netloc and "]" not in netloc:  # non-empty, no IPv6 brackets
            pre, _, _ = raw.partition("#")
            q = pre.find("?")
            path_part = pre if q == -1 else pre[:q]
            if (q == -1 or q != len(pre) - 1) and not path_part.endswith(";"):
                return pre
        return _resolve_href_slow(base_url, raw)
    if raw.startswith("/") and not raw.startswith("//"):
        if bs.scheme in _KEEP_SCHEMES and bs.netloc:
            pre, _, _ = raw.partition("#")
            q = pre.find("?")
            path_part = pre if q == -1 else pre[:q]
            if (
                (q == -1 or q != len(pre) - 1)
                and not path_part.endswith(";")
                and "/." not in path_part
            ):
                return f"{bs.scheme}://{bs.netloc}{pre}"
        return _resolve_href_slow(base_url, raw)
    return _resolve_href_slow(base_url, raw)


def decode_html(html_bytes: bytes | None) -> str:
    """Pages are bytes on the wire (input_hint: html:binary); decode
    utf-8 with replacement so one bad byte can't poison a page. A null
    cell (a real-web crawl WILL have some) decodes to the empty page
    rather than crashing the batch."""
    if html_bytes is None:
        return ""
    return html_bytes.decode("utf-8", errors="replace")


def extract_links(html_text: str, base_url: str) -> list[str]:
    """All <a href> targets, resolved against base_url and normalized.

    Normalization: entity-unescape the attribute, resolve relative
    urls, drop the fragment, keep only http(s), drop self-links after
    normalization? NO — self-links are kept (the reference keeps
    self-loops in adjacency too); duplicates are kept here and deduped
    by the pipeline's exact-distinct stage (SURVEY.md §2.7).
    """
    out: list[str] = []
    bs = _split_base(base_url)
    for tag in _A_TAG.findall(html_text):
        m = _HREF.search(tag)
        if not m:
            continue
        raw = m.group(1) or m.group(2) or m.group(3) or ""
        raw = _htmlmod.unescape(raw).strip()
        if not raw:
            continue
        resolved = _resolve_href(base_url, raw, bs)
        if resolved is not None:
            out.append(resolved)
    return out


def extract_hrefs_raw(html_text: str, base_url: str) -> list[tuple[str, str]]:
    """(raw attribute value, canonical url) per <a href> instance.

    raw = the href exactly as written (entity-unescaped, stripped) —
    fragment and relative form PRESERVED; canonical = the same
    normalization extract_links applies (resolve against base_url,
    drop fragment). Instances whose canonical form is non-http(s) are
    dropped on both columns so the two surfaces stay aligned. This is
    the canonicalization-audit surface: how many distinct raw strings
    collapse into each canonical url (dedup leverage of url
    normalization before any crawl/store happens)."""
    out: list[tuple[str, str]] = []
    bs = _split_base(base_url)
    for tag in _A_TAG.findall(html_text):
        m = _HREF.search(tag)
        if not m:
            continue
        raw = _htmlmod.unescape(m.group(1) or m.group(2) or m.group(3) or "").strip()
        if not raw:
            continue
        resolved = _resolve_href(base_url, raw, bs)
        if resolved is not None:
            out.append((raw, resolved))
    return out


_A_FULL = re.compile(r"(<a\b[^>]*>)(.*?)</a\s*>", re.IGNORECASE | re.DOTALL)


def extract_links_with_anchors(html_text: str, base_url: str) -> list[tuple[str, str]]:
    """(resolved href, anchor text) per <a>...</a> instance — the
    web-search anchor signal. Same href normalization as
    extract_links; anchor = inner markup tag-stripped, entity-
    unescaped, whitespace-collapsed. Instances (duplicates,
    self-links) are KEPT — anchor aggregation wants them."""
    out: list[tuple[str, str]] = []
    bs = _split_base(base_url)
    for m in _A_FULL.finditer(html_text):
        hm = _HREF.search(m.group(1))
        if not hm:
            continue
        raw = _htmlmod.unescape(hm.group(1) or hm.group(2) or hm.group(3) or "").strip()
        if not raw:
            continue
        resolved = _resolve_href(base_url, raw, bs)
        if resolved is None:
            continue
        anchor = " ".join(_htmlmod.unescape(_TAG.sub(" ", m.group(2))).split())
        out.append((resolved, anchor))
    return out


def extract_text(html_text: str) -> str:
    """Visible text: strip comments, script/style bodies, all tags;
    unescape entities; collapse all whitespace runs to single spaces.
    Pure function — THE byte-identical invariant surface."""
    s = _COMMENT.sub(" ", html_text)
    s = _SCRIPT.sub(" ", s)
    s = _STYLE.sub(" ", s)
    s = _TAG.sub(" ", s)
    s = _htmlmod.unescape(s)
    return " ".join(s.split())
