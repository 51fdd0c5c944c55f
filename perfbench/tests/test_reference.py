"""Tests of the benchmark's generators, references and checks.

The references are compared with plain-Python loops on small random
graphs, and every check is shown to reject a perturbed output. No Ray,
no package under test:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import os
import sys
from collections import Counter, deque
from html.parser import HTMLParser
from urllib.parse import urldefrag, urljoin

import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen  # noqa: E402
import reference as R  # noqa: E402
from checks import References  # noqa: E402


def random_graph(seed: int, n: int = 30, m: int = 80) -> R.Graph:
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n, m)
    d = rng.integers(0, n, m)
    return R.Graph.from_pairs(s, d)


def adjacency(g: R.Graph) -> list[list[int]]:
    adj = [[] for _ in range(g.n)]
    for a, b in zip(g.src.tolist(), g.dst.tolist()):
        adj[a].append(b)
    return adj


@pytest.mark.parametrize("seed", range(5))
def test_pagerank_matches_loop(seed):
    g = random_graph(seed)
    adj = adjacency(g)
    x = [0.0] * g.n
    for _ in range(30):
        msg = [0.0] * g.n
        for u in range(g.n):
            for v in adj[u]:
                msg[v] += x[u] / len(adj[u])
        x = [0.15 / g.n + 0.85 * m for m in msg]
    np.testing.assert_allclose(R.pagerank(g, 30), x, rtol=1e-12)


def test_pagerank_check_rejects_perturbed_score():
    g = random_graph(1)
    ref = R.pagerank(g, 30)
    assert R.check_close("pr", g, g.keys, ref * (1 + 1e-9), ref) == []
    bad = ref.copy()
    bad[3] *= 1 + 1e-4
    assert R.check_close("pr", g, g.keys, bad, ref)
    assert R.check_close("pr", g, g.keys[:-1], ref[:-1], ref)  # a vertex missing


@pytest.mark.parametrize("seed", range(5))
def test_components_match_bfs(seed):
    g = random_graph(seed, n=40, m=30)
    adj = adjacency(g)
    want = [-1] * g.n
    for v in range(g.n):
        if want[v] < 0:
            comp, todo = [v], [v]
            want[v] = v
            while todo:
                for w in adj[todo.pop()]:
                    if want[w] < 0:
                        want[w] = v
                        comp.append(w)
                        todo.append(w)
    assert R.components(g).tolist() == want


def test_components_check_rejects_wrong_labels():
    g = random_graph(2, n=40, m=30)
    ids = np.random.default_rng(0).permutation(g.n).astype(float)  # dense ids
    root = R.components(g)
    good = np.array([ids[root == root[v]].min() for v in range(g.n)])
    assert R.check_components(g, g.keys, good, ids) == []
    # a valid partition but not the smallest id of the component
    big = max(set(root.tolist()), key=lambda r: (root == r).sum())
    members = np.flatnonzero(root == big)
    relabeled = good.copy()
    relabeled[members] = ids[members].max()
    assert R.check_components(g, g.keys, relabeled, ids)
    # two components merged under one label
    merged = good.copy()
    merged[merged == merged.max()] = merged.min()
    assert R.check_components(g, g.keys, merged, ids)


@pytest.mark.parametrize("seed", range(5))
def test_label_propagation_matches_loop(seed):
    g = random_graph(seed)
    adj = adjacency(g)
    init = np.random.default_rng(seed).permutation(g.n).astype(float)
    lab = init.tolist()
    for _ in range(10):
        new = list(lab)
        for v in range(g.n):
            votes = Counter(lab[u] for u in adj[v])  # adjacency is symmetric
            if votes:
                top = max(votes.values())
                new[v] = min(label for label, c in votes.items() if c == top)
        lab = new
    assert R.label_propagation(g, init, 10).tolist() == lab


def test_label_check_rejects_one_changed_label():
    g = random_graph(3)
    ref = R.label_propagation(g, np.arange(g.n, dtype=float), 10)
    assert R.check_equal("lp", g, g.keys, ref, ref) == []
    bad = ref.copy()
    bad[0] += 1
    assert R.check_equal("lp", g, g.keys, bad, ref)


@pytest.mark.parametrize("seed", range(5))
def test_bfs_matches_loop(seed):
    g = random_graph(seed, n=40, m=35)
    adj = adjacency(g)
    want = [np.inf] * g.n
    want[0] = 0
    q = deque([0])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if want[v] == np.inf:
                want[v] = want[u] + 1
                q.append(v)
    got = R.bfs_hops(g, 0)
    assert got.tolist() == want
    assert np.isinf(got).any()  # some vertex is unreachable at this density
    bad = got.copy()
    bad[np.isinf(bad)] = 99
    assert R.check_equal("sssp", g, g.keys, bad, got)


@pytest.mark.parametrize("seed", range(5))
def test_triangles_match_brute_force(seed):
    g = random_graph(seed, n=25, m=120)
    nbrs = [set() for _ in range(g.n)]
    for a, b in zip(g.src.tolist(), g.dst.tolist()):
        if a != b:
            nbrs[a].add(b)
    want = sum(
        1 for a, b, c in itertools.combinations(range(g.n), 3) if b in nbrs[a] and c in nbrs[a] and c in nbrs[b]
    )
    assert want > 0
    assert R.triangles(g) == want


class _Anchors(HTMLParser):
    """The standard library's reading of <a href>: attribute values
    arrive with character references already unescaped."""

    def __init__(self):
        super().__init__()
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            for k, v in attrs:
                if k == "href":
                    self.hrefs.append(v or "")
                    break


def _resolve(base: str, raw: str):
    raw = raw.strip()
    if not raw:
        return None
    url = urldefrag(urljoin(base, raw))[0]
    return url if url.split(":", 1)[0] in ("http", "https") else None


def test_crawl_record_matches_an_independent_parse():
    table, rec = gen.crawl_pages(400, seed=7, dup_share=0.05)
    assert table.schema == gen.PAGE_SCHEMA
    forms = Counter()
    for url, html, want in zip(table["url"].to_pylist(), table["html"].to_pylist(), rec.links):
        p = _Anchors()
        p.feed(html.decode())
        assert [_resolve(url, h) for h in p.hrefs] == want
        forms.update("rel" if h.startswith(("/", "0", "1", ".")) else "other" for h in p.hrefs)
    assert forms["rel"] > 0
    assert rec.dup_groups and all(len(g) > 1 for g in rec.dup_groups)
    htmls = table["html"].to_pylist()
    assert all(len({htmls[i] for i in g}) == 1 for g in rec.dup_groups)
    # dangling targets: linked urls that are not pages
    targets = {t for _, t in rec.edge_pairs()}
    assert targets - set(rec.urls)


def test_generators_are_seeded():
    a, ra = gen.crawl_pages(50, seed=3)
    b, rb = gen.crawl_pages(50, seed=3)
    c, _ = gen.crawl_pages(50, seed=4)
    assert a.equals(b) and ra == rb and not a.equals(c)
    assert gen.powerlaw_edges(100, 500, 1).equals(gen.powerlaw_edges(100, 500, 1))
    assert not gen.powerlaw_edges(100, 500, 1).equals(gen.powerlaw_edges(100, 500, 2))


def test_write_parquet_once_leaves_no_partial_directory(tmp_path, monkeypatch):
    table, _ = gen.crawl_pages(30, seed=1)
    path = str(tmp_path / "pages")

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(gen.pq, "write_table", fail)
    with pytest.raises(OSError):
        gen.write_parquet_once(table, path, rows_per_file=10)
    assert not os.path.exists(path)
    monkeypatch.undo()
    gen.write_parquet_once(table, path, rows_per_file=10)
    assert sorted(os.listdir(path)) == ["part-00000.parquet", "part-00001.parquet", "part-00002.parquet"]


@pytest.fixture
def crawl_refs(tmp_path):
    gen.write_crawl(300, 5, str(tmp_path))
    return References("crawl", str(tmp_path), pr_iters=30, lp_iters=10), gen.crawl_pages(300, 5)[1]


def _analyze_frame(rec):
    """An analyze output that satisfies every property check."""
    rows = []
    for i, u in enumerate(rec.urls):
        group = next((g for g in rec.dup_groups if i in g), [i])
        rows.append({"url": u, "n_links": rec.n_links()[i], "simhash": group[0], "band_hashes": [group[0]] * 16})
    return pd.DataFrame(rows)


def test_analyze_check_rejects_broken_properties(crawl_refs):
    refs, rec = crawl_refs
    df = _analyze_frame(rec)
    assert refs.check_analyze(df) == []
    assert refs.check_analyze(df.iloc[1:])  # a page missing
    bad = df.copy()
    bad.at[0, "band_hashes"] = [0] * 15
    assert refs.check_analyze(bad)
    bad = df.copy()
    bad.at[1, "n_links"] += 1
    assert refs.check_analyze(bad)
    bad = df.copy()
    j = rec.dup_groups[0][1]
    bad.at[j, "simhash"] = -1
    assert refs.check_analyze(bad)


def test_graph_check_rejects_wrong_counts(crawl_refs):
    refs, rec = crawl_refs

    class Man:
        n_vertices = refs.g.n
        n_edges_directed = 2 * refs.g.n_pairs

    assert refs.check_graph(Man) == []
    Man.n_edges_directed -= 2
    assert refs.check_graph(Man)
    # the counts come from the record: every distinct (page, target) pair
    pairs = rec.edge_pairs()
    assert refs.g.n_pairs == len(pairs)
    assert refs.g.n == len({u for p in pairs for u in p})


def test_triangle_and_top_k_checks_reject(crawl_refs):
    refs, _ = crawl_refs
    g = refs.g
    pr = R.pagerank(g, 30)
    order = np.lexsort((g.keys, -pr))[:25]
    top = pd.DataFrame({"vertex": g.keys[order], "value": pr[order]})
    outputs = {
        "pagerank": pd.DataFrame({"vertex": g.keys, "value": pr}),
        "cc": pd.DataFrame({"vertex": g.keys, "value": np.zeros(g.n)}),
        "top_k": top,
        "triangles": R.triangles(g),
    }
    labels = np.arange(g.n, dtype=float)
    refs.label_of_vertex = lambda graph_dir: labels
    root = R.components(g)
    outputs["cc"]["value"] = [labels[root == root[v]].min() for v in range(g.n)]
    assert refs.check_algorithms(outputs, "") == []
    assert refs.check_algorithms({**outputs, "triangles": outputs["triangles"] + 1}, "")
    swapped = top.copy()
    swapped.loc[0, "vertex"] = g.keys[np.argmin(pr)]
    assert refs.check_algorithms({**outputs, "top_k": swapped}, "")
