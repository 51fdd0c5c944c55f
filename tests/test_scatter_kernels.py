"""The engine's message kernels against the ones they replaced.

``_scatter_core`` reads each shard's cached destination order
(``CSRShard.by_dst``) instead of gathering and stable-sorting every
superstep; ``_combine_block`` no longer sorts its (already
destination-ordered) input; a vote sorts one packed int64 key and picks
its winners in a linear pass. tests/oracle.py keeps the gather +
stable-argsort scatter and the two-lexsort vote as references, and each
kernel must equal its reference exactly (bytes, dtypes and chunk kinds)
on random graphs: weighted and unweighted, P = 1 and P > 1, full,
partial and empty frontiers, every combiner, and the vote labels that
cannot be packed (negative, -0.0, fractional, NaN, >= 2^32).
"""

import os
import shutil

import numpy as np
import pytest

from distributed_graph_computing_platform_ray import engine
from distributed_graph_computing_platform_ray.algorithms import Algorithm, ScatterOut
from distributed_graph_computing_platform_ray.state.csr import (
    build_shard_arrays,
    load_shard,
    write_shard,
)
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

from . import oracle

TMP = "/tmp/graft_tests/scatter_kernels"

LABELS = {
    "int": lambda rng, k: rng.integers(0, 40, k).astype(np.float64),
    "negative": lambda rng, k: rng.integers(-20, 20, k).astype(np.float64),
    "neg_zero": lambda rng, k: np.where(rng.random(k) < 0.4, -0.0, rng.integers(0, 3, k).astype(np.float64)),
    "fractional": lambda rng, k: rng.integers(0, 24, k) / 4.0,
    "wide": lambda rng, k: rng.integers(0, 8, k) + float(2**32 - 4),
    "nan": lambda rng, k: np.where(rng.random(k) < 0.2, np.nan, rng.integers(0, 5, k).astype(np.float64)),
}


def write_graph(gdir, rng, n, m, n_parts, weighted):
    """A random directed multigraph (hub-skewed sources, duplicates and
    self-loops kept) written as CSR shards with its manifest."""
    shutil.rmtree(gdir, ignore_errors=True)
    os.makedirs(os.path.join(gdir, "csr"))
    src = np.minimum((rng.pareto(1.2, m) * n / 8).astype(np.int64), n - 1)
    dst = rng.integers(0, n, m)
    w = rng.choice([0.25, 1.0, 2.5, 7.0], m) if weighted else None
    part_size, n_parts = GraphManifest.plan(gdir, n, n_parts)
    man = GraphManifest(gdir, n, m, part_size, n_parts, weighted=weighted)
    for p in range(n_parts):
        lo, hi = man.part_bounds(p)
        mine = (src >= lo) & (src < hi)
        arrays = build_shard_arrays(src[mine], dst[mine], w[mine] if weighted else None, lo, hi)
        man.parts.append(write_shard(man, p, *arrays))
    man.save()
    return GraphManifest.load(gdir)


class Probe(Algorithm):
    """Sends its value (a sum sends value / degree) with one edge-weight
    op; ``scatter_all`` makes every vertex send."""

    def __init__(self, combine, op=None, scatter_all=False):
        self.combine, self.op, self.scatter_all = combine, op, scatter_all

    def message_base(self, ids, values, degrees, superstep):
        base = values / np.maximum(degrees, 1) if self.combine == "sum" else values
        return ScatterOut(base=base, **({self.op: True} if self.op else {}))


def assert_same(got, want):
    assert (got is None) == (want is None)
    if got is None:
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, str):
            assert g == w
        else:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def _values(rng, combine, n, labels):
    if combine == "vote":
        return LABELS[labels](rng, n)
    if combine == "bor":
        return rng.integers(0, 1 << 20, n).astype(np.float64)
    v = rng.random(n) * 10
    if combine == "min":
        v[rng.random(n) < 0.2] = np.inf
    return v


CASES = [
    # (combine, edge op, labels)
    ("sum", None, None),
    ("sum", "mul_edge_weight", None),
    ("min", "add_edge_weight", None),
    ("min", "max_edge_weight", None),
    ("min", "max_neg_edge_weight", None),
    ("bor", None, None),
    *[("vote", None, lab) for lab in LABELS],
    ("vote", "add_edge_weight", "int"),
]


@pytest.mark.parametrize("n_parts", [1, 3])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("combine,op,labels", CASES)
def test_scatter_equals_gather_and_sort(combine, op, labels, weighted, n_parts):
    rng = np.random.default_rng([n_parts, weighted, CASES.index((combine, op, labels))])
    man = write_graph(f"{TMP}/g", rng, n=60, m=900, n_parts=n_parts, weighted=weighted)
    for frontier in ("all", "partial", "one", "none", "scatter_all"):
        algo = Probe(combine, op, scatter_all=frontier == "scatter_all")
        for p in range(man.n_parts):
            lo, hi = man.part_bounds(p)
            ids = np.arange(lo, hi, dtype=np.int64)
            values = _values(rng, combine, hi - lo, labels)
            active = {
                "all": np.ones(hi - lo, dtype=bool),
                "partial": rng.random(hi - lo) < 0.3,
                "one": np.arange(hi - lo) == (hi - lo) // 2,
                "none": np.zeros(hi - lo, dtype=bool),
                "scatter_all": rng.random(hi - lo) < 0.3,
            }[frontier]
            got = engine._scatter_core(man, algo, 0, ids, values, active)
            sel = np.ones(hi - lo, dtype=bool) if algo.scatter_all else active
            degs = np.diff(load_shard(man, p).indptr)[sel]
            so = algo.message_base(ids[sel], values[sel], degs, 0)
            want = oracle.scatter_chunks(man, p, combine, sel, so)
            for g, w in zip(got, want, strict=True):
                assert_same(g, w)


@pytest.mark.parametrize("labels", [*LABELS, "wide_dst"])
def test_vote_kernels_equal_lexsorts(labels):
    rng = np.random.default_rng([*LABELS, "wide_dst"].index(labels))
    span = 2**40 if labels == "wide_dst" else 300
    for k in (0, 1, 7, 500, 5000):
        dst = np.sort(rng.integers(0, span, k))
        val = LABELS.get(labels, LABELS["int"])(rng, k)
        if k == 5000:  # only "int" labels pack; the rest take the lexsort
            assert (engine._vote_key(dst, val) is None) == (labels != "int")
        assert_same(engine._combine_block("vote", dst, val), oracle.combine_block("vote", dst, val))
        if labels == "wide_dst":
            continue  # one partition never spans 2^31 vertices
        # an inbox: three source partitions' combined chunks, in arrival
        # order and shuffled, with counts summed upstream
        d, v, c = (
            np.concatenate(x)
            for x in zip(*(oracle.combine_block("vote", dst[j::3], val[j::3]) for j in range(3)))
        )
        c = c + rng.integers(0, 3, len(c))
        for perm in (np.arange(len(d)), rng.permutation(len(d))):
            assert_same(
                engine._reduce_messages("vote", span, 0, d[perm], v[perm], c[perm]),
                oracle.reduce_messages("vote", span, 0, d[perm], v[perm], c[perm]),
            )


@pytest.mark.parametrize("combine", ["sum", "min", "bor"])
def test_fold_combine_block_equals_sorting(combine):
    rng = np.random.default_rng(["sum", "min", "bor"].index(combine))
    for k in (0, 1, 9, 4000):
        dst = np.sort(rng.integers(0, 200, k), kind="stable")
        val = _values(rng, combine, k, None)
        assert_same(engine._combine_block(combine, dst, val), oracle.combine_block(combine, dst, val))
