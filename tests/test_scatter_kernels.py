"""The engine's message kernels against the ones they replaced.

``_scatter_core`` reads each shard's cached destination order
(``CSRShard.by_dst``) instead of gathering and stable-sorting every
superstep; ``_combine_block`` no longer sorts its (already
destination-ordered) input; a vote sorts one packed int64 key and picks
its winners in a linear pass; min and bor inboxes fold in place.
tests/oracle.py keeps the gather + stable-argsort scatter and the
lexsort reductions as references, and each kernel must equal its
reference exactly (bytes, dtypes and chunk kinds) on random graphs:
weighted and unweighted, P = 1 and P > 1, full, partial and empty
frontiers, every combiner, and the vote labels that cannot be packed
(negative, -0.0, fractional, NaN, >= 2^32). A hub-split partition's
slices of the destination order must reduce to the unsplit scatter.
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
    src = np.minimum((rng.pareto(1.2, m) * n / 8).astype(np.int64), n - 1)
    dst = rng.integers(0, n, m)
    w = rng.choice([0.25, 1.0, 2.5, 7.0], m) if weighted else None
    return write_edges(gdir, n, src, dst, w, n_parts)


def write_edges(gdir, n, src, dst, w, n_parts):
    """The directed edges src -> dst (weights ``w`` or None) over n
    vertices, written as CSR shards with their manifest."""
    shutil.rmtree(gdir, ignore_errors=True)
    os.makedirs(os.path.join(gdir, "csr"))
    weighted = w is not None
    part_size, n_parts = GraphManifest.plan(gdir, n, n_parts)
    man = GraphManifest(gdir, n, len(src), part_size, n_parts, weighted=weighted)
    for p in range(n_parts):
        lo, hi = man.part_bounds(p)
        mine = (src >= lo) & (src < hi)
        arrays = build_shard_arrays(src[mine], dst[mine], w[mine] if weighted else None, lo, hi)
        man.parts.append(write_shard(man, p, *arrays))
    man.save()
    return GraphManifest.load(gdir)


class Probe(Algorithm):
    """Sends its value (a sum sends value / degree) with one edge-weight
    op; ``scatter_all`` makes every vertex send. Its ``apply`` hands back
    the reduced inbox, so ``engine._apply_core`` returns ``(agg, has,
    wire rows)``."""

    def __init__(self, combine, op=None, scatter_all=False):
        self.combine, self.op, self.scatter_all = combine, op, scatter_all

    def message_base(self, ids, values, degrees, superstep):
        base = values / np.maximum(degrees, 1) if self.combine == "sum" else values
        return ScatterOut(base=base, **({self.op: True} if self.op else {}))

    def apply(self, old_values, agg, has_msg, superstep):
        return agg, has_msg, None


class AggregatingProbe(Probe):
    """A Probe with an aggregator channel: each partition's partial is
    its vertices' summed degree."""

    def scatter_aggregate(self, ids, values, degrees, superstep):
        return float(degrees.sum())


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


FRONTIERS = ("all", "partial", "one", "none", "scatter_all")


def _frontier(rng, frontier, n):
    return {
        "all": lambda: np.ones(n, dtype=bool),
        "partial": lambda: rng.random(n) < 0.3,
        "one": lambda: np.arange(n) == n // 2,
        "none": lambda: np.zeros(n, dtype=bool),
        "scatter_all": lambda: rng.random(n) < 0.3,
    }[frontier]()


@pytest.mark.parametrize("n_parts", [1, 3])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("combine,op,labels", CASES)
def test_scatter_equals_gather_and_sort(combine, op, labels, weighted, n_parts):
    rng = np.random.default_rng([n_parts, weighted, CASES.index((combine, op, labels))])
    man = write_graph(f"{TMP}/g", rng, n=60, m=900, n_parts=n_parts, weighted=weighted)
    for frontier in FRONTIERS:
        algo = Probe(combine, op, scatter_all=frontier == "scatter_all")
        for p in range(man.n_parts):
            lo, hi = man.part_bounds(p)
            ids = np.arange(lo, hi, dtype=np.int64)
            values = _values(rng, combine, hi - lo, labels)
            active = _frontier(rng, frontier, hi - lo)
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


@pytest.mark.parametrize("n_slices", [2, 3])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("combine,op,labels", CASES)
def test_sliced_scatter_equals_unsplit(combine, op, labels, weighted, n_slices):
    """A hub-split partition's slices cut its cached destination order:
    each slice's sparse chunks are destination-ordered, only slice 0
    carries the aggregator partial, and every destination partition's
    inbox from the slices reduces (``_apply_core``) to what the unsplit
    scatter's does: exactly for min/bor/vote, to 1e-12 for sum, with
    the same per-destination vote counts."""
    rng = np.random.default_rng([n_slices, weighted, CASES.index((combine, op, labels))])
    man = write_graph(f"{TMP}/g", rng, n=60, m=900, n_parts=3, weighted=weighted)
    for frontier in FRONTIERS:
        algo = AggregatingProbe(combine, op, scatter_all=frontier == "scatter_all")
        for p in range(man.n_parts):
            lo, hi = man.part_bounds(p)
            ids = np.arange(lo, hi, dtype=np.int64)
            values = _values(rng, combine, hi - lo, labels)
            active = _frontier(rng, frontier, hi - lo)
            whole = engine._scatter_core(man, algo, 0, ids, values, active)
            parts = [
                engine._scatter_core(man, algo, 0, ids, values, active, j, n_slices)
                for j in range(n_slices)
            ]
            partial = whole[0][1]
            for j, chunks in enumerate(parts):
                assert [g for _c, g in chunks] == [partial if j == 0 else 0.0] * man.n_parts
                for c, _g in chunks:
                    if c is not None and c[0] == "sparse":
                        step = np.diff(c[1])
                        assert (step >= 0).all() if combine == "vote" else (step > 0).all()
            for q in range(man.n_parts):
                qids = np.arange(*man.part_bounds(q), dtype=np.int64)
                inbox = [chunks[q] for chunks in parts]
                got = engine._apply_core(man, algo, 0, qids, None, inbox)
                want = engine._apply_core(man, algo, 0, qids, None, [whole[q]])
                assert (got[1] == want[1]).all()
                if combine == "sum":
                    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=1e-12)
                else:
                    assert got[0].tobytes() == want[0].tobytes()
                if combine == "vote":

                    def votes(chunks):
                        return sum(
                            np.bincount(c[1] - qids[0], weights=c[3], minlength=len(qids))
                            for c, _g in chunks
                            if c is not None
                        )

                    assert np.array_equal(votes(inbox), votes([whole[q]]))


@pytest.mark.parametrize("k", [2, 8, 9, 17, 33])
def test_min_run_keeps_negative_zero(k):
    """k zero messages into one vertex, the last of them -0.0: which
    zero ``np.minimum.reduceat`` keeps depends on the run's length
    (0.0 at 9, 17 and 33 elements), so the in-block combiner applies the
    inbox's rule (a zero minimum is -0.0 if a -0.0 arrived), and a
    hub-sliced and an unsplit scatter of the run agree on the sign."""
    man = write_edges(f"{TMP}/neg0", k + 1, np.arange(k), np.full(k, k), None, 1)
    ids = np.arange(k + 1, dtype=np.int64)
    values = np.zeros(k + 1)
    values[k - 1] = -0.0
    active = np.ones(k + 1, dtype=bool)
    algo = Probe("min")
    whole = engine._scatter_core(man, algo, 0, ids, values, active)
    assert whole[0][0] == "sparse" and len(whole[0][1]) == 1  # one run of k
    assert np.signbit(whole[0][2][0])
    sliced = [engine._scatter_core(man, algo, 0, ids, values, active, j, 2)[0] for j in range(2)]
    for inbox in ([whole[0]], sliced):
        agg, has, _ = engine._apply_core(man, algo, 0, ids, None, inbox)
        assert has[k] and agg[k] == 0 and np.signbit(agg[k])
    assert_same(
        engine._combine_block("min", np.full(k, k), values[:k]),
        oracle.combine_block("min", np.full(k, k), values[:k]),
    )


@pytest.mark.parametrize("combine", ["sum", "min", "bor"])
def test_reduce_messages_equals_sorting(combine):
    """min and bor fold the inbox in place instead of lexsorting it; on
    inboxes in arrival order and shuffled, with 0.0 / -0.0 ties, inf and
    NaN (min and sum), they reduce exactly as the sorting reference."""
    rng = np.random.default_rng(["sum", "min", "bor"].index(combine))
    for k in (0, 1, 9, 4000):
        dst = rng.integers(50, 350, k)
        val = _values(rng, combine, k, None)
        special = [0.0, -0.0] if combine == "bor" else [0.0, -0.0, np.inf, np.nan]
        hit = rng.random(k) < 0.4
        val[hit] = rng.choice(special, int(hit.sum()))
        cnt = np.zeros(k, dtype=np.int64)
        for perm in (np.arange(k), rng.permutation(k)):
            with np.errstate(invalid="ignore"):
                got = engine._reduce_messages(combine, 300, 50, dst[perm], val[perm], cnt[perm])
            want = oracle.reduce_messages(combine, 300, 50, dst[perm], val[perm], cnt[perm])
            assert_same(got, want)
