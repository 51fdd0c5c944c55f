"""Sketch primitives: MinHash, SimHash, random-hyperplane LSH.

All parameterized by an explicit seed; permutation/hyperplane params
are derived with counter-based mixing so every process computes the
same sketch for the same input.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..utils import mix64

_MERSENNE = np.uint64((1 << 61) - 1)

_FNV_BASIS = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def fnv1a64(values) -> np.ndarray:
    """Vectorized FNV-1a 64-bit over the UTF-8 bytes of each string.

    Public, fully-specified hash (offset basis 14695981039346656037,
    prime 1099511628211, wraparound mod 2^64) chosen for the sketch
    features so an independent SQL oracle can recompute identical
    hashes (the prime fits in 41 bits, so DuckDB HUGEINT arithmetic
    reproduces the wraparound multiply exactly). Vectorized across
    strings: one pass over byte positions, no per-string Python loop.
    """
    arr = pa.array(list(values), pa.large_string()).cast(pa.large_binary())
    n = len(arr)
    h = np.full(n, _FNV_BASIS, dtype=np.uint64)
    if n == 0:
        return h
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[: n + 1]
    data = arr.buffers()[2]
    buf = np.frombuffer(data, dtype=np.uint8) if data is not None else np.empty(0, np.uint8)
    lens = off[1:] - off[:-1]
    starts = off[:-1]
    with np.errstate(over="ignore"):
        for t in range(int(lens.max()) if n else 0):
            alive = lens > t
            c = buf[starts[alive] + t].astype(np.uint64)
            h[alive] = (h[alive] ^ c) * _FNV_PRIME
    return h


def minhash_params(n_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) for h_i(x) = ((a_i * x + b_i) mod M61); a odd, nonzero."""
    idx = np.arange(n_perm, dtype=np.uint64)
    a = mix64(np.uint64(seed), idx) | np.uint64(1)
    b = mix64(np.uint64(seed + 1), idx)
    return a % _MERSENNE, b % _MERSENNE


def fnv1a64_gram_segments(
    words: "pa.Array | list[str]", woff: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """FNV-1a 64 hashes of word k-shingles for MANY documents in one
    vectorized pass — WITHOUT materializing the gram strings.

    ``words`` is the concatenation of every document's (lowercased)
    tokens, ``woff`` (len n_docs+1) the per-doc offsets. Returns
    (gram_hashes, gram_offs): per doc, the hashes of
    ``fnv1a64(word_ngrams(doc_words, k))`` in the same order —
    bit-identical (parity-tested) because FNV is folded over exactly
    the bytes of ``" ".join(words[i:i+k])``: the j-th word's UTF-8
    bytes, then a 0x20 separator, word by word, straight from the
    Arrow string buffer. Docs with 0 < len < k produce the single
    all-words gram (word_ngrams semantics); empty docs produce none.

    This replaces per-doc ``" ".join`` gram construction + a second
    Arrow conversion of ~3x the word bytes — the dominant allocation
    churn of the fused analyze kernel (BASELINE.md scaling analysis).
    """
    arr = words if isinstance(words, (pa.Array, pa.ChunkedArray)) else pa.array(
        words, pa.large_string()
    )
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr = arr.cast(pa.large_binary())
    n_words = len(arr)
    # honor arr.offset: a zero-copy slice shares the parent's offsets
    # buffer, with this array's window starting at position arr.offset
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset : arr.offset + n_words + 1
    ]
    data = arr.buffers()[2]
    buf = np.frombuffer(data, dtype=np.uint8) if data is not None else np.empty(0, np.uint8)
    lens = off[1:] - off[:-1]
    starts = off[:-1]

    n_docs = len(woff) - 1
    W = np.diff(np.asarray(woff, dtype=np.int64))
    cnt = np.where(W == 0, 0, np.maximum(W - k + 1, 1))
    goff = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(cnt, out=goff[1:])
    total = int(goff[-1])
    if total == 0:
        return np.empty(0, dtype=np.uint64), goff
    gdoc = np.repeat(np.arange(n_docs, dtype=np.int64), cnt)
    within = np.arange(total, dtype=np.int64) - np.repeat(goff[:-1], cnt)
    g0 = np.asarray(woff[:-1], dtype=np.int64)[gdoc] + within
    glen = np.minimum(W[gdoc], k)  # short docs: one gram of all words

    h = np.full(total, _FNV_BASIS, dtype=np.uint64)
    space = np.uint64(0x20)
    with np.errstate(over="ignore"):
        for j in range(k):
            wm = glen > j
            if not wm.any():
                break
            wi = g0[wm] + j
            lj = lens[wi]
            sj = starts[wi]
            hj = h[wm]
            max_l = int(lj.max()) if len(lj) else 0
            for t in range(max_l):
                alive = lj > t
                c = buf[sj[alive] + t].astype(np.uint64)
                hj[alive] = (hj[alive] ^ c) * _FNV_PRIME
            h[wm] = hj
            sm = glen > j + 1
            if sm.any():
                h[sm] = (h[sm] ^ space) * _FNV_PRIME
    return h, goff


def unique_segments(vals: np.ndarray, offs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment ``np.unique`` in one vectorized pass.

    ``vals`` is the concatenation of n segments delimited by ``offs``
    (len n+1). Returns (unique_vals, new_offs) where each segment's
    slice is sorted-unique — elementwise identical to calling
    ``np.unique`` per segment (the batched path of the fused analyze
    stage relies on this; parity-tested in tests/test_analyze.py)."""
    n = len(offs) - 1
    if len(vals) == 0:
        return vals, np.zeros(n + 1, dtype=np.int64)
    seg = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
    order = np.lexsort((vals, seg))
    sv, ss = vals[order], seg[order]
    keep = np.ones(len(sv), dtype=bool)
    keep[1:] = (sv[1:] != sv[:-1]) | (ss[1:] != ss[:-1])
    uv, us = sv[keep], ss[keep]
    new_offs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(us, minlength=n), out=new_offs[1:])
    return uv, new_offs


def minhash_signatures_segments(
    shingles: np.ndarray, offs: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(n_segments, n_perm) MinHash signatures — one vectorized pass
    over the concatenated shingles instead of a Python call per
    document. Same arithmetic as ``tests/oracle.py::minhash_signature``
    (uint64 wraparound multiply + mod M61, same empty-set fill). Each
    permutation is its own 1-D pass, in place over one contiguous
    (n_shingles,) buffer, closed by ``np.minimum.reduceat`` over the
    segment starts. A segment may be a multiset: the minimum over
    repeated shingles is the minimum over their set, so callers need
    not dedup first."""
    n = len(offs) - 1
    n_perm = len(a)
    out = np.full((n, n_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if n == 0 or len(shingles) == 0:
        return out
    nonempty = offs[1:] > offs[:-1]
    if not nonempty.any():
        return out
    starts = np.asarray(offs[:-1])[nonempty]
    x = shingles.astype(np.uint64) % _MERSENNE
    y = np.empty_like(x)
    q = np.empty_like(x)
    with np.errstate(over="ignore"):
        for i in range(n_perm):
            np.multiply(a[i], x, out=y)
            y += b[i]
            # y % M61 without the 64-bit modulo: y = q*2^61 + low with
            # 2^61 ≡ 1 (mod M61), so y ≡ q + low; the sum is < 2^61+8,
            # one conditional subtract finishes (identical values to
            # np.mod — parity-tested, the subtract branch included)
            np.right_shift(y, np.uint64(61), out=q)
            y &= _MERSENNE
            y += q
            big = y >= _MERSENNE
            if big.any():
                np.subtract(y, _MERSENNE, out=y, where=big)
            out[nonempty, i] = np.minimum.reduceat(y, starts)
    return out


def simhash64_segments(feature_hashes: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """int64[n_segments] SimHash — vectorized over the concatenated
    per-doc feature-hash arrays. Bit-identical to the per-doc
    ``tests/oracle.py::simhash64`` per segment (the ±1 accumulation
    is exact in both int and float; empty segments hash to 0). Each
    byte of the hashes is unpacked into 8 bit columns and summed per
    segment; a segment sets bit j where its ones outnumber its zeros
    (2 * ones > length), and the 64 bits pack back into one uint64 per
    segment."""
    n = len(offs) - 1
    out = np.zeros(n, dtype=np.int64)
    if n == 0 or len(feature_hashes) == 0:
        return out
    nonempty = offs[1:] > offs[:-1]
    if not nonempty.any():
        return out
    starts = offs[:-1][nonempty]
    # byte j of the little-endian hash holds bits 8j..8j+7; one byte
    # column at a time, because reduceat's int64 cast copies its whole
    # input (512 B per feature for all 64 bits at once)
    by = np.ascontiguousarray(feature_hashes, dtype="<u8").view(np.uint8).reshape(-1, 8)
    ones = np.empty((len(starts), 64), dtype=np.int64)
    for j in range(8):
        bits = np.unpackbits(by[:, j : j + 1], axis=1, bitorder="little")
        ones[:, 8 * j : 8 * j + 8] = np.add.reduceat(bits, starts, axis=0, dtype=np.int64)
    pos = 2 * ones > np.diff(offs)[nonempty, None]
    out[nonempty] = np.packbits(pos, axis=1, bitorder="little").view("<i8").ravel()
    return out


def band_hashes_batch(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """(n_docs, n_bands) band hashes from (n_docs, n_perm) signatures —
    the batched twin of ``tests/oracle.py::band_hashes`` (identical
    FNV-style fold)."""
    n, n_perm = sigs.shape
    rows = n_perm // n_bands
    view = sigs[:, : rows * n_bands].reshape(n, n_bands, rows)
    out = np.zeros((n, n_bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for r in range(rows):
            out = out * np.uint64(0x100000001B3) ^ view[:, :, r]
    return out


def hamming64(a: np.ndarray, b) -> np.ndarray:
    """Vectorized Hamming distance between uint64 arrays/scalars
    (popcount via unpackbits on the byte view — no per-element loop)."""
    x = np.bitwise_xor(np.asarray(a, dtype=np.uint64), np.uint64(b) if np.isscalar(b) else np.asarray(b, dtype=np.uint64))
    x = np.atleast_1d(x)
    bytes_view = x.view(np.uint8).reshape(len(x), 8)
    return np.unpackbits(bytes_view, axis=1).sum(axis=1).astype(np.int64)


def hyperplanes(dim: int, n_planes: int, seed: int = 11) -> np.ndarray:
    """Deterministic gaussian-ish hyperplanes for embedding LSH
    (inverse-transform of counter-based uniforms)."""
    from ..utils import uniform01

    idx = np.arange(dim * n_planes, dtype=np.uint64)
    u = uniform01(mix64(np.uint64(seed), idx)).reshape(n_planes, dim)
    # Box-Muller needs pairs; a scaled inverse-ish approximation is
    # enough for LSH — any fixed continuous symmetric distribution works
    return np.arctanh(np.clip(2 * u - 1, -0.999999, 0.999999))


def embedding_bucket(X: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Sign-pattern bucket id per row (uint64, n_planes <= 64)."""
    signs = (X @ planes.T) > 0
    out = np.zeros(len(X), dtype=np.uint64)
    for j in range(planes.shape[0]):
        out |= signs[:, j].astype(np.uint64) << np.uint64(j)
    return out
