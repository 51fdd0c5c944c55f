"""Batched document classification — the model-inference stage shape.

A real training-data pipeline runs batched model inference (quality
classifiers, toxicity filters, language models) as a map_batches
stage: weights load once in ``__init__``, every ``__call__`` scores one
Arrow batch vectorized. The classifier here is a deterministic integer
stand-in for such a model — hashed bag-of-words features against
signed hash-derived weights:

    score(doc, c) = sum over token occurrences of
                    (splitmix64(fnv1a64(token) XOR c) % 1001) - 500
    label(doc)    = argmax_c score (ties -> lowest class)

so the whole "inference" is exactly reproducible in SQL (FNV +
splitmix replayed in the oracle) while exercising the same plumbing a
real model needs: one-time setup, vectorized batch scoring, bounded
batch sizes. Its state is three small fields, so callers build it once
per worker process with ``stages/taskify.py::worker_cached`` inside a
plain task; a real model with heavy weights would move to an actor
pool. Swap ``_weights`` for a real model's forward pass and nothing
else changes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import fnv1a64
from ..utils import splitmix64


class HashClassifier:
    """Batch scorer: ``HashClassifier()(table)`` -> (doc_id, label, score)."""

    def __init__(
        self,
        n_classes: int = 4,
        id_col: str = "doc_id",
        text_col: str = "text",
        keep_cols: tuple = (),
    ):
        # "model load": for a real model this is the expensive part,
        # paid once per worker process — not per batch
        self.n_classes = n_classes
        self.id_col = id_col
        self.text_col = text_col
        self.keep_cols = tuple(keep_cols)  # passed through aligned to output rows
        self.class_ids = np.arange(n_classes, dtype=np.uint64)

    def _weights(self, h: np.ndarray) -> np.ndarray:
        """(n_tokens, n_classes) signed integer weights in [-500, 500]."""
        cols = [
            (splitmix64(h ^ c) % np.uint64(1001)).astype(np.int64) - 500
            for c in self.class_ids
        ]
        return np.stack(cols, axis=1)

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t[self.id_col].to_numpy()
        texts = t[self.text_col].to_pylist()
        doc_idx, tokens = [], []
        for i, txt in enumerate(texts):
            ts = str(txt).split()
            tokens.extend(ts)
            doc_idx.extend([i] * len(ts))
        keep = [i for i, txt in enumerate(texts) if str(txt).split()]
        if not tokens:
            cols = {
                "doc_id": pa.array([], pa.int64()),
                "label": pa.array([], pa.int64()),
                "score": pa.array([], pa.int64()),
            }
            for c in self.keep_cols:
                cols[c] = t[c].slice(0, 0)
            return pa.table(cols)
        doc_idx = np.asarray(doc_idx, dtype=np.int64)
        h = fnv1a64(tokens)
        w = self._weights(h)  # (n_tok, k)
        scores = np.zeros((len(texts), self.n_classes), dtype=np.int64)
        np.add.at(scores, doc_idx, w)
        labels = np.argmax(scores, axis=1)  # first max = lowest class
        best = scores[np.arange(len(texts)), labels]
        keep = np.asarray(keep, dtype=np.int64)
        cols = {
            "doc_id": pa.array(ids[keep].astype(np.int64)),
            "label": pa.array(labels[keep].astype(np.int64)),
            "score": pa.array(best[keep]),
        }
        for c in self.keep_cols:
            cols[c] = t[c].take(pa.array(keep))
        return pa.table(cols)
