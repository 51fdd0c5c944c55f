"""Per-worker-process instance cache for stateless map_batches stages.

Actor pools (``map_batches(Cls, concurrency=N)``) pay ~0.5-1 s spin-up
PER EXECUTION x pool size (NOTES.md), which dominates short stages.
Ray worker processes, by contrast, outlive executions — so a plain
task function that lazily builds its stage object ONCE per worker
process gets the same setup amortization with zero ramp-up, and the
streaming executor can run it on any idle worker instead of a pinned
pool. Use actor pools only for stages whose setup is genuinely heavy
relative to execution length (model weights, codec contexts —
stages/multimodal.py keeps them deliberately).

``worker_cached(key, factory)``: build-once-per-worker lookup. Keys
must be unique per distinct state (broadcast ObjectRef hex, class
name + kwargs) — the cache is process-global and never evicted, which
is safe because entries are small handles to object-store data, not
copies of it (ray.get of a plasma object is shared-memory backed).
The exception is ``stages/join.py::broadcast_lookup``, whose entries
are built indexes; it keeps only the newest one.
"""

from __future__ import annotations

_CACHE: dict = {}


def worker_cached(key, factory):
    st = _CACHE.get(key)
    if st is None:
        st = _CACHE[key] = factory()
    return st
