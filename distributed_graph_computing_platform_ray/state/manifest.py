"""Graph-on-disk layout and its manifest.

A built graph lives in one directory:

    graph_dir/
      manifest.json                  # N, parts, per-partition lineage
      vertices/part-00000.parquet    # (id:int64, key:string) sorted by id
      csr/part-00000.indptr.npy      # CSR over the partition's local ids
      csr/part-00000.indices.npy     # global dst ids
      csr/part-00000.weights.npy     # optional (absent => weight 1.0)

Vertex ids are dense int64 in [0, N). Partitioning is by contiguous id
RANGE: partition p owns ids [p*part_size, min((p+1)*part_size, N)).
Range partitioning makes routing a pure arithmetic function
(``id // part_size``) — the Ray-native replacement for the reference's
fully-replicated ``idToVM`` routing map
(/root/reference/worker/worker.go:61,146-147) and its FNV placement
(/root/reference/utility/util.go:59-64); placement is not part of
output semantics, so we do not replicate the FNV quirk (SURVEY.md M3).

The manifest carries per-partition lineage (row counts + checksums) so
a resumed or repaired run can validate its inputs — the role SDFS
replication metadata played in the reference (sdfs/sdfs.go:55-59),
done here with immutable files + checksums instead of quorum writes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..utils import atomic_write_json, ceil_div


@dataclass
class GraphManifest:
    graph_dir: str
    n_vertices: int
    n_edges_directed: int
    part_size: int
    n_parts: int
    weighted: bool = False
    n_buckets: int = 64
    symmetrized: bool = True
    keys_numeric: bool = False  # True iff every vertex key parses as int
    parts: list[dict] = field(default_factory=list)
    source: dict = field(default_factory=dict)
    # per-BUILD nonce: distinguishes two builds at the same path whose
    # adjacency CRCs coincide but whose vertex keys / weights differ
    # (e.g. relabeled graphs with identical structure) — caught by a
    # hypothesis property test serving stale key arrays from the
    # worker-process caches
    build_id: str = ""
    # which builder wrote the graph: build_graph records "local",
    # "broadcast" or "join" (ingest.py), patch_graph/delete_edges their
    # encode path, build_graph_encoded "encoded"; "" in manifests
    # written before the field existed
    build: str = ""

    def __post_init__(self):
        if not self.build_id:
            import uuid

            self.build_id = uuid.uuid4().hex

    # -- paths -------------------------------------------------------------
    def vertices_path(self, part: int) -> str:
        return os.path.join(self.graph_dir, "vertices", f"part-{part:05d}.parquet")

    def csr_path(self, part: int, kind: str) -> str:
        return os.path.join(self.graph_dir, "csr", f"part-{part:05d}.{kind}.npy")

    # -- partition arithmetic ---------------------------------------------
    def part_of(self, ids):
        return ids // self.part_size

    def part_bounds(self, part: int) -> tuple[int, int]:
        lo = part * self.part_size
        return lo, min(lo + self.part_size, self.n_vertices)

    def part_n_local(self, part: int) -> int:
        lo, hi = self.part_bounds(part)
        return hi - lo

    def part_fingerprint(self, part: int) -> str:
        """Cache key for worker-side shard/key caches: the per-BUILD
        nonce plus the partition's CSR checksum, so a graph rebuilt at
        the same path within one Ray session can never be served stale
        from a long-lived worker process — even when the rebuilt
        adjacency is byte-identical but the vertex keys or weights
        differ (crc_indices alone collided there)."""
        m = self.__dict__.get("_crc_map")
        if m is None:
            m = {int(r["part"]): int(r.get("crc_indices", 0)) for r in self.parts}
            self.__dict__["_crc_map"] = m
        return f"{self.build_id}:{m.get(int(part), 0)}"

    # -- persistence -------------------------------------------------------
    def save(self) -> None:
        obj = {
            "n_vertices": self.n_vertices,
            "n_edges_directed": self.n_edges_directed,
            "part_size": self.part_size,
            "n_parts": self.n_parts,
            "weighted": self.weighted,
            "n_buckets": self.n_buckets,
            "symmetrized": self.symmetrized,
            "keys_numeric": self.keys_numeric,
            "parts": sorted(self.parts, key=lambda r: r["part"]),
            "source": self.source,
            "build_id": self.build_id,
            "build": self.build,
        }
        atomic_write_json(os.path.join(self.graph_dir, "manifest.json"), obj)

    @classmethod
    def load(cls, graph_dir: str) -> "GraphManifest":
        path = os.path.join(graph_dir, "manifest.json")
        with open(path) as f:
            obj = json.load(f)
        if not obj.get("build_id"):
            # legacy manifest (pre-nonce): derive a nonce that is STABLE
            # across loads of the same file (cache hits survive) but
            # changes when the graph is rebuilt (manifest rewritten)
            obj["build_id"] = f"legacy-{int(os.path.getmtime(path) * 1e6)}"
        return cls(graph_dir=graph_dir, **obj)

    @classmethod
    def plan(cls, graph_dir: str, n_vertices: int, n_parts: int) -> tuple[int, int]:
        """Choose (part_size, n_parts) for a vertex count.

        ``n_parts`` is the requested parallelism; the actual part count
        shrinks for tiny graphs so no partition is empty.
        """
        part_size = max(1, ceil_div(n_vertices, max(1, n_parts)))
        return part_size, ceil_div(n_vertices, part_size)
