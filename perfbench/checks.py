"""Check one round's outputs against references built from the inputs.

``References`` is built once per input directory from the generator's
files (record.json for pages, the edge Parquet for powerlaw) and then
checks every round. Each check returns a list of problems; an empty
list means the round's outputs are correct.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow.parquet as pq

import gen
import reference as R


def _dense_ids(graph_dir: str, g: R.Graph) -> np.ndarray:
    """The program's dense id of each reference vertex (by key)."""
    t = pq.read_table(os.path.join(graph_dir, "vertices"))
    keys = np.asarray(t["key"].to_pylist(), dtype=object).astype(g.keys.dtype)
    ids = t["id"].to_numpy()
    order = np.argsort(keys)
    pos = np.searchsorted(keys[order], g.keys)
    pos = np.minimum(pos, len(keys) - 1)
    found = keys[order][pos] == g.keys
    return np.where(found, ids[order][pos], -1)


class References:
    def __init__(self, kind: str, inputs: str, pr_iters: int, lp_iters: int):
        self.kind = kind
        self.pr_iters, self.lp_iters = pr_iters, lp_iters
        with open(os.path.join(inputs, "meta.json")) as f:
            source = json.load(f)["sssp_source"]
        if kind == "powerlaw":
            t = pq.read_table(os.path.join(inputs, "edges"))
            self.g = R.Graph.from_pairs(
                t["src_key"].to_numpy(zero_copy_only=False).astype(np.int64),
                t["dst_key"].to_numpy(zero_copy_only=False).astype(np.int64),
            )
            self.source = int(source)
            self.record = None
        else:
            self.record = gen.load_record(inputs)
            pairs = sorted(self.record.edge_pairs())
            self.g = R.Graph.from_pairs(
                np.array([p[0] for p in pairs], dtype=object).astype(str),
                np.array([p[1] for p in pairs], dtype=object).astype(str),
            )
            self.source = source
        self._cache: dict = {}

    def _once(self, name, fn):
        if name not in self._cache:
            self._cache[name] = fn()
        return self._cache[name]

    def keys_of(self, col) -> np.ndarray:
        """Program vertex keys (strings) in the reference's key type."""
        keys = np.asarray(col, dtype=object)
        return keys.astype(np.int64) if self.kind == "powerlaw" else keys.astype(str)

    # -- per-output checks -------------------------------------------------
    def check_graph(self, man) -> list[str]:
        out = []
        if man.n_vertices != self.g.n:
            out.append(f"graph: {man.n_vertices} vertices, reference {self.g.n}")
        if man.n_edges_directed != 2 * self.g.n_pairs:
            out.append(f"graph: {man.n_edges_directed} directed edges, reference {2 * self.g.n_pairs}")
        return out

    def label_of_vertex(self, graph_dir: str) -> np.ndarray:
        """CC/LP start labels: numeric keys as themselves, urls as dense ids."""
        if self.kind == "powerlaw":
            return self.g.keys.astype(np.float64)
        return _dense_ids(graph_dir, self.g).astype(np.float64)

    def check_algorithms(self, outputs: dict, graph_dir: str) -> list[str]:
        g, out = self.g, []
        pr = outputs["pagerank"]
        ref_pr = self._once("pr", lambda: R.pagerank(g, self.pr_iters))
        out += R.check_close("pagerank", g, self.keys_of(pr["vertex"]), pr["value"], ref_pr)
        labels = self.label_of_vertex(graph_dir)
        if (labels < 0).any():
            out.append("graph: vertices missing from the vertices files")
            return out
        cc = outputs["cc"]
        out += R.check_components(g, self.keys_of(cc["vertex"]), cc["value"], labels)
        if "lp" in outputs:
            lp = outputs["lp"]
            ref_lp = self._once(("lp", labels.tobytes()), lambda: R.label_propagation(g, labels, self.lp_iters))
            out += R.check_equal("lp", g, self.keys_of(lp["vertex"]), lp["value"], ref_lp)
        if "sssp" in outputs:
            ss = outputs["sssp"]
            src = int(np.searchsorted(g.keys, self.source))
            ref_ss = self._once("sssp", lambda: R.bfs_hops(g, src))
            out += R.check_equal("sssp", g, self.keys_of(ss["vertex"]), ss["value"], ref_ss)
        if "top_k" in outputs:
            out += self._check_top_k(outputs["top_k"], ref_pr)
        if "triangles" in outputs:
            ref_t = self._once("triangles", lambda: R.triangles(g))
            if outputs["triangles"] != ref_t:
                out.append(f"triangles: {outputs['triangles']}, reference {ref_t}")
        return out

    def _check_top_k(self, top, ref_pr: np.ndarray) -> list[str]:
        k = len(top)
        best = np.sort(ref_pr)[::-1][:k]
        pos = np.searchsorted(self.g.keys, self.keys_of(top["vertex"]))
        pos = np.minimum(pos, self.g.n - 1)
        if k != min(25, self.g.n) or not np.array_equal(self.g.keys[pos], self.keys_of(top["vertex"])):
            return [f"top_k: {k} rows or unknown vertices"]
        vals = top["value"].to_numpy()
        if not (np.allclose(vals, best, rtol=1e-6, atol=0) and np.allclose(ref_pr[pos], vals, rtol=1e-6, atol=0)):
            return ["top_k: values are not the 25 highest PageRank scores"]
        return []

    def check_analyze(self, df) -> list[str]:
        rec, out = self.record, []
        if len(df) != len(rec.urls) or sorted(df["url"]) != sorted(rec.urls):
            return [f"analyze: {len(df)} rows for {len(rec.urls)} pages, or other urls"]
        df = df.set_index("url").loc[rec.urls]
        bands = df["band_hashes"].to_numpy()
        if any(len(b) != 16 for b in bands):
            out.append("analyze: a row without 16 band hashes")
        got = df["n_links"].to_numpy()
        want = rec.n_links()
        if not np.array_equal(got, want):
            i = int(np.flatnonzero(got != want)[0])
            out.append(f"analyze: n_links of {rec.urls[i]} is {got[i]}, the page has {want[i]}")
        simhash = df["simhash"].to_numpy()
        for group in rec.dup_groups:
            if len({int(simhash[i]) for i in group}) != 1 or len({tuple(bands[i]) for i in group}) != 1:
                out.append(f"analyze: identical pages {group[:3]} got different simhash or bands")
                break
        return out

    def check_resume(self, outputs: dict, stops: dict) -> list[str]:
        out = []
        for name, stop in stops.items():
            first_final, second_first_step = outputs[f"{name}_legs"]
            if first_final != stop or second_first_step != stop + 1:
                out.append(
                    f"resume: {name} first leg ended at {first_final}, second leg began "
                    f"at superstep {second_first_step}; expected {stop} and {stop + 1}"
                )
        return out
