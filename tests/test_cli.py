"""Job-submission entry point, exercised exactly as `ray job submit`
would run it: `python -m distributed_graph_computing_platform_ray ...` in a fresh process that owns
its own Ray session (the driver command a job submission wraps —
north_rule names `ray job submit`; this container ships ray[data]
without the ray[default] jobs CLI/dashboard, so the HTTP job server
itself cannot run here — the submitted COMMAND is what this verifies).

Reference analog: the client process submitting "<App> <file>" to the
master (/root/reference/client/client.go:31-106) and the master's
top-25 report (master/master.go:307-341).
"""

import os
import re
import shutil
import subprocess
import sys

from . import oracle

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TMP = "/tmp/graft_tests/cli"


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=REPO, RAY_ADDRESS="local")
    return subprocess.run(
        [sys.executable, "-m", "distributed_graph_computing_platform_ray", *args],
        capture_output=True, text=True, timeout=420, env=env, cwd=REPO,
    )


def test_cli_ingest_and_run_pagerank(fixtures_dir):
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP, exist_ok=True)

    r = _run("ingest", "--edges", os.path.join(fixtures_dir, "graph_small.txt"),
             "--graph", f"{TMP}/graph", "--parts", "4")
    assert r.returncode == 0, r.stderr[-2000:]
    assert re.search(r"built graph: 23 vertices", r.stdout), r.stdout

    r = _run("run", "--graph", f"{TMP}/graph", "--work", f"{TMP}/pr",
             "--algo", "pagerank", "--iters", "10", "--out", f"{TMP}/out")
    assert r.returncode == 0, r.stderr[-2000:]
    assert "top-25 by value:" in r.stdout
    # 23 vertices -> 23 report lines, "<vertex>\t<score>" like the
    # reference master's printout
    lines = [ln for ln in r.stdout.splitlines() if re.fullmatch(r"\s+\d+\t[\d.e-]+", ln)]
    assert len(lines) == 23, r.stdout
    assert os.path.exists(f"{TMP}/out")


def test_cli_run_top25_matches_oracle(fixtures_dir):
    """The CLI's top-25 report equals the 25 highest scores of
    tests/oracle.py::pagerank, in order."""
    r = _run("run", "--graph", f"{TMP}/graph", "--work", f"{TMP}/pr5",
             "--algo", "pagerank", "--iters", "5")
    assert r.returncode == 0, r.stderr[-2000:]
    got = [ln.split("\t") for ln in r.stdout.splitlines() if "\t" in ln]
    exp = oracle.pagerank(
        oracle.parse_edge_file(os.path.join(fixtures_dir, "graph_small.txt")), num_iters=5
    )
    want = sorted(exp.items(), key=lambda kv: (-kv[1], str(kv[0])))[:25]
    assert len(got) == len(want)
    for (v, x), (wv, wx) in zip(got, want):
        assert abs(float(x) - wx) < 1e-9, (v, x, wv, wx)
        assert abs(exp[int(v)] - wx) < 1e-9, (v, wv)  # ties may swap order


def test_cli_extract_resumable(tmp_path):
    """extract subcommand: resumable partitioned (url, text) sink."""
    import ray

    pages_dir = str(tmp_path / "pages")
    out_dir = str(tmp_path / "text")
    # generate a small pages parquet in-process (fresh subprocesses own
    # their Ray sessions; this fixture write uses ours)
    from distributed_graph_computing_platform_ray.sources.pages import write_pages

    write_pages(200, pages_dir)

    r = _run("extract", "--pages", pages_dir, "--out", out_dir, "--partitions", "8")
    assert r.returncode == 0, r.stderr[-2000:]
    assert "extracted text" in r.stdout and "skipped finished []" in r.stdout

    # second run: everything already done
    r2 = _run("extract", "--pages", pages_dir, "--out", out_dir, "--partitions", "8")
    assert r2.returncode == 0, r2.stderr[-2000:]
    assert "wrote partitions []" in r2.stdout, r2.stdout
    assert "skipped finished [0, 1, 2, 3, 4, 5, 6, 7]" in r2.stdout, r2.stdout

    from distributed_graph_computing_platform_ray.stages.sink import read_partitioned

    back = read_partitioned(out_dir).to_pandas()
    assert len(back) == 200 and set(back.columns) >= {"url", "text"}


def test_cli_ppr_with_seeds(fixtures_dir):
    """ppr + --seeds through the job-submission surface."""
    d = f"{TMP}/pprcli"
    shutil.rmtree(d, ignore_errors=True)
    r = _run("ingest", "--edges", os.path.join(fixtures_dir, "graph_tiny.txt"),
             "--graph", f"{d}/graph", "--parts", "2")
    assert r.returncode == 0, r.stderr[-2000:]
    r = _run("run", "--graph", f"{d}/graph", "--work", f"{d}/ppr",
             "--algo", "ppr", "--seeds", "1,2", "--iters", "5")
    assert r.returncode == 0, r.stderr[-2000:]
    assert "top-25 by value:" in r.stdout


def test_cli_fsck_detects_corruption(fixtures_dir):
    """fsck (the SDFS REPAIR/checksum role): green on a healthy graph,
    nonzero exit + flagged partition after a shard byte flip."""
    gdir = f"{TMP}/fsck_graph"
    shutil.rmtree(gdir, ignore_errors=True)
    r = _run("ingest", "--edges", os.path.join(fixtures_dir, "graph_small.txt"),
             "--graph", gdir, "--parts", "4")
    assert r.returncode == 0, r.stderr[-2000:]

    r = _run("fsck", "--graph", gdir)
    assert r.returncode == 0, r.stdout + r.stderr[-2000:]
    assert "fsck OK" in r.stdout

    # flip one byte in partition 1's indices shard
    path = f"{gdir}/csr/part-00001.indices.npy"
    with open(path, "r+b") as f:
        f.seek(-1, os.SEEK_END)
        b = f.read(1)
        f.seek(-1, os.SEEK_END)
        f.write(bytes([b[0] ^ 0xFF]))

    r = _run("fsck", "--graph", gdir)
    assert r.returncode == 3, r.stdout
    assert "FSCK FAILED: 1 partition" in r.stdout
