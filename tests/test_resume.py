"""Checkpoint/resume: killing a run mid-way and resuming must produce
bit-identical final state to an unbroken run (FIXTURES.md §4)."""

import json
import os
import shutil
import signal

import pyarrow.parquet as pq
import pytest

from distributed_graph_computing_platform_ray.algorithms import PageRank
from distributed_graph_computing_platform_ray.engine import BSPEngine, CheckpointError
from distributed_graph_computing_platform_ray.pipelines.ingest import build_graph
from distributed_graph_computing_platform_ray.sources.edge_list import read_edge_list
from distributed_graph_computing_platform_ray.state.manifest import GraphManifest

TMP = "/tmp/graft_tests/resume"


def _state_bytes(work_dir, it):
    """Full state content of a checkpoint, filename-independent."""
    d = os.path.join(work_dir, "state", f"iter={it:04d}")
    frames = [
        pq.read_table(os.path.join(d, name)).to_pandas()
        for name in sorted(os.listdir(d))
        if name.endswith(".parquet")
    ]
    import pandas as pd

    return pd.concat(frames).sort_values("id").reset_index(drop=True).to_csv(index=False)


def test_resume_bit_identical(fixtures_dir):
    gdir = f"{TMP}/graph"
    shutil.rmtree(TMP, ignore_errors=True)
    build_graph(
        read_edge_list(os.path.join(fixtures_dir, "graph_small.txt")),
        gdir, n_parts=4, n_buckets=8, dedup=False,
    )
    man = GraphManifest.load(gdir)

    # unbroken run
    full = BSPEngine(man, f"{TMP}/full")
    final_full = full.run(PageRank(man.n_vertices, num_iters=12))

    # broken run: stop after 5 supersteps by running a truncated algo,
    # then resume with the full one from the checkpointed state
    broken = BSPEngine(man, f"{TMP}/broken")
    broken.run(PageRank(man.n_vertices, num_iters=5))
    assert broken._complete_iters()[-1] == 5
    final_resumed = broken.run(PageRank(man.n_vertices, num_iters=12), resume=True)

    assert final_full == final_resumed == 12
    assert _state_bytes(f"{TMP}/full", 12) == _state_bytes(f"{TMP}/broken", 12)


def test_resume_ignores_incomplete_checkpoint(fixtures_dir):
    """A checkpoint dir without its _DONE marker (crash mid-write) must
    be ignored; resume restarts from the last COMPLETE one."""
    man = GraphManifest.load(f"{TMP}/graph")
    eng = BSPEngine(man, f"{TMP}/crash")
    eng.run(PageRank(man.n_vertices, num_iters=6), checkpoint_interval=2)
    # simulate a crash mid-checkpoint: iter 6 loses its marker
    os.remove(os.path.join(eng.iter_dir(6), "_DONE.json"))
    assert eng._complete_iters()[-1] == 4
    final = eng.run(PageRank(man.n_vertices, num_iters=12), resume=True, checkpoint_interval=2)
    assert final == 12
    ref = BSPEngine(man, f"{TMP}/crash_ref")
    ref.run(PageRank(man.n_vertices, num_iters=12), checkpoint_interval=2)
    assert _state_bytes(f"{TMP}/crash", 12) == _state_bytes(f"{TMP}/crash_ref", 12)


def _kill_once(marker):
    """SIGKILL this Ray worker process unless ``marker`` exists: real
    process death, not an exception. The marker (created O_EXCL) limits
    the kill to one task attempt, so Ray's task retry + lineage
    reconstruction must finish the job."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # already killed once; retried attempt proceeds
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


class _KillOncePageRank(PageRank):
    """PageRank whose scatter (``message_base``) kills its worker
    (``_kill_once``) the first time a given superstep runs."""

    kill_in = "message_base"

    def __init__(self, n_vertices, num_iters, kill_marker, kill_superstep):
        super().__init__(n_vertices, num_iters=num_iters)
        self.kill_marker = kill_marker
        self.kill_superstep = kill_superstep

    def _maybe_kill(self, hook, superstep):
        if hook == self.kill_in and superstep == self.kill_superstep:
            _kill_once(self.kill_marker)

    def message_base(self, ids, values, degrees, superstep):
        self._maybe_kill("message_base", superstep)
        return super().message_base(ids, values, degrees, superstep)

    def apply(self, old_values, agg, has_msg, superstep):
        self._maybe_kill("apply", superstep)
        return super().apply(old_values, agg, has_msg, superstep)


class _KillOnceApplyPageRank(_KillOncePageRank):
    """The same kill inside ``apply``: mid-step, after the inbox is
    reduced and before the step scatters or writes its checkpoint."""

    kill_in = "apply"


@pytest.mark.parametrize("executor", ["tasks", "local"])
def test_worker_kill_mid_superstep_bit_identical(fixtures_dir, executor, use_executor):
    """The reference survives worker failures by restarting the whole
    job from superstep 0 (master/master.go:431-445, README.md:9-10).
    Here a SIGKILLed worker mid-scatter costs one task retry — a scatter
    task, or the whole chunk task on the local executor: the run
    completes and the final state is bit-identical to an unbroken run."""
    use_executor(executor)
    man = GraphManifest.load(f"{TMP}/graph")

    clean = BSPEngine(man, f"{TMP}/fault_ref_{executor}")
    clean.run(PageRank(man.n_vertices, num_iters=8))

    marker = f"{TMP}/killed_once_{executor}"
    if os.path.exists(marker):
        os.remove(marker)
    eng = BSPEngine(man, f"{TMP}/fault_{executor}")
    final = eng.run(
        _KillOncePageRank(man.n_vertices, num_iters=8, kill_marker=marker, kill_superstep=3)
    )
    assert final == 8
    assert os.path.exists(marker), "kill was never triggered"
    assert _state_bytes(f"{TMP}/fault_{executor}", 8) == _state_bytes(
        f"{TMP}/fault_ref_{executor}", 8
    )


@pytest.mark.parametrize("executor", ["tasks", "local"])
@pytest.mark.parametrize("kill_superstep", [4, 5], ids=["then_scatter", "then_checkpoint"])
def test_worker_kill_in_apply_bit_identical(fixtures_dir, executor, kill_superstep, use_executor):
    """With checkpoint_interval=3 the chunk of supersteps 3-5 goes on to
    scatter after superstep 4's apply and writes iter 6 after superstep
    5's. A worker SIGKILLed inside either apply costs one retry of its
    step task (or of the chunk task on the local executor), and both
    iter 6 and the final state are bit-identical to an unbroken run."""
    use_executor(executor)
    man = GraphManifest.load(f"{TMP}/graph")
    ref = f"{TMP}/apply_kill_ref_{executor}"
    BSPEngine(man, ref).run(PageRank(man.n_vertices, num_iters=8), checkpoint_interval=3)

    marker = f"{TMP}/apply_killed_{executor}_{kill_superstep}"
    if os.path.exists(marker):
        os.remove(marker)
    work = f"{TMP}/apply_kill_{executor}_{kill_superstep}"
    algo = _KillOnceApplyPageRank(
        man.n_vertices, num_iters=8, kill_marker=marker, kill_superstep=kill_superstep
    )
    assert BSPEngine(man, work).run(algo, checkpoint_interval=3) == 8
    assert os.path.exists(marker), "kill was never triggered"
    for it in (6, 8):
        assert _state_bytes(work, it) == _state_bytes(ref, it)


def _drop_part(path):
    os.remove(path)


def _truncate_part(path):
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[: len(data) // 2])


def _short_part(path):
    t = pq.read_table(path)
    pq.write_table(t.slice(0, t.num_rows - 1), path)


@pytest.mark.parametrize("executor", ["tasks", "local"])
@pytest.mark.parametrize("damage", [_drop_part, _truncate_part, _short_part])
def test_resume_from_damaged_checkpoint_fails_loudly(fixtures_dir, executor, damage, use_executor):
    """A checkpoint with its _DONE.json marker but a missing, truncated
    or short part file must stop resume with a CheckpointError naming
    the file — never resume from zero rows of a partition."""
    use_executor(executor)
    man = GraphManifest.load(f"{TMP}/graph")
    eng = BSPEngine(man, f"{TMP}/damaged_{executor}_{damage.__name__}")
    eng.run(PageRank(man.n_vertices, num_iters=4), checkpoint_interval=2)
    path = os.path.join(eng.iter_dir(4), "part-00002.parquet")
    damage(path)
    with pytest.raises(CheckpointError, match="part-00002.parquet"):
        eng.run(PageRank(man.n_vertices, num_iters=6), resume=True, checkpoint_interval=2)


@pytest.mark.parametrize("executor", ["tasks", "local"])
def test_resume_past_garbage_done_marker(fixtures_dir, executor, use_executor):
    """Resume reads only whether an iter's _DONE.json exists, never what
    it holds: with garbage bytes in the newest marker the run resumes
    from that iter (whose parts ``_check_checkpoint`` still checks), and
    the final part files are byte-identical to an unbroken run's."""
    use_executor(executor)
    man = GraphManifest.load(f"{TMP}/graph")
    ref = BSPEngine(man, f"{TMP}/garbage_done_ref_{executor}")
    ref.run(PageRank(man.n_vertices, num_iters=8), checkpoint_interval=2)

    work = f"{TMP}/garbage_done_{executor}"
    eng = BSPEngine(man, work)
    eng.run(PageRank(man.n_vertices, num_iters=4), checkpoint_interval=2)
    with open(os.path.join(eng.iter_dir(4), "_DONE.json"), "wb") as f:
        f.write(b"\x00\xff{not json")
    assert eng.run(PageRank(man.n_vertices, num_iters=8), resume=True, checkpoint_interval=2) == 8
    with open(os.path.join(work, "run.json")) as f:
        assert [h["superstep"] for h in json.load(f)["history"]] == [6, 8]
    for p in range(man.n_parts):
        name = f"part-{p:05d}.parquet"
        with open(os.path.join(eng.iter_dir(8), name), "rb") as a, open(
            os.path.join(ref.iter_dir(8), name), "rb"
        ) as b:
            assert a.read() == b.read()


def test_resume_skips_complete_iterations(fixtures_dir):
    man = GraphManifest.load(f"{TMP}/graph")
    eng = BSPEngine(man, f"{TMP}/noop")
    eng.run(PageRank(man.n_vertices, num_iters=3))
    # resuming a finished run re-runs nothing (already at max supersteps)
    assert eng.run(PageRank(man.n_vertices, num_iters=3), resume=True) == 3
