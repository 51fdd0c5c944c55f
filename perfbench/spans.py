"""Spans, counters and process measurements for the benchmark.

A ``Tracer`` times every call the benchmark makes into the program.
With ``keep=False`` (the untraced run) it only returns durations; with
``keep=True`` it also keeps each span (name, start, end, parent) and
counts Ray Data executions per top-level span, and ``dump`` writes the
spans out when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, keep: bool):
        self.keep = keep
        self.spans: list[dict] = []
        self.executions: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched = None

    @contextmanager
    def span(self, name: str, out: dict | None = None, key: str | None = None):
        """Time the block; add its duration to ``out[key]`` when given."""
        t0 = time.perf_counter()
        idx = None
        if self.keep:
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append({"name": name, "start": t0, "end": None, "parent": parent})
            self._stack.append(idx)
            # a stage that ran reports its count, 0 included
            self.executions.setdefault(self.current_stage(), 0)
        try:
            yield
        finally:
            t1 = time.perf_counter()
            if idx is not None:
                self.spans[idx]["end"] = t1
                self._stack.pop()
            if out is not None:
                out[key or name] = out.get(key or name, 0.0) + (t1 - t0)

    def current_stage(self) -> str:
        """Name of the outermost open span below the round, e.g. 'ingest'."""
        for idx in self._stack:
            name = self.spans[idx]["name"]
            if not name.startswith("round"):
                return name.split(".")[0]
        return "other"

    def count_executions(self) -> None:
        """Count Dataset executions by wrapping the streaming executor's
        entry point in this process, which submits every execution."""
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        orig = StreamingExecutor.execute
        tracer = self

        def execute(self_, *args, **kwargs):
            stage = tracer.current_stage()
            tracer.executions[stage] = tracer.executions.get(stage, 0) + 1
            return orig(self_, *args, **kwargs)

        StreamingExecutor.execute = execute
        self._patched = (StreamingExecutor, orig)

    def close(self) -> None:
        if self._patched is not None:
            cls, orig = self._patched
            cls.execute = orig
            self._patched = None

    def dump(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        base = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as f:
            f.write(json.dumps({"meta": meta}) + "\n")
            for i, s in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s["name"],
                            "start": round(s["start"] - base, 6),
                            "end": round((s["end"] or s["start"]) - base, 6),
                            "parent": s["parent"],
                        }
                    )
                    + "\n"
                )


def process_start_time() -> float:
    """Wall-clock time this process started, from /proc."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    with open("/proc/stat") as f:
        btime = next(int(line.split()[1]) for line in f if line.startswith("btime"))
    return btime + start_ticks / os.sysconf("SC_CLK_TCK")


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it, from /proc."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, []))
    return out


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of each process's peak resident set (VmHWM), in MB."""
    total_kb = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    PR_SET_CHILD_SUBREAPER), so that Ray workers whose raylet has gone
    become this process's children and ``stop_all`` can wait for them."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_all(pids: list[int], timeout: float = 15.0) -> None:
    """Wait for ``pids`` to exit; SIGKILL any still alive after
    ``timeout``; then reap every child of this process that has ended."""
    import signal

    def alive(p: int) -> bool:
        try:
            with open(f"/proc/{p}/stat") as f:
                return f.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False

    deadline = time.time() + timeout
    while any(alive(p) for p in pids) and time.time() < deadline:
        time.sleep(0.1)
    for p in pids:
        if alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.time() + 5.0
    while any(alive(p) for p in pids) and time.time() < deadline:
        time.sleep(0.05)
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break
