import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def fixtures_dir():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


# engine.LOCAL_MAX_EDGES values that force each BSP executor
EXECUTORS = {"local": 1 << 62, "tasks": -1}


@pytest.fixture
def use_executor(monkeypatch):
    """``use_executor("local" | "tasks")`` forces the BSP engine's
    executor for every run after it in the test."""
    from distributed_graph_computing_platform_ray import engine

    def use(name: str) -> None:
        monkeypatch.setattr(engine, "LOCAL_MAX_EDGES", EXECUTORS[name])

    return use


# ingest settings (LOCAL_BUILD_MAX_ROWS, BROADCAST_DICT_LIMIT) that force
# each build_graph builder
BUILDERS = {"local": (1 << 62, 1 << 62), "broadcast": (-1, 1 << 62), "join": (-1, 0)}


def force_builder(mp: pytest.MonkeyPatch, name: str) -> None:
    """Force build_graph's builder through ``mp``; ``broadcast`` and
    ``join`` also force patch_graph's and delete_edges' encode."""
    from distributed_graph_computing_platform_ray.pipelines import ingest

    rows, keys = BUILDERS[name]
    mp.setattr(ingest, "LOCAL_BUILD_MAX_ROWS", rows)
    mp.setattr(ingest, "BROADCAST_DICT_LIMIT", keys)


@pytest.fixture
def use_builder(monkeypatch):
    """``use_builder("local" | "broadcast" | "join")`` forces
    build_graph's builder for every build after it in the test."""
    return lambda name: force_builder(monkeypatch, name)
