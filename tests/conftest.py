"""Session-scoped Ray fixture: init ONCE per pytest session (driver contract)."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
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


def write_keyspace_sidecars(files: list, out_dir: str) -> list:
    """Key-space sidecars of parquet ``files``, written with the calls
    ``PartitionValidator._one`` makes; returns the ``parts`` that
    ``keyspace_from_states`` takes."""
    from teleharvest_ray.stages.keyspace import prep_state, write_sidecars

    parts = []
    for i, f in enumerate(files):
        st = prep_state(pq.read_table(f, columns=["conv_id", "turn_idx"]))
        parts.append((f, *write_sidecars(st, out_dir, f"p{i}")[:2]))
    return parts


def session_cpus_free(timeout_s: float = 10.0) -> bool:
    """Whether every CPU of the Ray session is free within ``timeout_s``."""
    import time

    import ray

    total = ray.cluster_resources()["CPU"]
    deadline = time.monotonic() + timeout_s
    while ray.available_resources().get("CPU", 0) < total:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.1)
    return True


@pytest.fixture(scope="session")
def cpus_free():
    """:func:`session_cpus_free`, for tests that check a pipeline releases
    its actor pool."""
    return session_cpus_free


@pytest.fixture(scope="session")
def keyspace_sidecars():
    """:func:`write_keyspace_sidecars`, for tests that check keyspace_from_states
    without a validation run."""
    return write_keyspace_sidecars
