"""Session-scoped Ray fixture: init ONCE per pytest session (driver contract)."""

from __future__ import annotations

import os

import numpy as np
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


def write_keyspace_sidecars(files: list, out_dir: str):
    """Key-space sidecars of parquet ``files``, written with the calls
    ``PartitionValidator._one`` makes; returns the ``(parts, summ)`` that
    ``keyspace_from_states`` takes."""
    from teleharvest_ray.stages.keyspace import conv_partials_table, merge_conv_partials, prep_state

    parts, partials = [], []
    for i, f in enumerate(files):
        st = prep_state(pq.read_table(f, columns=["conv_id", "turn_idx"]))
        blob, conv = os.path.join(out_dir, f"{i}.bin"), os.path.join(out_dir, f"{i}-conv.parquet")
        np.sort(np.frombuffer(st["blob"], dtype=np.uint64)).tofile(blob)
        pq.write_table(conv_partials_table(st["conv"]), conv)
        parts.append((f, blob, conv))
        partials.append(st["conv"])
    return parts, merge_conv_partials(partials)


@pytest.fixture(scope="session")
def keyspace_sidecars():
    """:func:`write_keyspace_sidecars`, for tests that check keyspace_from_states
    without a validation run."""
    return write_keyspace_sidecars
