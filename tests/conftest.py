"""Session-scoped Ray fixture: init ONCE per pytest session (driver contract)."""

from __future__ import annotations

import contextlib

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
    ``PartitionValidator._one`` makes for a one-segment partition; returns
    the ``parts`` that ``keyspace_from_states`` takes."""
    from teleharvest_ray.stages.keyspace import prep_state, write_sidecars

    parts = []
    for i, f in enumerate(files):
        st = prep_state(pq.read_table(f, columns=["conv_id", "turn_idx"]))
        key_run, partials, _ = write_sidecars(st, out_dir, f"p{i}")
        parts.append((f, [key_run], [partials]))
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


#: the tests after which the Ray session's CPUs stayed held, for the summary
_HELD_AFTER = pytest.StashKey[list]()


@pytest.fixture(autouse=True)
def _name_tests_that_hold_session_cpus(request):
    """After each test that used the Ray session, collect garbage and wait
    up to 10 s until the session has the free CPUs it had before the test; a
    test after which it did not is named in the terminal summary. It never
    fails the test, and a later test waits only for the CPUs free at its own
    start, so one leak names one test."""
    if "ray_session" not in request.fixturenames:
        yield
        return
    import gc
    import time

    import ray

    request.getfixturevalue("ray_session")
    free_before = ray.available_resources().get("CPU", 0)
    yield
    if not ray.is_initialized():
        return
    gc.collect()
    deadline = time.monotonic() + 10.0
    while (free := ray.available_resources().get("CPU", 0)) < free_before and time.monotonic() < deadline:
        time.sleep(0.1)
    if free < free_before:
        request.config.stash.setdefault(_HELD_AFTER, []).append(f"{request.node.nodeid}: {free_before - free:g} CPUs")


def pytest_terminal_summary(terminalreporter, config):
    held = config.stash.get(_HELD_AFTER, [])
    if held:
        terminalreporter.section("Ray session CPUs still held after")
        for line in held:
            terminalreporter.line(line)


class _TaskSpy:
    """Stand-in for a Ray remote function: counts ``.remote`` calls and
    forwards them, or raises on them when tasks are not allowed."""

    def __init__(self, fn, allow: bool):
        self.fn, self.allow, self.calls = fn, allow, 0

    def remote(self, *args, **kw):
        if not self.allow:
            raise AssertionError("a one-range phase 2 submitted a Ray task")
        self.calls += 1
        return self.fn.remote(*args, **kw)


@contextlib.contextmanager
def phase2_task_spies(allow: bool = True):
    """Phase 2's two task handles (``keyspace._range_task`` and
    ``keyspace._verify_task``) replaced by :class:`_TaskSpy` objects, yielded
    as ``{"range": spy, "verify": spy}``. With ``allow=False`` every task
    submission and every ``ray.put`` raises instead."""
    from unittest import mock

    import ray

    from teleharvest_ray.stages import keyspace

    spies = {"range": _TaskSpy(keyspace._range_task, allow), "verify": _TaskSpy(keyspace._verify_task, allow)}
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(keyspace, "_range_task", spies["range"]))
        stack.enter_context(mock.patch.object(keyspace, "_verify_task", spies["verify"]))
        if not allow:
            put_fails = AssertionError("a one-range phase 2 put an object")
            stack.enter_context(mock.patch.object(ray, "put", side_effect=put_fails))
        yield spies


@pytest.fixture(scope="session")
def phase2_tasks():
    """:func:`phase2_task_spies`, for tests that check where phase 2 runs."""
    return phase2_task_spies


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
