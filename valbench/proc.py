"""One validation call per fresh process, with a hard time limit and teardown.

Every run gets its own process group, so the Ray processes the child starts
(GCS, raylet, workers, agents) can be killed together when the child hangs,
and waited for afterwards. A run reports through a JSON file, never through
a pipe, so a chatty child cannot block on a full pipe.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

#: the Ray session of every run; fixed here, never derived from the box
SESSION_CPUS = 2
#: exit code of a child whose validator actor cannot fit the session
EXIT_CPUS = 3


class RunFailed(Exception):
    pass


class CpuMismatch(RunFailed):
    pass


#: pause between two probe passes
PROBE_PAUSE_S = 0.05
#: one probe pass on the reference box, in ms: about its mean on a quiet
#: 4-vCPU x86 sandbox. The ``*_ref_s`` metrics are scaled to it.
PROBE_REF_MS = 5.0


def _probe_pass() -> int:
    """Fixed work of a few ms: an interpreter loop, then allocating and
    summing a list and a dict of a few MB. The job does both kinds of work."""
    s = 0
    for i in range(20_000):
        s += i * i
    ints = list(range(60_000))
    index = {i: i for i in ints[:20_000]}
    return s + sum(ints) + len(index)


class SpeedProbe:
    """Box-speed probe that runs beside a timed run, in a thread of the runner.

    Every ``PROBE_PAUSE_S`` it times one :func:`_probe_pass`. The pass never
    changes and shares no code with the program, so its duration measures how
    fast the shared host runs this box at that moment. :meth:`ms` is the mean
    pass duration between two ``time.monotonic()`` readings, such as the
    start and end of the timed call. It is a mean, not a median, so the
    stalls the host imposes count in it as they count in the call. Use it as
    a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (monotonic start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            t0 = time.monotonic()
            _probe_pass()
            self.samples.append((t0, time.monotonic() - t0))
            self._stop.wait(PROBE_PAUSE_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def ms(self, t0: float, t1: float) -> float:
        inside = [d for t, d in self.samples if t0 <= t <= t1] or [d for _, d in self.samples]
        return statistics.fmean(inside) * 1000


def _group_alive(pgid: int) -> bool:
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group id
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _teardown(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 30
    while _group_alive(proc.pid):
        if time.monotonic() > deadline:
            raise RunFailed(f"processes of group {proc.pid} survived SIGKILL")
        time.sleep(0.1)


def run_child(root: str, args: list[str], log_path: str, timeout_s: float) -> dict:
    """Run ``python -m valbench.child ARGS`` from ``root``; return its result.

    Raises :class:`RunFailed` on a crash or a timeout, after the whole
    process group is gone, and :class:`CpuMismatch` when the validator
    actor cannot be placed on the session."""
    return run_children(root, [(args, log_path)], timeout_s)[0]


def run_children(root: str, jobs: list[tuple[list[str], str]], timeout_s: float) -> list[dict]:
    """Run several children at once (untimed preparation only); all share
    one deadline. Every child is torn down before anything is raised."""
    if timeout_s <= 0:
        raise RunFailed("no time left before the run's deadline")
    deadline = time.monotonic() + timeout_s
    started = []
    try:
        for args, log_path in jobs:
            started.append(_start(root, args, log_path))
        outcomes = []
        for proc, result_path, log_path in started:
            try:
                outcomes.append(_finish(proc, result_path, log_path, deadline))
            except RunFailed as e:
                outcomes.append(e)
    finally:
        # also on an interrupt: no child's session outlives the call
        for proc, _, _ in started:
            _teardown(proc)
    for o in outcomes:
        if isinstance(o, RunFailed):
            raise o
    return outcomes


def _start(root: str, args: list[str], log_path: str):
    result_path = log_path + ".result.json"
    for stale in (result_path, result_path + ".session"):
        if os.path.exists(stale):
            os.unlink(stale)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    env.pop("RAY_ADDRESS", None)
    cmd = [sys.executable, "-m", "valbench.child", "--spawned-at", repr(time.time()),
           "--cpus", str(SESSION_CPUS), "--result", result_path, *args]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True)
    return proc, result_path, log_path


def _finish(proc: subprocess.Popen, result_path: str, log_path: str, deadline: float) -> dict:
    timeout_s = max(0.0, deadline - time.monotonic())
    timed_out = False
    try:
        proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        _teardown(proc)
    # the session's own directory (logs, sockets, spill) goes with the run
    if os.path.exists(result_path + ".session"):
        with open(result_path + ".session") as fh:
            session_dir = fh.read().strip()
        if os.path.basename(session_dir).startswith("session_"):
            shutil.rmtree(session_dir, ignore_errors=True)
    result = None
    if os.path.exists(result_path):
        with open(result_path) as fh:
            result = json.load(fh)
    if proc.returncode == EXIT_CPUS:
        raise CpuMismatch(_tail(log_path))
    if timed_out:
        raise RunFailed(f"timed out after {timeout_s:.0f} s\n{_tail(log_path)}")
    if proc.returncode != 0 or result is None:
        raise RunFailed(f"exit code {proc.returncode}\n{_tail(log_path)}")
    return result


def _tail(path: str, n: int = 25) -> str:
    with open(path, errors="replace") as fh:
        return "".join(fh.readlines()[-n:])
