"""Parallel experiment driver: determinism and serial/parallel parity."""

import os
import signal
import subprocess
import sys

import pytest

import repro

from repro.experiments.common import (
    WorkerTaskError,
    parallel_map,
    resolve_jobs,
    set_default_jobs,
    task_seed,
    task_timeout_s,
)


def _square(x):
    return x * x


def _square_or_fail(x):
    if x == 13:
        raise ValueError("unlucky item")
    return x * x


def _sleep_forever(x):
    import time

    if x == 2:
        time.sleep(60)
    return x


def test_parallel_map_matches_serial_and_preserves_order():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=1) == [x * x for x in items]
    assert parallel_map(_square, items, jobs=4) == [x * x for x in items]


def test_parallel_map_single_item_stays_serial():
    assert parallel_map(_square, [3], jobs=8) == [9]


def test_resolve_jobs_precedence(monkeypatch):
    set_default_jobs(None)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1
    assert resolve_jobs(6) == 6
    assert resolve_jobs(0) == 1  # floor at one worker
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3
    assert resolve_jobs(2) == 2  # explicit beats environment
    set_default_jobs(5)
    try:
        assert resolve_jobs() == 5  # CLI default beats environment
    finally:
        set_default_jobs(None)


def test_parallel_map_names_the_failing_item():
    with pytest.raises(WorkerTaskError) as exc:
        parallel_map(_square_or_fail, list(range(20)), jobs=4)
    msg = str(exc.value)
    assert "13" in msg  # the failing item is identified...
    assert "unlucky item" in msg  # ...with the worker's traceback
    assert "ValueError" in msg


def test_task_timeout_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    assert task_timeout_s() is None
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
    assert task_timeout_s() == 2.5
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "bogus")
    assert task_timeout_s() is None
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0")
    assert task_timeout_s() is None


def test_task_timeout_kills_hung_worker(monkeypatch):
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.2")
    with pytest.raises(WorkerTaskError) as exc:
        parallel_map(_sleep_forever, [0, 1, 2, 3], jobs=2)
    assert "REPRO_TASK_TIMEOUT" in str(exc.value)
    assert "TimeoutError" in str(exc.value)


#: one task SIGKILLs its own worker (never the parent, which re-runs
#: it serially after the pool breaks)
_KILL_PROBE = """
import os, signal
from repro.experiments.common import parallel_map

PARENT = os.getpid()

def square_or_die(x):
    if x == 3 and os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * x

print(parallel_map(square_or_die, range(8), jobs=2))
"""


def test_killed_worker_reruns_unfinished_items_serially():
    """A worker killed mid-task breaks the pool; the sweep finishes
    serially instead of hanging.  The probe runs in its own process
    group under a timeout, so a hang fails this test rather than
    wedging the suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-c", _KILL_PROBE], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("parallel_map hung after a worker was killed")
    assert proc.returncode == 0, err
    assert out.strip() == str([x * x for x in range(8)])
    assert "pool died" in err


def test_task_seed_is_deterministic_and_distinct():
    assert task_seed("post", 0, 3) == task_seed("post", 0, 3)
    seeds = {task_seed(svc, chip, batch)
             for svc in ("post", "memcached")
             for chip in ("cpu", "rpu")
             for batch in range(4)}
    assert len(seeds) == 16  # no collisions across the sweep


@pytest.mark.parametrize("flags", [[], ["--jobs", "2"]])
def test_run_all_output_independent_of_jobs(flags, capsys):
    """The acceptance contract: ``--jobs N`` stdout is byte-identical."""
    from repro.experiments import run_all

    args = ["--only", "fig13", "--only", "table04", "--scale", "0.1"]
    assert run_all.main(args) == 0
    baseline = capsys.readouterr().out
    assert run_all.main(args + flags) == 0
    assert capsys.readouterr().out == baseline
    set_default_jobs(None)  # don't leak the CLI default to other tests
