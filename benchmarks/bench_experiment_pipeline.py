"""Bench: experiment pipeline cold vs warm through the persistent store.

``test_pipeline_cold_segment`` wipes the on-disk result store before
every round, so it measures the full simulate-and-render path of one
``run_all`` segment.  ``test_pipeline_warm_segment`` populates the
store once, then clears only the in-process store handles each round -
the cross-invocation story: a repeat ``run_all`` served entirely from
disk.  The warm/cold mean
ratio is the store's headline speedup.
"""

import contextlib
import io
import shutil

import repro.store as store
from repro.experiments import run_all

#: the measured run_all segment: a mid-weight timing figure
SEGMENT = ["--only", "fig14", "--scale", "0.25"]


def _run_segment():
    """One serial run_all invocation; returns its stdout (stderr, which
    carries run-specific timing chatter, is swallowed separately)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_all.main(SEGMENT)
    assert rc == 0
    return out.getvalue()


def _clear_memory_caches():
    store._instances.clear()


def test_pipeline_cold_segment(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cold"))
    monkeypatch.setenv("REPRO_JOBS", "1")

    def setup():
        shutil.rmtree(tmp_path / "cold", ignore_errors=True)
        _clear_memory_caches()
        return (), {}

    benchmark.pedantic(_run_segment, setup=setup, rounds=3, iterations=1)
    benchmark.extra_info["segment"] = " ".join(SEGMENT)


def test_pipeline_warm_segment(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
    monkeypatch.setenv("REPRO_JOBS", "1")
    _clear_memory_caches()
    cold_text = _run_segment()  # populate the store

    def setup():
        _clear_memory_caches()
        return (), {}

    warm_text = benchmark.pedantic(_run_segment, setup=setup,
                                   rounds=5, iterations=1)
    assert warm_text == cold_text  # byte-identical through the cache
    benchmark.extra_info["segment"] = " ".join(SEGMENT)
    benchmark.extra_info["store_hits"] = store.stats()["hits"]
