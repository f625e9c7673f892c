"""Self-tests of the benchmark (tiny sizes; the simulator is not timed).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Small workload sizes and a private, empty store."""
    for k in list(os.environ):
        if k.startswith("REPRO_"):
            monkeypatch.delenv(k)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.setattr(workloads, "CHIP_REQUESTS", 10)
    monkeypatch.setattr(workloads, "SIMT_REQUESTS", 32)
    monkeypatch.setattr(workloads, "WARM_REQUESTS", 2)
    monkeypatch.setattr(workloads, "FLEET_HORIZON_US", 10_000.0)
    monkeypatch.setattr(workloads, "E2E_REQUESTS", 200)
    monkeypatch.setattr(workloads, "E2E_LOADS",
                        {"cpu": (10_000,), "rpu": (40_000,)})
    from repro import workloads as services_mod
    from repro.timing import trace_cache

    # a round's process starts with an empty trace cache
    trace_cache.clear()
    every = services_mod.all_services

    def two_services():
        return [s for s in every() if s.name in ("mcrouter", "uniqueid")]

    monkeypatch.setattr(services_mod, "all_services", two_services)
    return tmp_path


def _round(name, trace, seed=3, round_idx=0):
    import time

    return worker.run_round(name, seed, round_idx, trace, time.monotonic())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_round(tiny, name):
    rec = _round(name, trace=False)
    assert rec["attempted"] > 0
    assert rec["failed"] == 0, rec["errors"]
    assert rec["wall_s"] > 0 and rec["setup_s"] > 0
    assert rec["peak_rss_mb"] > 0
    assert rec["sim"]["sim_requests"] > 0
    # same seed, fresh run: identical simulated values
    assert _round(name, trace=False, round_idx=1)["sim"] == rec["sim"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_reports_every_layer_metric(tiny, name):
    rec = _round(name, trace=True)
    assert rec["failed"] == 0, rec["errors"]
    got = rec["layers"]
    assert set(got) == set(layers.METRICS)
    for metric, value in got.items():
        if metric != "trace.overhead_pct":
            assert isinstance(value, (int, float)), metric
    touched = {"chip": ("timing.events", "memsys.accesses",
                        "engine.sink_self_s"),
               "simt": ("engine.nosink_self_s", "workloads.setup_calls"),
               "fleet": ("system.shard_s", "system.e2e_s")}[name]
    for metric in touched:
        assert got[metric] > 0, metric


def test_tracer_uninstall_restores_originals(tiny):
    from repro.timing.memhier import MemoryHierarchy
    from repro.batching import policies

    access, form = MemoryHierarchy.access, policies.form_batches
    tracer = layers.Tracer().install()
    assert MemoryHierarchy.access is not access
    assert policies.form_batches is not form
    tracer.uninstall()
    assert MemoryHierarchy.access is access
    assert policies.form_batches is form


def test_missing_boundaries_are_absent_not_fatal(tiny, monkeypatch):
    import repro.engine.vector  # noqa: F401  (holds its memo reference)

    # the memo module deleted, the executors merged into a new class
    monkeypatch.setitem(sys.modules, "repro.engine.memo", None)
    monkeypatch.setattr(layers, "EXECUTORS", ("UnifiedExecutor",))
    rec = _round("simt", trace=True)
    assert rec["failed"] == 0, rec["errors"]
    got = rec["layers"]
    assert got["engine.memo_hit_ratio"] is None
    assert got["engine.nosink_self_s"] is None
    assert got["engine.sink_self_s"] is None
    assert got["workloads.setup_calls"] > 0

    summary = run.summarize("simt", [dict(rec, trace=0), rec], True)
    metrics = summary["result"]["metrics"]
    assert set(metrics) == set(layers.METRICS)
    assert metrics["engine.memo_hit_ratio"]["value"] is None
    assert re.search(r"engine.memo_hit_ratio +absent", summary["report"])


def test_check_catches_corrupted_batch(tiny):
    from repro.core.run import run_batch
    from repro.workloads import get_service

    svc = get_service("mcrouter")
    batch = svc.generate_requests(8, workloads._rng(1, "t"))
    good = run_batch(svc, batch, policy="minsp_pc")
    assert workloads.check_batch_reference(svc, batch, "minsp_pc",
                                           good) is None
    bad = dataclasses.replace(good, steps=good.steps + 1)
    assert workloads.check_batch_reference(svc, batch, "minsp_pc", bad)
    over = dataclasses.replace(good, scalar_instructions=10 * good.steps
                               * good.batch_size)
    assert workloads.check_batch_result(over, batch)


def test_check_catches_corrupted_chip_and_fleet_results(tiny):
    from repro import system, timing
    from repro.workloads import get_service

    svc = get_service("uniqueid")
    reqs = svc.generate_requests(10, workloads._rng(1, "t"))
    res = timing.run_chip(svc, reqs, timing.CPU_CONFIG)
    assert workloads.check_chip_result(res, reqs, timing.CPU_CONFIG) is None
    short = dataclasses.replace(res,
                                latencies_cycles=res.latencies_cycles[1:])
    assert workloads.check_chip_result(short, reqs, timing.CPU_CONFIG)

    fleet = system.run_fleet(system.TrafficShape(base_qps=20_000.0),
                             5_000.0, shards=1, seed=2, jobs=1)
    assert workloads.check_fleet_result(fleet) is None
    lost = dataclasses.replace(fleet, completed=fleet.completed - 1)
    assert workloads.check_fleet_result(lost)


def test_corrupted_engine_output_counts_as_failed_call(tiny, monkeypatch):
    from repro.core import run as core_run

    real = core_run.run_batch

    def corrupt(*args, **kwargs):
        r = real(*args, **kwargs)
        return dataclasses.replace(r, steps=r.steps + 1)

    monkeypatch.setattr(core_run, "run_batch", corrupt)
    rec = _round("simt", trace=False)
    assert rec["failed"] >= 1
    assert any("reference" in e for e in rec["errors"])


def test_metric_names_and_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.METRICS
    for name in list(run.END_TO_END) + list(layers.METRICS):
        assert NAME.match(name), name


def test_hermetic_env_drops_repro_switches(monkeypatch):
    monkeypatch.setenv("REPRO_MEMO", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", ".repro_cache")
    env = run.hermetic_env("/private/store")
    assert env["REPRO_CACHE_DIR"] == "/private/store"
    assert [k for k in env if k.startswith("REPRO_")] == ["REPRO_CACHE_DIR"]


def test_without_simulator_sources_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
