"""Bench: raw simulator throughput (classic pytest-benchmark timing).

These measure the reproduction's own performance - lockstep
interpretation rate, solo interpretation rate, timing-model event rate
and queueing-simulator event rate - so regressions in the simulator
itself are visible.
"""

import random

from repro.core.run import run_batch, run_solo
from repro.system import EndToEndConfig, run_end_to_end
from repro.timing import RPU_CONFIG, run_chip
from repro.workloads import get_service


def test_lockstep_interpreter_rate(benchmark):
    service = get_service("post")
    requests = service.generate_requests(32, random.Random(0))
    result = benchmark(lambda: run_batch(service, requests))
    benchmark.extra_info["scalar_instructions"] = \
        result.scalar_instructions


def test_solo_interpreter_rate(benchmark):
    service = get_service("post")
    requests = service.generate_requests(16, random.Random(0))
    steps = benchmark(lambda: run_solo(service, requests))
    benchmark.extra_info["instructions"] = sum(steps)


def test_chip_model_rate(benchmark, monkeypatch):
    # a larger population and >=20 rounds keep the mean stable enough
    # for the 30% regression gate; the persistent store is disabled so
    # the measurement covers execution + streaming timing, not a disk
    # hit
    monkeypatch.setenv("REPRO_CACHE", "0")
    service = get_service("mcrouter")
    requests = service.generate_requests(256, random.Random(0))
    result = benchmark.pedantic(
        lambda: run_chip(service, requests, RPU_CONFIG),
        rounds=20, iterations=1, warmup_rounds=1)
    benchmark.extra_info["core_cycles"] = int(result.core_cycles)


def test_queueing_simulator_rate(benchmark):
    cfg = EndToEndConfig(rpu=True, batch_split=True)
    result = benchmark(lambda: run_end_to_end(cfg, 30000, 1500))
    benchmark.extra_info["completed"] = result.completed
