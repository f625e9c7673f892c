"""Streaming timing path vs legacy materialize-then-run differential.

``run_chip`` streams executor events straight into ``CoreRun``; the
legacy materialized path is kept under ``streaming=False`` precisely
so this differential can assert both produce bit-identical results.
"""

import random
from dataclasses import replace

import pytest

from repro.timing import CPU_CONFIG, RPU_CONFIG, run_chip
from repro.workloads import get_service

SMT_CONFIG = replace(CPU_CONFIG, name="smt4-test", hw_contexts=4)


def _observables(res):
    return (res.core_cycles, res.latencies_cycles, dict(res.counters),
            res.simt_efficiency, res.scalar_instructions, res.n_requests)


@pytest.mark.parametrize("config", [CPU_CONFIG, SMT_CONFIG, RPU_CONFIG],
                         ids=["cpu", "smt", "rpu"])
@pytest.mark.parametrize("svc_name", ["mcrouter", "post"])
def test_streaming_matches_materialized(svc_name, config, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")  # force a live compute
    svc = get_service(svc_name)
    reqs = svc.generate_requests(24, random.Random(7))
    legacy = run_chip(svc, reqs, config, streaming=False)
    streamed = run_chip(svc, reqs, config)
    assert _observables(streamed) == _observables(legacy)

