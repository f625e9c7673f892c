"""Differential gate: fast-path engine vs reference engine.

The pre-decoded/superblock fast path (``fastpath=True``) must be
*bit-identical* to the ``execute()``-based reference loops: same
registers, same call stacks, same syscall traces, same memory contents,
same per-thread retired counts and the same ``LockstepResult``
counters - for every workload and every execution policy.  Without a
sink a batch runs on the vector engine, or on the scalar fast loop
under ``REPRO_VECTOR=0``; with a sink attached both engines must also
emit the same event stream.
"""

import dataclasses
import random

import pytest

from repro.core.run import prepare_threads
from repro.engine.lockstep import make_executor
from repro.engine.memory import MemoryImage
from repro.memsys.alloc import SimrAwareAllocator
from repro.timing.streams import ListSink
from repro.workloads.registry import SERVICE_NAMES, get_service

POLICIES = ["solo", "ipdom", "minsp_pc", "predicated"]

N_REQUESTS = 8
REQUEST_SEED = 123


def _run(service_name: str, policy: str, fastpath: bool,
         sink: ListSink = None):
    """One full batch execution; returns every observable final state."""
    service = get_service(service_name)
    requests = service.generate_requests(
        N_REQUESTS, random.Random(REQUEST_SEED))
    mem = MemoryImage(salt=0)
    threads = prepare_threads(service, requests, mem, SimrAwareAllocator())
    ex = make_executor(service.program, policy, sink=sink,
                       fastpath=fastpath)
    if policy == "solo":
        result = [ex.run(t, mem) for t in threads]
        efficiency = None
    else:
        res = ex.run(threads, mem)
        efficiency = res.simt_efficiency
        result = dataclasses.asdict(res)
    return {
        "result": result,
        "simt_efficiency": efficiency,
        "snapshots": [t.snapshot() for t in threads],
        "syscalls": [list(t.syscall_trace) for t in threads],
        "call_stacks": [list(t.call_stack) for t in threads],
        "memory": {a: mem.read(a) for a in sorted(mem.written_addresses())},
    }


def _assert_same_state(fast, ref):
    # compare field by field for readable failures
    assert fast["snapshots"] == ref["snapshots"]
    assert fast["syscalls"] == ref["syscalls"]
    assert fast["call_stacks"] == ref["call_stacks"]
    assert fast["memory"] == ref["memory"]
    assert fast["result"] == ref["result"]
    assert fast["simt_efficiency"] == ref["simt_efficiency"]


def _check_no_sink(service_name, policy, monkeypatch, vector):
    if vector is None:
        monkeypatch.delenv("REPRO_VECTOR", raising=False)
    else:
        monkeypatch.setenv("REPRO_VECTOR", vector)
    fast = _run(service_name, policy, fastpath=True)
    ref = _run(service_name, policy, fastpath=False)
    _assert_same_state(fast, ref)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("service_name", SERVICE_NAMES)
def test_fastpath_bit_identical(service_name, policy, monkeypatch):
    """No sink, default engine selection (vector engine for batches)."""
    _check_no_sink(service_name, policy, monkeypatch, vector=None)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("service_name", SERVICE_NAMES)
def test_fastpath_scalar_loop_bit_identical(service_name, policy,
                                            monkeypatch):
    """No sink under ``REPRO_VECTOR=0``: the scalar fast loop's
    emission-free mode against the reference directly."""
    _check_no_sink(service_name, policy, monkeypatch, vector="0")


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("service_name", SERVICE_NAMES)
def test_fastpath_sink_stream_bit_identical(service_name, policy):
    """The sink-attached fast loop emits the reference's event stream
    (pcs, active widths, addresses, branch outcomes) and leaves the
    same state and counters."""
    fast_sink, ref_sink = ListSink(), ListSink()
    fast = _run(service_name, policy, fastpath=True, sink=fast_sink)
    ref = _run(service_name, policy, fastpath=False, sink=ref_sink)
    _assert_same_state(fast, ref)
    assert len(fast_sink.events) == len(ref_sink.events)
    assert fast_sink.events == ref_sink.events


@pytest.mark.parametrize("policy", ["ipdom", "minsp_pc"])
def test_fastpath_counters_match_on_larger_batch(policy):
    """A wider batch (more divergence, more reconvergence events) on the
    most branchy service still produces identical counters."""
    service = get_service("post")
    requests = service.generate_requests(32, random.Random(7))

    def once(fastpath):
        mem = MemoryImage(salt=3)
        threads = prepare_threads(
            service, requests, mem, SimrAwareAllocator())
        res = make_executor(service.program, policy,
                            fastpath=fastpath).run(threads, mem)
        return dataclasses.asdict(res)

    assert once(True) == once(False)
