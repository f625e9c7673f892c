"""Trace-collection tests: ListSink, TimingSink and SoloRunner.

The delivery differential at the bottom feeds real executor runs into
one ``CoreRun`` through ``TimingSink``s (the path ``run_chip`` takes)
and compares it with ``CoreModel.run`` over ``ListSink`` streams of the
same executions - the materialized oracle of the event protocol.
"""

import random
from dataclasses import replace

import pytest

from repro.core.run import run_batch
from repro.engine.events import MultiSink
from repro.isa import OpClass, Segment
from repro.timing import (CPU_CONFIG, GPU_CONFIG, RPU_CONFIG, CoreModel,
                          ListSink)
from repro.timing.streams import SoloRunner, TimingSink
from repro.workloads import get_service


@pytest.fixture(scope="module")
def service():
    return get_service("mcrouter")


@pytest.fixture(scope="module")
def requests(service):
    return service.generate_requests(8, random.Random(3))


def _batch_events(service, requests, policy="minsp_pc"):
    sink = ListSink()
    result = run_batch(service, requests, policy=policy, sink=sink)
    return sink.events, result


def _solo_traces(service, requests, pool_size=1):
    runner = SoloRunner(service, pool_size=pool_size)
    traces = []
    for i, req in enumerate(requests):
        sink = ListSink()
        runner.run_request(i, req, sink)
        traces.append(sink.events)
    return traces


def test_batch_trace_events_match_result(service, requests):
    events, result = _batch_events(service, requests)
    assert len(events) == result.steps
    assert sum(e[2] for e in events) == result.scalar_instructions


def test_batch_trace_event_structure(service, requests):
    events, _ = _batch_events(service, requests)
    pc, inst, active, addrs, outcomes = events[0]
    assert isinstance(pc, int)
    assert 1 <= active <= len(requests)
    mem_events = [e for e in events if e[1].is_mem()]
    assert mem_events and all(isinstance(e[3], tuple) for e in mem_events)
    branch_events = [e for e in events if e[1].cls is OpClass.BRANCH]
    assert branch_events
    assert all(e[4] is not None for e in branch_events)


def test_batch_trace_policies_agree_on_work(service, requests):
    _, ipdom = _batch_events(service, requests, policy="ipdom")
    _, minsp = _batch_events(service, requests, policy="minsp_pc")
    assert ipdom.scalar_instructions == minsp.scalar_instructions


def test_solo_traces_one_stream_per_request(service, requests):
    traces = _solo_traces(service, requests)
    assert len(traces) == len(requests)
    for t in traces:
        assert all(e[2] == 1 for e in t)  # solo: active always 1


def test_solo_traces_worker_pool_reuses_addresses(service, requests):
    pooled = _solo_traces(service, requests, pool_size=1)

    def first_stack_addr(trace):
        for _pc, inst, _a, addrs, _o in trace:
            if inst.segment is Segment.STACK and addrs:
                return addrs[0][1]
        return None

    # with one worker, every request reuses the same stack (and arena)
    # addresses - the warm-cache behaviour of consecutive CPU requests
    addrs = {first_stack_addr(t) for t in pooled}
    assert len(addrs) == 1


def test_solo_traces_distinct_workers_distinct_addresses(service, requests):
    spread = _solo_traces(service, requests, pool_size=8)
    tids = set()
    for t in spread:
        for _pc, inst, _a, addrs, _o in t:
            if addrs:
                tids.add(addrs[0][0])
                break
    assert len(tids) == 8


def test_multisink_fans_out(service, requests):
    a, b = ListSink(), ListSink()
    sink = MultiSink(a, b, None)
    sink.on_step(0, None, 1, (), None)
    sink.on_done()
    assert len(a.events) == len(b.events) == 1


# ----------------------------------------------------------------------
# event delivery: TimingSink into CoreRun vs CoreModel.run over ListSink
# ----------------------------------------------------------------------

#: context shape -> (config, contexts per core run)
SHAPES = {
    "cpu": (CPU_CONFIG, 1),
    "smt": (replace(CPU_CONFIG, name="smt4-test", hw_contexts=4), 4),
    "rpu": (RPU_CONFIG, 1),
    "gpu": (GPU_CONFIG, 4),
}
#: requests per lockstep batch (24 requests: 6 batches, GPU rounds 4+2)
BATCH = 4


def _chunks(items, n):
    return [items[i:i + n] for i in range(0, len(items), n)]


def _rounds(shape, service, requests):
    """Fresh executions grouped into core runs: each is a callable that
    executes its request(s) on fresh state, driving the given sink."""
    config, n_ctx = SHAPES[shape]
    if config.batch_size <= 1:
        runner = SoloRunner(service, pool_size=config.worker_pool)
        runs = [lambda sink, i=i, req=req: runner.run_request(i, req, sink)
                for i, req in enumerate(requests)]
    else:
        runs = [lambda sink, b=b: run_batch(service, b, sink=sink)
                for b in _chunks(requests, BATCH)]
    return config, _chunks(runs, n_ctx)


def _observables(core, results):
    return (core.now,
            [[(s.start, s.finish, s.events) for s in r.streams]
             for r in results],
            dict(core.all_counters()))


def _streamed(shape, service, requests):
    config, rounds = _rounds(shape, service, requests)
    core = CoreModel(config)
    results = []
    for group in rounds:
        run = core.begin(len(group), batched=config.batch_size > 1)
        for j, execute in enumerate(group):
            execute(TimingSink(run, j))
        results.append(run.finish())
    return _observables(core, results)


def _materialized(shape, service, requests):
    config, rounds = _rounds(shape, service, requests)
    core = CoreModel(config)
    results = []
    for group in rounds:
        streams = []
        for execute in group:
            sink = ListSink()
            execute(sink)
            streams.append(sink.events)
        results.append(core.run(streams, batched=config.batch_size > 1))
    return _observables(core, results)


@pytest.mark.parametrize("shape", ["cpu", "smt", "rpu", "gpu"])
@pytest.mark.parametrize("svc_name", ["mcrouter", "post"])
def test_timing_sink_delivery_matches_materialized(svc_name, shape):
    svc = get_service(svc_name)
    reqs = svc.generate_requests(24, random.Random(7))
    streamed = _streamed(shape, svc, reqs)
    assert streamed == _materialized(shape, svc, reqs)
    _now, finishes, counters = streamed
    assert counters["scalar_instructions"] > 0
    assert max(len(r) for r in finishes) == SHAPES[shape][1]
