"""Differential gate: vectorized SoA engine vs its scalar witnesses.

The vectorized structure-of-arrays engine (``REPRO_VECTOR=1``, the
default) must be *bit-identical* to the per-thread fast path it
replaced (``REPRO_VECTOR=0``) under every policy.  The same holds
under the sanitizer and under step-budget truncation, and the
generated-source cache must be provably keyed on program content.
``run_batch`` without a sink must actually reach the vector engine.
"""

import dataclasses
import random

import pytest

from repro import store
from repro.core.run import prepare_threads, run_batch
from repro.engine import vcodegen, vector
from repro.engine.lockstep import make_executor
from repro.engine.memory import MemoryImage
from repro.memsys.alloc import SimrAwareAllocator
from repro.sanitize import SanitizerError
from repro.timing import ListSink
from repro.workloads.registry import get_service

POLICIES = ["solo", "ipdom", "minsp_pc", "predicated"]

#: the branchiest service (calls, divergent ifs, loops) - the one that
#: exercises superblock chains, prefix cuts and matched call/ret elision
SERVICE = "post"
N_REQUESTS = 12
REQUEST_SEED = 321


def _run(policy: str, salt: int = 0, n_requests: int = N_REQUESTS,
         max_steps: int = 4_000_000):
    """One full batch execution; returns every observable final state."""
    service = get_service(SERVICE)
    requests = service.generate_requests(
        n_requests, random.Random(REQUEST_SEED))
    mem = MemoryImage(salt=salt)
    threads = prepare_threads(service, requests, mem, SimrAwareAllocator())
    ex = make_executor(service.program, policy, max_steps=max_steps)
    if policy == "solo":
        result = [ex.run(t, mem) for t in threads]
    else:
        result = dataclasses.asdict(ex.run(threads, mem))
    return {
        "result": result,
        "snapshots": [t.snapshot() for t in threads],
        "syscalls": [list(t.syscall_trace) for t in threads],
        "call_stacks": [list(t.call_stack) for t in threads],
        "memory": {a: mem.read(a) for a in sorted(mem.written_addresses())},
    }


def _assert_same(a, b):
    assert a["snapshots"] == b["snapshots"]
    assert a["syscalls"] == b["syscalls"]
    assert a["call_stacks"] == b["call_stacks"]
    assert a["memory"] == b["memory"]
    assert a["result"] == b["result"]


@pytest.mark.parametrize("policy", POLICIES)
def test_vector_matches_scalar_fallback(policy, monkeypatch):
    monkeypatch.delenv("REPRO_VECTOR", raising=False)
    vec = _run(policy, salt=1)
    monkeypatch.setenv("REPRO_VECTOR", "0")
    _assert_same(vec, _run(policy, salt=1))


@pytest.mark.parametrize("policy", ["ipdom", "minsp_pc", "predicated"])
def test_sanitized_vector_run(policy, monkeypatch):
    """REPRO_SANITIZE=1 turns on the lane/mask/cache invariants; a
    clean engine must pass them and still produce identical state."""
    plain = _run(policy, salt=4)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    _assert_same(plain, _run(policy, salt=4))


@pytest.mark.parametrize("policy", ["ipdom", "minsp_pc"])
@pytest.mark.parametrize("max_steps", [50, 500, 5000])
def test_truncation_matches_scalar_fallback(policy, max_steps,
                                            monkeypatch):
    """An exhausted step budget must stop the vector engine at exactly
    the state the scalar fast path stops at: superblock chains may only
    be entered when they fit in the remaining budget."""
    monkeypatch.delenv("REPRO_VECTOR", raising=False)
    vec = _run(policy, salt=5, max_steps=max_steps)
    monkeypatch.setenv("REPRO_VECTOR", "0")
    _assert_same(vec, _run(policy, salt=5, max_steps=max_steps))


def _count_vector_entries(monkeypatch):
    """Wrap both vector-engine entry points; returns the call counter."""
    calls = {"run_ipdom": 0, "run_minsp": 0}
    for name in calls:
        real = getattr(vector, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(vector, name, counted)
    return calls


@pytest.mark.parametrize("policy,entry", [("ipdom", "run_ipdom"),
                                          ("minsp_pc", "run_minsp")])
def test_run_batch_dispatches_to_vector_engine(policy, entry,
                                               monkeypatch):
    """A sink-free ``run_batch`` enters the vector engine exactly once;
    an attached sink or ``REPRO_VECTOR=0`` keeps it on the scalar loop.
    This is what a silent fallback to the scalar loop would break."""
    monkeypatch.delenv("REPRO_VECTOR", raising=False)
    calls = _count_vector_entries(monkeypatch)
    service = get_service(SERVICE)
    batch = service.generate_requests(N_REQUESTS,
                                      random.Random(REQUEST_SEED))
    run_batch(service, batch, policy=policy)
    assert calls[entry] == 1 and sum(calls.values()) == 1
    run_batch(service, batch, policy=policy, sink=ListSink())
    assert sum(calls.values()) == 1
    monkeypatch.setenv("REPRO_VECTOR", "0")
    run_batch(service, batch, policy=policy)
    assert sum(calls.values()) == 1


def test_vector_program_has_superblock_grains():
    """The compiled tables for a real service actually contain the
    coarse grains the engine schedules (chains with prefix cuts, blocks,
    ALU runs) - otherwise the other tests only cover single-stepping."""
    vp = get_service(SERVICE).program.vdecoded
    chain_lists = [c for c in vp.chains if c is not None]
    assert chain_lists, "no superblock chains compiled"
    assert any(len(c) > 1 for c in chain_lists), \
        "no entry-depth prefix cuts compiled"
    # every candidate list is longest-first so the engine can take the
    # first legal one
    for cl in chain_lists:
        lens = [c[0] for c in cl]
        assert lens == sorted(lens, reverse=True)
    assert any(b is not None for b in vp.blocks)
    assert any(r is not None for r in vp.runs)


def test_codegen_cache_roundtrip_and_tamper(monkeypatch):
    """The generated source is cached under (engine fingerprint,
    program digest); a warm hit returns identical source, and the
    sanitizer catches a poisoned cache entry."""
    program = get_service(SERVICE).program
    fresh = vcodegen.generate_source(program)
    fp = store.source_fingerprint(vcodegen._CODEGEN_MODULES)
    import sys as _sys
    key = (vcodegen._program_digest(program),
           _sys.implementation.cache_tag)
    store.record("vcode", fp, key, fresh)
    assert store.lookup("vcode", fp, key) == fresh
    # warm compile must agree with the recorded source
    assert vcodegen._cached_source(program, None) == fresh
    # poison the entry (the store is content-addressed, so publishing
    # is a no-op while the good entry exists - drop it first): a plain
    # warm hit trusts the poisoned source, the sanitizer does not
    import os as _os
    path = store.get_store()._path("vcode", store.address("vcode", fp, key))
    _os.unlink(path)
    store.record("vcode", fp, key, fresh + "\n# tampered\n")
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert vcodegen._cached_source(program, None) != fresh
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with pytest.raises(SanitizerError):
        vcodegen._cached_source(program, None)
    # restore a good entry for any later compile in this store
    _os.unlink(path)
    store.record("vcode", fp, key, fresh)


def test_program_digest_is_content_addressed():
    """Two different programs must not share a cache key."""
    a = get_service(SERVICE).program
    b = get_service("hdsearch-leaf").program
    assert vcodegen._program_digest(a) != vcodegen._program_digest(b)
    assert vcodegen._program_digest(a) == vcodegen._program_digest(a)
