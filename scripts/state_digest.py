#!/usr/bin/env python
"""Architectural-state digests over the full service x policy matrix.

Runs every registered workload under every execution policy (the same
population the differential fast-path gate uses: 8 requests, request
seed 123, memory salt 0) and prints one line per combination::

    <service> <policy> <sha256 hex of the observable final state>

The hash covers register snapshots, call stacks, syscall traces, the
written-memory image and the full ``LockstepResult`` counters - the
exact field set ``tests/test_differential_fastpath.py`` compares.

The dump is a *differential unit*: CI runs this script under the
default engine configuration, again under the scalar-engine witness
``REPRO_VECTOR=0``, and once more against the warm generated-code
store, and diffs the outputs.  Any divergence names the exact service/policy
cell that broke, which is far cheaper to triage than a failed
end-to-end byte compare.

Usage::

    PYTHONPATH=src python scripts/state_digest.py            # 60 lines
    PYTHONPATH=src python scripts/state_digest.py post       # one service
"""

import dataclasses
import hashlib
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.run import prepare_threads
from repro.engine.lockstep import make_executor
from repro.engine.memory import MemoryImage
from repro.memsys.alloc import SimrAwareAllocator
from repro.workloads.registry import SERVICE_NAMES, get_service

POLICIES = ("solo", "ipdom", "minsp_pc", "predicated")
N_REQUESTS = 8
REQUEST_SEED = 123


def state_digest(service_name: str, policy: str) -> str:
    service = get_service(service_name)
    requests = service.generate_requests(
        N_REQUESTS, random.Random(REQUEST_SEED))
    mem = MemoryImage(salt=0)
    threads = prepare_threads(service, requests, mem,
                              SimrAwareAllocator())
    ex = make_executor(service.program, policy)
    if policy == "solo":
        result = [ex.run(t, mem) for t in threads]
    else:
        result = dataclasses.asdict(ex.run(threads, mem))
    state = {
        "result": result,
        "snapshots": [t.snapshot() for t in threads],
        "syscalls": [list(t.syscall_trace) for t in threads],
        "call_stacks": [list(t.call_stack) for t in threads],
        "memory": {a: mem.read(a)
                   for a in sorted(mem.written_addresses())},
    }
    return hashlib.sha256(repr(state).encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    names = (argv if argv else None) or SERVICE_NAMES
    for name in names:
        for policy in POLICIES:
            print(f"{name} {policy} {state_digest(name, policy)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
