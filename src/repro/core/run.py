"""Batch/solo execution harness used by experiments, tests and timing.

``run_batch`` stands in for "the server launched a batch on one RPU
core"; ``run_solo`` is the MIMD CPU reference execution of the same
requests.  Both build a fresh shared memory image per batch (each batch
is an independent set of requests against the same service state).
Process-level parallelism lives one layer up, in
:func:`repro.experiments.common.parallel_map`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..engine.events import LockstepResult, StepSink
from ..engine.lockstep import SoloExecutor, make_executor
from ..engine.memory import MemoryImage
from ..engine.thread import ThreadState
from ..memsys.alloc import BaseAllocator, SimrAwareAllocator
from ..workloads.base import Microservice, Request


def prepare_threads(
    service: Microservice,
    requests: Sequence[Request],
    mem: MemoryImage,
    allocator: BaseAllocator,
) -> List[ThreadState]:
    """Create and initialize one thread per request (lane order)."""
    shared = service.shared_setup(mem, allocator)
    threads = []
    for lane, req in enumerate(requests):
        t = ThreadState(lane)
        service.setup_thread(t, req, mem, allocator, shared)
        threads.append(t)
    return threads


def run_batch(
    service: Microservice,
    requests: Sequence[Request],
    policy: str = "minsp_pc",
    sink: Optional[StepSink] = None,
    allocator: Optional[BaseAllocator] = None,
    reconv_override: Optional[Dict[int, int]] = None,
    salt: int = 0,
    max_steps: int = 4_000_000,
    fastpath: bool = True,
) -> LockstepResult:
    """Execute one batch of requests in lockstep on one RPU core.

    ``policy`` is ``"ipdom"``, ``"minsp_pc"`` or ``"predicated"``;
    anything else (``"solo"`` included) raises :class:`ValueError`.
    """
    if policy == "solo":
        raise ValueError(f"unknown lockstep policy {policy!r}")
    opts = dict(sink=sink, max_steps=max_steps, fastpath=fastpath)
    if policy != "minsp_pc":  # MinSP-PC reconverges without a stack
        opts["reconv_override"] = reconv_override
    mem = MemoryImage(salt=salt)
    threads = prepare_threads(service, requests, mem,
                              allocator or SimrAwareAllocator())
    return make_executor(service.program, policy, **opts).run(threads, mem)


def run_solo(
    service: Microservice,
    requests: Sequence[Request],
    sink: Optional[StepSink] = None,
    allocator: Optional[BaseAllocator] = None,
    salt: int = 0,
    max_steps: int = 2_000_000,
    fastpath: bool = True,
) -> List[int]:
    """Run each request alone (MIMD CPU reference); returns step counts.

    All requests share one memory image and allocator, mirroring the
    multi-threaded service process on a CPU node.
    """
    mem = MemoryImage(salt=salt)
    threads = prepare_threads(service, requests, mem,
                              allocator or SimrAwareAllocator())
    ex = SoloExecutor(service.program, sink=sink, max_steps=max_steps,
                      fastpath=fastpath)
    return [ex.run(t, mem) for t in threads]
