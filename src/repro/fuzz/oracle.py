"""Differential oracle: reference vs fast path, across every policy.

For one spec the oracle runs the program

* under each policy the spec admits (:func:`repro.fuzz.gen
  .spec_policies` - all of ``solo``, ``ipdom``, ``minsp_pc``,
  ``predicated`` unless a construct like ``spin_unbounded`` only
  terminates under a subset) with the pre-decoded fast path and with
  the ``execute()``-based reference loop, asserting bit-identical
  registers, memory, syscall traces, call stacks and
  ``LockstepResult`` counters;
* once more per policy with an event-recording sink under *both*
  engines (the fast path keeps pre-decoded dispatch when a sink is
  attached), asserting the two sink runs match each other and the
  sink-free reference bit-for-bit - including the full
  ``(pc, inst, active, addrs, outcomes)`` event stream - and that the
  mask history is consistent with the counters;
* across policies: ``ipdom`` and ``predicated`` are architecturally
  identical by construction and must agree on *everything*; for
  race-free specs (no atomics / spin locks) every policy must reach the
  same architectural state as solo execution;
* through the batching layer: each request-batching policy
  (:mod:`repro.batching.policies`) partitions the spec's threads into
  lockstep batches; the partition must cover every request exactly
  once, and for race-free specs the per-request architectural results
  must be bit-identical to solo execution no matter how the policy
  grouped them.

A failing spec is greedily shrunk (drop constructs, fewer threads,
smaller parameters) and written out as a standalone repro file.
"""

from __future__ import annotations

import copy
import dataclasses
import pprint
import random
from typing import Dict, List, Optional

from ..batching.policies import POLICIES as BATCHING_POLICIES
from ..batching.policies import form_batches
from ..engine.events import StepSink
from ..engine.lockstep import ExecutionError, make_executor
from ..engine.memory import MemoryImage
from ..engine.thread import ThreadState
from ..memsys.alloc import SimrAwareAllocator
from ..sanitize import SanitizerError
from ..workloads.base import Request
from .gen import (GeneratorError, build_program, spec_is_racy,
                  spec_policies, spec_reconv_override)

POLICIES = ("solo", "ipdom", "minsp_pc", "predicated")

#: exception types the oracle reports as mismatches, not crashes
_ORACLE_ERRORS = (ExecutionError, SanitizerError)

#: observable state compared between runs of the *same* policy
_FIELDS = ("snapshots", "syscalls", "call_stacks", "memory", "result")

#: architectural state compared *across* policies (counters and step
#: totals legitimately differ between policies)
_ARCH_FIELDS = ("snapshots", "syscalls", "call_stacks", "memory")

DEFAULT_MAX_STEPS = 200_000


class ActiveMaskSink(StepSink):
    """Records the active-lane count and full event of every step.

    ``addrs``/``outcomes`` are copied: the fast path reuses its scratch
    list across steps (documented sink contract)."""

    def __init__(self):
        self.history: List[int] = []
        self.events: List[tuple] = []

    def on_step(self, pc, inst, active, addrs, outcomes) -> None:
        self.history.append(active)
        self.events.append(
            (pc, inst.op, active, tuple(addrs),
             tuple(outcomes) if outcomes else None)
        )

    def on_done(self) -> None:
        pass


def _setup_threads(spec: Dict, mem: MemoryImage) -> List[ThreadState]:
    """Mirror the workload ABI (repro.workloads.base) without a service:
    per-thread input buffers and scratch from the SIMR-aware allocator,
    shared table + lock words, r8 = tid."""
    alloc = SimrAwareAllocator()
    table = alloc.alloc_shared(4096)
    lock = alloc.alloc_shared(64)
    for off in (0, 8, 16, 24):
        mem.write(lock + off, 0)
    rng = random.Random(spec["seed"] * 0x9E3779B1 + 17)
    threads = []
    for tid in range(spec["n_threads"]):
        t = ThreadState(tid)
        t.regs[1] = rng.randrange(4)
        size = rng.randint(1, 6)
        t.regs[2] = size
        t.regs[3] = rng.randrange(1 << 24)
        inbuf = alloc.alloc(max(64, size * 8 + 16), tid)
        for i in range(size):
            mem.write(inbuf + 8 * i, (t.regs[3] * 31 + i * 7) & 0xFFFF)
        t.regs[4] = inbuf
        t.regs[5] = alloc.alloc(256, tid)
        t.regs[6] = table
        t.regs[7] = lock
        t.regs[8] = tid
        threads.append(t)
    return threads


def _run_one(spec: Dict, policy: str, fastpath: bool,
             with_mask: bool = False,
             max_steps: int = DEFAULT_MAX_STEPS) -> Dict:
    """One full execution; returns every observable final state.

    The program is rebuilt (and re-decoded) from the spec each time so
    runs never share a decode cache - which is also what lets the
    mutation self-check corrupt an engine between runs.
    """
    program = build_program(spec)
    mem = MemoryImage(salt=spec["salt"])
    threads = _setup_threads(spec, mem)
    sink = ActiveMaskSink() if with_mask else None
    kwargs = {}
    if policy in ("ipdom", "predicated"):
        override = spec_reconv_override(spec, program)
        if override is not None:
            kwargs["reconv_override"] = override
    ex = make_executor(program, policy, sink=sink, fastpath=fastpath,
                       max_steps=max_steps, **kwargs)
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
        "mask": sink.history if sink is not None else None,
        "events": sink.events if sink is not None else None,
    }


def _spec_requests(threads: List[ThreadState]) -> List[Request]:
    """The spec's threads as the server's batching layer would see
    them: ``rid`` is the thread id, ``api_id``/``size`` mirror the
    register draws of :func:`_setup_threads` (r1 = API selector,
    r2 = argument length)."""
    return [Request(rid=t.tid, service="fuzz", api=f"api{t.regs[1]}",
                    api_id=t.regs[1], size=t.regs[2], key=t.regs[3])
            for t in threads]


def _run_batched(spec: Dict, batching: str,
                 max_steps: int = DEFAULT_MAX_STEPS) -> Dict:
    """Execute the spec the way a batched SIMR server would: partition
    the requests with ``batching``, then run each batch in lockstep
    (``minsp_pc``) over the shared memory image, in batch order."""
    program = build_program(spec)
    mem = MemoryImage(salt=spec["salt"])
    threads = _setup_threads(spec, mem)
    bs = max(2, spec["n_threads"] // 2)
    batches = form_batches(_spec_requests(threads), bs, policy=batching)
    for batch in batches:
        # the executor's contract wants tid-sorted groups (execution
        # order); a policy's ordering *within* a batch is a dispatch
        # detail, its grouping is what is under test here
        group = sorted((threads[r.rid] for r in batch),
                       key=lambda t: t.tid)
        # a fresh executor per batch: real dispatches never share
        # divergence state across batches
        ex = make_executor(program, "minsp_pc", fastpath=True,
                           max_steps=max_steps)
        ex.run(group, mem)
    return {
        "rids": sorted(r.rid for b in batches for r in b),
        "snapshots": [t.snapshot() for t in threads],
        "syscalls": [list(t.syscall_trace) for t in threads],
        "call_stacks": [list(t.call_stack) for t in threads],
        "memory": {a: mem.read(a) for a in sorted(mem.written_addresses())},
    }


def check_batching_spec(spec: Dict, solo_state: Optional[Dict] = None,
                        max_steps: int = DEFAULT_MAX_STEPS) -> List[str]:
    """The batching-layer oracle: every policy's partition must cover
    each request exactly once, and (race-free specs only - batches
    interleave threads differently, so racy programs may legitimately
    diverge) per-request architectural state must match solo execution
    bit for bit."""
    mismatches: List[str] = []
    if solo_state is None:
        solo_state = _run_one(spec, "solo", fastpath=False,
                              max_steps=max_steps)
    racy = spec_is_racy(spec)
    for batching in BATCHING_POLICIES:
        try:
            got = _run_batched(spec, batching, max_steps=max_steps)
        except _ORACLE_ERRORS as e:
            mismatches.append(
                f"batching {batching}: {type(e).__name__}: {e}")
            continue
        if got["rids"] != list(range(spec["n_threads"])):
            mismatches.append(
                f"batching {batching}: partition does not cover every "
                f"request exactly once (got rids {got['rids']})")
            continue
        if racy:
            continue
        for fld in _ARCH_FIELDS:
            if got[fld] != solo_state[fld]:
                mismatches.append(
                    f"batching {batching}: per-request {fld} diverges "
                    f"from solo execution on a race-free program")
    return mismatches


def check_spec(spec: Dict,
               max_steps: int = DEFAULT_MAX_STEPS) -> List[str]:
    """Run the full differential matrix; returns mismatch descriptions
    (empty when the spec passes)."""
    mismatches: List[str] = []
    ref_states: Dict[str, Dict] = {}
    policies = spec_policies(spec)
    try:
        for policy in policies:
            fast = _run_one(spec, policy, fastpath=True,
                            max_steps=max_steps)
            ref = _run_one(spec, policy, fastpath=False,
                           max_steps=max_steps)
            for fld in _FIELDS:
                if fast[fld] != ref[fld]:
                    mismatches.append(
                        f"{policy}: fast-path {fld} diverges from "
                        f"reference")
            ref_states[policy] = ref
            masked = _run_one(spec, policy, fastpath=False,
                              with_mask=True, max_steps=max_steps)
            for fld in _FIELDS:
                if masked[fld] != ref[fld]:
                    mismatches.append(
                        f"{policy}: sink-observed run {fld} diverges "
                        f"from reference")
            # sink-present fast path: pre-decoded dispatch must emit
            # the bit-identical event stream the reference loop does
            masked_fast = _run_one(spec, policy, fastpath=True,
                                   with_mask=True, max_steps=max_steps)
            for fld in _FIELDS:
                if masked_fast[fld] != masked[fld]:
                    mismatches.append(
                        f"{policy}: sink-present fast path {fld} "
                        f"diverges from sink-present reference")
            if masked_fast["events"] != masked["events"]:
                mismatches.append(
                    f"{policy}: sink-present fast path event stream "
                    f"diverges from reference")
            if policy == "solo":
                continue
            hist = masked["mask"]
            steps = ref["result"]["steps"]
            if len(hist) != steps:
                mismatches.append(
                    f"{policy}: mask history has {len(hist)} entries "
                    f"for {steps} steps")
            if policy in ("ipdom", "minsp_pc"):
                scalar = ref["result"]["scalar_instructions"]
                if sum(hist) != scalar:
                    mismatches.append(
                        f"{policy}: mask history sums to {sum(hist)}, "
                        f"counters say {scalar} scalar instructions")
                n = spec["n_threads"]
                if not all(1 <= a <= n for a in hist):
                    mismatches.append(
                        f"{policy}: active mask outside [1, {n}]")

        # predication is architecturally identical to IPDOM
        # reconvergence: everything, counters included, must agree
        if "ipdom" in ref_states and "predicated" in ref_states:
            for fld in _FIELDS:
                if (ref_states["ipdom"][fld]
                        != ref_states["predicated"][fld]):
                    mismatches.append(
                        f"ipdom vs predicated: {fld} differs")

        # race-free specs must reach the same architectural state no
        # matter how the policies interleave the threads
        if not spec_is_racy(spec):
            for policy in ("ipdom", "minsp_pc"):
                if policy not in ref_states:
                    continue
                for fld in _ARCH_FIELDS:
                    if ref_states[policy][fld] != ref_states["solo"][fld]:
                        mismatches.append(
                            f"{policy} vs solo: {fld} differs on a "
                            f"race-free program")

        # the batching layer on top: however a policy partitions the
        # requests into lockstep batches, each request's architectural
        # results must survive unchanged
        mismatches.extend(
            check_batching_spec(spec, solo_state=ref_states["solo"],
                                max_steps=max_steps))
    except _ORACLE_ERRORS as e:
        mismatches.append(f"{type(e).__name__}: {e}")
    return mismatches


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

def shrink_spec(spec: Dict, max_steps: int = DEFAULT_MAX_STEPS,
                budget: int = 200) -> Dict:
    """Greedy minimizer: returns the smallest failing spec found.

    Tries, to a fixed point (or until ``budget`` oracle runs): dropping
    whole constructs, lowering the thread count, truncating op lists
    and halving numeric parameters.  Every candidate is re-checked, so
    the result is guaranteed to still fail.
    """
    evals = [0]

    def fails(s: Dict) -> bool:
        if evals[0] >= budget:
            return False
        evals[0] += 1
        try:
            return bool(check_spec(s, max_steps=max_steps))
        except GeneratorError:
            # a shrink step broke spec validity (e.g. a frame smaller
            # than its spills): discard the candidate, keep shrinking
            return False

    if not fails(spec):
        return spec
    cur = copy.deepcopy(spec)
    changed = True
    while changed and evals[0] < budget:
        changed = False
        i = 0
        while len(cur["constructs"]) > 1 and i < len(cur["constructs"]):
            cand = copy.deepcopy(cur)
            del cand["constructs"][i]
            if fails(cand):
                cur = cand
                changed = True
            else:
                i += 1
        # reconv_override entries shrink like constructs: drop them one
        # at a time (entries orphaned by construct deletion are already
        # ignored by spec_reconv_override's label lookup)
        i = 0
        while i < len(cur.get("reconv_override", ())):
            cand = copy.deepcopy(cur)
            del cand["reconv_override"][i]
            if not cand["reconv_override"]:
                del cand["reconv_override"]
            if fails(cand):
                cur = cand
                changed = True
            else:
                i += 1
        for n in (2, 3, 4):
            if n < cur["n_threads"]:
                cand = copy.deepcopy(cur)
                cand["n_threads"] = n
                if fails(cand):
                    cur = cand
                    changed = True
                    break
        for ci, c in enumerate(cur["constructs"]):
            for k, v in list(c.items()):
                if isinstance(v, list) and len(v) > 1:
                    cand = copy.deepcopy(cur)
                    cand["constructs"][ci][k] = v[:len(v) // 2]
                    if fails(cand):
                        cur = cand
                        changed = True
                elif (isinstance(v, int) and not isinstance(v, bool)
                        and v > 1):
                    cand = copy.deepcopy(cur)
                    cand["constructs"][ci][k] = v // 2
                    if fails(cand):
                        cur = cand
                        changed = True
    return cur


_REPRO_TEMPLATE = '''\
"""Auto-generated by `python -m repro.fuzz`: minimal differential repro.

Replay with `PYTHONPATH=src python {filename}` (exits non-zero while
the mismatch reproduces).  Expected mismatches at generation time:

{expected}
"""

SPEC = {spec}

if __name__ == "__main__":
    import sys

    from repro.fuzz.oracle import check_spec

    mismatches = check_spec(SPEC)
    for m in mismatches:
        print(f"MISMATCH: {{m}}")
    if not mismatches:
        print("spec no longer mismatches (bug fixed?)")
    sys.exit(1 if mismatches else 0)
'''


def write_repro(spec: Dict, mismatches: List[str], path: str) -> None:
    """Emit a standalone replay script for a failing spec."""
    filename = path.rsplit("/", 1)[-1]
    body = _REPRO_TEMPLATE.format(
        filename=filename,
        expected="\n".join(f"  * {m}" for m in mismatches),
        spec=pprint.pformat(spec, width=72, sort_dicts=False),
    )
    with open(path, "w", encoding="utf-8") as f:
        f.write(body)
