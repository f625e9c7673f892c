"""Structure-of-arrays batch state for the vectorized lockstep engine.

The per-``ThreadState`` fast path pays Python attribute/dispatch cost
once per *thread* per step.  The vectorized engine (:mod:`repro.engine.
vector`) instead keeps the whole batch as a structure of arrays - one
column per architectural register plus flat pc / halted / retired-delta
vectors - and applies each instruction across all live lanes of a group
inside one generated function (:mod:`repro.engine.vcodegen`).

Register columns are plain lists of Python ints: the ISA's registers
hold unbounded integers (the reference interpreter masks only shifts
and hashes, so multiply chains overflow 64 bits by design) and
demoting them to ``int64`` would silently change architectural
results.  Only the pc / halted vectors are ``array('q')`` buffers.

``REPRO_VECTOR=0`` disables the vectorized engine (re-read per call, so
tests can toggle it): the executors fall back to the per-thread fast
path, which doubles as a differential witness for the vector path.
"""

from __future__ import annotations

import os
from array import array
from typing import List, Optional, Sequence

from ..isa.instructions import NUM_REGS
from ..sanitize import check

#: always zero (no grain runs on int64 register lanes); kept only
#: because perfbench/layers.py:284 reads it for the
#: ``engine.bounded_vector_frac`` metric.
BOUNDED_STATS = {"vector": 0, "scalar": 0}


def vector_enabled() -> bool:
    """True unless ``REPRO_VECTOR=0`` (re-read per call, so tests and
    CLIs can toggle the engine without re-importing modules)."""
    return os.environ.get("REPRO_VECTOR", "1") != "0"


class LaneState:
    """The batch as a structure of arrays (one lane per thread).

    ``regs[r][i]`` is register ``r`` of lane ``i`` (Python ints, see
    module docstring); ``pc``/``halted`` are ``array('q')`` vectors and
    ``retired`` a plain list.  ``call_stacks[i]`` and ``syscalls[i]``
    alias the threads' own list objects, so call/ret/syscall effects
    land in place and need no write-back.

    The pc vector is only guaranteed current for *halted* lanes while
    the engine runs (running lanes' pcs live in the scheduler's group
    keys); :meth:`writeback` receives the final pcs for the rest.
    """

    __slots__ = ("n", "regs", "pc", "halted", "retired",
                 "call_stacks", "syscalls", "tids")

    def __init__(self, threads: Sequence) -> None:
        self.n = len(threads)
        # transpose [thread][reg] -> [reg][lane]; zip is C-speed and the
        # columns must be fresh mutable lists
        self.regs: List[List[int]] = [list(col)
                                      for col in zip(*(t.regs for t in threads))]
        self.pc = array("q", [t.pc for t in threads])
        self.halted = array("q", [1 if t.halted else 0 for t in threads])
        # retired deltas are engine bookkeeping only (never touched by
        # generated code)
        self.retired = [0] * self.n
        self.call_stacks = [t.call_stack for t in threads]
        self.syscalls = [t.syscall_trace for t in threads]
        self.tids = [t.tid for t in threads]

    def live_lanes(self) -> List[int]:
        """Lane indices of non-halted threads, in lane (== tid) order."""
        hl = self.halted.tolist()
        return [i for i in range(self.n) if not hl[i]]

    def writeback(self, threads: Sequence) -> None:
        """Scatter the arrays back into the per-thread views.

        Registers transpose back column->row; pc/halted convert to
        plain Python ``int``/``bool`` so snapshots, pickles and dict
        keys are type-identical to the scalar engines; retired holds
        *deltas* and accumulates.
        """
        # bulk-convert once: .tolist() yields plain Python ints
        pcl = self.pc.tolist()
        hl = self.halted.tolist()
        retd = self.retired
        for i, row in enumerate(zip(*self.regs)):
            t = threads[i]
            t.regs[:] = row
            t.pc = pcl[i]
            t.halted = bool(hl[i])
            t.retired += retd[i]

    def san_capture(self, name: str, threads: Sequence) -> None:
        """Sanitizer: the SoA view must mirror the per-thread views at
        capture time, and lanes must be tid-sorted (the engine equates
        lane order with the reference engine's tid iteration order)."""
        check(len(self.regs) == NUM_REGS and self.n == len(threads),
              "%s: lane capture shape mismatch", name)
        prev = None
        for i, t in enumerate(threads):
            check(prev is None or t.tid > prev,
                  "%s: batch not tid-sorted at lane %d", name, i)
            prev = t.tid
            check(self.pc[i] == t.pc and bool(self.halted[i]) == t.halted,
                  "%s: lane %d pc/halted desynced from thread view",
                  name, i)
            check(all(self.regs[r][i] == t.regs[r]
                      for r in range(NUM_REGS)),
                  "%s: lane %d register column desynced", name, i)
            check(self.call_stacks[i] is t.call_stack
                  and self.syscalls[i] is t.syscall_trace,
                  "%s: lane %d stack/trace views not aliased", name, i)

    def san_group(self, name: str, lanes: Sequence[int], pc: int,
                  depth: Optional[int] = None) -> None:
        """Sanitizer twin of ``lockstep._san_group`` over lane indices:
        a scheduled group is non-empty, strictly lane-sorted (no dups),
        all live, and sits at the scheduled pc/depth."""
        check(len(lanes) > 0, "%s: empty lane group at pc %d", name, pc)
        prev = -1
        for i in lanes:
            check(prev < i <= self.n - 1,
                  "%s: lane group unsorted/duplicate/out-of-range lane "
                  "%d at pc %d", name, i, pc)
            prev = i
            check(not self.halted[i],
                  "%s: halted lane %d scheduled at pc %d", name, i, pc)
            if depth is not None:
                check(len(self.call_stacks[i]) == depth,
                      "%s: lane %d at depth %d scheduled under depth %d",
                      name, i, len(self.call_stacks[i]), depth)
