"""Approximate OoO/in-order scoreboard core model.

One :class:`CoreModel` simulates one core processing one or more
*streams* of trace events (a stream = one hardware context: a CPU
thread, one SMT thread, one RPU batch, or one GPU warp).  The model is
an interval-style approximation of Accel-Sim's extended pipeline:

* the frontend issues ``issue_width`` micro-ops per cycle, shared by
  all contexts (SMT partitioning falls out of round-robin fetch);
* out-of-order contexts start an op when its operands are ready,
  bounded by a per-context ROB window; in-order contexts additionally
  respect program order (GPU);
* a batch op with ``a`` active lanes on ``m`` SIMT lanes occupies
  ``ceil(a/m)`` issue slots (sub-batch interleaving, Fig. 8a);
* branch mispredictions bubble that context's fetch; syscalls
  serialize it; loads go through the full memory hierarchy model.

Two entry points share one event-processing engine:

* :meth:`CoreModel.run` consumes fully materialized event streams
  round-robin (tests, differential checks);
* :meth:`CoreModel.begin` returns a :class:`CoreRun` that accepts
  events *incrementally* (``feed``/``close``/``finish``), which is how
  ``run_chip`` streams executor events straight into the timing model
  without materializing them first.  Single-context runs process each
  fed event immediately; multi-context runs buffer per context and
  drain in strict round-robin sweep order, so the issue interleaving -
  and therefore every cycle and counter - is identical to
  materialize-then-``run`` by construction.

Hot-loop counter discipline: integer counters (instruction/slot/RF
event counts) are accumulated in plain Python ints and flushed to
:class:`Counters` once per run.  The float cycle-stack sums are
different: reassociating them would break bit-identity, so each one
is a closure local *seeded* from the counter's value when the
:class:`CoreRun` is built, added to once per event in event order, and
written back by ``finish()`` - the same additions in the same order as
adding into the counter directly.  Only the keys the run touched are
written back, because key presence is part of the result.  This relies
on at most one :class:`CoreRun` per core being in flight at a time
(``run_chip`` and :meth:`CoreModel.run` finish each run before the
next begins).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.instructions import NUM_REGS, Instruction, OpClass
from .bpred import (
    GsharePredictor,
    MajorityVotePredictor,
    PerThreadVotePredictor,
)
from .config import CoreConfig
from .memhier import Counters, MemoryHierarchy

#: trace event: (pc, inst, active, addrs, outcomes)
Event = Tuple[int, Instruction, int, Sequence, Optional[Sequence]]

#: op-class values whose service time is charged to the memory stack
_MEM_CLASSES = frozenset(c._value_ for c in (OpClass.LOAD, OpClass.STORE,
                                             OpClass.ATOMIC))


@dataclass
class StreamResult:
    start: float
    finish: float
    events: int

    @property
    def cycles(self) -> float:
        return self.finish - self.start


@dataclass
class CoreRunResult:
    start: float
    finish: float
    streams: List[StreamResult]

    @property
    def cycles(self) -> float:
        return self.finish - self.start


class _Context:
    __slots__ = ("reg_ready", "fetch_time", "last_start", "rob",
                 "finish", "start", "events", "icache_credit")

    def __init__(self, now: float):
        self.reg_ready = [now] * NUM_REGS
        self.fetch_time = now
        self.last_start = now
        self.rob: deque = deque()
        self.finish = now
        self.start = now
        self.events = 0
        self.icache_credit = 0.0


class CoreRun:
    """One in-progress core run fed events incrementally.

    Produced by :meth:`CoreModel.begin`.  ``feed(ctx, ...)`` submits one
    event for hardware context ``ctx``; ``close(ctx)`` marks that
    context's stream exhausted; ``finish()`` drains everything, updates
    the core clock and counters and returns the :class:`CoreRunResult`.

    ``addrs``/``outcomes`` passed to :meth:`feed` are only borrowed for
    the duration of the call on the single-context fast path; on the
    multi-context path they are copied into the per-context buffer.
    """

    __slots__ = (
        "core", "cfg", "mem", "batched", "start",
        "contexts", "preds", "_counters", "_process", "_snapshot",
        "_single", "_bufs", "_closed", "_dead", "_alive", "_rr",
        "_finished",
    )

    def __init__(self, core: "CoreModel", n_contexts: int, batched: bool):
        cfg = core.cfg
        self.core = core
        self.cfg = cfg
        self.mem = core.mem
        self.batched = batched
        start = core.now
        self.start = start
        self.contexts = [_Context(start) for _ in range(n_contexts)]
        self.preds = [core._predictor(i) for i in range(n_contexts)]
        # bound once: core.counters is stable for the whole run (resets
        # only ever happen between runs), and the float sums are seeded
        # from and written back to the object the integer flush targets
        self._counters = core.counters
        self._single = n_contexts == 1
        self._bufs = (None if self._single
                      else [deque() for _ in range(n_contexts)])
        self._closed = [False] * n_contexts
        self._dead = [False] * n_contexts
        self._alive = n_contexts
        self._rr = 0
        self._finished = False
        self._process, self._snapshot = self._build_engine()

    # ------------------------------------------------------------------
    def feed(self, ctx: int, pc, inst, active, addrs, outcomes) -> None:
        """Submit one event for context ``ctx`` (in stream order)."""
        if self._single:
            self._process(0, pc, inst, active, addrs, outcomes)
            return
        self._bufs[ctx].append(
            (pc, inst, active, tuple(addrs),
             tuple(outcomes) if outcomes else None))
        if ctx == self._rr:
            self._pump()

    def close(self, ctx: int) -> None:
        """Mark context ``ctx``'s stream exhausted."""
        self._closed[ctx] = True
        if not self._single:
            self._pump()

    def _pump(self) -> None:
        """Drain buffered events in round-robin sweep order.

        Processes one event per live context per sweep (exactly the
        consumption order of :meth:`CoreModel.run` over materialized
        streams), suspending when the next context in the sweep has no
        buffered event and is not yet closed.
        """
        bufs = self._bufs
        closed = self._closed
        dead = self._dead
        alive = self._alive
        i = self._rr
        n = len(bufs)
        while alive:
            if dead[i]:
                i += 1
                if i == n:
                    i = 0
                continue
            buf = bufs[i]
            if buf:
                ev = buf.popleft()
                self._process(i, ev[0], ev[1], ev[2], ev[3], ev[4])
                i += 1
                if i == n:
                    i = 0
            elif closed[i]:
                dead[i] = True
                alive -= 1
                i += 1
                if i == n:
                    i = 0
            else:
                break
        self._alive = alive
        self._rr = i

    def finish(self) -> CoreRunResult:
        """Drain remaining events, flush counters, advance the clock."""
        if self._finished:
            raise RuntimeError("CoreRun.finish() called twice")
        self._finished = True
        if not self._single:
            for c in range(len(self._closed)):
                self._closed[c] = True
            self._pump()
        (issue_time, n_events, n_scalar, n_slots, n_rf_reads, n_rf_writes,
         n_icache_stalls, n_syscalls, scalar_by_cls, stack_dep, stack_mem,
         stack_exec) = self._snapshot()
        start = self.start
        contexts = self.contexts
        finish_all = max((c.finish for c in contexts), default=start)
        if issue_time > finish_all:
            finish_all = issue_time
        self.core.now = finish_all

        cnt = self._counters
        if n_events:
            cnt["stack_dep_wait"] = stack_dep
            classes = scalar_by_cls.keys()
            if not classes.isdisjoint(_MEM_CLASSES):
                cnt["stack_mem_service"] = stack_mem
            if not classes <= _MEM_CLASSES:
                cnt["stack_exec_service"] = stack_exec
        inc = cnt.inc
        if n_icache_stalls:
            inc("icache_stalls", n_icache_stalls)
        if n_syscalls:
            inc("syscalls", n_syscalls)
        if n_events:
            inc("batch_instructions", n_events)
            inc("scalar_instructions", n_scalar)
            inc("issue_slots", n_slots)
        for value, v in scalar_by_cls.items():
            inc("scalar_" + value, v)
        if n_rf_reads:
            inc("rf_reads", n_rf_reads)
        if n_rf_writes:
            inc("rf_writes", n_rf_writes)

        return CoreRunResult(
            start=start,
            finish=finish_all,
            streams=[
                StreamResult(start=start, finish=c.finish, events=c.events)
                for c in contexts
            ],
        )

    # ------------------------------------------------------------------
    def _build_engine(self):
        """Build the per-event processing closure (the hot loop).

        Every piece of per-event state lives in cell variables, so one
        event costs zero ``self`` attribute loads; :meth:`finish` reads
        the accumulators back through the ``snapshot`` closure.  The
        event math is an exact port of the original ``CoreModel.run``
        loop - float operation order is preserved for bit-identity.
        """
        cfg = self.cfg
        contexts = self.contexts
        preds = self.preds
        mem_access = self.mem.access
        cnt = self._counters
        batched = self.batched
        lanes = cfg.lanes
        issue_step = 1.0 / cfg.issue_width
        icache_rate = cfg.icache_mpki / 1000.0
        icache_penalty = float(cfg.icache_penalty)
        in_order = cfg.in_order
        rob_limit = cfg.rob_entries
        alu_latency = cfg.alu_latency
        mul_latency = cfg.mul_latency
        simd_latency = cfg.simd_latency
        branch_penalty = cfg.branch_penalty
        syscall_overhead = cfg.syscall_overhead
        ALU = OpClass.ALU
        LOAD = OpClass.LOAD
        STORE = OpClass.STORE
        BRANCH = OpClass.BRANCH
        MUL = OpClass.MUL
        SIMD = OpClass.SIMD
        ATOMIC = OpClass.ATOMIC
        SYSCALL = OpClass.SYSCALL
        FENCE = OpClass.FENCE
        CALL = OpClass.CALL
        RET = OpClass.RET

        issue_time = self.start
        n_events = n_scalar = n_slots = 0
        n_rf_reads = n_rf_writes = 0
        n_icache_stalls = n_syscalls = 0
        #: scalar instructions per op class, keyed by ``cls._value_``: a
        #: plain-string key skips the Python-level ``Enum.__hash__``
        scalar_by_cls: Dict[str, int] = {}
        stack_dep = cnt.get("stack_dep_wait", 0)
        stack_mem = cnt.get("stack_mem_service", 0)
        stack_exec = cnt.get("stack_exec_service", 0)

        def process(i, pc, inst, active, addrs, outcomes):
            nonlocal issue_time, n_events, n_scalar, n_slots
            nonlocal n_rf_reads, n_rf_writes, n_icache_stalls, n_syscalls
            nonlocal stack_dep, stack_mem, stack_exec
            ctx = contexts[i]
            cls = inst.cls

            if batched:
                slots = 1 if active <= lanes else -(-active // lanes)
            else:
                slots = 1
            # instruction-supply stalls (amortized over the batch)
            credit = ctx.icache_credit + icache_rate
            if credit >= 1.0:
                ctx.icache_credit = credit - 1.0
                ctx.fetch_time += icache_penalty
                n_icache_stalls += 1
            else:
                ctx.icache_credit = credit
            fetch = issue_time
            if ctx.fetch_time > fetch:
                fetch = ctx.fetch_time
            issue_time = fetch + issue_step * slots

            rob = ctx.rob
            if len(rob) >= rob_limit:
                head = rob.popleft()
                if head > fetch:
                    fetch = head

            srcs = inst.srcs
            dep = ctx.reg_ready
            ready = fetch
            for s in srcs:
                r = dep[s]
                if r > ready:
                    ready = r
            start_t = ready
            if in_order:
                if ctx.last_start > start_t:
                    start_t = ctx.last_start
                ctx.last_start = start_t

            # ---- execute --------------------------------------------
            if cls is ALU:
                finish = start_t + alu_latency + (slots - 1)
            elif cls is LOAD or cls is STORE:
                finish = mem_access(inst, addrs, start_t, batched)
            elif cls is BRANCH:
                finish = start_t + alu_latency + (slots - 1)
                if outcomes:
                    mispredicted = preds[i].observe(pc, outcomes)
                    if in_order:
                        # no speculation: fetch waits for resolution
                        ctx.fetch_time = finish
                    elif mispredicted:
                        bubble = finish + branch_penalty
                        if bubble > ctx.fetch_time:
                            ctx.fetch_time = bubble
            elif cls is MUL:
                finish = start_t + mul_latency + (slots - 1)
            elif cls is SIMD:
                finish = start_t + simd_latency + (slots - 1)
            elif cls is ATOMIC:
                finish = mem_access(inst, addrs, start_t, batched)
            elif cls is SYSCALL:
                finish = start_t + syscall_overhead
                ctx.fetch_time = finish  # serializing transition
                n_syscalls += active
            elif cls is FENCE:
                drain = max(rob) if rob else start_t
                finish = max(start_t, drain)
                ctx.fetch_time = finish
            elif cls is CALL or cls is RET:
                # return-address push/pop is a stack memory access
                if addrs:
                    finish = mem_access(inst, addrs, start_t, batched)
                else:
                    finish = start_t + 1
            else:  # JUMP / NOP / HALT
                finish = start_t + 1

            # cycle-stack attribution (paper: data center CPUs retire
            # only ~20% of cycles; the rest are stalls).  The float sums
            # are added per event, in event order, onto the counters'
            # seeded values (see the module docstring).
            stack_dep += start_t - fetch
            if cls is LOAD or cls is STORE or cls is ATOMIC:
                stack_mem += finish - start_t
            else:
                stack_exec += finish - start_t

            if inst.dst:
                dep[inst.dst] = finish
                n_rf_writes += active
            rob.append(finish)
            if finish > ctx.finish:
                ctx.finish = finish
            ctx.events += 1

            # ---- energy/bookkeeping counters (flushed in finish()) --
            n_events += 1
            n_scalar += active
            key = cls._value_
            scalar_by_cls[key] = scalar_by_cls.get(key, 0) + active
            n_slots += slots
            if srcs:
                n_rf_reads += len(srcs) * active

        def snapshot():
            return (issue_time, n_events, n_scalar, n_slots, n_rf_reads,
                    n_rf_writes, n_icache_stalls, n_syscalls,
                    scalar_by_cls, stack_dep, stack_mem, stack_exec)

        return process, snapshot


class CoreModel:
    """A reusable core: caches and predictors persist across runs."""

    def __init__(self, config: CoreConfig,
                 mem: Optional[MemoryHierarchy] = None):
        self.cfg = config
        self.mem = mem if mem is not None else MemoryHierarchy(config)
        self.counters = Counters()
        self.now = 0.0
        self._preds: Dict[int, GsharePredictor] = {}

    def _predictor(self, ctx_id: int) -> GsharePredictor:
        if ctx_id not in self._preds:
            if self.cfg.majority_vote_bp:
                self._preds[ctx_id] = MajorityVotePredictor()
            elif self.cfg.batch_size > 1:
                self._preds[ctx_id] = PerThreadVotePredictor()
            else:
                self._preds[ctx_id] = GsharePredictor()
        return self._preds[ctx_id]

    # ------------------------------------------------------------------
    def begin(self, n_contexts: int, batched: bool = False) -> CoreRun:
        """Start an incremental run over ``n_contexts`` event streams."""
        return CoreRun(self, n_contexts, batched)

    def run(self, streams: Sequence[Sequence[Event]],
            batched: bool = False) -> CoreRunResult:
        """Process materialized event streams round-robin.

        ``batched`` marks RPU/GPU-style streams whose events carry a
        whole batch per step (enables the MCU and lane accounting).
        Implemented on the same engine as :meth:`begin`, feeding events
        directly in sweep order, so both paths are identical by
        construction.
        """
        run = CoreRun(self, len(streams), batched)
        process = run._process
        cursors = [iter(s) for s in streams]
        pending: List[Optional[Event]] = [next(c, None) for c in cursors]
        alive = sum(1 for p in pending if p is not None)
        while alive:
            for i, ev in enumerate(pending):
                if ev is None:
                    continue
                process(i, ev[0], ev[1], ev[2], ev[3], ev[4])
                nxt = next(cursors[i], None)
                pending[i] = nxt
                if nxt is None:
                    alive -= 1
        return run.finish()

    # ------------------------------------------------------------------
    def reset_measurement(self) -> None:
        """Clear counters/statistics while keeping warm microarchitectural
        state (caches, TLBs, predictor tables, current cycle)."""
        from .bpred import BpredStats

        self.counters = Counters()
        self.mem.reset_counters()
        for p in self._preds.values():
            p.stats = BpredStats()

    def bpred_stats(self):
        lookups = sum(p.stats.lookups for p in self._preds.values())
        mis = sum(p.stats.mispredicts for p in self._preds.values())
        flushes = sum(p.stats.minority_flushes for p in self._preds.values())
        return lookups, mis, flushes

    def all_counters(self) -> Counters:
        total = Counters()
        total.merge(self.counters)
        total.merge(self.mem.counters)
        lookups, mis, flushes = self.bpred_stats()
        total.inc("bp_lookups", lookups)
        total.inc("bp_mispredicts", mis)
        total.inc("bp_minority_flushes", flushes)
        return total
