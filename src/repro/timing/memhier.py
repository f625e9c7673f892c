"""Per-core memory hierarchy: MCU -> banked L1+TLB -> L2 -> NoC -> L3
slice -> DRAM slice.

Latency composition follows the paper: the RPU pays a higher L1 hit
latency (8 vs 3 cycles) and bank-conflict serialization, but the MCU
collapses batch accesses into few line requests, and the lighter
traffic plus single-hop crossbar reduce queueing downstream - the
balance quantified in Fig. 21.

Under ``REPRO_SANITIZE=1`` every access additionally verifies the
memory-system bookkeeping: per-level cache accesses must decompose
exactly into hits + misses (+ L3 atomic RMWs), and the MCU may never
emit more line requests than its coalescing pattern permits (at most
one per active lane, except stack interleaving, which is bounded by
the per-lane word count - a single 8-byte stack access legitimately
touches two interleaved physical words 128 bytes apart).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.instructions import Instruction, OpClass, Segment
from ..memsys.cache import SetAssociativeCache
from ..memsys.dram import DramModel
from ..memsys.interconnect import CrossbarInterconnect, MeshInterconnect
from ..memsys.mcu import MemoryCoalescingUnit
from ..memsys.stackmap import StackInterleaver
from ..memsys.tlb import PAGE_SIZE, BankedTlb, Tlb
from ..sanitize import check, sanitizer_enabled
from .config import CoreConfig


class Counters(dict):
    """String-keyed event counters; missing keys read as 0."""

    def __missing__(self, key):
        return 0

    def inc(self, key: str, n: float = 1) -> None:
        self[key] = self.get(key, 0) + n

    def merge(self, other: "Counters") -> "Counters":
        for k, v in other.items():
            self.inc(k, v)
        return self


class MemoryHierarchy:
    """One core's view of the memory system."""

    def __init__(self, config: CoreConfig):
        self.cfg = config
        c = config
        self.l1 = SetAssociativeCache("L1D", c.l1_size, c.l1_assoc,
                                      c.line_size, n_banks=c.l1_banks)
        self.l2 = SetAssociativeCache("L2", c.l2_size, c.l2_assoc,
                                      c.line_size)
        self.l3 = SetAssociativeCache("L3-slice", c.l3_slice_size,
                                      c.l3_assoc, c.line_size)
        self.dram = DramModel(c.dram_bw_core_gbps, c.dram_latency,
                              c.freq_ghz, c.line_size)
        # each core owns a 1/n_cores share of the chip bisection; the
        # crossbar's bisection is far higher than the mesh's (paper
        # Table II), and the mesh additionally carries coherence
        # traffic, so its effective data bisection is modest
        if c.interconnect == "crossbar":
            self.noc = CrossbarInterconnect(
                ports=c.n_cores, bytes_per_cycle=1280.0 / c.n_cores)
        else:
            self.noc = MeshInterconnect(
                k=c.mesh_k, bytes_per_cycle=120.0 / c.n_cores)
        if c.tlb_banks > 1:
            self.tlb = BankedTlb(c.tlb_entries, c.tlb_banks, c.line_size)
        else:
            self.tlb = Tlb(c.tlb_entries)
        interleaver = (
            StackInterleaver(c.threads_per_core // c.hw_contexts)
            if c.stack_interleave
            else None
        )
        self.mcu = MemoryCoalescingUnit(c.line_size, interleaver)
        self.counters = Counters()
        #: MSHR file: line -> absolute completion time of the in-flight
        #: fill.  Accesses to a line already being fetched merge into
        #: the outstanding miss instead of issuing a duplicate request
        #: (the MSHR-merge filtering the paper credits SMT designs with)
        self._mshr: Dict[int, float] = {}
        self._san = sanitizer_enabled()
        # sanitizer shadow tallies: per-level hit counts plus L3 atomic
        # RMWs, kept outside Counters so sanitized runs stay
        # bit-identical to unsanitized ones
        self._san_hits = [0, 0, 0]
        self._san_atomic_l3 = 0

    # ------------------------------------------------------------------
    def _line_latency(self, line_addr: int, now: float, write: bool) -> float:
        """Latency of one line request entering the L1."""
        cnt = self.counters
        cfg = self.cfg
        cnt["l1_accesses"] += 1
        line_key = line_addr // cfg.line_size
        if self.l1.access(line_addr, write):
            if self._san:
                self._san_hits[0] += 1
            # a "hit" on a line whose fill is still in flight merges
            # into the outstanding miss (MSHR) and waits for the fill
            pending = self._mshr.get(line_key)
            if pending is not None and pending > now:
                cnt["mshr_merges"] += 1
                return pending - now
            return cfg.l1_latency
        cnt["l1_misses"] += 1
        cnt["l2_accesses"] += 1
        if self.l2.access(line_addr, write):
            if self._san:
                self._san_hits[1] += 1
            return cfg.l1_latency + cfg.l2_latency
        cnt["l2_misses"] += 1
        cnt["noc_traversals"] += 1
        arrival = self.noc.traverse(now + cfg.l1_latency + cfg.l2_latency)
        cnt["l3_accesses"] += 1
        if self.l3.access(line_addr, write):
            if self._san:
                self._san_hits[2] += 1
            return arrival - now + cfg.l3_latency
        cnt["l3_misses"] += 1
        cnt["dram_accesses"] += 1
        done = self.dram.access(arrival + cfg.l3_latency)
        self._mshr[line_key] = done
        if len(self._mshr) > 256:  # prune completed entries
            self._mshr = {k: v for k, v in self._mshr.items() if v > done}
        return done - now

    def _translate(self, addrs: Sequence[int], now: float) -> float:
        """TLB lookups for the pages of the line addresses."""
        cnt = self.counters
        penalty = 0.0
        for page_addr in {a // PAGE_SIZE for a in addrs}:
            cnt["tlb_accesses"] += 1
            if not self.tlb.access(page_addr * PAGE_SIZE):
                cnt["tlb_misses"] += 1
                penalty = max(penalty, float(self.cfg.tlb_miss_penalty))
        return penalty

    def _check_accounting(self, cnt: Counters) -> None:
        """Sanitizer: cache traffic must decompose exactly - for every
        level, accesses == hits + misses (+ atomic RMWs at the L3)."""
        h1, h2, h3 = self._san_hits
        check(cnt["l1_accesses"] == h1 + cnt["l1_misses"],
              "L1 accounting broken: %d accesses != %d hits + %d misses",
              cnt["l1_accesses"], h1, cnt["l1_misses"])
        check(cnt["l2_accesses"] == h2 + cnt["l2_misses"],
              "L2 accounting broken: %d accesses != %d hits + %d misses",
              cnt["l2_accesses"], h2, cnt["l2_misses"])
        check(cnt["l3_accesses"]
              == h3 + cnt["l3_misses"] + self._san_atomic_l3,
              "L3 accounting broken: %d accesses != %d hits + %d misses "
              "+ %d atomic RMWs",
              cnt["l3_accesses"], h3, cnt["l3_misses"], self._san_atomic_l3)

    def _check_mcu(self, pattern: str, lines: List[int], addrs) -> None:
        """Sanitizer: the coalescer may not fabricate line requests.

        Non-stack patterns emit at most one request per active lane
        (``divergent``/``scalar`` exactly one; ``same_word`` and
        ``consecutive`` merge, so never more).  Stack interleaving maps
        every 4-byte word separately, so its bound is the per-lane word
        count: one 8-byte access touches two physical words (128 bytes
        apart), possibly on two lines.
        """
        n_lines = len(lines)
        if pattern == "stack":
            bound = sum(max(1, s // 4) for _t, _a, s in addrs)
            check(n_lines <= bound,
                  "MCU stack pattern emitted %d lines for %d words",
                  n_lines, bound)
        else:
            check(n_lines <= len(addrs),
                  "MCU %s pattern emitted %d lines for %d lanes",
                  pattern, n_lines, len(addrs))
        check(len(set(lines)) == n_lines
              or pattern in ("divergent", "scalar"),
              "MCU %s pattern emitted duplicate lines", pattern)

    # ------------------------------------------------------------------
    def access(
        self,
        inst: Instruction,
        addrs: Sequence[Tuple[int, int, int]],
        now: float,
        batched: bool,
    ) -> float:
        """Perform one (possibly batched) memory instruction.

        Returns the completion cycle of the slowest generated access.
        """
        cfg = self.cfg
        cnt = self.counters
        write = inst.cls is OpClass.STORE

        if inst.cls is OpClass.ATOMIC:
            return self._atomic(addrs, now, batched)

        if batched and cfg.mcu_enabled:
            cnt["mcu_ops"] += 1
            res = self.mcu.coalesce(inst.segment, addrs)
            lines = res.line_addrs
            pattern = res.pattern
        else:
            # MIMD reference: every lane issues its own line access
            ls = cfg.line_size
            lines = [a // ls * ls for _t, a, _s in addrs]
            pattern = "scalar"
        if self._san:
            self._check_mcu(pattern, lines, addrs)
        if not lines:
            return now

        n_lines = len(lines)
        if inst.segment is Segment.STACK:
            cnt["stack_line_accesses"] += n_lines
        else:
            cnt["data_line_accesses"] += n_lines

        # Stack interleaving needs a single translation (thread-0 base
        # override); everything else translates per page touched, and
        # a one-line access touches exactly one page.
        if pattern == "stack" or n_lines == 1:
            cnt["tlb_accesses"] += 1
            tlb_penalty = 0.0
            vaddr = (lines[0] if pattern == "stack"
                     else lines[0] // PAGE_SIZE * PAGE_SIZE)
            if not self.tlb.access(vaddr):
                cnt["tlb_misses"] += 1
                tlb_penalty = float(cfg.tlb_miss_penalty)
        else:
            tlb_penalty = self._translate(lines, now)

        # one line cannot conflict with itself: its depth is 1
        serial = (self.l1.bank_conflicts(lines)
                  if n_lines > 1 and cfg.l1_banks > 1 else n_lines)
        if serial > 1:
            cnt["l1_bank_conflict_cycles"] += serial - 1
            start = now + tlb_penalty + (serial - 1)
        else:
            cnt["l1_bank_conflict_cycles"] += 0
            start = now + tlb_penalty
        worst = 0.0
        for line in lines:
            lat = self._line_latency(line, start, write)
            if lat > worst:
                worst = lat
        if self._san:
            self._check_accounting(cnt)
        if write:
            # stores drain through the store queue off the critical path
            return start + 1
        # fig. 21 metrics: average load-to-use latency, plus the
        # latency of loads that left the L1 (the queueing-sensitive
        # part the paper's Fig. 21 reports)
        cnt["load_latency_sum"] += start + worst - now
        cnt["load_count"] += 1
        if worst > cfg.l1_latency:
            cnt["miss_latency_sum"] += start + worst - now
            cnt["miss_count"] += 1
        return start + worst

    def _atomic(self, addrs: Sequence[Tuple[int, int, int]], now: float,
                batched: bool) -> float:
        cfg = self.cfg
        cnt = self.counters
        n = len(addrs)
        if cfg.atomics_at_l3:
            # bypass private caches; serialize RMWs at the L3 slice
            cnt["atomics_at_l3"] += n
            cnt["noc_traversals"] += 1
            arrival = self.noc.traverse(now)
            cnt["l3_accesses"] += n
            for _tid, a, _s in addrs:
                self.l3.access(a)
            if self._san:
                self._san_atomic_l3 += n
                self._check_accounting(cnt)
            return arrival + cfg.l3_latency + n  # one RMW slot per lane
        # CPU baseline: idealized - atomics behave like private-cache
        # loads with zero coherence traffic (paper Section IV)
        cnt["atomics_in_l1"] += n
        worst = 0.0
        for _tid, a, _s in addrs:
            line = a // cfg.line_size * cfg.line_size
            lat = self._line_latency(line, now, True)
            if lat > worst:
                worst = lat
        if self._san:
            self._check_accounting(cnt)
        return now + worst

    def reset_counters(self) -> None:
        """Swap in fresh counters (measurement boundary), keeping warm
        caches, TLBs and MSHRs - and resync the sanitizer shadows."""
        self.counters = Counters()
        self._san_hits = [0, 0, 0]
        self._san_atomic_l3 = 0

    def reset_stats(self) -> None:
        self.reset_counters()
        self._mshr.clear()
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.l3.reset_stats()
