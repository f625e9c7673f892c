"""Memory-hierarchy composition tests."""

from dataclasses import replace

import pytest

from repro.engine.memory import HEAP_BASE, stack_base
from repro.isa import Instruction, OpClass, Segment
from repro.memsys.mcu import CoalescingResult
from repro.sanitize import SanitizerError
from repro.timing import CPU_CONFIG, RPU_CONFIG, SMT8_CONFIG, MemoryHierarchy


def ld(segment=Segment.HEAP):
    return Instruction(op="ld", cls=OpClass.LOAD, dst=1, srcs=(2,),
                       segment=segment)


def st(segment=Segment.HEAP):
    return Instruction(op="st", cls=OpClass.STORE, srcs=(2, 3),
                       segment=segment)


def amo():
    return Instruction(op="amoadd", cls=OpClass.ATOMIC, dst=1, srcs=(2, 3),
                       segment=Segment.HEAP)


def test_l1_hit_latency():
    mh = MemoryHierarchy(CPU_CONFIG)
    a = [(0, HEAP_BASE, 8)]
    mh.access(ld(), a, 0.0, batched=False)  # warm
    t = mh.access(ld(), a, 1000.0, batched=False)
    assert t - 1000.0 == CPU_CONFIG.l1_latency


def test_miss_goes_down_the_hierarchy():
    mh = MemoryHierarchy(CPU_CONFIG)
    t = mh.access(ld(), [(0, HEAP_BASE, 8)], 0.0, batched=False)
    assert t > CPU_CONFIG.l1_latency + CPU_CONFIG.l2_latency
    c = mh.counters
    assert c["l1_misses"] == 1 and c["l2_misses"] == 1
    assert c["dram_accesses"] == 1
    assert c["noc_traversals"] == 1


def test_store_returns_quickly_but_counts():
    mh = MemoryHierarchy(CPU_CONFIG)
    mh.access(ld(), [(0, HEAP_BASE, 8)], 0.0, batched=False)  # warm TLB
    t = mh.access(st(), [(0, HEAP_BASE, 8)], 1000.0, batched=False)
    assert t <= 1001.0  # drains off the critical path
    assert mh.counters["l1_accesses"] == 2


def test_rpu_mcu_broadcast_counts_one_access():
    mh = MemoryHierarchy(RPU_CONFIG)
    addrs = [(t, HEAP_BASE + 256, 8) for t in range(32)]
    mh.access(ld(), addrs, 0.0, batched=True)
    assert mh.counters["l1_accesses"] == 1
    assert mh.counters["mcu_ops"] == 1


def test_cpu_path_never_coalesces():
    mh = MemoryHierarchy(CPU_CONFIG)
    addrs = [(t, HEAP_BASE + 256, 8) for t in range(4)]
    mh.access(ld(), addrs, 0.0, batched=False)
    assert mh.counters["l1_accesses"] == 4


def test_stack_batch_uses_one_translation():
    mh = MemoryHierarchy(RPU_CONFIG)
    addrs = [(t, stack_base(t) - 128, 8) for t in range(32)]
    mh.access(st(Segment.STACK), addrs, 0.0, batched=True)
    assert mh.counters["tlb_accesses"] == 1
    assert mh.counters["stack_line_accesses"] == 8


def test_bank_conflicts_penalize_divergent_batches():
    mh = MemoryHierarchy(RPU_CONFIG)
    # 16 addresses all mapping to one bank: stride = line * n_banks
    stride = RPU_CONFIG.line_size * RPU_CONFIG.l1_banks
    addrs = [(t, HEAP_BASE + t * stride, 8) for t in range(16)]
    mh.access(ld(), addrs, 0.0, batched=True)
    assert mh.counters["l1_bank_conflict_cycles"] == 15


def test_atomics_at_l3_bypass_private_caches():
    mh = MemoryHierarchy(RPU_CONFIG)
    addrs = [(t, HEAP_BASE + 64, 8) for t in range(32)]
    t = mh.access(amo(), addrs, 0.0, batched=True)
    assert mh.counters["atomics_at_l3"] == 32
    assert mh.counters["l1_accesses"] == 0
    assert t >= RPU_CONFIG.l3_latency + 32  # serialized RMWs


def test_atomics_in_l1_for_cpu():
    mh = MemoryHierarchy(CPU_CONFIG)
    t0 = mh.access(amo(), [(0, HEAP_BASE + 64, 8)], 0.0, batched=False)
    t1 = mh.access(amo(), [(0, HEAP_BASE + 64, 8)], 1000.0, batched=False)
    assert mh.counters["atomics_in_l1"] == 2
    assert t1 - 1000.0 <= CPU_CONFIG.l1_latency


def test_mshr_merges_duplicate_inflight_fills():
    mh = MemoryHierarchy(CPU_CONFIG)
    t1 = mh.access(ld(), [(0, HEAP_BASE, 8)], 0.0, batched=False)
    t2 = mh.access(ld(), [(1, HEAP_BASE, 8)], 1.0, batched=False)
    assert mh.counters["dram_accesses"] == 1
    assert mh.counters["mshr_merges"] == 1
    assert t2 == pytest.approx(t1)  # waits for the same fill
    # once the fill lands, it is a plain L1 hit again
    t3 = mh.access(ld(), [(0, HEAP_BASE, 8)], t1 + 10, batched=False)
    assert t3 - (t1 + 10) == CPU_CONFIG.l1_latency


def test_load_latency_metric_recorded():
    mh = MemoryHierarchy(CPU_CONFIG)
    mh.access(ld(), [(0, HEAP_BASE, 8)], 0.0, batched=False)
    assert mh.counters["load_count"] == 1
    assert mh.counters["load_latency_sum"] > 0


def test_dram_bandwidth_slice_scales_with_cores():
    assert (RPU_CONFIG.dram_bw_core_gbps
            > CPU_CONFIG.dram_bw_core_gbps * 10)


def test_reset_stats():
    mh = MemoryHierarchy(CPU_CONFIG)
    mh.access(ld(), [(0, HEAP_BASE, 8)], 0.0, batched=False)
    mh.reset_stats()
    assert mh.counters == {}


class TestSanitizers:
    """REPRO_SANITIZE=1 memory-system invariants.

    ``MemoryHierarchy`` captures the sanitizer flag at construction, so
    every test sets the environment *before* building the hierarchy.
    """

    @pytest.fixture
    def san(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")

    def test_accounting_invariant_holds_on_clean_runs(self, san):
        mh = MemoryHierarchy(RPU_CONFIG)
        addrs = [(t, HEAP_BASE + 64 * t, 8) for t in range(32)]
        mh.access(ld(), addrs, 0.0, batched=True)
        mh.access(st(), addrs, 100.0, batched=True)
        mh.access(amo(), addrs, 200.0, batched=True)  # no SanitizerError

    def test_corrupted_counters_detected(self, san):
        mh = MemoryHierarchy(CPU_CONFIG)
        mh.access(ld(), [(0, HEAP_BASE, 8)], 0.0, batched=False)
        mh.counters["l1_misses"] += 1  # simulate lost bookkeeping
        with pytest.raises(SanitizerError):
            mh.access(ld(), [(0, HEAP_BASE + 4096, 8)], 10.0,
                      batched=False)

    def test_atomic_accounting_detects_corruption(self, san):
        mh = MemoryHierarchy(RPU_CONFIG)
        addrs = [(t, HEAP_BASE + 64, 8) for t in range(4)]
        mh.access(amo(), addrs, 0.0, batched=True)
        mh.counters["l3_accesses"] += 3
        with pytest.raises(SanitizerError):
            mh.access(amo(), addrs, 100.0, batched=True)

    def test_mcu_fabricated_lines_detected(self, san, monkeypatch):
        mh = MemoryHierarchy(RPU_CONFIG)
        # 3 line requests for a single active lane: impossible for any
        # non-stack pattern
        monkeypatch.setattr(
            mh.mcu, "coalesce",
            lambda segment, accesses: CoalescingResult(
                [0, 32, 64], "same_word"))
        with pytest.raises(SanitizerError):
            mh.access(ld(), [(0, HEAP_BASE, 8)], 0.0, batched=True)

    def test_mcu_duplicate_lines_detected(self, san, monkeypatch):
        mh = MemoryHierarchy(RPU_CONFIG)
        monkeypatch.setattr(
            mh.mcu, "coalesce",
            lambda segment, accesses: CoalescingResult(
                [0, 0], "consecutive"))
        with pytest.raises(SanitizerError):
            mh.access(ld(), [(t, HEAP_BASE + 32 * t, 8) for t in (0, 1)],
                      0.0, batched=True)

    def test_wide_stack_access_within_word_bound(self, san):
        # an 8-byte single-lane stack access maps to two interleaved
        # physical words 128 bytes apart - two lines for one lane is
        # legitimate under the per-lane word-count bound
        mh = MemoryHierarchy(RPU_CONFIG)
        mh.access(ld(Segment.STACK), [(0, stack_base(0) - 128, 8)],
                  0.0, batched=True)
        assert mh.counters["stack_line_accesses"] == 2

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        mh = MemoryHierarchy(CPU_CONFIG)
        mh.access(ld(), [(0, HEAP_BASE, 8)], 0.0, batched=False)
        mh.counters["l1_misses"] += 1  # corruption goes unchecked
        mh.access(ld(), [(0, HEAP_BASE + 4096, 8)], 10.0, batched=False)


@pytest.mark.parametrize("config", [CPU_CONFIG, SMT8_CONFIG],
                         ids=["cpu", "smt8"])
class TestScalarPathUnderSanitizer:
    """The scalar (non-MCU) path builds its line list inline and takes
    a one-line shortcut past the page set and bank-conflict scan; the
    accounting checks must still run and hold on it."""

    @pytest.fixture(autouse=True)
    def san(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")

    def test_one_line_accesses_pass_and_translate_once(self, config):
        mh = MemoryHierarchy(config)
        for k in range(6):
            mh.access(ld(), [(0, HEAP_BASE + 4096 * k, 8)], 10.0 * k,
                      batched=False)
            mh.access(st(), [(0, HEAP_BASE + 4096 * k, 8)], 10.0 * k + 5,
                      batched=False)
        c = mh.counters
        assert c["tlb_accesses"] == 12
        assert c["l1_accesses"] == 12
        assert c["l1_bank_conflict_cycles"] == 0

    def test_multi_line_accesses_pass_and_translate_per_page(self, config):
        mh = MemoryHierarchy(config)
        page = 2 * 1024 * 1024
        addrs = [(t, HEAP_BASE + 32 * t + page * (t % 2), 8)
                 for t in range(4)]
        mh.access(ld(), addrs, 0.0, batched=False)
        mh.access(st(), addrs, 100.0, batched=False)
        c = mh.counters
        assert c["tlb_accesses"] == 4  # two pages per access
        assert c["l1_accesses"] == 8

    def test_one_line_corruption_still_detected(self, config):
        mh = MemoryHierarchy(config)
        mh.access(ld(), [(0, HEAP_BASE, 8)], 0.0, batched=False)
        mh.counters["l2_misses"] += 1
        with pytest.raises(SanitizerError):
            mh.access(ld(), [(0, HEAP_BASE + 64, 8)], 10.0, batched=False)
