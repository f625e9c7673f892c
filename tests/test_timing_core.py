"""Scoreboard core-model tests: dependencies, ROB, in-order, lanes."""

import pytest

from repro.isa import Instruction, OpClass, Segment, SyscallKind
from repro.timing import CoreModel
from repro.timing.config import CPU_CONFIG, GPU_CONFIG, RPU_CONFIG, CoreConfig
from dataclasses import replace

QUIET = dict(icache_mpki=0.0)


def alu(dst, *srcs):
    return (0, Instruction(op="add", cls=OpClass.ALU, dst=dst, srcs=srcs),
            1, (), None)


def load(dst, addr, tid=0):
    inst = Instruction(op="ld", cls=OpClass.LOAD, dst=dst, srcs=(2,),
                       segment=Segment.HEAP)
    return (0, inst, 1, ((tid, addr, 8),), None)


def branch(taken):
    inst = Instruction(op="beq", cls=OpClass.BRANCH, srcs=(1, 2))
    return (4, inst, 1, (), ((0, taken),))


def cfg(**kw):
    merged = {**QUIET, **kw}
    return replace(CPU_CONFIG, **merged)


def test_independent_alus_pipeline_at_issue_width():
    core = CoreModel(cfg())
    stream = [alu(i % 8 + 1) for i in range(80)]
    res = core.run([stream])
    # 80 ops at 8-wide ~ 10 cycles + latency tail
    assert res.cycles < 20


def test_dependent_chain_serializes_at_alu_latency():
    core = CoreModel(cfg())
    stream = [alu(1, 1) for _ in range(50)]  # r1 <- r1 chain
    res = core.run([stream])
    assert res.cycles >= 50 * CPU_CONFIG.alu_latency


def test_rpu_alu_chain_is_4x_cpu():
    chain = [alu(1, 1) for _ in range(50)]
    t_cpu = CoreModel(cfg()).run([chain]).cycles
    t_rpu = CoreModel(replace(RPU_CONFIG, **QUIET)).run(
        [[(pc, i, 32, a, o) for pc, i, _n, a, o in chain]],
        batched=True).cycles
    assert t_rpu > 3 * t_cpu


def test_rob_limits_inflight_window():
    small = cfg(rob_entries=4)
    big = cfg(rob_entries=256)
    # long-latency loads followed by independent work
    stream = []
    for i in range(32):
        stream.append(load(1, 0x4000_0000 + 4096 * i))
    t_small = CoreModel(small).run([stream]).cycles
    t_big = CoreModel(big).run([stream]).cycles
    assert t_small > t_big


def test_in_order_blocks_on_dependency():
    ooo = cfg()
    ino = cfg(in_order=True)
    # a slow load then independent ALU work: OoO overlaps, in-order not
    stream = [load(1, 0x4000_0000)] + [alu(2, 3) for _ in range(20)]
    t_ooo = CoreModel(ooo).run([stream]).cycles
    t_ino = CoreModel(ino).run([stream]).cycles
    assert t_ino >= t_ooo


def test_branch_mispredict_bubbles_fetch():
    # alternating outcomes defeat the predictor early on
    stream = [branch(bool(i % 2)) for i in range(40)]
    res = CoreModel(cfg()).run([stream])
    core2 = CoreModel(cfg())
    steady = [branch(True) for _ in range(40)]
    res2 = core2.run([steady])
    assert res.cycles > res2.cycles


def test_syscall_serializes_stream():
    sc = Instruction(op="syscall", cls=OpClass.SYSCALL,
                     syscall=SyscallKind.NETWORK)
    stream = [(0, sc, 1, (), None), alu(1)]
    res = CoreModel(cfg()).run([stream])
    assert res.cycles >= CPU_CONFIG.syscall_overhead


def test_sub_batch_interleaving_slots():
    """A 32-active batch op on 8 lanes occupies 4 issue slots."""
    config = replace(RPU_CONFIG, **QUIET)
    core = CoreModel(config)
    inst = Instruction(op="add", cls=OpClass.ALU, dst=1, srcs=(2,))
    stream = [(0, inst, 32, (), None) for _ in range(64)]
    core.run([stream], batched=True)
    assert core.counters["issue_slots"] == 64 * 4


def test_smt_streams_share_frontend():
    config = cfg()
    one = [alu(i % 8 + 1) for i in range(64)]
    t_single = CoreModel(config).run([one]).cycles
    t_eight = CoreModel(config).run([list(one) for _ in range(8)]).cycles
    assert t_eight > t_single * 4  # bandwidth shared across contexts


def test_counters_track_mix():
    core = CoreModel(cfg())
    stream = [alu(1), load(2, 0x4000_0000), branch(True)]
    core.run([stream])
    c = core.all_counters()
    assert c["scalar_alu"] == 1
    assert c["scalar_load"] == 1
    assert c["scalar_branch"] == 1
    assert c["batch_instructions"] == 3
    assert c["rf_writes"] == 2
    assert c["bp_lookups"] == 1


def test_icache_stalls_accumulate():
    config = cfg(icache_mpki=100.0, icache_penalty=30)
    core = CoreModel(config)
    stream = [alu(i % 8 + 1) for i in range(100)]
    res = core.run([stream])
    assert core.counters["icache_stalls"] in (9, 10)  # fp credit
    assert res.cycles >= 9 * 30


def test_reset_measurement_keeps_time_clears_counters():
    core = CoreModel(cfg())
    core.run([[alu(1)] * 10])
    now = core.now
    core.reset_measurement()
    assert core.now == now
    assert core.all_counters()["scalar_instructions"] == 0


def test_time_accumulates_across_runs():
    core = CoreModel(cfg())
    r1 = core.run([[alu(1)] * 10])
    r2 = core.run([[alu(1)] * 10])
    assert r2.start >= r1.finish - 1e-9


# ----------------------------------------------------------------------
# hot-loop invariants: seeded cycle-stack sums and value-keyed tallies
# ----------------------------------------------------------------------

def _bare_load(dst):
    """A load with no source registers: its dependence wait is zero."""
    inst = Instruction(op="ld", cls=OpClass.LOAD, dst=dst, srcs=(),
                       segment=Segment.HEAP)
    return (0, inst, 1, ((0, 0x4000_0000, 8),), None)


def _scripted_memory(core, latencies):
    """Replace the core's memory with fixed per-access latencies and
    record each access's service time exactly as the model computes
    it (``finish - start``)."""
    service = []
    it = iter(latencies)

    def access(inst, addrs, now, batched):
        finish = now + next(it)
        service.append(finish - now)
        return finish

    core.mem.access = access
    return service


def _fold(deltas, seed=0):
    total = seed
    for d in deltas:
        total += d
    return total


@pytest.mark.parametrize("reset", [False, True], ids=["carry", "reset"])
def test_stack_sums_equal_per_event_fold_across_runs(reset):
    import random

    rng = random.Random(5)
    latencies = [rng.uniform(0.1, 500.0) for _ in range(60)]
    core = CoreModel(cfg())
    service = _scripted_memory(core, latencies)
    core.run([[_bare_load(i % 8 + 1) for i in range(30)]])
    first = list(service)
    if reset:
        core.reset_measurement()
    run = core.begin(1)  # the incremental path continues the sums too
    for ev in [_bare_load(i % 8 + 1) for i in range(30)]:
        run.feed(0, *ev)
    run.finish()

    deltas = service[len(first):] if reset else service
    assert core.counters["stack_mem_service"] == _fold(deltas)
    assert core.counters["stack_dep_wait"] == 0.0
    # loads only: the execution stack was never touched
    assert "stack_exec_service" not in core.counters


def test_run_without_memory_ops_leaves_no_mem_stack_key():
    core = CoreModel(cfg())
    core.run([[alu(1, 1) for _ in range(20)], [branch(True)] * 5])
    assert "stack_mem_service" not in core.counters
    assert core.counters["stack_exec_service"] > 0
    assert "stack_dep_wait" in core.counters


def test_empty_run_touches_no_stack_key():
    core = CoreModel(cfg())
    core.run([[]])
    assert not [k for k in core.counters if k.startswith("stack_")]


def test_value_keyed_tally_matches_opclass_keyed_tally():
    sc = Instruction(op="syscall", cls=OpClass.SYSCALL,
                     syscall=SyscallKind.NETWORK)
    mul = Instruction(op="mul", cls=OpClass.MUL, dst=3, srcs=(1, 2))
    jump = Instruction(op="j", cls=OpClass.JUMP)
    events = ([alu(1), load(2, 0x4000_0000), branch(True),
               (0, mul, 1, (), None), (0, jump, 1, (), None),
               (0, sc, 1, (), None)] * 3)
    batched = [(pc, inst, 1 + k % 7, addrs, outs)
               for k, (pc, inst, _n, addrs, outs) in enumerate(events)]
    core = CoreModel(replace(RPU_CONFIG, **QUIET))
    core.run([batched], batched=True)

    by_class = {}
    for _pc, inst, active, _a, _o in batched:
        by_class[inst.cls] = by_class.get(inst.cls, 0) + active
    expected = {f"scalar_{cls.value}": n for cls, n in by_class.items()}
    got = {k: v for k, v in core.counters.items()
           if k.startswith("scalar_") and k != "scalar_instructions"}
    assert got == expected
    assert core.counters["scalar_instructions"] == sum(by_class.values())
