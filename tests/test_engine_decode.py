"""Decode-time compilation: handler tables, superblocks, pickling."""

import pickle

from repro.engine import MemoryImage, ThreadState
from repro.engine.decode import (
    RK_BRANCH,
    RK_CALL,
    RK_FALL,
    RK_HALT,
    RK_JUMP,
    RK_RET,
    compile_program,
)
from repro.engine.events import InstructionMixSink, MultiSink
from repro.engine.interpreter import execute
from repro.isa import ControlFlowGraph, OpClass, ProgramBuilder, Segment


def sample_program():
    """One of everything: ALU runs, memory ops, call/ret, atomic, branch."""
    b = ProgramBuilder("sample")
    b.li("r1", 7)
    b.addi("r2", "r1", 3)        # ALU run of >= 2 at the top
    b.muli("r3", "r2", 5)
    b.st("r3", "sp", -8, Segment.STACK)
    b.ld("r4", "sp", -8, Segment.STACK)
    b.amoadd("r5", "r20", "r1")
    b.call("fn", frame=32)
    b.ble("r4", "zero", "skip")
    b.addi("r6", "r6", 1)
    b.label("skip")
    b.halt()
    b.label("fn")
    b.add("r7", "r1", "r2")
    b.ret()
    return b.build()


def test_handler_table_covers_every_pc():
    program = sample_program()
    dec = program.decoded
    n = len(program)
    assert len(dec.trace_handlers) == n
    assert len(dec.superblocks) == n
    assert len(dec.rekey) == n
    assert all(h is not None for h in dec.trace_handlers)


def test_superblocks_are_branch_free_alu_runs():
    """Fused runs contain only ALU/MUL ops and never cross a leader
    (so the only way into the middle of a run is through its prefix)."""
    program = sample_program()
    dec = program.decoded
    leaders = {b.start for b in ControlFlowGraph(program).blocks}
    for pc, entry in enumerate(dec.superblocks):
        if entry is None:
            continue
        k, fn = entry
        assert k >= 2
        assert callable(fn)
        for p in range(pc, pc + k):
            assert program.instructions[p].cls in (OpClass.ALU, OpClass.MUL)
        for p in range(pc + 1, pc + k):
            assert p not in leaders  # no side entrances


def test_rekey_table_matches_instruction_classes():
    program = sample_program()
    dec = program.decoded
    expect = {
        OpClass.BRANCH: RK_BRANCH,
        OpClass.JUMP: RK_JUMP,
        OpClass.CALL: RK_CALL,
        OpClass.RET: RK_RET,
        OpClass.HALT: RK_HALT,
    }
    for pc, inst in enumerate(program.instructions):
        assert dec.rekey[pc][0] == expect.get(inst.cls, RK_FALL)


def _fresh_state(tid=0):
    mem = MemoryImage(salt=5)
    t = ThreadState(tid)
    t.regs[1] = 9
    t.regs[2] = 4
    t.regs[4] = -3
    t.regs[20] = 0x4000_2000
    return t, mem


def test_each_handler_matches_execute():
    """Stepping any single pc through its decoded tracing handler
    produces the same architectural state and records the same
    addresses as the reference interpreter."""
    program = sample_program()
    dec = program.decoded
    for pc in range(len(program)):
        t1, m1 = _fresh_state()
        t2, m2 = _fresh_state()
        t1.pc = t2.pc = pc
        t1.call_stack.append((3, 16))  # so ret has something to pop
        t2.call_stack.append((3, 16))
        addrs_fast, addrs_ref = [], []
        out_fast = dec.trace_handlers[pc](t1, m1, addrs_fast)
        out_ref = execute(t2, program.instructions[pc],
                          program.targets[pc], m2, addrs_ref)
        assert t1.snapshot() == t2.snapshot(), f"pc {pc}"
        assert out_fast == out_ref, f"pc {pc}"
        assert addrs_fast == addrs_ref, f"pc {pc}"
        assert ({a: m1.read(a) for a in m1.written_addresses()}
                == {a: m2.read(a) for a in m2.written_addresses()})


def test_decode_cache_is_per_program_and_lazy():
    program = sample_program()
    assert program._decoded is None  # nothing until first use
    dec = program.decoded
    assert program.decoded is dec  # cached, not recompiled
    assert compile_program(program) is not dec  # explicit call = fresh


def test_program_pickles_without_closures():
    """The decode cache is dropped on pickle (closures cannot cross
    process boundaries) and rebuilt lazily by the receiver."""
    program = sample_program()
    program.decoded  # populate the cache
    clone = pickle.loads(pickle.dumps(program))
    assert clone._decoded is None
    t1, m1 = _fresh_state()
    t2, m2 = _fresh_state()
    from repro.engine import SoloExecutor

    assert SoloExecutor(program).run(t1, m1) == \
        SoloExecutor(clone).run(t2, m2)
    assert t1.snapshot() == t2.snapshot()


def test_pickled_program_rebuilds_decode_tables():
    """Lazy rebuild after unpickling regenerates tables of the same
    shape: one handler per pc, superblocks rooted at the same pcs."""
    program = sample_program()
    orig = program.decoded
    clone = pickle.loads(pickle.dumps(program))
    rebuilt = clone.decoded
    assert rebuilt is not orig
    assert len(rebuilt.trace_handlers) == len(orig.trace_handlers)
    assert ([s is not None for s in rebuilt.superblocks]
            == [s is not None for s in orig.superblocks])


def test_multisink_collapses_single_fanout():
    a, b = InstructionMixSink(), InstructionMixSink()
    assert MultiSink(a) is a
    assert MultiSink(a, None) is a
    assert MultiSink(None, b) is b
    both = MultiSink(a, b)
    assert isinstance(both, MultiSink)
    assert both.sinks == [a, b]
    assert isinstance(MultiSink(), MultiSink)  # empty fan-out still works
