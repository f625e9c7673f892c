"""CFG construction and post-dominator analysis tests."""

import pytest

from repro.isa import ControlFlowGraph, OpClass, ProgramBuilder
from repro.isa.cfg import EXIT


def build_diamond():
    b = ProgramBuilder("diamond")
    b.li("r1", 1)                 # 0  BBA
    b.beq("r1", "zero", "else_")  # 1
    b.li("r2", 1)                 # 2  BBB
    b.jmp("join")                 # 3
    b.label("else_")
    b.li("r2", 2)                 # 4  BBC
    b.label("join")
    b.li("r3", 3)                 # 5  BBD
    b.halt()                      # 6
    return b.build()


def test_blocks_partition_program():
    program = build_diamond()
    cfg = ControlFlowGraph(program)
    covered = set()
    for block in cfg.blocks:
        for pc in range(block.start, block.end + 1):
            assert pc not in covered
            covered.add(pc)
    assert covered == set(range(len(program)))


def test_diamond_successors():
    program = build_diamond()
    cfg = ControlFlowGraph(program)
    entry = cfg.block_of(0)
    assert len(entry.successors) == 2
    join = cfg.block_of(program.labels["join"])
    assert join.successors == [EXIT]


def test_diamond_reconvergence_is_join():
    program = build_diamond()
    cfg = ControlFlowGraph(program)
    assert cfg.reconvergence_pc(1) == program.labels["join"]


def test_nested_branches_reconverge_innermost_first():
    b = ProgramBuilder("nested")
    b.beq("r1", "zero", "outer_else")   # 0
    b.beq("r2", "zero", "inner_else")   # 1
    b.li("r3", 1)
    b.jmp("inner_join")
    b.label("inner_else")
    b.li("r3", 2)
    b.label("inner_join")
    b.li("r4", 1)
    b.jmp("outer_join")
    b.label("outer_else")
    b.li("r4", 2)
    b.label("outer_join")
    b.li("r5", 1)
    b.halt()
    program = b.build()
    cfg = ControlFlowGraph(program)
    assert cfg.reconvergence_pc(1) == program.labels["inner_join"]
    assert cfg.reconvergence_pc(0) == program.labels["outer_join"]


def test_loop_branch_reconverges_at_exit():
    b = ProgramBuilder("loop")
    b.li("r1", 4)          # 0
    b.label("head")
    b.addi("r1", "r1", -1)  # 1
    b.bgt("r1", "zero", "head")  # 2
    b.li("r2", 9)          # 3
    b.halt()
    program = b.build()
    cfg = ControlFlowGraph(program)
    assert cfg.reconvergence_pc(2) == 3


def test_call_treated_as_fallthrough():
    b = ProgramBuilder("call")
    b.beq("r1", "zero", "skip")  # 0
    b.call("fn")                 # 1
    b.label("skip")
    b.li("r2", 1)                # 2
    b.halt()                     # 3
    b.label("fn")
    b.ret()                      # 4
    program = b.build()
    cfg = ControlFlowGraph(program)
    # the branch around the call reconverges at "skip", inside main
    assert cfg.reconvergence_pc(0) == program.labels["skip"]


def test_branch_into_shared_tail():
    """A branch whose sides share no explicit join still post-dominates
    at the common halt path (reconv pc = len(program) -> exit)."""
    b = ProgramBuilder("tail")
    b.beq("r1", "zero", "b_side")  # 0
    b.li("r2", 1)
    b.halt()
    b.label("b_side")
    b.li("r2", 2)
    b.halt()
    program = b.build()
    cfg = ControlFlowGraph(program)
    assert cfg.reconvergence_pc(0) == len(program)


def test_ipdom_of_exit_block():
    program = build_diamond()
    cfg = ControlFlowGraph(program)
    last = cfg.block_of(len(program) - 1)
    assert cfg.ipdom_of_block(last.index) == EXIT
