"""Pre-decoded instruction handlers and superblock fusion.

The interpretation hot path used to re-discover everything about an
instruction on every dynamic step: an ``OpClass`` if-chain, ``_ALU`` /
``_COND`` dict lookups, operand-tuple indexing and immediate selection
(:func:`repro.engine.interpreter.execute`).  This module moves all of
that work to *decode time*: each :class:`~repro.isa.instructions.
Instruction` of a :class:`~repro.isa.program.Program` is compiled once
into a specialized Python function with its operands, immediate, ALU
expression and resolved branch target baked in as literals.  The
executors' fast loops then dispatch through a flat per-pc handler
table.

Every handler is a *tracing* handler: it also appends ``(tid, vaddr,
size)`` tuples to a caller-supplied list with exactly the semantics of
:func:`repro.engine.interpreter.execute`'s ``addrs_out`` (loads/stores/
atomics record their effective address, calls the pushed return-address
slot, rets the popped one).  That is what lets the fast loops keep the
pre-decoded dispatch when a :class:`~repro.engine.events.StepSink` is
attached; without one they hand the handlers a scratch list and skip
the event emission.

On top of the handler table, straight-line *superblocks* are fused: a
maximal run of branch-free ALU/MUL instructions inside one basic block
(found with the existing :mod:`repro.isa.cfg` analysis) becomes a single
composite function that retires the whole run for one thread without
re-entering the dispatch loop.  Fused blocks are register-only, so they
record no addresses and no branch outcomes; a sink sees one empty-addrs
event per fused pc, and every per-event counter (``steps``,
``scalar_instructions``, ``retired``) is accounted exactly as if the run
had been stepped one instruction at a time.

The correctness contract is *bit-identical equivalence* with the
reference interpreter: for any program and any batch, the fast path must
leave registers, memory, call stacks, syscall traces, every
``LockstepResult`` counter and the emitted event stream exactly equal to
:func:`repro.engine.interpreter.execute`-based execution.  This is
enforced by ``tests/test_differential_fastpath.py`` over all 15
workloads and all execution policies.

Handler calling convention::

    trace_handler(thread, mem, addrs) -> Optional[bool]  # True/False for branches
    fused(thread)                                        # register-only superblock

Batch executors with no sink dispatch to the vectorized structure-of-
arrays engine (:mod:`repro.engine.vector` / :mod:`repro.engine.
vcodegen`) unless ``REPRO_VECTOR=0``.  The tables here serve two roles:
the engine of the ``solo`` policy and of every sink-attached run, and
the scalar differential witness the vector engine is required to match
bit-for-bit (``tests/test_vector_engine.py``).  The ``RK_*`` re-key
codes defined here are shared vocabulary with the vector engine's
compiled dispatch tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..isa.instructions import SP, Instruction, OpClass
from .interpreter import _MASK64, _hash_mix

#: binary ALU mnemonics that map 1:1 onto a Python infix operator
_BIN_OPS = {
    "add": "+",
    "addi": "+",
    "sub": "-",
    "and": "&",
    "andi": "&",
    "or": "|",
    "ori": "|",
    "xor": "^",
    "xori": "^",
    "mul": "*",
    "muli": "*",
}

#: branch mnemonics -> Python comparison operator
_CMP_OPS = {
    "beq": "==",
    "bne": "!=",
    "blt": "<",
    "bge": ">=",
    "ble": "<=",
    "bgt": ">",
}

#: op classes eligible for superblock fusion (register-only, no control
#: flow, no memory traffic, cannot halt and cannot change call depth)
_FUSABLE = (OpClass.ALU, OpClass.MUL)


#: rekey table codes: how a whole group moves after executing the op at
#: a pc (used by the MinSP-PC fast loop to re-key groups in O(1) instead
#: of re-bucketing thread by thread)
RK_FALL = 0    # pc+1, same depth (ALU/MUL/LOAD/STORE/ATOMIC/SYSCALL/...)
RK_JUMP = 1    # target, same depth
RK_CALL = 2    # target, depth+1
RK_HALT = 3    # group leaves the schedule
RK_BRANCH = 4  # target or pc+1 per outcome, same depth
RK_RET = 5     # per-thread return pcs, depth-1


@dataclass(frozen=True)
class DecodedProgram:
    """Flat per-pc dispatch tables produced by :func:`compile_program`.

    ``superblocks[pc]`` is ``None`` or ``(length, fused_fn)`` where
    ``fused_fn(thread)`` executes the ``length`` ALU/MUL instructions
    starting at ``pc`` for one thread (suffix entries exist for every
    interior pc of a run, so a group that enters mid-run still fuses
    the remainder).

    ``rekey[pc]`` is ``(RK_* code, branch/jump/call target or 0)``.
    """

    trace_handlers: Tuple
    superblocks: Tuple
    rekey: Tuple
    is_branch: Tuple[bool, ...]
    is_atomic: Tuple[bool, ...]


def _alu_expr(inst: Instruction) -> str:
    """Python expression computing the ALU result, operands inlined.

    Mirrors :func:`repro.engine.interpreter.execute` exactly:
    ``a = regs[srcs[0]]`` (0 when there are no sources) and
    ``b = regs[srcs[1]]`` (the immediate when there is no second source).
    """
    srcs = inst.srcs
    a = f"regs[{srcs[0]}]" if srcs else "0"
    b = f"regs[{srcs[1]}]" if len(srcs) > 1 else f"({inst.imm})"
    op = inst.op
    if op in _BIN_OPS:
        return f"{a} {_BIN_OPS[op]} {b}"
    if op in ("shl", "shli"):
        return f"({a} << ({b} & 63)) & {_MASK64}"
    if op in ("shr", "shri"):
        return f"{a} >> ({b} & 63)"
    if op in ("min", "max"):
        return f"{op}({a}, {b})"
    if op in ("slt", "slti"):
        return f"(1 if {a} < {b} else 0)"
    if op == "li":
        return b
    if op == "mov":
        return a
    if op == "hash":
        return f"_hash_mix({a}, {b})"
    if op == "div":
        return f"({a} // {b} if {b} else 0)"
    if op == "rem":
        return f"({a} % {b} if {b} else 0)"
    raise ValueError(f"unknown ALU/MUL mnemonic: {op!r}")


def _handler_source(pc: int, inst: Instruction,
                    target: Optional[int]) -> List[str]:
    """Source lines of the specialized tracing handler for the op at
    ``pc``: it appends ``(tid, addr, size)`` tuples to ``addrs`` exactly
    where the reference :func:`repro.engine.interpreter.execute` appends
    to ``addrs_out``.
    """
    cls = inst.cls
    out = [f"def _t{pc}(t, mem, addrs):"]

    if cls is OpClass.ALU or cls is OpClass.MUL:
        if inst.dst:  # r0 writes are dropped (and the ALU not evaluated)
            out.append("    regs = t.regs")
            out.append(f"    regs[{inst.dst}] = {_alu_expr(inst)}")
        out += ["    t.retired += 1", "    t.pc += 1"]
        return out

    if cls is OpClass.LOAD:
        out += [
            "    regs = t.regs",
            f"    addr = regs[{inst.srcs[0]}] + ({inst.imm})",
            f"    addrs.append((t.tid, addr, {inst.size}))",
        ]
        if inst.dst:
            out.append(f"    regs[{inst.dst}] = mem.read(addr)")
        out += ["    t.retired += 1", "    t.pc += 1"]
        return out

    if cls is OpClass.STORE:
        out += [
            "    regs = t.regs",
            f"    addr = regs[{inst.srcs[0]}] + ({inst.imm})",
            f"    addrs.append((t.tid, addr, {inst.size}))",
            f"    mem.write(addr, regs[{inst.srcs[1]}])",
            "    t.retired += 1",
            "    t.pc += 1",
        ]
        return out

    if cls is OpClass.BRANCH:
        sym = _CMP_OPS[inst.op]
        out += [
            "    t.retired += 1",
            "    regs = t.regs",
            f"    if regs[{inst.srcs[0]}] {sym} regs[{inst.srcs[1]}]:",
            f"        t.pc = {target}",
            "        return True",
            "    t.pc += 1",
            "    return False",
        ]
        return out

    if cls is OpClass.JUMP:
        out += ["    t.retired += 1", f"    t.pc = {target}"]
        return out

    if cls is OpClass.CALL:
        frame = inst.imm
        out += [
            "    t.retired += 1",
            "    regs = t.regs",
            "    ra = t.pc + 1",
            f"    t.call_stack.append((ra, {frame}))",
            f"    sp = regs[{SP}] - ({frame})",
            f"    regs[{SP}] = sp",
            "    mem.write(sp, ra)",
            # execute() records the slot the return address hit
            "    addrs.append((t.tid, sp, 8))",
            f"    t.pc = {target}",
        ]
        return out

    if cls is OpClass.RET:
        out += [
            "    t.retired += 1",
            "    ret_pc, frame = t.call_stack.pop()",
            # pre-increment SP: where the return address sits
            f"    addrs.append((t.tid, t.regs[{SP}], 8))",
            f"    t.regs[{SP}] += frame",
            "    t.pc = ret_pc",
        ]
        return out

    if cls is OpClass.ATOMIC:
        s0, s1 = inst.srcs[0], inst.srcs[1]
        new = f"old + regs[{s1}]" if inst.op == "amoadd" else f"regs[{s1}]"
        out += [
            "    t.retired += 1",
            "    regs = t.regs",
            f"    addr = regs[{s0}] + ({inst.imm})",
            f"    addrs.append((t.tid, addr, {inst.size}))",
            "    old = mem.read(addr)",
            f"    mem.write(addr, {new})",
        ]
        if inst.dst:
            out.append(f"    regs[{inst.dst}] = old")
        out.append("    t.pc += 1")
        return out

    if cls is OpClass.SYSCALL:
        out += [
            "    t.retired += 1",
            f"    t.syscall_trace.append((t.pc, {inst.syscall.value!r}))",
            "    t.pc += 1",
        ]
        return out

    if cls is OpClass.HALT:
        out += ["    t.retired += 1", "    t.halted = True"]
        return out

    # FENCE / NOP / SIMD: retire and fall through
    out += ["    t.retired += 1", "    t.pc += 1"]
    return out


def _fused_source(entry: int, insts: List[Instruction], k: int) -> List[str]:
    """Source of the composite handler for the run starting at ``entry``."""
    body = []
    for inst in insts:
        if inst.dst:
            body.append(f"    regs[{inst.dst}] = {_alu_expr(inst)}")
    out = [f"def _f{entry}(t):"]
    if body:
        out.append("    regs = t.regs")
        out += body
    out += [f"    t.retired += {k}", f"    t.pc += {k}"]
    return out


def _rekey_entry(inst: Instruction, target: Optional[int]) -> Tuple[int, int]:
    cls = inst.cls
    if cls is OpClass.BRANCH:
        return (RK_BRANCH, target)
    if cls is OpClass.JUMP:
        return (RK_JUMP, target)
    if cls is OpClass.CALL:
        return (RK_CALL, target)
    if cls is OpClass.RET:
        return (RK_RET, 0)
    if cls is OpClass.HALT:
        return (RK_HALT, 0)
    return (RK_FALL, 0)


def _alu_runs(program, cfg) -> List[Tuple[int, int]]:
    """Maximal straight-line ALU/MUL runs ``(first_pc, last_pc)``.

    Runs never span basic-block boundaries (computed with the existing
    :class:`repro.isa.cfg.ControlFlowGraph`), so no pc strictly inside a
    run is a branch/jump/call target: the only way to be mid-run is to
    have stepped through its prefix.
    """
    insts = program.instructions
    runs: List[Tuple[int, int]] = []
    for block in cfg.blocks:
        p = block.start
        while p <= block.end:
            if insts[p].cls in _FUSABLE:
                q = p
                while q + 1 <= block.end and insts[q + 1].cls in _FUSABLE:
                    q += 1
                if q > p:  # only runs of >= 2 are worth a composite
                    runs.append((p, q))
                p = q + 1
            else:
                p += 1
    return runs


def compile_program(program) -> DecodedProgram:
    """Compile ``program`` into flat dispatch tables (one ``exec``)."""
    from ..isa.cfg import ControlFlowGraph

    insts = program.instructions
    targets = program.targets
    n = len(insts)
    cfg = ControlFlowGraph(program)

    lines: List[str] = []
    for pc in range(n):
        lines += _handler_source(pc, insts[pc], targets[pc])

    fused_meta: List[Tuple[int, int]] = []
    for first, last in _alu_runs(program, cfg):
        for p in range(first, last):  # suffix from every interior entry
            k = last - p + 1
            lines += _fused_source(p, insts[p:last + 1], k)
            fused_meta.append((p, k))

    namespace = {
        "_hash_mix": _hash_mix,
        "min": min,
        "max": max,
        "__builtins__": {},
    }
    code = compile("\n".join(lines), f"<decoded:{program.name}>", "exec")
    exec(code, namespace)

    trace_handlers = tuple(namespace[f"_t{pc}"] for pc in range(n))
    superblocks: List[Optional[Tuple[int, object]]] = [None] * n
    for p, k in fused_meta:
        superblocks[p] = (k, namespace[f"_f{p}"])
    return DecodedProgram(
        trace_handlers=trace_handlers,
        superblocks=tuple(superblocks),
        rekey=tuple(
            _rekey_entry(insts[pc], targets[pc]) for pc in range(n)
        ),
        is_branch=tuple(i.cls is OpClass.BRANCH for i in insts),
        is_atomic=tuple(i.cls is OpClass.ATOMIC for i in insts),
    )
