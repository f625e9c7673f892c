"""Batch (structure-of-arrays) code generation for the vector engine.

Where :mod:`repro.engine.decode` compiles each instruction into a
per-*thread* handler, this module compiles each instruction — and each
whole basic block — into a per-*group* function that executes one
instruction stream across all lanes of a lane-index list in a single
call.  The vector executors (:mod:`repro.engine.vector`) then pay
Python dispatch cost once per group-step instead of once per lane.

Generated calling convention (shared by all three tables)::

    fn(idx, R, cs, sys, pcv, hv, store, salt)

where ``idx`` is the lane-index list of the scheduled group (tid
order), ``R`` the register columns (``R[r][i]`` = register ``r`` of
lane ``i``, Python ints), ``cs``/``sys`` the per-lane call-stack and
syscall-trace lists (aliases of the threads' own lists), ``pcv``/``hv``
the pc/halted vectors and ``store``/``salt`` the hoisted internals of
:class:`repro.engine.memory.MemoryImage` (its dict and background-hash
salt — the read/write/background logic is inlined into the generated
source and must stay in lock-step with ``memory.py``).

Three tables are produced per program:

* ``ghandlers[pc]`` — one batch step of the op at ``pc``.  Branches
  return the ``(taken, fell)`` lane partition, rets return
  ``{return_pc: lanes}`` buckets, everything else returns ``None``;
* ``blocks[pc]`` — at each basic-block leader, the whole block
  (terminator included) as one function.  Interior instructions are
  *segment-fused*: maximal runs of register-only ops and loads become a
  single lane-major loop with registers chained through locals, while
  every store/atomic gets its own instruction-major lane loop.  The
  split preserves the reference engine's cross-lane memory order: lane
  ``j``'s load may legally be hoisted past lane ``k``'s earlier load
  (reads commute) but never past any lane's store or atomic;
* ``runs[pc]`` — the pure-ALU superblock runs of the scalar engine
  (suffix entries included) in batch form, for mid-block group entries
  where whole-block fusion does not apply;
* ``chains[pc]`` — at leaders where the chain extends past one block:
  a *superblock chain* following the statically known fallthrough,
  jump and call edges until a branch, ret, halt, revisited leader or
  the size cap.  Jumps chain silently (a re-key only), calls chain
  with their stack push and SP update fused into the surrounding
  lane-major segment (the return-address store keeps its own
  instruction-major loop — it is a memory write later chained code may
  observe), and lane-major segments merge *across* block boundaries,
  so a fall-jump-fall path executes as one loop over the lanes.

The emitted source is cached in the persistent result store
(:mod:`repro.store`) under the engine+ISA source fingerprint, a digest
of the program and the interpreter's ``cache_tag`` — any code edit,
program change or interpreter switch misses structurally.  Under
``REPRO_SANITIZE=1`` every cache hit is regenerated and compared.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import sanitize, store
from ..isa.instructions import SP, OpClass
from .decode import (
    RK_CALL,
    RK_FALL,
    RK_JUMP,
    _alu_runs,
    _BIN_OPS,
    _CMP_OPS,
    _rekey_entry,
)

#: classes that end a basic block with an explicit control transfer
_CONTROL = (OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET,
            OpClass.HALT)

#: classes fusable into one lane-major loop: register-only ops, loads
#: (pure reads commute across lanes) and per-lane trace appends.  A
#: store or atomic is a cross-lane ordering point and never joins.
_LANE_MAJOR = (OpClass.ALU, OpClass.MUL, OpClass.LOAD, OpClass.SYSCALL,
               OpClass.FENCE, OpClass.NOP, OpClass.SIMD)

#: memory background-hash constants, inlined as literals; must equal
#: repro.engine.memory._MIX / _MASK64 (see the contract note there)
_MEM_MIX = 0x9E3779B97F4A7C15
_MEM_MASK64 = 0xFFFFFFFFFFFFFFFF

#: modules whose source invalidates cached generated code
_CODEGEN_MODULES = ("repro.engine", "repro.isa")


@dataclass(frozen=True)
class VectorProgram:
    """Per-pc batch dispatch tables (see module docstring).

    ``blocks[pc]`` is ``None`` off block leaders, else
    ``(k, fn, rk_code, rk_target, has_atomic, last_atomic_off)`` where
    ``k`` counts the block's instructions (terminator included) and
    ``last_atomic_off`` is the 0-based offset of the last atomic, -1
    when none.  ``runs[pc]`` is ``None`` or ``(k, fn)``.

    ``chains[pc]`` is ``None`` unless a multi-block chain starts at
    ``pc``, else a longest-first tuple of candidates — the full chain
    followed by its entry-depth prefix cuts, so the executors take the
    longest candidate whose scheduling guard holds.  Each candidate is
    ``(k, fn, rk_code, rk_target, fall, bpc, has_atomic,
    last_atomic_off, call_delta, d0_maxpc, bounds, joints)``: ``k``
    executed instructions over every covered block, the final
    terminator's re-key with its *explicit* fallthrough pc ``fall`` and
    terminator pc ``bpc`` (covered pcs are not contiguous, so the
    single-block ``pc + k`` arithmetic does not apply), ``call_delta``
    chained-through calls (each deepens the group's call depth by one),
    ``d0_maxpc`` the highest pc executed while still at the *entry*
    depth (the MinSP same-depth preemption guard), ``bounds`` the
    ``(start, end + 1)`` range of every covered block and ``joints``
    the entry pcs of the second and later blocks (the IPDOM
    reconvergence guards).
    """

    ghandlers: Tuple
    blocks: Tuple
    runs: Tuple
    chains: Tuple
    rekey: Tuple
    is_atomic: Tuple[bool, ...]


def _alu_stmts(inst, a: str, b: str, dst: str) -> List[str]:
    """Statements computing one ALU/MUL op into local ``dst``; operand
    selection and expression shapes mirror ``decode._alu_expr``."""
    op = inst.op
    if op == "hash":
        # inlined interpreter._hash_mix (bit-identical by construction)
        return [
            f"_x = ({a} * 0x9E3779B1 + {b} * 0x85EBCA77) & 0xFFFFFFFF",
            f"{dst} = ((_x ^ (_x >> 13)) * 0xC2B2AE3D) & 0x7FFFFFFF",
        ]
    if op in _BIN_OPS:
        expr = f"{a} {_BIN_OPS[op]} {b}"
    elif op in ("shl", "shli"):
        expr = f"({a} << ({b} & 63)) & {_MEM_MASK64}"
    elif op in ("shr", "shri"):
        expr = f"{a} >> ({b} & 63)"
    elif op in ("min", "max"):
        expr = f"{op}({a}, {b})"
    elif op in ("slt", "slti"):
        expr = f"(1 if {a} < {b} else 0)"
    elif op == "li":
        expr = b
    elif op == "mov":
        expr = a
    elif op == "div":
        expr = f"({a} // {b} if {b} else 0)"
    elif op == "rem":
        expr = f"({a} % {b} if {b} else 0)"
    else:
        raise ValueError(f"unknown ALU/MUL mnemonic: {inst.op!r}")
    return [f"{dst} = {expr}"]


def _background_stmts(val: str, addr: str) -> List[str]:
    """``val = background(addr)`` when ``val`` is None after a store
    miss — the inlined tail of ``MemoryImage.read``."""
    return [
        f"if {val} is None:",
        f"    _x = ({addr} * {_MEM_MIX:#x} + salt) & {_MEM_MASK64:#x}",
        "    _x ^= _x >> 29",
        f"    {val} = (_x >> 17) & 0xFFFFFFFF",
    ]


def _batch_fn_source(name: str, ops: List[Tuple[str, int]],
                     term_pc: Optional[int], insts, targets) -> List[str]:
    """Source of one batch function over an ordered op stream plus an
    optional folded final terminator (branch/call/ret/halt; jumps and
    fallthroughs are the engine's static re-key and emit nothing).

    ``ops`` items are ``("pc", pc)`` for interior instructions,
    ``("call", pc)`` for a call *chained through* mid-function (its
    stack-push and SP update join the surrounding lane-major segment,
    but the return-address store gets its own instruction-major loop —
    it is a memory write later chained code may observe), and
    ``("sret", frame)`` for a ret whose matching call sits earlier in
    the same chain: the pushed frame is statically known, so the
    push/pop pair is elided entirely and only the SP restore (by the
    constant frame size) remains."""
    # peephole: an sret's SP restore folds into an immediately
    # following call's SP reserve (one net adjustment; a zero net emits
    # nothing, and the return-address store reads the *post*-adjust SP
    # either way), and back-to-back sret restores merge
    folded: List[tuple] = []
    for op in ops:
        if folded and folded[-1][0] == "sret":
            if op[0] == "sret":
                folded[-1] = ("sret", folded[-1][1] + op[1])
                continue
            if op[0] in ("call", "scall"):
                prev = folded.pop()[1]
                folded.append((op[0], op[1], prev))
                continue
        folded.append(op)
    ops = folded
    cols = {}

    def col(r: int) -> str:
        v = cols.get(r)
        if v is None:
            v = cols[r] = f"_R{r}"
        return v

    # split the stream into lane-major segments and lone store/atomic
    # instruction-major items, in program order
    items: List[Tuple[str, list]] = []

    def lane_item(op):
        if items and items[-1][0] == "seg":
            items[-1][1].append(op)
        else:
            items.append(("seg", [op]))

    for op in ops:
        kind, pc = op[0], op[1]
        if kind == "call" or kind == "scall":
            lane_item(op)
            items.append(("memra", [pc]))
        elif kind == "sret" or insts[pc].cls in _LANE_MAJOR:
            lane_item(op)
        else:  # STORE / ATOMIC
            items.append(("mem", [pc]))
    term = insts[term_pc] if term_pc is not None else None
    if term is not None and term.cls is not OpClass.JUMP:
        if not items or items[-1][0] != "seg":
            items.append(("seg", []))

    body: List[str] = []
    tail: List[str] = []
    for kind, pcs in items:
        if kind == "mem":
            body += _mem_loop(pcs[0], insts[pcs[0]], col)
        elif kind == "memra":
            # all lanes push the return address before any lane runs the
            # callee (cross-lane store order); SP column already updated
            body += ["    for i in idx:",
                     f"        store[{col(SP)}[i] & -8] = {pcs[0] + 1}"]
        else:
            is_last = pcs is items[-1][1]
            seg_term = term_pc if (is_last and term is not None
                                   and term.cls is not OpClass.JUMP) else None
            seg_body, seg_tail = _seg_loop(pcs, seg_term, insts, col)
            body += seg_body
            tail += seg_tail

    out = [f"def {name}(idx, R, cs, sys, pcv, hv, store, salt):"]
    out += [f"    {v} = R[{r}]" for r, v in sorted(cols.items())]
    if any("store.get(" in ln for ln in body):
        # bound-method hoist: loads/atomics resolve store.get once per
        # call instead of once per lane per access
        out.append("    _get = store.get")
        body = [ln.replace("store.get(", "_get(") for ln in body]
    out += body + tail
    if len(out) == 1:
        out.append("    pass")  # e.g. a lone jump: purely a re-key
    return out


def _mem_loop(pc: int, inst, col) -> List[str]:
    """Instruction-major lane loop for one store/atomic (its own loop:
    cross-lane program order against every other memory op matters)."""
    base = col(inst.srcs[0])
    addr = (f"({base}[i] + ({inst.imm})) & -8" if inst.imm
            else f"{base}[i] & -8")
    out = ["    for i in idx:"]
    if inst.cls is OpClass.STORE:
        out.append(f"        store[{addr}] = {col(inst.srcs[1])}[i]")
        return out
    # ATOMIC: read-modify-write with background fill on miss
    src = col(inst.srcs[1])
    new = f"_o + {src}[i]" if inst.op == "amoadd" else f"{src}[i]"
    out += [f"        _a = {addr}",
            "        _o = store.get(_a)"]
    out += ["        " + ln for ln in _background_stmts("_o", "_a")]
    out.append(f"        store[_a] = {new}")
    if inst.dst:
        out.append(f"        {col(inst.dst)}[i] = _o")
    return out


def _seg_loop(ops: List[Tuple[str, int]], term_pc: Optional[int], insts,
              col) -> Tuple[List[str], List[str]]:
    """One lane-major loop: the segment's ops with registers chained
    through per-lane locals, the terminator (if any) folded in, and
    dirty columns written back once at the end of each lane.  A
    ``("call", pc)`` op is a chained-through call's stack push and SP
    update (always the segment's last op; the return-address store
    follows as its own loop)."""
    pre: List[str] = []
    loop: List[str] = []
    post: List[str] = []   # after register write-back, still per-lane
    tail: List[str] = []
    loaded = {}
    dirty: List[int] = []

    def ensure(r: int) -> str:
        v = loaded.get(r)
        if v is None:
            v = loaded[r] = f"v{r}"
            loop.append(f"        v{r} = {col(r)}[i]")
        return v

    def define(r: int) -> str:
        loaded[r] = f"v{r}"
        if r not in dirty:
            dirty.append(r)
        return f"v{r}"

    for op in ops:
        kind, pc = op[0], op[1]
        if kind == "sret":  # pc is the statically matched frame size
            sp = ensure(SP)
            loop.append(f"        {define(SP)} = {sp} + ({pc})")
            continue
        inst = insts[pc]
        if kind == "call" or kind == "scall":
            # op[2], when present, is a folded-in preceding sret's frame
            # restore; the net SP adjustment may be zero
            ra, frame = pc + 1, inst.imm
            net = frame - (op[2] if len(op) > 2 else 0)
            if kind == "call":  # "scall": matched push/pop elided
                loop.append(f"        cs[i].append(({ra}, {frame}))")
            if net:
                sp = ensure(SP)
                loop.append(f"        {define(SP)} = {sp} - ({net})")
            continue
        cls = inst.cls
        if cls is OpClass.ALU or cls is OpClass.MUL:
            if not inst.dst:  # r0 writes dropped, ALU not evaluated
                continue
            srcs = inst.srcs
            a = ensure(srcs[0]) if srcs else "0"
            b = ensure(srcs[1]) if len(srcs) > 1 else f"({inst.imm})"
            stmts = _alu_stmts(inst, a, b, define(inst.dst))
            loop += ["        " + ln for ln in stmts]
        elif cls is OpClass.LOAD:
            if not inst.dst:
                continue  # no architectural effect (mirrors decode)
            a = ensure(inst.srcs[0])
            addr = f"({a} + ({inst.imm})) & -8" if inst.imm else f"{a} & -8"
            d = define(inst.dst)
            loop.append(f"        _a = {addr}")
            loop.append(f"        {d} = store.get(_a)")
            loop += ["        " + ln for ln in _background_stmts(d, "_a")]
        elif cls is OpClass.SYSCALL:
            loop.append(f"        sys[i].append(({pc}, "
                        f"{inst.syscall.value!r}))")
        # FENCE / NOP / SIMD: architecturally empty

    if term_pc is not None:
        term = insts[term_pc]
        cls = term.cls
        if cls is OpClass.BRANCH:
            a = ensure(term.srcs[0])
            b = ensure(term.srcs[1])
            pre += ["    _t = []", "    _f = []",
                    "    _ta = _t.append", "    _fa = _f.append"]
            post += [f"        if {a} {_CMP_OPS[term.op]} {b}:",
                     "            _ta(i)",
                     "        else:",
                     "            _fa(i)"]
            tail.append("    return _t, _f")
        elif cls is OpClass.RET:
            sp = ensure(SP)
            pre.append("    _ret = {}")
            loop += ["        _rp, _fr = cs[i].pop()",
                     f"        {define(SP)} = {sp} + _fr"]
            post += ["        _b = _ret.get(_rp)",
                     "        if _b is None:",
                     "            _ret[_rp] = [i]",
                     "        else:",
                     "            _b.append(i)"]
            tail.append("    return _ret")
        elif cls is OpClass.CALL:
            ra, frame = term_pc + 1, term.imm
            sp = ensure(SP)
            loop += [f"        cs[i].append(({ra}, {frame}))",
                     f"        {define(SP)} = {sp} - ({frame})",
                     f"        store[v{SP} & -8] = {ra}"]
        elif cls is OpClass.HALT:
            loop += ["        hv[i] = 1", f"        pcv[i] = {term_pc}"]

    if not loop and not post:
        return [], []  # nothing per-lane (a tail implies loop or post)
    writeback = [f"        {col(r)}[i] = v{r}" for r in dirty]
    return pre + ["    for i in idx:"] + loop + writeback + post, tail


#: chain size cap (executed instructions); bounds generated-code size
#: and keeps any one grain's guard scan cheap
_CHAIN_CAP = 96


def _chain_plan(insts, targets, leaders, start) -> List[tuple]:
    """Plan the maximal superblock chain from leader ``start`` through
    static fallthrough/jump/call edges, stopping at a branch, halt,
    unmatched ret, revisited leader or :data:`_CHAIN_CAP` — plus a
    *prefix* chain cut at every entry-depth boundary, so the executors
    can fall back to the longest prefix whose scheduling guard holds
    (a waiting same-depth group keyed low preempts a long chain but
    not a short one).  Returns a possibly-empty list, longest first,
    of::

        (ops, term_pc, k, rkc, tgt, fall, bpc,
         has_at, lat, call_delta, d0_maxpc, bounds, joints)

    excluding single-block entries (the ``blocks`` table covers those
    under an equivalent guard), deterministically (the planner runs
    both at source-generation and at table-build time and must agree
    with itself)."""
    ops: List[tuple] = []
    cuts: List[tuple] = []
    seq = 0          # executed instructions before the current block
    has_at = False
    lat = -1         # executed-order offset of the last atomic
    calls = 0        # net call-depth delta (matched pairs cancel)
    d0_max = -1      # highest pc executed at the entry call depth
    bounds: List[Tuple[int, int]] = []
    joints: List[int] = []
    # statically pushed frames: (ra, frame size, index of the call op).
    # A ret reached while this is non-empty pops the chain's *own*
    # frame — ra and frame are compile-time constants, so the push/pop
    # pair is elided (the call op becomes "scall": SP update and
    # return-address store only) and the chain continues at ra.
    stk: List[Tuple[int, int, int]] = []
    visited = set()
    pc = start
    while True:
        visited.add(pc)
        b0, b1 = leaders[pc]
        term = insts[b1]
        tcls = term.cls
        hi = b1 - 1 if tcls in _CONTROL else b1
        for p in range(b0, hi + 1):
            if insts[p].cls is OpClass.ATOMIC:
                has_at = True
                lat = seq + (p - b0)
            ops.append(("pc", p))
        bounds.append((b0, b1 + 1))
        if calls == 0 and b1 > d0_max:
            d0_max = b1
        seq += b1 - b0 + 1
        if tcls in (OpClass.BRANCH, OpClass.HALT) or (
                tcls is OpClass.RET and not stk):
            rkc, tgt = _rekey_entry(term, targets[b1])
            term_pc: Optional[int] = b1
            break
        if tcls is OpClass.RET:
            ra, frame, ci = stk.pop()
            ops[ci] = ("scall", ops[ci][1])
            ops.append(("sret", frame))
            calls -= 1
            edge, nxt, term_stop = (RK_JUMP, ra, None)
        elif tcls is OpClass.JUMP:
            edge, nxt, term_stop = (RK_JUMP, targets[b1], None)
        elif tcls is OpClass.CALL:
            edge, nxt, term_stop = (RK_CALL, targets[b1], b1)
        else:  # plain fallthrough into the next leader
            edge, nxt, term_stop = (RK_FALL, b1 + 1, None)
        nb = leaders.get(nxt)
        if (nb is None or nxt in visited
                or seq + (nb[1] - nb[0] + 1) > _CHAIN_CAP):
            # stop on this edge: the terminator executes as the chain's
            # last instruction but the edge becomes the engine re-key
            rkc, tgt = edge, nxt
            term_pc = term_stop
            break
        if tcls is OpClass.CALL:
            ops.append(("call", b1))
            calls += 1
            stk.append((b1 + 1, term.imm, len(ops) - 1))
        elif calls == 0 and len(bounds) > 1:
            # prefix cut: the chain so far, stopping at this entry-depth
            # boundary as a plain jump re-key.  The op list is copied
            # because a later matched ret patches a "call" op in place.
            cuts.append((list(ops), None, seq, RK_JUMP, nxt, nxt, nxt,
                         has_at, lat, 0, d0_max, tuple(bounds),
                         tuple(joints)))
        joints.append(nxt)
        pc = nxt
    if len(bounds) == 1:
        return []
    cuts.reverse()
    return [(ops, term_pc, seq, rkc, tgt, b1 + 1, b1, has_at, lat,
             calls, d0_max, tuple(bounds), tuple(joints))] + cuts


def _program_digest(program) -> str:
    """Content digest of the resolved program (instruction fields and
    resolved targets — label names don't affect semantics but the name
    does reach error messages, so it is included)."""
    h = hashlib.sha256()
    h.update(program.name.encode("utf-8"))
    for pc, inst in enumerate(program.instructions):
        h.update(repr((inst.op, inst.cls.name, inst.dst, tuple(inst.srcs),
                       inst.imm, inst.size,
                       inst.syscall.value if inst.syscall else None,
                       program.targets[pc])).encode("utf-8"))
    return h.hexdigest()


def generate_source(program, cfg=None) -> str:
    """The full generated module for ``program`` (deterministic, so it
    can be cached by content address and diffed under the sanitizer)."""
    if cfg is None:
        from ..isa.cfg import ControlFlowGraph
        cfg = ControlFlowGraph(program)
    insts = program.instructions
    targets = program.targets
    lines: List[str] = []
    for pc in range(len(insts)):
        if insts[pc].cls in _CONTROL:
            ops, term = [], pc
        else:
            ops, term = [("pc", pc)], None
        lines += _batch_fn_source(f"_g{pc}", ops, term, insts, targets)
    leaders = {b.start: (b.start, b.end) for b in cfg.blocks}
    for block in cfg.blocks:
        if insts[block.end].cls in _CONTROL:
            hi, term = block.end - 1, block.end
        else:
            hi, term = block.end, None
        ops = [("pc", p) for p in range(block.start, hi + 1)]
        lines += _batch_fn_source(f"_B{block.start}", ops, term,
                                  insts, targets)
        for ci, plan in enumerate(_chain_plan(insts, targets, leaders,
                                              block.start)):
            name = (f"_C{block.start}" if ci == 0
                    else f"_C{block.start}_{ci}")
            lines += _batch_fn_source(name, plan[0], plan[1],
                                      insts, targets)
    for first, last in _alu_runs(program, cfg):
        for p in range(first, last):  # suffix entry per interior pc
            ops = [("pc", q) for q in range(p, last + 1)]
            lines += _batch_fn_source(f"_r{p}", ops, None, insts, targets)
    return "\n".join(lines)


def _cached_source(program, cfg) -> str:
    """Generated source via the persistent store; any load anomaly or
    content mismatch falls back to (and republishes) a fresh build."""
    fp = store.source_fingerprint(_CODEGEN_MODULES)
    key = (_program_digest(program), sys.implementation.cache_tag)
    cached = store.lookup("vcode", fp, key)
    if isinstance(cached, str):
        if not sanitize.sanitizer_enabled():
            return cached
        fresh = generate_source(program, cfg)
        sanitize.check(fresh == cached,
                       "vcodegen: cached source for %s (key %s...) does "
                       "not match regeneration — cache key unsound",
                       program.name, key[0][:12])
        return cached
    src = generate_source(program, cfg)
    store.record("vcode", fp, key, src)
    return src


def compile_vector(program) -> VectorProgram:
    """Compile ``program`` into batch dispatch tables (one ``exec``)."""
    from ..isa.cfg import ControlFlowGraph

    cfg = ControlFlowGraph(program)
    insts = program.instructions
    targets = program.targets
    n = len(insts)
    src = _cached_source(program, cfg)
    namespace = {"min": min, "max": max, "__builtins__": {}}
    exec(compile(src, f"<vdecoded:{program.name}>", "exec"), namespace)

    blocks: List[Optional[tuple]] = [None] * n
    chains: List[Optional[tuple]] = [None] * n
    leaders = {b.start: (b.start, b.end) for b in cfg.blocks}
    for block in cfg.blocks:
        k = block.end - block.start + 1
        rk, tgt = _rekey_entry(insts[block.end], targets[block.end])
        lat_off = -1
        for off in range(k):
            if insts[block.start + off].cls is OpClass.ATOMIC:
                lat_off = off
        blocks[block.start] = (k, namespace[f"_B{block.start}"], rk, tgt,
                               lat_off >= 0, lat_off)
        entries = []
        for ci, plan in enumerate(_chain_plan(insts, targets, leaders,
                                              block.start)):
            name = (f"_C{block.start}" if ci == 0
                    else f"_C{block.start}_{ci}")
            # the plan's source-only (ops, term_pc) give way to the
            # compiled function; k and the guard fields follow as planned
            entries.append((plan[2], namespace[name]) + plan[3:])
        if entries:
            chains[block.start] = tuple(entries)
    runs: List[Optional[tuple]] = [None] * n
    for first, last in _alu_runs(program, cfg):
        for p in range(first, last):
            runs[p] = (last - p + 1, namespace[f"_r{p}"])
    return VectorProgram(
        ghandlers=tuple(namespace[f"_g{pc}"] for pc in range(n)),
        blocks=tuple(blocks),
        runs=tuple(runs),
        chains=tuple(chains),
        rekey=tuple(_rekey_entry(insts[pc], targets[pc])
                    for pc in range(n)),
        is_atomic=tuple(i.cls is OpClass.ATOMIC for i in insts),
    )
