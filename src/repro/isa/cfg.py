"""Control-flow graph and post-dominator analysis.

The "ideal" reconvergence policy in the paper (stack-based IPDOM, used
by modern GPUs) needs the immediate post-dominator of every conditional
branch.  The analysis here is intraprocedural: ``call`` is treated as a
fall-through edge (the callee returns) and ``ret``/``halt`` connect to a
virtual exit node, so a branch inside a function reconverges inside that
function, never across its return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .instructions import OpClass
from .program import Program

EXIT = -1  # virtual exit node id


@dataclass
class BasicBlock:
    index: int
    start: int  # first pc (inclusive)
    end: int  # last pc (inclusive)
    successors: List[int] = field(default_factory=list)


class ControlFlowGraph:
    """Basic blocks, successor edges and post-dominator tree of a program."""

    def __init__(self, program: Program):
        self.program = program
        self.blocks: List[BasicBlock] = []
        self._block_of_pc: List[int] = []
        self._build_blocks()
        self._ipdom_block = self._compute_ipdom()
        self._branch_reconv = self._compute_branch_reconvergence()

    # ------------------------------------------------------------------
    def _build_blocks(self) -> None:
        prog = self.program
        n = len(prog.instructions)
        leaders = {0}
        for pc, inst in enumerate(prog.instructions):
            if inst.cls in (OpClass.BRANCH, OpClass.JUMP, OpClass.CALL):
                tgt = prog.targets[pc]
                if tgt is not None and inst.cls is not OpClass.CALL:
                    leaders.add(tgt)
                if pc + 1 < n:
                    leaders.add(pc + 1)
            elif inst.cls in (OpClass.RET, OpClass.HALT):
                if pc + 1 < n:
                    leaders.add(pc + 1)
        # call targets are function entries and therefore leaders too
        for pc, inst in enumerate(prog.instructions):
            if inst.cls is OpClass.CALL and prog.targets[pc] is not None:
                leaders.add(prog.targets[pc])

        ordered = sorted(leaders)
        starts = {s: i for i, s in enumerate(ordered)}
        self._block_of_pc = [0] * n
        for i, start in enumerate(ordered):
            end = (ordered[i + 1] - 1) if i + 1 < len(ordered) else n - 1
            self.blocks.append(BasicBlock(index=i, start=start, end=end))
            for pc in range(start, end + 1):
                self._block_of_pc[pc] = i

        for block in self.blocks:
            last = prog.instructions[block.end]
            succ: List[int] = []
            if last.cls is OpClass.BRANCH:
                succ.append(starts[prog.target_of(block.end)])
                if block.end + 1 < n:
                    succ.append(self._block_of_pc[block.end + 1])
            elif last.cls is OpClass.JUMP:
                succ.append(starts[prog.target_of(block.end)])
            elif last.cls in (OpClass.RET, OpClass.HALT):
                succ.append(EXIT)
            else:  # fallthrough (includes CALL: callee returns here)
                if block.end + 1 < n:
                    succ.append(self._block_of_pc[block.end + 1])
                else:
                    succ.append(EXIT)
            block.successors = succ

    # ------------------------------------------------------------------
    def _compute_ipdom(self) -> Dict[int, int]:
        """Immediate post-dominator per block (Cooper-Harvey-Kennedy on
        the reverse CFG, with the virtual EXIT as root)."""
        nodes = [b.index for b in self.blocks] + [EXIT]
        preds: Dict[int, List[int]] = {v: [] for v in nodes}
        for b in self.blocks:
            for s in b.successors:
                preds[s].append(b.index)

        # reverse post-order of the *reverse* CFG from EXIT
        order: List[int] = []
        seen = set()

        def dfs(v: int) -> None:
            stack = [(v, iter(preds[v]))]
            seen.add(v)
            while stack:
                node, it = stack[-1]
                advanced = False
                for w in it:
                    if w not in seen:
                        seen.add(w)
                        stack.append((w, iter(preds[w])))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        dfs(EXIT)
        rpo = list(reversed(order))  # EXIT first
        rpo_index = {v: i for i, v in enumerate(rpo)}

        ipdom: Dict[int, Optional[int]] = {v: None for v in nodes}
        ipdom[EXIT] = EXIT

        def intersect(a: int, b: int) -> int:
            while a != b:
                while rpo_index[a] > rpo_index[b]:
                    a = ipdom[a]  # type: ignore[assignment]
                while rpo_index[b] > rpo_index[a]:
                    b = ipdom[b]  # type: ignore[assignment]
            return a

        changed = True
        while changed:
            changed = False
            for v in rpo:
                if v == EXIT:
                    continue
                if v not in rpo_index:
                    continue
                candidates = [
                    s
                    for s in self.blocks[v].successors
                    if s in rpo_index and ipdom[s] is not None
                ]
                if not candidates:
                    continue
                new = candidates[0]
                for s in candidates[1:]:
                    new = intersect(new, s)
                if ipdom[v] != new:
                    ipdom[v] = new
                    changed = True
        return {v: d for v, d in ipdom.items() if d is not None}

    def _compute_branch_reconvergence(self) -> Dict[int, int]:
        """Map each conditional-branch pc to its reconvergence pc.

        EXIT maps to ``len(program)`` which the executor treats as
        "reconverge when everyone halts/returns".
        """
        out: Dict[int, int] = {}
        for block in self.blocks:
            last = self.program.instructions[block.end]
            if last.cls is not OpClass.BRANCH:
                continue
            d = self._ipdom_block.get(block.index, EXIT)
            if d == EXIT:
                out[block.end] = len(self.program)
            else:
                out[block.end] = self.blocks[d].start
        return out

    # ------------------------------------------------------------------
    def block_of(self, pc: int) -> BasicBlock:
        return self.blocks[self._block_of_pc[pc]]

    def reconvergence_pc(self, branch_pc: int) -> int:
        """Reconvergence point (pc) for the conditional branch at ``branch_pc``."""
        return self._branch_reconv[branch_pc]

    def ipdom_of_block(self, block_index: int) -> int:
        return self._ipdom_block.get(block_index, EXIT)
