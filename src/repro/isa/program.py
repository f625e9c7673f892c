"""Program container: instructions, labels and resolved control flow."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .instructions import Instruction, OpClass


class ProgramError(Exception):
    """Raised for malformed programs (unknown labels, fallthrough off end)."""


@dataclass
class Program:
    """An immutable, resolved program.

    ``targets[i]`` gives the resolved instruction index for the
    branch/jump/call at pc ``i`` (``None`` for other instructions).
    """

    name: str
    instructions: List[Instruction]
    labels: Dict[str, int]
    targets: List[Optional[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.targets:
            self.targets = self._resolve_targets()
        self._validate()
        # decode cache: per-pc specialized handlers + fused superblocks
        # (built on first executor use, shared by every executor of this
        # program; see repro.engine.decode)
        self._decoded = None
        # batch-decode cache for the vectorized lockstep engine (lane-
        # array handlers and whole-block functions; see
        # repro.engine.vcodegen)
        self._vdecoded = None

    @property
    def decoded(self):
        """Pre-decoded dispatch tables (lazily compiled, then cached).

        Decoding happens once per program, not per step: every
        instruction is specialized into a closure with operands,
        immediates and resolved branch targets bound, and straight-line
        ALU/MUL runs are fused into composite superblock handlers.
        """
        dec = self._decoded
        if dec is None:
            from ..engine.decode import compile_program

            dec = self._decoded = compile_program(self)
        return dec

    @property
    def vdecoded(self):
        """Batch dispatch tables for the vectorized engine (lazily
        source-generated and compiled, then cached; the generated
        source itself is additionally cached in the result store keyed
        by program digest and engine fingerprint)."""
        vdec = self._vdecoded
        if vdec is None:
            from ..engine.vcodegen import compile_vector

            vdec = self._vdecoded = compile_vector(self)
        return vdec

    def __getstate__(self):
        # compiled handlers are closures and cannot cross process
        # boundaries; drop the cache and let the receiver re-decode
        state = dict(self.__dict__)
        state["_decoded"] = None
        state["_vdecoded"] = None
        return state

    def _resolve_targets(self) -> List[Optional[int]]:
        targets: List[Optional[int]] = []
        for pc, inst in enumerate(self.instructions):
            if inst.target is None:
                targets.append(None)
                continue
            if inst.target not in self.labels:
                raise ProgramError(
                    f"{self.name}: pc {pc} ({inst.op}) references "
                    f"unknown label {inst.target!r}"
                )
            targets.append(self.labels[inst.target])
        return targets

    def _validate(self) -> None:
        if not self.instructions:
            raise ProgramError(f"{self.name}: empty program")
        last = self.instructions[-1]
        if last.cls not in (OpClass.HALT, OpClass.JUMP, OpClass.RET):
            raise ProgramError(
                f"{self.name}: control can fall off the end "
                f"(last op is {last.op})"
            )

    def __len__(self) -> int:
        return len(self.instructions)

    def target_of(self, pc: int) -> int:
        t = self.targets[pc]
        if t is None:
            raise ProgramError(f"{self.name}: pc {pc} has no branch target")
        return t

    def label_at(self, pc: int) -> Optional[str]:
        for name, idx in self.labels.items():
            if idx == pc:
                return name
        return None

    def listing(self) -> str:
        """Human-readable disassembly, used by examples and debugging."""
        by_pc: Dict[int, List[str]] = {}
        for name, idx in self.labels.items():
            by_pc.setdefault(idx, []).append(name)
        lines = []
        for pc, inst in enumerate(self.instructions):
            for lab in sorted(by_pc.get(pc, [])):
                lines.append(f"{lab}:")
            tgt = self.targets[pc]
            suffix = f"  -> {tgt}" if tgt is not None else ""
            lines.append(f"  {pc:4d}: {inst}{suffix}")
        return "\n".join(lines)
