"""Instruction classification and register read/write sets for timing.

Shared by the list scheduler and the issue model.  Program counters are
implicit (handled by the in-order front end); the destination register
``d`` is explicit -- it is exactly the serialization the two-phase
control-flow protocol introduces, which the timing model must see.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.colors import Color
from repro.core.instructions import (
    ArithRRI,
    ArithRRR,
    Bz,
    Halt,
    Instruction,
    Jmp,
    Load,
    Mov,
    PlainBz,
    PlainJmp,
    PlainLoad,
    PlainStore,
    Store,
)
from repro.core.registers import DEST


def kind_of(instruction: Instruction) -> str:
    """Latency class: alu / mul / load / store / branch / halt."""
    if isinstance(instruction, (ArithRRR, ArithRRI)):
        return "mul" if instruction.op == "mul" else "alu"
    if isinstance(instruction, Mov):
        return "alu"
    if isinstance(instruction, (Load, PlainLoad)):
        return "load"
    if isinstance(instruction, (Store, PlainStore)):
        return "store"
    if isinstance(instruction, (Jmp, Bz, PlainJmp, PlainBz)):
        return "branch"
    if isinstance(instruction, Halt):
        return "halt"
    raise TypeError(f"unknown instruction {instruction!r}")


def reads_of(instruction: Instruction) -> Tuple[str, ...]:
    if isinstance(instruction, ArithRRR):
        return (instruction.rs, instruction.rt)
    if isinstance(instruction, ArithRRI):
        return (instruction.rs,)
    if isinstance(instruction, Mov):
        return ()
    if isinstance(instruction, (Load, PlainLoad)):
        return (instruction.rs,)
    if isinstance(instruction, (Store, PlainStore)):
        return (instruction.rd, instruction.rs)
    if isinstance(instruction, Jmp):
        if instruction.color is Color.BLUE:
            return (instruction.rd, DEST)
        return (instruction.rd,)
    if isinstance(instruction, Bz):
        return (instruction.rz, instruction.rd, DEST)
    if isinstance(instruction, PlainJmp):
        return (instruction.rd,)
    if isinstance(instruction, PlainBz):
        return (instruction.rz, instruction.rd)
    return ()


def writes_of(instruction: Instruction) -> Tuple[str, ...]:
    if isinstance(instruction, (ArithRRR, ArithRRI, Mov)):
        return (instruction.rd,)
    if isinstance(instruction, (Load, PlainLoad)):
        return (instruction.rd,)
    if isinstance(instruction, (Jmp, Bz)):
        return (DEST,)  # jmpG/bzG may set d; jmpB/bzB reset it
    return ()


def is_commit_branch(instruction: Instruction) -> bool:
    """True for instructions that may actually transfer control."""
    if isinstance(instruction, (PlainJmp, PlainBz)):
        return True
    if isinstance(instruction, (Jmp, Bz)):
        return instruction.color is Color.BLUE
    return False


def is_green_store(instruction: Instruction) -> bool:
    return isinstance(instruction, Store) and instruction.color is Color.GREEN


def is_blue_store(instruction: Instruction) -> bool:
    return isinstance(instruction, Store) and instruction.color is Color.BLUE


def is_green_control(instruction: Instruction) -> bool:
    return isinstance(instruction, (Jmp, Bz)) and \
        instruction.color is Color.GREEN
