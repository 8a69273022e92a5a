"""The :class:`Program` bundle: everything needed to check and run TAL_FT code.

A program couples code memory with its typing interface (label code types,
data heap typing, per-instruction hints) and its initial data memory.  Both
the assembler (:mod:`repro.asm`) and the compiler (:mod:`repro.compiler`)
produce :class:`Program` values; the type checker, the machine, the
metatheory checkers and the fault-injection campaigns all consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.colors import Color
from repro.core.instructions import Instruction
from repro.core.state import MachineState, RegisterFile, StoreQueue
from repro.types.code import CheckedProgram, check_program
from repro.types.instructions import InstructionHint
from repro.types.syntax import BasicType, CodeType


@dataclass
class Program:
    """An assembled (or compiled) TAL_FT program.

    ``label_types`` may be empty for *unprotected baseline* programs, which
    execute and can be timed but are rejected by :meth:`check`.
    """

    #: Code memory: address -> instruction (addresses start at 1).
    code: Dict[int, Instruction]
    #: Declared code types at block entries.
    label_types: Dict[int, CodeType] = field(default_factory=dict)
    #: Heap typing of the data segment (address -> basic type).
    data_psi: Dict[int, BasicType] = field(default_factory=dict)
    #: Typing hints per code address (jump substitutions, mov overrides).
    hints: Dict[int, InstructionHint] = field(default_factory=dict)
    #: Entry address.
    entry: int = 1
    #: Initial contents of value memory.
    initial_memory: Dict[int, int] = field(default_factory=dict)
    #: Number of general-purpose registers the machine is built with.
    num_gprs: int = 64
    #: Label name -> address (provenance for assembler/compiler output).
    labels_by_name: Dict[str, int] = field(default_factory=dict)
    #: Boot color per general-purpose register (default: green).  The FT
    #: compiler boots its blue register pool blue so the entry precondition
    #: types it blue.
    gpr_colors: Dict[str, "Color"] = field(default_factory=dict)
    #: First device-mapped (observable) memory address; stores below it
    #: (compiler spill slots) update memory silently.  0 = everything
    #: observable.
    observable_min: int = 0

    def boot(self) -> MachineState:
        """A fresh machine state at the entry point.

        General-purpose registers start as zeroes colored per
        ``gpr_colors`` (green by default), matching the conventional entry
        precondition (see :func:`repro.types.syntax.make_entry_gamma`).
        """
        return MachineState(
            regs=RegisterFile.initial(
                self.entry, num_gprs=self.num_gprs,
                gpr_colors=self.gpr_colors,
            ),
            code=dict(self.code),
            memory=dict(self.initial_memory),
            queue=StoreQueue(),
            observable_min=self.observable_min,
        )

    def check(self) -> CheckedProgram:
        """Type-check the program (``Psi |- C``).

        Raises :class:`repro.types.TypeCheckError` on failure.
        """
        return check_program(
            self.code, self.label_types, self.data_psi, self.hints)

    def address_of(self, label: str) -> int:
        try:
            return self.labels_by_name[label]
        except KeyError:
            raise KeyError(f"no label named {label!r}") from None

    @property
    def size(self) -> int:
        """Static instruction count."""
        return len(self.code)

    def __repr__(self) -> str:
        return (
            f"<Program {self.size} instrs, {len(self.label_types)} labels, "
            f"{len(self.initial_memory)} data words>"
        )
