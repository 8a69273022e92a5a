"""Instruction syntax of the TAL_FT machine (Figure 1 of the paper).

The paper's instruction set is::

    i ::= op rd, rs, rt | op rd, rs, v | ld_c rd, rs | st_c rd, rs
        | mov rd, v | bz_c rz, rd | jmp_c rd

with ALU ops ``op ::= add | sub | mul`` and ``c`` ranging over colors.

Two documented extensions (see DESIGN.md section 5/7):

* **Extra ALU ops** (``slt``, ``and``, ``or``, ``xor``, ``sll``, ``sra``):
  the paper's op set is representative; the typing rules (``op2r-t``,
  ``op1r-t``) are generic in ``op``, and realistic workloads (the MediaBench
  stand-ins) need comparisons, masks and shifts.
* **An explicit ``halt`` instruction**: the paper's programs run forever (a
  stuck fetch is untypeable); benchmarks need to terminate.  ``halt`` is typed
  conservatively (the store queue must be empty) and is safe under faults
  because control can only reach it through the checked control-flow
  protocol.
* **Uncolored baseline instructions** (``st``, ``ld``, ``jmp``, ``bz``):
  these model the *unprotected* ISA used as the Figure 10 baseline.  They are
  executable and timeable but **rejected by the TAL_FT type checker**.

Instructions are immutable dataclasses; programs are tuples of instructions
living in code memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Union

from repro.core.colors import Color, ColoredValue

# ---------------------------------------------------------------------------
# ALU operations
# ---------------------------------------------------------------------------

_SHIFT_CLAMP = 63


def _sll(x: int, y: int) -> int:
    return x << y if 0 <= y <= _SHIFT_CLAMP else 0


def _sra(x: int, y: int) -> int:
    if y < 0:
        return 0
    return x >> min(y, _SHIFT_CLAMP)


#: Denotation of each ALU opcode.  All operate on unbounded Python integers,
#: mirroring the paper's idealized integer words.  Every op is total: a
#: campaign's rejoin rule (``repro.injection.campaign._touches``) counts
#: an ALU source as needed only when the result is, so an op that can
#: fault must be made a needed use there.
ALU_OPS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    # Extensions (documented above):
    "slt": lambda x, y: 1 if x < y else 0,
    "seq": lambda x, y: 1 if x == y else 0,
    "sne": lambda x, y: 1 if x != y else 0,
    "and": lambda x, y: x & y,
    "or": lambda x, y: x | y,
    "xor": lambda x, y: x ^ y,
    "sll": _sll,
    "sra": _sra,
}

#: The ops present in the paper's Figure 1.
PAPER_ALU_OPS = ("add", "sub", "mul")


def alu_eval(op: str, x: int, y: int) -> int:
    """Evaluate ALU operation ``op`` on integer operands."""
    try:
        fn = ALU_OPS[op]
    except KeyError:
        raise ValueError(f"unknown ALU op {op!r}") from None
    return fn(x, y)


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instruction:
    """Base class for all machine instructions."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return repr(self)


@dataclass(frozen=True)
class ArithRRR(Instruction):
    """``op rd, rs, rt`` -- three-register ALU operation (rule ``op2r``)."""

    op: str
    rd: str
    rs: str
    rt: str

    def __str__(self) -> str:
        return f"{self.op} {self.rd}, {self.rs}, {self.rt}"


@dataclass(frozen=True)
class ArithRRI(Instruction):
    """``op rd, rs, c n`` -- ALU operation with colored immediate (``op1r``)."""

    op: str
    rd: str
    rs: str
    imm: ColoredValue

    def __str__(self) -> str:
        return f"{self.op} {self.rd}, {self.rs}, {self.imm}"


@dataclass(frozen=True)
class Mov(Instruction):
    """``mov rd, c n`` -- load a colored constant into a register."""

    rd: str
    imm: ColoredValue

    def __str__(self) -> str:
        return f"mov {self.rd}, {self.imm}"


@dataclass(frozen=True)
class Load(Instruction):
    """``ld_c rd, rs`` -- load from the address in ``rs``.

    The green load (``ldG``) first consults the store queue for a pending
    store to that address (rule ``ldG-queue``); the blue load goes straight
    to memory (``ldB-mem``).
    """

    color: Color
    rd: str
    rs: str

    def __str__(self) -> str:
        return f"ld{self.color} {self.rd}, {self.rs}"


@dataclass(frozen=True)
class Store(Instruction):
    """``st_c rd, rs`` -- store the value in ``rs`` to the address in ``rd``.

    ``stG`` pushes the (address, value) pair onto the front of the store
    queue; ``stB`` compares its own pair against the back of the queue and
    commits it to memory -- the *observable* event -- or signals a fault.
    """

    color: Color
    rd: str
    rs: str

    def __str__(self) -> str:
        return f"st{self.color} {self.rd}, {self.rs}"


@dataclass(frozen=True)
class Jmp(Instruction):
    """``jmp_c rd`` -- half of the two-phase unconditional jump.

    ``jmpG`` announces the target by moving ``rd`` into the destination
    register ``d`` (which must currently be 0); ``jmpB`` checks its ``rd``
    against ``d`` and, on agreement, transfers control.
    """

    color: Color
    rd: str

    def __str__(self) -> str:
        return f"jmp{self.color} {self.rd}"


@dataclass(frozen=True)
class Bz(Instruction):
    """``bz_c rz, rd`` -- half of the two-phase branch-if-zero.

    ``bzG`` conditionally announces the target into ``d``; ``bzB`` commits
    the transfer (or the fall-through, re-checking ``d`` = 0).
    """

    color: Color
    rz: str
    rd: str

    def __str__(self) -> str:
        return f"bz{self.color} {self.rz}, {self.rd}"


@dataclass(frozen=True)
class Halt(Instruction):
    """``halt`` -- stop the machine (extension; see module docstring)."""

    def __str__(self) -> str:
        return "halt"


# ---------------------------------------------------------------------------
# Unprotected baseline instructions (outside the typed fragment)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlainLoad(Instruction):
    """``ld rd, rs`` -- unprotected load, straight from memory."""

    rd: str
    rs: str

    def __str__(self) -> str:
        return f"ld {self.rd}, {self.rs}"


@dataclass(frozen=True)
class PlainStore(Instruction):
    """``st rd, rs`` -- unprotected store; commits (and is observable) at once."""

    rd: str
    rs: str

    def __str__(self) -> str:
        return f"st {self.rd}, {self.rs}"


@dataclass(frozen=True)
class PlainJmp(Instruction):
    """``jmp rd`` -- unprotected jump; sets both program counters."""

    rd: str

    def __str__(self) -> str:
        return f"jmp {self.rd}"


@dataclass(frozen=True)
class PlainBz(Instruction):
    """``bz rz, rd`` -- unprotected branch-if-zero."""

    rz: str
    rd: str

    def __str__(self) -> str:
        return f"bz {self.rz}, {self.rd}"


#: Instructions belonging to the unprotected baseline ISA.
PLAIN_INSTRUCTIONS = (PlainLoad, PlainStore, PlainJmp, PlainBz)


def is_plain(instruction: Instruction) -> bool:
    """True if ``instruction`` belongs to the unprotected baseline ISA."""
    return isinstance(instruction, PLAIN_INSTRUCTIONS)


#: Union type of everything the machine executes.
AnyInstruction = Union[
    ArithRRR, ArithRRI, Mov, Load, Store, Jmp, Bz, Halt,
    PlainLoad, PlainStore, PlainJmp, PlainBz,
]
