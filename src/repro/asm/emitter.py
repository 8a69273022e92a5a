"""Serializer: :class:`~repro.program.Program` to re-parseable ``.tal``.

The inverse of :func:`repro.asm.parser.parse_program`: emits directives,
data segment, labeled blocks with full ``.pre`` preconditions, and jump
hints, such that parsing the output yields an equivalent program (same
code, same types up to expression normalization, same boot state).  A
program without label types (the compiler's baseline and SWIFT builds)
is emitted untyped: labels without ``.pre`` and data words without type
annotations.  Every instruction line ends with its code address as a
comment.  The round trip is exercised by the test-suite on compiled
kernels.

``.tal`` text is the one form in which a program leaves the process:
``talft compile prog.mwl --emit-tal out.tal`` writes it, ``--listing``
prints it, and remote shard jobs carry it.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List

from repro.core.colors import Color
from repro.core.errors import ReproError
from repro.core.instructions import ArithRRI, Bz, Instruction, Jmp, Mov
from repro.core.registers import DEST, PC_B, PC_G, gpr_index
from repro.program import Program
from repro.statics.expressions import (
    BinExpr,
    EmptyMem,
    Expr,
    IntConst,
    Sel,
    Upd,
    Var,
)
from repro.types.syntax import (
    CodeType,
    CondType,
    IntType,
    RefType,
    RegType,
    StaticContext,
    context_equal,
)


def render_expr(expr: Expr) -> str:
    """A parser-compatible rendering of a static expression."""
    if isinstance(expr, IntConst):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, EmptyMem):
        return "emp"
    if isinstance(expr, BinExpr):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, Sel):
        return f"sel({render_expr(expr.mem)}, {render_expr(expr.addr)})"
    if isinstance(expr, Upd):
        return (f"upd({render_expr(expr.mem)}, {render_expr(expr.addr)}, "
                f"{render_expr(expr.value)})")
    raise ReproError(f"cannot render expression {expr!r}")


class _Emitter:
    def __init__(self, program: Program):
        self.program = program
        self.names: Dict[int, str] = {
            address: name for name, address in program.labels_by_name.items()
        }
        for address in program.label_types:
            self.names.setdefault(address, f"L{address}")

    # -- types ---------------------------------------------------------------

    def label_of_code_type(self, code_type: CodeType) -> str:
        for address, declared in self.program.label_types.items():
            if declared is code_type or \
                    context_equal(declared.context, code_type.context):
                return self.names[address]
        raise ReproError(
            "cannot serialize a code type that matches no label precondition"
        )

    def render_basic(self, basic) -> str:
        if isinstance(basic, IntType):
            return "int"
        if isinstance(basic, RefType):
            return f"{self.render_basic(basic.pointee)} ref"
        if isinstance(basic, CodeType):
            return f"code @{self.label_of_code_type(basic)}"
        raise ReproError(f"cannot render basic type {basic!r}")

    def render_reg_type(self, assign) -> str:
        if isinstance(assign, CondType):
            return (f"{render_expr(assign.guard)} = 0 => "
                    f"{self.render_reg_type(assign.inner)}")
        assert isinstance(assign, RegType)
        return (f"({assign.color}, {self.render_basic(assign.basic)}, "
                f"{render_expr(assign.expr)})")

    def render_precondition(self, address: int,
                            context: StaticContext) -> List[str]:
        bindings = ", ".join(
            f"{name}: {kind}" for name, kind in sorted(context.delta.items())
        )
        zero_default = RegType(Color.GREEN, IntType(), IntConst(0))
        entries: List[str] = []
        for name in sorted(context.gamma.gprs(), key=gpr_index):
            assign = context.gamma.get(name)
            if assign == zero_default:
                continue  # covered by 'rest: zero'
            entries.append(f"{name}: {self.render_reg_type(assign)}")
        dest = context.gamma.get(DEST)
        if dest != zero_default:
            entries.append(f"d: {self.render_reg_type(dest)}")
        for pc, color in ((PC_G, Color.GREEN), (PC_B, Color.BLUE)):
            assign = context.gamma.get(pc)
            default = RegType(color, IntType(), IntConst(address))
            if assign != default:
                entries.append(f"{pc}: {self.render_reg_type(assign)}")
        entries.append("rest: zero")
        queue = ", ".join(
            f"({render_expr(ed)}, {render_expr(es)})"
            for ed, es in context.queue
        )
        lines = [f"  .pre [{bindings}] {{"]
        for entry in entries:
            lines.append(f"      {entry},")
        lines.append(f"  }} queue [{queue}] mem {render_expr(context.mem)}")
        return lines

    # -- instructions ----------------------------------------------------------

    def render_instruction(self, address: int,
                           instruction: Instruction) -> str:
        # ``str`` is the assembly syntax, except that it glues an
        # immediate's color to its value (``G5``).
        hint = self.program.hints.get(address)
        if isinstance(instruction, Mov):
            note = "" if hint is None or hint.mov_basic is None else " : int"
            imm = instruction.imm
            return f"mov {instruction.rd}, {imm.color} {imm.value}{note}"
        if isinstance(instruction, ArithRRI):
            imm = instruction.imm
            return (f"{instruction.op} {instruction.rd}, {instruction.rs}, "
                    f"{imm.color} {imm.value}")
        text = str(instruction)
        if isinstance(instruction, (Jmp, Bz)) and hint is not None \
                and hint.subst is not None:
            parts = ", ".join(
                f"{name} = {render_expr(expr)}"
                for name, expr in sorted(hint.subst.items())
            )
            text += f" with [{parts}]"
        return text

    # -- whole program -----------------------------------------------------

    def emit(self) -> str:
        program = self.program
        addresses = sorted(program.code)
        if addresses != list(range(1, len(addresses) + 1)):
            raise ReproError("code addresses must run 1, 2, 3, ... "
                             "without gaps")
        labeled = program.label_types or self.names
        if addresses and addresses[0] not in labeled:
            raise ReproError("the first instruction carries no label")
        lines: List[str] = [
            "; emitted by repro.asm.emitter -- re-parseable TAL_FT assembly",
            f".gprs {program.num_gprs}",
        ]
        blue = sorted(
            gpr_index(name)
            for name, color in program.gpr_colors.items()
            if color is Color.BLUE
        )
        for _, run in groupby(enumerate(blue), lambda pair: pair[1] - pair[0]):
            indices = [index for _, index in run]
            lines.append(f".bluepool {indices[0]} {indices[-1]}")
        if program.observable_min:
            lines.append(f".observable {program.observable_min}")
        entry_name = self.names.get(program.entry)
        if entry_name is None:
            raise ReproError("entry address carries no label")
        lines.append(f".entry {entry_name}")
        if program.initial_memory:
            lines.append("")
            lines.append(".data")
            for address in sorted(program.initial_memory):
                declared = program.data_psi.get(address)
                note = ""
                if isinstance(declared, RefType) and \
                        not isinstance(declared.pointee, IntType):
                    note = f" : {self.render_basic(declared.pointee)}"
                lines.append(
                    f"  word {address} = "
                    f"{program.initial_memory[address]}{note}"
                )
        lines.append("")
        lines.append(".code")
        for address in addresses:
            if address in labeled:
                lines.append(f"{self.names[address]}:")
            declared = program.label_types.get(address)
            if declared is not None:
                lines.extend(
                    self.render_precondition(address, declared.context)
                )
            text = self.render_instruction(address, program.code[address])
            lines.append(f"  {text:<28} ; {address}")
        return "\n".join(lines) + "\n"


def emit_tal(program: Program) -> str:
    """Serialize ``program`` (with its typing interface, if it has one)
    to ``.tal`` text."""
    return _Emitter(program).emit()
