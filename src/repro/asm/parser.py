"""Parser and assembler for textual TAL_FT programs.

Grammar sketch (``;`` comments, newline-terminated lines)::

    .gprs 16                      ; machine register count (default 16)
    .entry main                   ; entry label (default: first label)

    .data
      word 256 = 0                ; one int cell
      word 300 = @done : code @done   ; a cell holding a code pointer
      block 400 8 = 0             ; eight int cells starting at 400

    .code
    main:
      .pre [m: mem] { rest: zero } mem m
      mov r1, G 5
      mov r2, G 256
      stG r2, r1
      ...
      jmpB r8 with [n = 5, ml = m]    ; optional jump hint
      halt

    loop:
      .pre [ml: mem, n: int] {
          r1: (G, int, n), r2: (B, int, n), rest: zero
      } queue [] mem ml
      ...

Register-type entries are separated by commas or newlines (``;`` starts a
comment).  Register types are ``(color, basic, expr)`` or the conditional
``expr = 0 => (color, basic, expr)``; basic types are ``int``,
``code @label`` and suffix ``ref`` (e.g. ``int ref``).  Expressions are
integers, variables, ``@label`` address literals, ``emp``,
``sel(E, E)``, ``upd(E, E, E)`` and parenthesized binary operations
``(E + E)``, ``(E - E)``, ``(E * E)`` or ``(E op E)`` with a named ALU op.

The precondition shorthand ``rest: zero`` types every unmentioned
general-purpose register as ``(G, int, 0)``; ``pcG``/``pcB`` default to the
label's own address and ``d`` to ``(G, int, 0)``.

``.pre`` is all-or-nothing: a file in which no label carries one is an
*untyped* program (the compiler's baseline and SWIFT builds), with no
label types and untyped data words.  ``.bluepool lo hi`` may repeat; each
adds one range of registers that boot blue.

Code types are resolved by label reference; cyclic references are rejected
(the frozen type representation cannot express recursive types -- type the
register as ``int`` and re-establish the pointer with ``mov`` instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.colors import Color, ColoredValue
from repro.core.errors import AsmError
from repro.core.instructions import (
    ALU_OPS,
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
from repro.core.registers import DEST, PC_B, PC_G, gpr, gpr_range, is_register
from repro.asm.lexer import Token, TokenStream, tokenize
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
from repro.statics.kinds import KIND_INT, KIND_MEM, Kind, KindContext
from repro.statics.substitution import Subst
from repro.types.instructions import InstructionHint
from repro.types.syntax import (
    INT,
    BasicType,
    CodeType,
    CondType,
    RefType,
    RegAssign,
    RegFileType,
    RegType,
    StaticContext,
)

_OP_SYMBOLS = {"+": "add", "-": "sub", "*": "mul"}


# ---------------------------------------------------------------------------
# Unresolved (label-referencing) intermediate forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodeRef:
    """An unresolved ``code @label`` basic type."""

    label: str


@dataclass(frozen=True)
class RefOf:
    base: object  # CodeRef | "int" | RefOf


@dataclass(frozen=True)
class RawRegType:
    color: Color
    basic: object
    expr: Expr
    guard: Optional[Expr] = None  # conditional types


@dataclass
class RawPrecondition:
    bindings: List[Tuple[str, Kind]]
    regs: Dict[str, RawRegType]
    rest_zero: bool
    queue: Optional[List[Tuple[Expr, Expr]]]
    mem: Optional[Expr]
    line: int


@dataclass
class RawBlock:
    label: str
    precondition: Optional[RawPrecondition]  # None in untyped programs
    instructions: List[Tuple[Instruction, Optional[InstructionHint]]]


@dataclass
class RawData:
    address: int
    value: int
    basic: object  # "int" | CodeRef | RefOf (pointee type)


# ---------------------------------------------------------------------------
# The parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.stream = TokenStream(tokenize(source))
        self.num_gprs = 16
        self.entry_label: Optional[str] = None
        self.data: List[RawData] = []
        self.blocks: List[RawBlock] = []
        #: Inclusive register-index ranges booted blue (``.bluepool lo hi``).
        self.blue_pools: List[Tuple[int, int]] = []
        #: First observable memory address (``.observable N``; default 0).
        self.observable_min = 0

    # -- error helper --------------------------------------------------------

    def _error(self, message: str, token: Optional[Token] = None) -> AsmError:
        if token is None:
            token = self.stream.peek()
        return AsmError(message, token.line, token.column)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, label_addresses: bool = True) -> Expr:
        token = self.stream.next(skip_newlines=True)
        if token.kind == "INT":
            return IntConst(int(token.text))
        if token.kind == "PUNCT" and token.text == "@":
            name = self.stream.expect("IDENT").text
            return _LabelAddr(name)
        if token.kind == "IDENT":
            if token.text == "emp":
                return EmptyMem()
            if token.text == "sel":
                self.stream.expect("PUNCT", "(")
                mem = self.parse_expr()
                self.stream.expect("PUNCT", ",", skip_newlines=True)
                addr = self.parse_expr()
                self.stream.expect("PUNCT", ")", skip_newlines=True)
                return Sel(mem, addr)
            if token.text == "upd":
                self.stream.expect("PUNCT", "(")
                mem = self.parse_expr()
                self.stream.expect("PUNCT", ",", skip_newlines=True)
                addr = self.parse_expr()
                self.stream.expect("PUNCT", ",", skip_newlines=True)
                value = self.parse_expr()
                self.stream.expect("PUNCT", ")", skip_newlines=True)
                return Upd(mem, addr, value)
            return Var(token.text)
        if token.kind == "PUNCT" and token.text == "(":
            left = self.parse_expr()
            op_token = self.stream.next(skip_newlines=True)
            if op_token.kind == "PUNCT" and op_token.text in _OP_SYMBOLS:
                op = _OP_SYMBOLS[op_token.text]
            elif op_token.kind == "IDENT" and op_token.text in ALU_OPS:
                op = op_token.text
            else:
                raise self._error(f"unknown operator {op_token.text!r}", op_token)
            right = self.parse_expr()
            self.stream.expect("PUNCT", ")", skip_newlines=True)
            return BinExpr(op, left, right)
        raise self._error(f"expected an expression, found {token.text!r}", token)

    # -- types ----------------------------------------------------------------

    def parse_basic(self) -> object:
        token = self.stream.next(skip_newlines=True)
        if token.kind == "IDENT" and token.text == "int":
            base: object = "int"
        elif token.kind == "IDENT" and token.text == "code":
            self.stream.expect("PUNCT", "@", skip_newlines=True)
            base = CodeRef(self.stream.expect("IDENT").text)
        else:
            raise self._error(f"expected a basic type, found {token.text!r}", token)
        while self.stream.match("IDENT", "ref", skip_newlines=True):
            base = RefOf(base)
        return base

    def parse_color(self) -> Color:
        token = self.stream.next(skip_newlines=True)
        if token.kind == "IDENT" and token.text in ("G", "B"):
            return Color.GREEN if token.text == "G" else Color.BLUE
        raise self._error(f"expected a color (G or B), found {token.text!r}", token)

    def parse_reg_type(self) -> RawRegType:
        # Either "(c, b, E)" or "E = 0 => (c, b, E)".
        if self.stream.peek(skip_newlines=True).text == "(" and \
                self._looks_like_triple():
            return self._parse_triple()
        guard = self.parse_expr()
        self.stream.expect("PUNCT", "=", skip_newlines=True)
        zero = self.stream.expect("INT", skip_newlines=True)
        if zero.text != "0":
            raise self._error("conditional guard must compare with 0", zero)
        self.stream.expect("PUNCT", "=>", skip_newlines=True)
        inner = self._parse_triple()
        return RawRegType(inner.color, inner.basic, inner.expr, guard=guard)

    def _looks_like_triple(self) -> bool:
        # "(G," or "(B," begins a triple; anything else is an expression.
        token = self.stream.peek(skip_newlines=True)
        if token.text != "(":
            return False
        # Peek two tokens ahead without consuming.
        saved = self.stream._index  # noqa: SLF001 - controlled lookahead
        try:
            self.stream.next(skip_newlines=True)
            first = self.stream.next(skip_newlines=True)
            second = self.stream.peek(skip_newlines=True)
            return first.kind == "IDENT" and first.text in ("G", "B") \
                and second.text == ","
        finally:
            self.stream._index = saved  # noqa: SLF001

    def _parse_triple(self) -> RawRegType:
        self.stream.expect("PUNCT", "(", skip_newlines=True)
        color = self.parse_color()
        self.stream.expect("PUNCT", ",", skip_newlines=True)
        basic = self.parse_basic()
        self.stream.expect("PUNCT", ",", skip_newlines=True)
        expr = self.parse_expr()
        self.stream.expect("PUNCT", ")", skip_newlines=True)
        return RawRegType(color, basic, expr)

    # -- preconditions --------------------------------------------------------

    def parse_precondition(self) -> RawPrecondition:
        at = self.stream.peek(skip_newlines=True)
        self.stream.expect("IDENT", ".pre", skip_newlines=True)
        self.stream.expect("PUNCT", "[")
        bindings: List[Tuple[str, Kind]] = []
        while not self.stream.match("PUNCT", "]", skip_newlines=True):
            name = self.stream.expect("IDENT", skip_newlines=True).text
            self.stream.expect("PUNCT", ":", skip_newlines=True)
            kind_token = self.stream.expect("IDENT", skip_newlines=True)
            if kind_token.text == "int":
                bindings.append((name, KIND_INT))
            elif kind_token.text == "mem":
                bindings.append((name, KIND_MEM))
            else:
                raise self._error(
                    f"expected kind int or mem, found {kind_token.text!r}",
                    kind_token,
                )
            self.stream.match("PUNCT", ",", skip_newlines=True)
        self.stream.expect("PUNCT", "{", skip_newlines=True)
        regs: Dict[str, RawRegType] = {}
        rest_zero = False
        while not self.stream.match("PUNCT", "}", skip_newlines=True):
            name_token = self.stream.expect("IDENT", skip_newlines=True)
            self.stream.expect("PUNCT", ":", skip_newlines=True)
            if name_token.text == "rest":
                value = self.stream.expect("IDENT", skip_newlines=True)
                if value.text != "zero":
                    raise self._error("only 'rest: zero' is supported", value)
                rest_zero = True
            else:
                if not is_register(name_token.text):
                    raise self._error(
                        f"{name_token.text!r} is not a register", name_token
                    )
                regs[name_token.text] = self.parse_reg_type()
            self.stream.match("PUNCT", ",", skip_newlines=True)
        queue: Optional[List[Tuple[Expr, Expr]]] = None
        mem: Optional[Expr] = None
        while True:
            token = self.stream.peek()
            if token.kind == "IDENT" and token.text == "queue":
                self.stream.next()
                self.stream.expect("PUNCT", "[", skip_newlines=True)
                queue = []
                while not self.stream.match("PUNCT", "]", skip_newlines=True):
                    self.stream.expect("PUNCT", "(", skip_newlines=True)
                    addr = self.parse_expr()
                    self.stream.expect("PUNCT", ",", skip_newlines=True)
                    value = self.parse_expr()
                    self.stream.expect("PUNCT", ")", skip_newlines=True)
                    queue.append((addr, value))
                    self.stream.match("PUNCT", ",", skip_newlines=True)
            elif token.kind == "IDENT" and token.text == "mem":
                self.stream.next()
                mem = self.parse_expr()
            else:
                break
        return RawPrecondition(bindings, regs, rest_zero, queue, mem, at.line)

    # -- instructions ----------------------------------------------------------

    def parse_operand_value(self) -> ColoredValue:
        color = self.parse_color()
        token = self.stream.next()
        if token.kind == "INT":
            return ColoredValue(color, int(token.text))
        if token.kind == "PUNCT" and token.text == "@":
            name = self.stream.expect("IDENT").text
            return _PendingImmediate(color, name)  # type: ignore[return-value]
        raise self._error(
            f"expected an immediate after color, found {token.text!r}", token
        )

    def parse_register(self) -> str:
        token = self.stream.expect("IDENT")
        if not is_register(token.text):
            raise self._error(f"{token.text!r} is not a register", token)
        return token.text

    def parse_hint(self) -> Optional[InstructionHint]:
        if not self.stream.match("IDENT", "with"):
            return None
        self.stream.expect("PUNCT", "[")
        mapping: Dict[str, Expr] = {}
        while not self.stream.match("PUNCT", "]", skip_newlines=True):
            name = self.stream.expect("IDENT", skip_newlines=True).text
            self.stream.expect("PUNCT", "=", skip_newlines=True)
            mapping[name] = self.parse_expr()
            self.stream.match("PUNCT", ",", skip_newlines=True)
        return InstructionHint(subst=Subst(mapping))

    def parse_instruction(self) -> Tuple[Instruction, Optional[InstructionHint]]:
        opcode = self.stream.expect("IDENT", skip_newlines=True)
        name = opcode.text
        hint: Optional[InstructionHint] = None
        if name == "halt":
            instruction: Instruction = Halt()
        elif name == "mov":
            rd = self.parse_register()
            self.stream.expect("PUNCT", ",")
            imm = self.parse_operand_value()
            if self.stream.match("PUNCT", ":"):
                type_token = self.stream.expect("IDENT")
                if type_token.text != "int":
                    raise self._error(
                        "only ': int' mov annotations are supported", type_token
                    )
                hint = InstructionHint(mov_basic=INT)
            instruction = Mov(rd, imm)
        elif name in ALU_OPS:
            rd = self.parse_register()
            self.stream.expect("PUNCT", ",")
            rs = self.parse_register()
            self.stream.expect("PUNCT", ",")
            token = self.stream.peek()
            if token.kind == "IDENT" and token.text in ("G", "B"):
                imm = self.parse_operand_value()
                instruction = ArithRRI(name, rd, rs, imm)
            else:
                rt = self.parse_register()
                instruction = ArithRRR(name, rd, rs, rt)
        elif name in ("ldG", "ldB"):
            color = Color.GREEN if name.endswith("G") else Color.BLUE
            rd = self.parse_register()
            self.stream.expect("PUNCT", ",")
            rs = self.parse_register()
            instruction = Load(color, rd, rs)
        elif name in ("stG", "stB"):
            color = Color.GREEN if name.endswith("G") else Color.BLUE
            rd = self.parse_register()
            self.stream.expect("PUNCT", ",")
            rs = self.parse_register()
            instruction = Store(color, rd, rs)
        elif name in ("jmpG", "jmpB"):
            color = Color.GREEN if name.endswith("G") else Color.BLUE
            rd = self.parse_register()
            if name == "jmpB":
                hint = self.parse_hint()
            instruction = Jmp(color, rd)
        elif name in ("bzG", "bzB"):
            color = Color.GREEN if name.endswith("G") else Color.BLUE
            rz = self.parse_register()
            self.stream.expect("PUNCT", ",")
            rd = self.parse_register()
            if name == "bzB":
                hint = self.parse_hint()
            instruction = Bz(color, rz, rd)
        elif name == "ld":
            rd = self.parse_register()
            self.stream.expect("PUNCT", ",")
            rs = self.parse_register()
            instruction = PlainLoad(rd, rs)
        elif name == "st":
            rd = self.parse_register()
            self.stream.expect("PUNCT", ",")
            rs = self.parse_register()
            instruction = PlainStore(rd, rs)
        elif name == "jmp":
            instruction = PlainJmp(self.parse_register())
        elif name == "bz":
            rz = self.parse_register()
            self.stream.expect("PUNCT", ",")
            rd = self.parse_register()
            instruction = PlainBz(rz, rd)
        else:
            raise self._error(f"unknown opcode {name!r}", opcode)
        return instruction, hint

    # -- sections ----------------------------------------------------------

    def parse_data_section(self) -> None:
        while True:
            token = self.stream.peek(skip_newlines=True)
            if token.kind == "IDENT" and token.text == "word":
                self.stream.next(skip_newlines=True)
                address = int(self.stream.expect("INT").text)
                self.stream.expect("PUNCT", "=")
                value_token = self.stream.next()
                if value_token.kind == "INT":
                    value: object = int(value_token.text)
                elif value_token.kind == "PUNCT" and value_token.text == "@":
                    value = _PendingLabel(self.stream.expect("IDENT").text)
                else:
                    raise self._error("expected a data value", value_token)
                basic: object = "int"
                if self.stream.match("PUNCT", ":"):
                    basic = self.parse_basic()
                self.data.append(RawData(address, value, basic))
            elif token.kind == "IDENT" and token.text == "block":
                self.stream.next(skip_newlines=True)
                address = int(self.stream.expect("INT").text)
                count = int(self.stream.expect("INT").text)
                self.stream.expect("PUNCT", "=")
                value = int(self.stream.expect("INT").text)
                for offset in range(count):
                    self.data.append(RawData(address + offset, value, "int"))
            else:
                break

    def parse_code_section(self) -> None:
        while True:
            token = self.stream.peek(skip_newlines=True)
            if token.kind != "IDENT" or token.text.startswith("."):
                break
            # A label is IDENT ':' at the start of a line.
            label = self.stream.expect("IDENT", skip_newlines=True).text
            self.stream.expect("PUNCT", ":")
            precondition = None
            if self.stream.peek(skip_newlines=True).text == ".pre":
                precondition = self.parse_precondition()
            instructions: List[Tuple[Instruction, Optional[InstructionHint]]] = []
            while True:
                self.stream.skip_newlines()
                peeked = self.stream.peek()
                if peeked.kind == "EOF" or peeked.text.startswith("."):
                    break
                # Label ahead?  IDENT followed by ':'.
                saved = self.stream._index  # noqa: SLF001
                if peeked.kind == "IDENT":
                    self.stream.next()
                    if self.stream.peek().text == ":":
                        self.stream._index = saved  # noqa: SLF001
                        break
                    self.stream._index = saved  # noqa: SLF001
                instructions.append(self.parse_instruction())
            if not instructions:
                raise self._error(f"block {label!r} has no instructions")
            self.blocks.append(RawBlock(label, precondition, instructions))

    def parse(self) -> "_Parser":
        while not self.stream.at_end():
            token = self.stream.peek(skip_newlines=True)
            if token.kind == "IDENT" and token.text == ".gprs":
                self.stream.next(skip_newlines=True)
                self.num_gprs = int(self.stream.expect("INT").text)
            elif token.kind == "IDENT" and token.text == ".observable":
                # First device-mapped address; stores below it are silent.
                self.stream.next(skip_newlines=True)
                self.observable_min = int(self.stream.expect("INT").text)
            elif token.kind == "IDENT" and token.text == ".bluepool":
                # Registers r<lo> .. r<hi> boot as blue zeroes (so block
                # preconditions may type them blue at entry).
                self.stream.next(skip_newlines=True)
                low = int(self.stream.expect("INT").text)
                high = int(self.stream.expect("INT").text)
                self.blue_pools.append((low, high))
            elif token.kind == "IDENT" and token.text == ".entry":
                self.stream.next(skip_newlines=True)
                self.entry_label = self.stream.expect("IDENT").text
            elif token.kind == "IDENT" and token.text == ".data":
                self.stream.next(skip_newlines=True)
                self.parse_data_section()
            elif token.kind == "IDENT" and token.text == ".code":
                self.stream.next(skip_newlines=True)
                self.parse_code_section()
            else:
                raise self._error(
                    f"expected a directive or section, found {token.text!r}",
                    token,
                )
        if not self.blocks:
            raise AsmError("program has no code blocks")
        return self


# ---------------------------------------------------------------------------
# Label-reference placeholders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PendingLabel:
    name: str


class _LabelAddr(Var):
    """An ``@label`` literal inside an expression; resolved to IntConst.

    Implemented as a Var subclass so it flows through expression structure
    until resolution; the resolver rewrites it before any typing happens.
    """


@dataclass(frozen=True)
class _PendingImmediate:
    """An ``@label`` immediate; resolved once label addresses are known."""

    color: Color
    label: str


# ---------------------------------------------------------------------------
# Resolution: raw forms -> Program
# ---------------------------------------------------------------------------


class _Resolver:
    def __init__(self, parsed: _Parser):
        self.parsed = parsed
        self.addresses: Dict[str, int] = {}
        self.preconditions: Dict[str, RawPrecondition] = {}
        self.code_types: Dict[str, CodeType] = {}
        self._resolving: List[str] = []

    def resolve(self) -> Program:
        typed = self.parsed.blocks[0].precondition is not None
        address = 1
        for block in self.parsed.blocks:
            if block.label in self.addresses:
                raise AsmError(f"duplicate label {block.label!r}")
            if (block.precondition is not None) != typed:
                raise AsmError(
                    f"label {block.label!r}: either every label carries a "
                    ".pre or none does")
            self.addresses[block.label] = address
            self.preconditions[block.label] = block.precondition
            address += len(block.instructions)

        data_psi: Dict[int, BasicType] = {}
        initial_memory: Dict[int, int] = {}
        for raw in self.parsed.data:
            if raw.address in initial_memory:
                raise AsmError(f"duplicate data address {raw.address}")
            if typed:
                data_psi[raw.address] = RefType(self.resolve_basic(raw.basic))
            elif raw.basic != "int":
                raise AsmError(f"data word {raw.address}: an untyped "
                               "program (no .pre) has untyped data")
            if isinstance(raw.value, _PendingLabel):
                initial_memory[raw.address] = self.address_of(raw.value.name)
            else:
                initial_memory[raw.address] = raw.value

        label_types: Dict[int, CodeType] = {}
        if typed:
            for block in self.parsed.blocks:
                label_types[self.addresses[block.label]] = \
                    self.code_type_of(block.label)

        code: Dict[int, Instruction] = {}
        hints: Dict[int, InstructionHint] = {}
        for block in self.parsed.blocks:
            address = self.addresses[block.label]
            for instruction, hint in block.instructions:
                code[address] = self.resolve_instruction(instruction)
                if hint is not None:
                    resolved = self.resolve_hint(hint)
                    hints[address] = resolved
                address += 1

        entry_label = self.parsed.entry_label or self.parsed.blocks[0].label
        if entry_label not in self.addresses:
            raise AsmError(f"entry label {entry_label!r} is not defined")
        gpr_colors = {}
        for low, high in self.parsed.blue_pools:
            if not 1 <= low <= high <= self.parsed.num_gprs:
                raise AsmError(
                    f".bluepool {low} {high} is outside r1..r"
                    f"{self.parsed.num_gprs}"
                )
            for index in range(low, high + 1):
                gpr_colors[gpr(index)] = Color.BLUE
        return Program(
            code=code,
            label_types=label_types,
            data_psi=data_psi,
            hints=hints,
            entry=self.addresses[entry_label],
            initial_memory=initial_memory,
            num_gprs=self.parsed.num_gprs,
            labels_by_name=dict(self.addresses),
            gpr_colors=gpr_colors,
            observable_min=self.parsed.observable_min,
        )

    def address_of(self, label: str) -> int:
        try:
            return self.addresses[label]
        except KeyError:
            raise AsmError(f"undefined label {label!r}") from None

    # -- expressions ---------------------------------------------------------

    def resolve_expr(self, expr: Expr) -> Expr:
        if isinstance(expr, _LabelAddr):
            return IntConst(self.address_of(expr.name))
        if isinstance(expr, (IntConst, EmptyMem, Var)):
            return expr
        if isinstance(expr, BinExpr):
            return BinExpr(expr.op, self.resolve_expr(expr.left),
                           self.resolve_expr(expr.right))
        if isinstance(expr, Sel):
            return Sel(self.resolve_expr(expr.mem), self.resolve_expr(expr.addr))
        if isinstance(expr, Upd):
            return Upd(self.resolve_expr(expr.mem), self.resolve_expr(expr.addr),
                       self.resolve_expr(expr.value))
        raise AsmError(f"cannot resolve expression {expr!r}")

    # -- types ----------------------------------------------------------------

    def resolve_basic(self, raw: object) -> BasicType:
        if raw == "int":
            return INT
        if isinstance(raw, CodeRef):
            return self.code_type_of(raw.label)
        if isinstance(raw, RefOf):
            return RefType(self.resolve_basic(raw.base))
        raise AsmError(f"cannot resolve basic type {raw!r}")

    def code_type_of(self, label: str) -> CodeType:
        if label in self.code_types:
            return self.code_types[label]
        if label in self._resolving:
            cycle = " -> ".join(self._resolving + [label])
            raise AsmError(
                f"recursive code types are not supported ({cycle}); type the "
                "register as int and re-establish the pointer with mov"
            )
        if label not in self.preconditions:
            raise AsmError(f"undefined label {label!r}")
        self._resolving.append(label)
        try:
            context = self.build_context(label, self.preconditions[label])
        finally:
            self._resolving.pop()
        code_type = CodeType(context)
        self.code_types[label] = code_type
        return code_type

    def build_context(self, label: str, raw: RawPrecondition) -> StaticContext:
        address = self.addresses[label]
        delta = KindContext(dict(raw.bindings))
        assigns: Dict[str, RegAssign] = {}
        for name, raw_type in raw.regs.items():
            expr = self.resolve_expr(raw_type.expr)
            basic = self.resolve_basic(raw_type.basic)
            reg_type = RegType(raw_type.color, basic, expr)
            if raw_type.guard is not None:
                assigns[name] = CondType(self.resolve_expr(raw_type.guard),
                                         reg_type)
            else:
                assigns[name] = reg_type
        if PC_G not in assigns:
            assigns[PC_G] = RegType(Color.GREEN, INT, IntConst(address))
        if PC_B not in assigns:
            assigns[PC_B] = RegType(Color.BLUE, INT, IntConst(address))
        if DEST not in assigns:
            assigns[DEST] = RegType(Color.GREEN, INT, IntConst(0))
        for name in gpr_range(self.parsed.num_gprs):
            if name not in assigns:
                if not raw.rest_zero:
                    raise AsmError(
                        f"label {label!r}: register {name} has no declared "
                        "type (add it or use 'rest: zero')",
                        raw.line,
                    )
                assigns[name] = RegType(Color.GREEN, INT, IntConst(0))
        queue = tuple(
            (self.resolve_expr(addr), self.resolve_expr(value))
            for addr, value in (raw.queue or [])
        )
        if raw.mem is not None:
            mem = self.resolve_expr(raw.mem)
        else:
            mem_vars = [name for name, kind in raw.bindings if kind is KIND_MEM]
            if len(mem_vars) != 1:
                raise AsmError(
                    f"label {label!r}: no 'mem' clause and no unique memory "
                    "variable to default to",
                    raw.line,
                )
            mem = Var(mem_vars[0])
        return StaticContext(delta=delta, gamma=RegFileType(assigns),
                             queue=queue, mem=mem)

    # -- instructions ----------------------------------------------------------

    def resolve_instruction(self, instruction: Instruction) -> Instruction:
        imm = getattr(instruction, "imm", None)
        if isinstance(imm, _PendingImmediate):
            value = ColoredValue(imm.color, self.address_of(imm.label))
            if isinstance(instruction, Mov):
                return Mov(instruction.rd, value)
            if isinstance(instruction, ArithRRI):
                return ArithRRI(instruction.op, instruction.rd,
                                instruction.rs, value)
        return instruction

    def resolve_hint(self, hint: InstructionHint) -> InstructionHint:
        if hint.subst is None:
            return hint
        resolved = {name: self.resolve_expr(expr)
                    for name, expr in hint.subst.items()}
        return InstructionHint(subst=Subst(resolved),
                               mov_basic=hint.mov_basic)


def parse_program(source: str) -> Program:
    """Assemble textual TAL_FT source into a :class:`Program`."""
    return _Resolver(_Parser(source).parse()).resolve()


def assemble_file(path: str) -> Program:
    """Assemble a ``.tal`` file."""
    with open(path) as handle:
        return parse_program(handle.read())
