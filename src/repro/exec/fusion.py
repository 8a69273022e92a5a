"""Superinstruction fusion for the compiled backend.

TAL_FT code is built from redundant pairs: every green operation is
shadowed by a blue twin (``add``/``add``, ``stG``/``stB``), and every
control transfer is a two-phase announce/commit pair (``jmpG``/``jmpB``,
``bzG``/``bzB``).  Executing such code one instruction at a time pays the
driver's dispatch overhead (program-counter read, equality check, table
lookup) twice per logical operation.  Fusion eliminates that: a
*superinstruction* covers a maximal run of consecutive instructions,
executed in one driver dispatch.

Chains are planned on their first dispatch.  Compiling a program builds
only the per-instruction closures, and its ``fast`` dispatch table starts
with one shared planner entry at every address
(:class:`repro.exec.compiler.CompiledExec`).  The planner's first call at
an address runs :func:`plan_chain`, which walks the chain starting there,
generates its Python source and compiles it; the planner then writes the
chain (or, when fewer than two instructions fuse, the base closure) over
its own slot.  A run dispatches only a fraction of a program's addresses,
so most chains are never planned at all.

A fused chain is ``interior* tail?``:

* **interiors** are instructions with exactly one outcome that never fault
  and always fall through (exact ALU types, ``mov``, green ``st`` and
  plain ``st``) and that name no program counter (:func:`fusable`).
  Chains are code-generated in SSA style: interior results live in Python
  locals while the chain runs, and a single flush point before the tail
  boxes only the *final* value of each written register and bumps both
  program counters once by the interior count.  This is sound because
  faults never land mid-chain (below) and the intermediate register-bank
  states are observationally silent -- the flush reconstructs exactly the
  bank the interpreter would have built before the first step whose
  outcome can vary;
* the **tail** is any single instruction with a source template (it may
  fault, halt or transfer control), or one of the dedicated two-phase
  pairs ``jmpG``+``jmpB`` / ``bzG``+``bzB`` / ``ldG``+``ldB``, inlined here
  with their full dynamic outcome structure (the load pair requires the
  green destination not be a program counter, so its intermediate fetch
  stays a provable no-op on every success path).  An interior-kind
  instruction that names a program counter, or a tail with no template
  (an instruction subclass), ends the chain before it.

**Why fusion cannot mask a fault.**  Fused chains are only entered by a
driver that has just re-checked the fetch preconditions against the live
(possibly corrupted) register bank, and the interior/tail split is chosen
so every intermediate fetch inside a chain is a provable no-op: interiors
bump both program counters together (so ``pcG`` = ``pcB`` is preserved from
the driver's check) and every interior's successor address is in code (by
construction of the chain), so the intermediate ``fetch`` can neither
fetch-fail nor get stuck.  Faults themselves never land *inside* a chain:
the campaign engine materializes injection states at exact small-step
granularity with the interpreter (see ``ReferenceRun.state_at``) and only
then hands the state to the compiled driver, and drivers dispatch through
``fast`` only while at least :data:`MAX_QUANTUM` steps of budget remain
and through the per-instruction closures after that, so a fault scheduled
mid-instruction always lands between the *original* small steps, exactly
as under ``step()``.

A chain only ever runs from the address it was planned at; the
per-instruction closures stay in ``base``, and every address plans its own
chain, so control may enter the middle of another address's chain (e.g.
after a zap redirects ``pcG``) and still execute correctly.  Which
addresses have been planned so far therefore never shows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.colors import Color, ColoredValue, green
from repro.core.instructions import (
    ALU_OPS, ArithRRI, ArithRRR, Bz, Halt, Instruction, Jmp, Load, Mov,
    PlainBz, PlainJmp, PlainLoad, PlainStore, Store,
)
from repro.core.registers import DEST, PC_B, PC_G
from repro.core.semantics import _RESULTS as _STEP_RESULTS
from repro.observe import get_registry

_new_cv = tuple.__new__
_CV = ColoredValue
_GREEN = Color.GREEN
_BLUE = Color.BLUE
_GREEN_ZERO = green(0)

#: Upper bound on interior instructions per chain; bounds both compile
#: time (chains at consecutive addresses overlap) and the largest step
#: quantum a fused dispatch can consume.
MAX_INTERIOR = 16

#: The most small steps one ``fast`` dispatch can consume: the interiors
#: plus a two-instruction tail, two steps (fetch and execute) each.
MAX_QUANTUM = 2 * (MAX_INTERIOR + 2)

#: ALU opcodes as inline source expressions -- saves a Python call per
#: interior arithmetic instruction.  ``sll``/``sra`` clamp their shift
#: amounts and stay as environment calls.
_ALU_EXPR = {
    "add": "({a} + {b})",
    "sub": "({a} - {b})",
    "mul": "({a} * {b})",
    "slt": "(1 if {a} < {b} else 0)",
    "seq": "(1 if {a} == {b} else 0)",
    "sne": "(1 if {a} != {b} else 0)",
    "and": "({a} & {b})",
    "or": "({a} | {b})",
    "xor": "({a} ^ {b})",
}

#: The rule each interior kind fires (only green stores: a blue ``st``
#: commits the queue and may fault).
_INTERIOR_RULES = {ArithRRR: "op2r", ArithRRI: "op1r", Mov: "mov",
                   Store: "stG-queue", PlainStore: "st-mem"}
assert set(_INTERIOR_RULES.values()) <= set(_STEP_RESULTS)

_PCS = frozenset((PC_G, PC_B))


def fusable(instr: Optional[Instruction]) -> bool:
    """May ``instr`` be a chain interior?

    Exact ALU types, ``mov``, green ``st`` and plain ``st`` qualify, as
    long as no operand or destination is a program counter: the chain
    defers its pc bumps to one batched update, so intermediate pc values
    must be unobservable.
    """
    kind = type(instr)
    if kind not in _INTERIOR_RULES or (kind is Store
                                       and instr.color is not _GREEN):
        return False
    names = {instr.rd, getattr(instr, "rs", None), getattr(instr, "rt", None)}
    return names.isdisjoint(_PCS)


def _use_value(reg: str, defs) -> str:
    """Source expression for ``reg``'s current *value* at this chain point:
    the pending in-chain definition when one exists, a live register-bank
    read otherwise."""
    if defs is not None:
        pending = defs.get(reg)
        if pending is not None:
            if pending[0] == "cv":
                return f"{pending[1]}[1]"
            return pending[2]
    return f"regs[{reg!r}][1]"


def _gen_interior(instr: Instruction, index, env: Dict, lines: List[str],
                  defs=None):
    """Append the straight-line source for one interior instruction.

    Emitted without pc bumps -- the chain bumps both counters once at the
    end (legal because no interior in a generated chain reads or writes a
    program counter, so intermediate pc values are unobservable).

    When ``defs`` is a dict the chain runs in *deferred-write* mode:
    register results stay in Python locals and ``defs`` records, per
    register, either ``("cv", source)`` (a ready ColoredValue expression)
    or ``("parts", color_src, value_src)``.  Only the chain's flush point
    boxes the final value of each register -- intermediate values are
    unobservable (faults never land inside a chain), so skipping their
    ColoredValue construction is invisible.  With ``defs=None`` (tail
    position, after the flush) every write goes straight to the bank.

    Returns a hoist flag when the snippet needs a per-call local (``_q``
    for the store queue, ``_obs`` for the observability threshold).
    """
    kind = type(instr)
    if kind is ArithRRR:
        pending = defs.get(instr.rt) if defs is not None else None
        if pending is None:
            tmp = f"_t{index}"
            lines.append(f"    {tmp} = regs[{instr.rt!r}]")
            color_src, rt_value = f"{tmp}[0]", f"{tmp}[1]"
        elif pending[0] == "cv":
            color_src, rt_value = f"{pending[1]}[0]", f"{pending[1]}[1]"
        else:
            color_src, rt_value = pending[1], pending[2]
        rs_value = _use_value(instr.rs, defs)
        expr = _ALU_EXPR.get(instr.op)
        if expr is not None:
            value = expr.format(a=rs_value, b=rt_value)
        else:
            op = f"_op{index}"
            env[op] = ALU_OPS[instr.op]
            value = f"{op}({rs_value}, {rt_value})"
        if defs is None:
            lines.append(
                f"    regs[{instr.rd!r}] = _cv(_CV, ({color_src}, {value}))")
        else:
            lines.append(f"    _v{index} = {value}")
            defs[instr.rd] = ("parts", color_src, f"_v{index}")
        return None
    if kind is ArithRRI:
        color = "_G" if instr.imm[0] is _GREEN else "_B"
        rs_value = _use_value(instr.rs, defs)
        expr = _ALU_EXPR.get(instr.op)
        if expr is not None:
            value = expr.format(a=rs_value, b=repr(instr.imm[1]))
        else:
            op = f"_op{index}"
            env[op] = ALU_OPS[instr.op]
            value = f"{op}({rs_value}, {instr.imm[1]!r})"
        if defs is None:
            lines.append(
                f"    regs[{instr.rd!r}] = _cv(_CV, ({color}, {value}))")
        else:
            lines.append(f"    _v{index} = {value}")
            defs[instr.rd] = ("parts", color, f"_v{index}")
        return None
    if kind is Mov:
        imm = f"_imm{index}"
        env[imm] = instr.imm
        if defs is None:
            lines.append(f"    regs[{instr.rd!r}] = {imm}")
        else:
            defs[instr.rd] = ("cv", imm)
        return None
    if kind is Store:  # interior stores are green (enqueue) by eligibility
        lines.append(
            f"    _q.appendleft(({_use_value(instr.rd, defs)}, "
            f"{_use_value(instr.rs, defs)}))")
        return "q"
    if kind is PlainStore:
        lines.append(f"    _a{index} = {_use_value(instr.rd, defs)}")
        lines.append(f"    _v{index} = {_use_value(instr.rs, defs)}")
        lines.append(f"    state.memory[_a{index}] = _v{index}")
        lines.append(f"    if _a{index} >= _obs:")
        lines.append(f"        emit((_a{index}, _v{index}))")
        return "obs"
    raise AssertionError(f"no codegen template for {instr!r}")


_BUMP1 = (
    f"    _pg = regs[{PC_G!r}]",
    f"    _pb = regs[{PC_B!r}]",
    f"    regs[{PC_G!r}] = _cv(_CV, (_pg[0], _pg[1] + 1))",
    f"    regs[{PC_B!r}] = _cv(_CV, (_pb[0], _pb[1] + 1))",
)


def _gen_tail(instr: Optional[Instruction], follower: Optional[Instruction],
              oob_policy, env: Dict, body: List[str],
              prefix: Tuple[str, ...]) -> int:
    """Append inline source for the chain tail; every outcome returns a
    fully-constant rule tuple (``prefix`` + the tail's own rules).

    Mirrors the closure translators in :mod:`repro.exec.compiler` line for
    line.  Returns the number of *instructions* the emitted tail covers
    (2 for a fused announce/commit pair, 1 otherwise), or 0 when this tail
    shape has no template.
    """
    from repro.core.semantics import OobPolicy

    def const(name: str, *tail_rules: str) -> str:
        for rule in tail_rules:
            assert rule in _STEP_RESULTS, rule
        parts: List[str] = []
        for rule in tail_rules:
            parts.append("fetch")
            parts.append(rule)
        env[name] = prefix + tuple(parts)
        return name

    kind = type(instr)
    trap = oob_policy is OobPolicy.TRAP

    if fusable(instr):
        # An interior serving as tail (the chain hit MAX_INTERIOR): same
        # snippet plus its own pc bump.
        rule = _INTERIOR_RULES[kind]
        flag = _gen_interior(instr, "t", env, body)
        if flag == "q":
            body.insert(len(body) - 1, "    _q = state.queue._pairs")
        elif flag == "obs":
            # The snippet references _obs after the memory write; hoist it
            # just before the emitted lines (last five).
            body.insert(len(body) - 5, "    _obs = state.observable_min")
        body.extend(_BUMP1)
        body.append(f"    return {const('_p0', rule)}")
        return 1

    if kind is Halt:
        body.append("    state.halt()")
        body.append(f"    return {const('_p0', 'halt')}")
        return 1

    if kind is Load and instr.color is _GREEN and type(follower) is Load \
            and follower.color is _BLUE and instr.rd not in (PC_G, PC_B):
        # ``ldG`` immediately followed by its ``ldB`` shadow, as one
        # template.  The intermediate fetch cannot fail: both pcs are
        # bumped together, the blue load exists at the next address, and
        # ``rd`` is not a program counter (pairs writing a pc fall through
        # to the single-load template below).  The blue half is inlined
        # behind every green success path with its own constants.
        rs_g, rd_g = instr.rs, instr.rd
        rs_b, rd_b = follower.rs, follower.rd
        names = iter(f"_lp{n}" for n in range(12))

        def blue(pad: str, green_rule: str) -> None:
            body.append(f"{pad}_la2 = regs[{rs_b!r}][1]")
            body.append(f"{pad}if _la2 in _m:")
            body.extend(pad + line for line in _BUMP1)
            body.append(f"{pad}    regs[{rd_b!r}] = _cv(_CV, (_B, _m[_la2]))")
            body.append(f"{pad}    return "
                        f"{const(next(names), green_rule, 'ldB-mem')}")
            if trap:
                body.append(f"{pad}state.enter_fault()")
                body.append(f"{pad}return "
                            f"{const(next(names), green_rule, 'ldB-fail')}")
            else:
                body.extend(pad + line[4:] for line in _BUMP1)
                body.append(f"{pad}regs[{rd_b!r}] = _CVn(_B, rand())")
                body.append(f"{pad}return "
                            f"{const(next(names), green_rule, 'ldB-rand')}")
                env["_CVn"] = ColoredValue

        body.append(f"    _la = regs[{rs_g!r}][1]")
        body.append("    _h = state.queue.find(_la)")
        body.append("    _m = state.memory")
        body.append("    if _h is not None:")
        body.extend("    " + line for line in _BUMP1)
        body.append(f"        regs[{rd_g!r}] = _cv(_CV, (_G, _h[1]))")
        blue("        ", "ldG-queue")
        body.append("    if _la in _m:")
        body.extend("    " + line for line in _BUMP1)
        body.append(f"        regs[{rd_g!r}] = _cv(_CV, (_G, _m[_la]))")
        blue("        ", "ldG-mem")
        if trap:
            body.append("    state.enter_fault()")
            body.append(f"    return {const(next(names), 'ldG-fail')}")
        else:
            body.extend(_BUMP1)
            body.append(f"    regs[{rd_g!r}] = _CVn(_G, rand())")
            env["_CVn"] = ColoredValue
            blue("    ", "ldG-rand")
        return 2

    if kind is Load:
        rs, rd = instr.rs, instr.rd
        if instr.color is _GREEN:
            body.append(f"    _la = regs[{rs!r}][1]")
            body.append("    _h = state.queue.find(_la)")
            body.append("    if _h is not None:")
            body.extend("    " + line for line in _BUMP1)
            body.append(f"        regs[{rd!r}] = _cv(_CV, (_G, _h[1]))")
            body.append(f"        return {const('_p0', 'ldG-queue')}")
            body.append("    _m = state.memory")
            body.append("    if _la in _m:")
            body.extend("    " + line for line in _BUMP1)
            body.append(f"        regs[{rd!r}] = _cv(_CV, (_G, _m[_la]))")
            body.append(f"        return {const('_p1', 'ldG-mem')}")
            if trap:
                body.append("    state.enter_fault()")
                body.append(f"    return {const('_p2', 'ldG-fail')}")
            else:
                body.extend(_BUMP1)
                body.append(f"    regs[{rd!r}] = _CVn(_G, rand())")
                body.append(f"    return {const('_p2', 'ldG-rand')}")
                env["_CVn"] = ColoredValue
            return 1
        body.append(f"    _la = regs[{rs!r}][1]")
        body.append("    _m = state.memory")
        body.append("    if _la in _m:")
        body.extend("    " + line for line in _BUMP1)
        body.append(f"        regs[{rd!r}] = _cv(_CV, (_B, _m[_la]))")
        body.append(f"        return {const('_p0', 'ldB-mem')}")
        if trap:
            body.append("    state.enter_fault()")
            body.append(f"    return {const('_p1', 'ldB-fail')}")
        else:
            body.extend(_BUMP1)
            body.append(f"    regs[{rd!r}] = _CVn(_B, rand())")
            body.append(f"    return {const('_p1', 'ldB-rand')}")
            env["_CVn"] = ColoredValue
        return 1

    if kind is PlainLoad:
        rs, rd = instr.rs, instr.rd
        body.append(f"    _la = regs[{rs!r}][1]")
        body.append("    _m = state.memory")
        body.append("    if _la in _m:")
        body.extend("    " + line for line in _BUMP1)
        body.append(f"        regs[{rd!r}] = _cv(_CV, (_G, _m[_la]))")
        body.append(f"        return {const('_p0', 'ld-mem')}")
        if trap:
            body.append("    state.enter_fault()")
            body.append(f"    return {const('_p1', 'ld-fail')}")
        else:
            body.extend(_BUMP1)
            body.append(f"    regs[{rd!r}] = _CVn(_G, rand())")
            body.append(f"    return {const('_p1', 'ld-rand')}")
            env["_CVn"] = ColoredValue
        return 1

    if kind is Store and instr.color is _BLUE:  # commit the oldest store
        rd, rs = instr.rd, instr.rs
        body.append(f"    _sa = regs[{rd!r}][1]")
        body.append(f"    _sv = regs[{rs!r}][1]")
        body.append("    _qp = state.queue._pairs")
        body.append("    if not _qp:")
        body.append("        state.enter_fault()")
        body.append(f"        return {const('_p0', 'stB-queue-fail')}")
        body.append("    _qd = _qp[-1]")
        body.append("    if _sa != _qd[0] or _sv != _qd[1]:")
        body.append("        state.enter_fault()")
        body.append(f"        return {const('_p1', 'stB-mem-fail')}")
        body.append("    _qp.pop()")
        body.append("    state.memory[_qd[0]] = _qd[1]")
        body.extend(_BUMP1)
        body.append("    if _qd[0] >= state.observable_min:")
        body.append("        emit(_qd)")
        body.append(f"    return {const('_p2', 'stB-mem')}")
        return 1

    if kind is Jmp and instr.color is _GREEN and type(follower) is Jmp \
            and follower.color is _BLUE:
        # Announce/commit pair in one template.
        env["_GZ"] = _GREEN_ZERO
        body.append(f"    if regs[{DEST!r}][1] != 0:")
        body.append("        state.enter_fault()")
        body.append(f"        return {const('_p0', 'jmpG-fail')}")
        body.append(f"    _jt = regs[{instr.rd!r}]")
        body.extend(_BUMP1)
        body.append(f"    regs[{DEST!r}] = _jt")
        body.append(f"    _jr = regs[{follower.rd!r}]")
        body.append("    if _jt[1] == 0 or _jr[1] != _jt[1]:")
        body.append("        state.enter_fault()")
        body.append(f"        return {const('_p1', 'jmpG', 'jmpB-fail')}")
        body.append(f"    regs[{PC_G!r}] = _jt")
        body.append(f"    regs[{PC_B!r}] = _jr")
        body.append(f"    regs[{DEST!r}] = _GZ")
        body.append(f"    return {const('_p2', 'jmpG', 'jmpB')}")
        return 2

    if kind is Jmp:
        rd = instr.rd
        if instr.color is _GREEN:
            body.append(f"    if regs[{DEST!r}][1] != 0:")
            body.append("        state.enter_fault()")
            body.append(f"        return {const('_p0', 'jmpG-fail')}")
            body.append(f"    _jt = regs[{rd!r}]")
            body.extend(_BUMP1)
            body.append(f"    regs[{DEST!r}] = _jt")
            body.append(f"    return {const('_p1', 'jmpG')}")
            return 1
        env["_GZ"] = _GREEN_ZERO
        body.append(f"    _jd = regs[{DEST!r}]")
        body.append(f"    _jr = regs[{rd!r}]")
        body.append("    if _jd[1] == 0 or _jr[1] != _jd[1]:")
        body.append("        state.enter_fault()")
        body.append(f"        return {const('_p0', 'jmpB-fail')}")
        body.append(f"    regs[{PC_G!r}] = _jd")
        body.append(f"    regs[{PC_B!r}] = _jr")
        body.append(f"    regs[{DEST!r}] = _GZ")
        body.append(f"    return {const('_p1', 'jmpB')}")
        return 1

    if kind is Bz and instr.color is _GREEN and type(follower) is Bz \
            and follower.color is _BLUE:
        env["_GZ"] = _GREEN_ZERO
        rz_g, rd_g = instr.rz, instr.rd
        rz_b, rd_b = follower.rz, follower.rd
        body.append(f"    _bz = regs[{rz_g!r}][1]")
        body.append(f"    _bd = regs[{DEST!r}][1]")
        body.append("    if _bz != 0:")  # bzG falls through
        body.append("        if _bd != 0:")
        body.append("            state.enter_fault()")
        body.append(f"            return {const('_p0', 'bz-untaken-fail')}")
        body.extend("    " + line for line in _BUMP1)
        body.append(f"        _bz2 = regs[{rz_b!r}][1]")
        body.append(f"        _bd2 = regs[{DEST!r}]")
        body.append("        if _bz2 != 0:")
        body.append("            if _bd2[1] != 0:")
        body.append("                state.enter_fault()")
        body.append(f"                return "
                    f"{const('_p1', 'bz-untaken', 'bz-untaken-fail')}")
        body.extend("        " + line for line in _BUMP1)
        body.append(f"            return "
                    f"{const('_p2', 'bz-untaken', 'bz-untaken')}")
        body.append(f"        _br = regs[{rd_b!r}]")
        body.append("        if _bd2[1] == 0 or _br[1] != _bd2[1]:")
        body.append("            state.enter_fault()")
        body.append(f"            return "
                    f"{const('_p3', 'bz-untaken', 'bzB-taken-fail')}")
        body.append(f"        regs[{PC_G!r}] = _bd2")
        body.append(f"        regs[{PC_B!r}] = _br")
        body.append(f"        regs[{DEST!r}] = _GZ")
        body.append(f"        return {const('_p4', 'bz-untaken', 'bzB-taken')}")
        body.append("    if _bd != 0:")  # bzG takes: d must be clear
        body.append("        state.enter_fault()")
        body.append(f"        return {const('_p5', 'bzG-taken-fail')}")
        body.append(f"    _bt = regs[{rd_g!r}]")
        body.extend(_BUMP1)
        body.append(f"    regs[{DEST!r}] = _bt")
        body.append(f"    _bz2 = regs[{rz_b!r}][1]")
        body.append("    if _bz2 != 0:")
        body.append("        if _bt[1] != 0:")
        body.append("            state.enter_fault()")
        body.append(f"            return "
                    f"{const('_p6', 'bzG-taken', 'bz-untaken-fail')}")
        body.extend("    " + line for line in _BUMP1)
        body.append(f"        return {const('_p7', 'bzG-taken', 'bz-untaken')}")
        body.append(f"    _br = regs[{rd_b!r}]")
        body.append("    if _bt[1] == 0 or _br[1] != _bt[1]:")
        body.append("        state.enter_fault()")
        body.append(f"        return "
                    f"{const('_p8', 'bzG-taken', 'bzB-taken-fail')}")
        body.append(f"    regs[{PC_G!r}] = _bt")
        body.append(f"    regs[{PC_B!r}] = _br")
        body.append(f"    regs[{DEST!r}] = _GZ")
        body.append(f"    return {const('_p9', 'bzG-taken', 'bzB-taken')}")
        return 2

    if kind is Bz:
        rz, rd = instr.rz, instr.rd
        if instr.color is _GREEN:
            body.append(f"    _bz = regs[{rz!r}][1]")
            body.append(f"    _bd = regs[{DEST!r}][1]")
            body.append("    if _bz != 0:")
            body.append("        if _bd != 0:")
            body.append("            state.enter_fault()")
            body.append(f"            return {const('_p0', 'bz-untaken-fail')}")
            body.extend("    " + line for line in _BUMP1)
            body.append(f"        return {const('_p1', 'bz-untaken')}")
            body.append("    if _bd != 0:")
            body.append("        state.enter_fault()")
            body.append(f"        return {const('_p2', 'bzG-taken-fail')}")
            body.append(f"    _bt = regs[{rd!r}]")
            body.extend(_BUMP1)
            body.append(f"    regs[{DEST!r}] = _bt")
            body.append(f"    return {const('_p3', 'bzG-taken')}")
            return 1
        env["_GZ"] = _GREEN_ZERO
        body.append(f"    _bz = regs[{rz!r}][1]")
        body.append(f"    _bd = regs[{DEST!r}]")
        body.append("    if _bz != 0:")
        body.append("        if _bd[1] != 0:")
        body.append("            state.enter_fault()")
        body.append(f"            return {const('_p0', 'bz-untaken-fail')}")
        body.extend("    " + line for line in _BUMP1)
        body.append(f"        return {const('_p1', 'bz-untaken')}")
        body.append(f"    _br = regs[{rd!r}]")
        body.append("    if _bd[1] == 0 or _br[1] != _bd[1]:")
        body.append("        state.enter_fault()")
        body.append(f"        return {const('_p2', 'bzB-taken-fail')}")
        body.append(f"    regs[{PC_G!r}] = _bd")
        body.append(f"    regs[{PC_B!r}] = _br")
        body.append(f"    regs[{DEST!r}] = _GZ")
        body.append(f"    return {const('_p3', 'bzB-taken')}")
        return 1

    if kind is PlainJmp:
        body.append(f"    _jt = regs[{instr.rd!r}][1]")
        body.append(f"    _pg = regs[{PC_G!r}]")
        body.append(f"    _pb = regs[{PC_B!r}]")
        body.append(f"    regs[{PC_G!r}] = _cv(_CV, (_pg[0], _jt))")
        body.append(f"    regs[{PC_B!r}] = _cv(_CV, (_pb[0], _jt))")
        body.append(f"    return {const('_p0', 'jmp')}")
        return 1

    if kind is PlainBz:
        rz, rd = instr.rz, instr.rd
        body.append(f"    if regs[{rz!r}][1] == 0:")
        body.append(f"        _jt = regs[{rd!r}][1]")
        body.append(f"        _pg = regs[{PC_G!r}]")
        body.append(f"        _pb = regs[{PC_B!r}]")
        body.append(f"        regs[{PC_G!r}] = _cv(_CV, (_pg[0], _jt))")
        body.append(f"        regs[{PC_B!r}] = _cv(_CV, (_pb[0], _jt))")
        body.append(f"        return {const('_p0', 'bz-taken')}")
        body.extend(_BUMP1)
        body.append(f"    return {const('_p1', 'bz-untaken-plain')}")
        return 1

    return 0


def _codegen_chain(interiors: List[Instruction],
                   tail: Optional[Instruction],
                   follower: Optional[Instruction],
                   oob_policy) -> Tuple[int, str, Dict[str, object]]:
    """Generate the source of one Python function for a whole chain.

    The interiors become straight-line source (no per-instruction call
    overhead), both program counters are bumped once by ``len(interiors)``,
    and the tail -- any single instruction with a template, or an
    announce/commit pair -- is inlined behind it with fully-constant return
    tuples.  Returns ``(instructions, source, env)``, where ``source``
    defines ``_chain`` over the globals ``env``.  A ``tail`` with no
    template is left out, so the chain ends before it.
    """
    prefix = tuple(part for instr in interiors
                   for part in ("fetch", _INTERIOR_RULES[type(instr)]))
    env: Dict[str, object] = {"_cv": _new_cv, "_CV": _CV, "_G": _GREEN,
                              "_B": _BLUE}
    lines: List[str] = []
    hoists = set()
    defs: Dict[str, Tuple[str, ...]] = {}
    for index, instr in enumerate(interiors):
        flag = _gen_interior(instr, index, env, lines, defs)
        if flag:
            hoists.add(flag)
    body = ["def _chain(state, regs, emit, rand):"]
    if "q" in hoists:
        body.append("    _q = state.queue._pairs")
    if "obs" in hoists:
        body.append("    _obs = state.observable_min")
    body.extend(lines)
    # Flush: box the final value of every register the interiors defined
    # (intermediate values lived in locals only), then bump both program
    # counters once.  The tail below sees exactly the bank the interpreter
    # would have produced.
    for reg, pending in defs.items():
        if pending[0] == "cv":
            body.append(f"    regs[{reg!r}] = {pending[1]}")
        else:
            body.append(
                f"    regs[{reg!r}] = _cv(_CV, ({pending[1]}, {pending[2]}))")
    count = len(interiors)
    if count:
        body.extend((
            f"    _pg = regs[{PC_G!r}]",
            f"    _pb = regs[{PC_B!r}]",
            f"    regs[{PC_G!r}] = _cv(_CV, (_pg[0], _pg[1] + {count}))",
            f"    regs[{PC_B!r}] = _cv(_CV, (_pb[0], _pb[1] + {count}))",
        ))
    tail_body: List[str] = []
    tail_count = _gen_tail(tail, follower, oob_policy, env, tail_body, prefix)
    if tail_count:
        body.extend(tail_body)
    else:
        env["_prefix"] = prefix
        body.append("    return _prefix")
    return count + tail_count, "\n".join(body), env


def plan_chain(code: Dict[int, Instruction], base: Dict[int, object],
               address: int, oob_policy) -> Tuple[object, int]:
    """The ``fast`` entry for ``address`` and the number of instructions
    it executes when no check fires: plan the chain that starts there,
    generate its source and compile it.

    Returns ``(base[address], 1)`` instead when fewer than two
    instructions fuse.  Every call plans afresh and shares nothing with
    other calls, so racing callers each get an equivalent function.
    """
    interiors: List[Instruction] = []
    cursor = address
    while len(interiors) < MAX_INTERIOR and fusable(code.get(cursor)):
        interiors.append(code[cursor])
        cursor += 1
    count, source, env = _codegen_chain(
        interiors, code.get(cursor), code.get(cursor + 1), oob_policy)
    if count < 2:
        return base[address], 1
    exec(compile(source, "<fused-chain>", "exec"), env)
    get_registry().counter("exec_fused_chains_compiled_total").inc()
    return env["_chain"], count
