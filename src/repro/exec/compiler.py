"""Closure compilation of TAL_FT code memory.

The interpreter (:func:`repro.core.semantics.step`) re-fetches, re-dispatches
and re-decodes the instruction at ``pcG`` on every small step of every run.
For a campaign that replays the same program millions of times, all of that
work is invariant: the instruction at a given code address never changes
(code memory sits outside the sphere of replication and is never written).

This module performs that invariant work **once**: every code address is
translated into a Python closure with the operand register names, ALU
operation, immediate, color tag and out-of-bounds policy already resolved.
A closure performs one full ``fetch`` + execute pair of the small-step
semantics -- mutating the state exactly as the two interpreter steps would
-- and returns the tuple of rule names that fired, from which the driver
recovers the step count (every small step has exactly one rule, so
``len(rules)`` *is* the number of steps consumed).

The translation is **behavior-preserving by construction**: each closure
body is the corresponding ``semantics`` handler with the per-step lookups
constant-folded.  Operand reads happen before the program counters are
bumped and destination writes after, in the same order as the interpreter,
so instructions that name ``pcG``/``pcB``/``d`` as operands behave
identically.  Faulty states are first-class inputs: a closure is only
entered by the driver after the fetch preconditions (``pcG`` = ``pcB``,
instruction present) have been re-checked against the *current* -- possibly
zapped -- register bank.

Programs containing instructions the translator does not recognize (or ALU
opcodes outside :data:`repro.core.instructions.ALU_OPS`) raise
:class:`CompilationUnsupported`; callers fall back to the interpreter, so
an exotic instruction degrades throughput, never behavior.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Set, Tuple

from repro.core.colors import Color, ColoredValue, green
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
from repro.core.registers import DEST, PC_B, PC_G
from repro.core.semantics import OobPolicy, _RESULTS as _STEP_RESULTS
from repro.core.state import MachineState
from repro.exec.fusion import plan_chain

_new_cv = tuple.__new__
_CV = ColoredValue
_GREEN = Color.GREEN
_BLUE = Color.BLUE
#: Shared ``G 0`` written into ``d`` by commit branches (value-equal to the
#: fresh ``green(0)`` the interpreter allocates each time).
_GREEN_ZERO = green(0)


class CompilationUnsupported(Exception):
    """The program contains an instruction the closure compiler cannot
    translate; callers must fall back to the ``step()`` interpreter."""


#: A compiled instruction: performs one fetch + execute pair in place.
#: Receives the state, the raw register dict (hoisted by the driver), the
#: output sink (``outputs.append``) and the random source; returns the
#: tuple of rule names fired (``len`` = small steps consumed).
Closure = Callable[
    [MachineState, Dict[str, ColoredValue], Callable, Callable],
    Tuple[str, ...],
]


def _rules(*names: str) -> Tuple[str, ...]:
    """A rule tuple, validated against the interpreter's rule table so the
    two backends can never silently drift apart on rule names."""
    for name in names:
        if name not in _STEP_RESULTS:
            raise AssertionError(f"unknown semantics rule {name!r}")
    return names


class CompiledExec:
    """A program's code memory, compiled to per-address closures.

    ``base`` holds one closure per code address (one instruction each).
    ``fast`` is the dispatch table drivers use far from the step-budget
    horizon, safe whenever at least :data:`repro.exec.fusion.MAX_QUANTUM`
    steps of budget remain.  It starts with the shared :attr:`planner`
    entry at every address; the planner's first call at an address
    (:meth:`plan`) writes that address's fused chain over its slot, or the
    base closure when fewer than two instructions fuse there.  Threads
    take no lock: racing first calls each install an equivalent function
    with a single dict store.  ``extent`` maps every planned address to
    the number of instructions its entry executes when no check fires.
    ``views`` holds what drivers derive from the compilation (the
    campaign reference walk's per-chain plans); it lives and dies with
    the compilation.
    ``registers`` is every register name any closure touches; drivers
    verify it is a subset of the live register bank before entering
    closures (the interpreter reports unknown registers with a
    :class:`~repro.core.errors.ReproError`, which plain dict access would
    not reproduce).
    """

    __slots__ = ("code", "oob_policy", "base", "fast", "planner",
                 "extent", "views", "registers", "size")

    def __init__(
        self,
        code: Dict[int, Instruction],
        oob_policy: OobPolicy,
        base: Dict[int, Closure],
        registers: FrozenSet[str],
    ):
        self.code = code
        self.oob_policy = oob_policy
        self.base = base
        self.registers = registers
        self.size = len(base)
        #: One bound method shared by every unplanned slot of ``fast``.
        self.planner: Closure = self._plan_and_run
        self.fast: Dict[int, Closure] = dict.fromkeys(base, self.planner)
        self.extent: Dict[int, int] = {}
        self.views: Dict[str, object] = {}

    def plan(self, address: int) -> Closure:
        """Plan and compile the chain at ``address``, install it in
        ``fast`` and return it."""
        entry, self.extent[address] = plan_chain(
            self.code, self.base, address, self.oob_policy)
        self.fast[address] = entry
        return entry

    def _plan_and_run(self, state, regs, emit, rand):
        """The planner: plan the chain at the address the driver just
        dispatched on (``pcG``), then run it."""
        return self.plan(regs[PC_G][1])(state, regs, emit, rand)

    def supports(self, state: MachineState) -> bool:
        """Can this compilation drive ``state``?  (Register bank must cover
        every name the closures address directly.)"""
        return self.registers <= state.regs._regs.keys()

    def __repr__(self) -> str:
        return (f"<CompiledExec {self.size} instrs, "
                f"policy={self.oob_policy.value}>")


# ---------------------------------------------------------------------------
# Per-instruction translators.  Each returns (closure, referenced register
# names).
# ---------------------------------------------------------------------------


def _compile_arith_rrr(instr: ArithRRR, oob_policy: OobPolicy):
    try:
        op = ALU_OPS[instr.op]
    except KeyError:
        raise CompilationUnsupported(f"unknown ALU op {instr.op!r}") from None
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    ret = _rules("fetch", "op2r")

    def run(state, regs, emit, rand):
        rtv = regs[rt]
        result = op(regs[rs][1], rtv[1])
        pg = regs[PC_G]
        pb = regs[PC_B]
        regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
        regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
        regs[rd] = _new_cv(_CV, (rtv[0], result))
        return ret

    return run, (rd, rs, rt)


def _compile_arith_rri(instr: ArithRRI, oob_policy: OobPolicy):
    try:
        op = ALU_OPS[instr.op]
    except KeyError:
        raise CompilationUnsupported(f"unknown ALU op {instr.op!r}") from None
    rd, rs = instr.rd, instr.rs
    imm_color = instr.imm[0]
    imm_value = instr.imm[1]
    ret = _rules("fetch", "op1r")

    def run(state, regs, emit, rand):
        result = op(regs[rs][1], imm_value)
        pg = regs[PC_G]
        pb = regs[PC_B]
        regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
        regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
        regs[rd] = _new_cv(_CV, (imm_color, result))
        return ret

    return run, (rd, rs)


def _compile_mov(instr: Mov, oob_policy: OobPolicy):
    rd = instr.rd
    imm = instr.imm
    ret = _rules("fetch", "mov")

    def run(state, regs, emit, rand):
        pg = regs[PC_G]
        pb = regs[PC_B]
        regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
        regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
        regs[rd] = imm
        return ret

    return run, (rd,)


def _compile_halt(instr: Halt, oob_policy: OobPolicy):
    ret = _rules("fetch", "halt")

    def run(state, regs, emit, rand):
        state.halt()
        return ret

    return run, ()


def _compile_load(instr: Load, oob_policy: OobPolicy):
    rd, rs = instr.rd, instr.rs
    trap = oob_policy is OobPolicy.TRAP
    if instr.color is _GREEN:
        ret_queue = _rules("fetch", "ldG-queue")
        ret_mem = _rules("fetch", "ldG-mem")
        ret_fail = _rules("fetch", "ldG-fail")
        ret_rand = _rules("fetch", "ldG-rand")

        def run(state, regs, emit, rand):
            address = regs[rs][1]
            hit = state.queue.find(address)
            if hit is not None:
                pg = regs[PC_G]
                pb = regs[PC_B]
                regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
                regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
                regs[rd] = _new_cv(_CV, (_GREEN, hit[1]))
                return ret_queue
            memory = state.memory
            if address in memory:
                value = memory[address]
                pg = regs[PC_G]
                pb = regs[PC_B]
                regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
                regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
                regs[rd] = _new_cv(_CV, (_GREEN, value))
                return ret_mem
            if trap:
                state.enter_fault()
                return ret_fail
            pg = regs[PC_G]
            pb = regs[PC_B]
            regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
            regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
            regs[rd] = ColoredValue(_GREEN, rand())
            return ret_rand

        return run, (rd, rs)

    ret_mem = _rules("fetch", "ldB-mem")
    ret_fail = _rules("fetch", "ldB-fail")
    ret_rand = _rules("fetch", "ldB-rand")

    def run(state, regs, emit, rand):
        address = regs[rs][1]
        memory = state.memory
        if address in memory:
            value = memory[address]
            pg = regs[PC_G]
            pb = regs[PC_B]
            regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
            regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
            regs[rd] = _new_cv(_CV, (_BLUE, value))
            return ret_mem
        if trap:
            state.enter_fault()
            return ret_fail
        pg = regs[PC_G]
        pb = regs[PC_B]
        regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
        regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
        regs[rd] = ColoredValue(_BLUE, rand())
        return ret_rand

    return run, (rd, rs)


def _compile_store(instr: Store, oob_policy: OobPolicy):
    rd, rs = instr.rd, instr.rs
    if instr.color is _GREEN:
        ret = _rules("fetch", "stG-queue")

        def run(state, regs, emit, rand):
            address = regs[rd][1]
            value = regs[rs][1]
            state.queue._pairs.appendleft((address, value))
            pg = regs[PC_G]
            pb = regs[PC_B]
            regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
            regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
            return ret

        return run, (rd, rs)

    ret_queue_fail = _rules("fetch", "stB-queue-fail")
    ret_mem_fail = _rules("fetch", "stB-mem-fail")
    ret_mem = _rules("fetch", "stB-mem")

    def run(state, regs, emit, rand):
        address = regs[rd][1]
        value = regs[rs][1]
        pairs = state.queue._pairs
        if not pairs:
            state.enter_fault()
            return ret_queue_fail
        queued = pairs[-1]
        if address != queued[0] or value != queued[1]:
            state.enter_fault()
            return ret_mem_fail
        pairs.pop()
        state.memory[queued[0]] = queued[1]
        pg = regs[PC_G]
        pb = regs[PC_B]
        regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
        regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
        if queued[0] >= state.observable_min:
            emit(queued)
        return ret_mem

    return run, (rd, rs)


def _compile_jmp(instr: Jmp, oob_policy: OobPolicy):
    rd = instr.rd
    if instr.color is _GREEN:
        ret_ok = _rules("fetch", "jmpG")
        ret_fail = _rules("fetch", "jmpG-fail")

        def run(state, regs, emit, rand):
            if regs[DEST][1] != 0:
                state.enter_fault()
                return ret_fail
            target = regs[rd]
            pg = regs[PC_G]
            pb = regs[PC_B]
            regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
            regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
            regs[DEST] = target
            return ret_ok

        return run, (rd, DEST)

    ret_ok = _rules("fetch", "jmpB")
    ret_fail = _rules("fetch", "jmpB-fail")

    def run(state, regs, emit, rand):
        dest = regs[DEST]
        rdv = regs[rd]
        if dest[1] == 0 or rdv[1] != dest[1]:
            state.enter_fault()
            return ret_fail
        regs[PC_G] = dest
        regs[PC_B] = rdv
        regs[DEST] = _GREEN_ZERO
        return ret_ok

    return run, (rd, DEST)


def _compile_bz(instr: Bz, oob_policy: OobPolicy):
    rz, rd = instr.rz, instr.rd
    if instr.color is _GREEN:
        ret_untaken = _rules("fetch", "bz-untaken")
        ret_untaken_fail = _rules("fetch", "bz-untaken-fail")
        ret_taken = _rules("fetch", "bzG-taken")
        ret_taken_fail = _rules("fetch", "bzG-taken-fail")

        def run(state, regs, emit, rand):
            z_value = regs[rz][1]
            dest_value = regs[DEST][1]
            if z_value != 0:
                if dest_value != 0:
                    state.enter_fault()
                    return ret_untaken_fail
                pg = regs[PC_G]
                pb = regs[PC_B]
                regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
                regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
                return ret_untaken
            if dest_value != 0:
                state.enter_fault()
                return ret_taken_fail
            target = regs[rd]
            pg = regs[PC_G]
            pb = regs[PC_B]
            regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
            regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
            regs[DEST] = target
            return ret_taken

        return run, (rz, rd, DEST)

    ret_untaken = _rules("fetch", "bz-untaken")
    ret_untaken_fail = _rules("fetch", "bz-untaken-fail")
    ret_taken = _rules("fetch", "bzB-taken")
    ret_taken_fail = _rules("fetch", "bzB-taken-fail")

    def run(state, regs, emit, rand):
        z_value = regs[rz][1]
        dest = regs[DEST]
        if z_value != 0:
            if dest[1] != 0:
                state.enter_fault()
                return ret_untaken_fail
            pg = regs[PC_G]
            pb = regs[PC_B]
            regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
            regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
            return ret_untaken
        rdv = regs[rd]
        if dest[1] == 0 or rdv[1] != dest[1]:
            state.enter_fault()
            return ret_taken_fail
        regs[PC_G] = dest
        regs[PC_B] = rdv
        regs[DEST] = _GREEN_ZERO
        return ret_taken

    return run, (rz, rd, DEST)


def _compile_plain_load(instr: PlainLoad, oob_policy: OobPolicy):
    rd, rs = instr.rd, instr.rs
    trap = oob_policy is OobPolicy.TRAP
    ret_mem = _rules("fetch", "ld-mem")
    ret_fail = _rules("fetch", "ld-fail")
    ret_rand = _rules("fetch", "ld-rand")

    def run(state, regs, emit, rand):
        address = regs[rs][1]
        memory = state.memory
        if address in memory:
            value = memory[address]
            pg = regs[PC_G]
            pb = regs[PC_B]
            regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
            regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
            regs[rd] = _new_cv(_CV, (_GREEN, value))
            return ret_mem
        if trap:
            state.enter_fault()
            return ret_fail
        pg = regs[PC_G]
        pb = regs[PC_B]
        regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
        regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
        regs[rd] = ColoredValue(_GREEN, rand())
        return ret_rand

    return run, (rd, rs)


def _compile_plain_store(instr: PlainStore, oob_policy: OobPolicy):
    rd, rs = instr.rd, instr.rs
    ret = _rules("fetch", "st-mem")

    def run(state, regs, emit, rand):
        address = regs[rd][1]
        value = regs[rs][1]
        state.memory[address] = value
        pg = regs[PC_G]
        pb = regs[PC_B]
        regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
        regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
        if address >= state.observable_min:
            emit((address, value))
        return ret

    return run, (rd, rs)


def _compile_plain_jmp(instr: PlainJmp, oob_policy: OobPolicy):
    rd = instr.rd
    ret = _rules("fetch", "jmp")

    def run(state, regs, emit, rand):
        target = regs[rd][1]
        pg = regs[PC_G]
        pb = regs[PC_B]
        regs[PC_G] = _new_cv(_CV, (pg[0], target))
        regs[PC_B] = _new_cv(_CV, (pb[0], target))
        return ret

    return run, (rd,)


def _compile_plain_bz(instr: PlainBz, oob_policy: OobPolicy):
    rz, rd = instr.rz, instr.rd
    ret_taken = _rules("fetch", "bz-taken")
    ret_untaken = _rules("fetch", "bz-untaken-plain")

    def run(state, regs, emit, rand):
        if regs[rz][1] == 0:
            target = regs[rd][1]
            pg = regs[PC_G]
            pb = regs[PC_B]
            regs[PC_G] = _new_cv(_CV, (pg[0], target))
            regs[PC_B] = _new_cv(_CV, (pb[0], target))
            return ret_taken
        pg = regs[PC_G]
        pb = regs[PC_B]
        regs[PC_G] = _new_cv(_CV, (pg[0], pg[1] + 1))
        regs[PC_B] = _new_cv(_CV, (pb[0], pb[1] + 1))
        return ret_untaken

    return run, (rz, rd)


#: Exact-type translator table; subclasses resolve through the isinstance
#: chain below, mirroring the interpreter's ``_dispatch_subclass``.
_TRANSLATORS = {
    ArithRRR: _compile_arith_rrr,
    ArithRRI: _compile_arith_rri,
    Mov: _compile_mov,
    Load: _compile_load,
    Store: _compile_store,
    Jmp: _compile_jmp,
    Bz: _compile_bz,
    Halt: _compile_halt,
    PlainLoad: _compile_plain_load,
    PlainStore: _compile_plain_store,
    PlainJmp: _compile_plain_jmp,
    PlainBz: _compile_plain_bz,
}

_TRANSLATOR_BASES = tuple(_TRANSLATORS.items())


def _translator_for(instruction: Instruction):
    translator = _TRANSLATORS.get(type(instruction))
    if translator is not None:
        return translator
    for base, candidate in _TRANSLATOR_BASES:
        if isinstance(instruction, base):
            return candidate
    raise CompilationUnsupported(f"unknown instruction {instruction!r}")


def compile_program(
    code: Dict[int, Instruction],
    oob_policy: OobPolicy = OobPolicy.TRAP,
) -> CompiledExec:
    """Compile ``code`` into a :class:`CompiledExec` for ``oob_policy``.

    Builds only the per-instruction closures; fused chains are planned on
    their first dispatch.  Raises :class:`CompilationUnsupported` when any
    instruction cannot be translated; callers are expected to fall back
    to the interpreter.
    """
    from time import perf_counter as _perf_counter

    from repro.observe import emit as _emit_event, get_registry

    registry = get_registry()
    started = _perf_counter()
    try:
        base: Dict[int, Closure] = {}
        registers: Set[str] = {PC_G, PC_B, DEST}
        for address, instruction in code.items():
            translator = _translator_for(instruction)
            base[address], used = translator(instruction, oob_policy)
            registers.update(used)
    except CompilationUnsupported:
        registry.counter("exec_compile_unsupported_total").inc()
        raise
    compiled = CompiledExec(code, oob_policy, base, frozenset(registers))
    elapsed = _perf_counter() - started
    registry.histogram("exec_compile_seconds").observe(elapsed)
    registry.counter("exec_compiles_total").inc()
    _emit_event("compile", instructions=compiled.size,
                seconds=round(elapsed, 6))
    return compiled
