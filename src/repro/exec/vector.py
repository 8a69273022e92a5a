"""The batch-vectorized (SoA) campaign execution engine.

Every faulty run of one injection step shares the program, the fault-free
prefix and -- until its fault takes effect -- the reference control path.
This module exploits that: instead of stepping one machine at a time, a
:class:`LaneBatch` holds *thousands of fault variants as columns of 2-D
numpy arrays* (registers, memory words, store-queue entries; one lane per
injection) and executes the reference instruction schedule once,
vectorized, for all lanes in lockstep.

The engine is exact, not approximate.  The invariant that makes it so:

* **Active lanes follow the reference control path and output history.**
  A lane stays active only while its program counters agree with the
  reference schedule and every observable emission it makes equals the
  reference's emission at the same step.  The moment either would cease
  to hold -- a committed store whose pair deviates from the reference
  emission, a branch that lands somewhere else, an ALU result outside the
  value range the int64 arrays can carry safely -- the lane is *retired
  before the deviating mutation* and its exact :class:`MachineState` is
  materialized for the scalar engines to finish
  (:func:`repro.exec.run_compiled`, or the ``step()`` interpreter).
* Lanes whose fault is *detected* (``fetch-fail``, ``stB-mem-fail``,
  ``jmp*/bz*`` protocol checks, out-of-bounds traps) carry, by the
  invariant, an output tail that is exactly a slice of the reference
  outputs -- no per-lane event storage is needed at all.

Value range.  Registers, memory and queue words live in int64 arrays.
Every *stored* value is kept within ``|v| <= VMAX`` (2^61): faults with
larger replacement values are screened out by the caller, and every ALU
op that could leave the range retires the affected lanes to the scalar
fallback *before* writing the result (the guards are computed from the
operands, so no int64 overflow can corrupt a surviving lane).  Program
counters may drift slightly above ``VMAX`` through per-step increments;
the 2x headroom below ``2^63`` keeps even those lanes exact until an ALU
guard retires them.

Colors are *ghost state* here: no operational rule branches on a color,
and classification sees only integer output pairs, so the engine tracks
none and materializes fallback states with the per-register colors of the
injection-time base state.  ``reg-zap`` preserves colors, so this is
exact at the injection step and observationally irrelevant afterwards.

The reference instruction sequence comes from the campaign's own
reference run, which records it while it executes
(:class:`repro.injection.campaign.Recording`); :func:`schedule_for`
decodes it into register-row-indexed specs (:class:`Schedule`) once per
reference run.  This module never replays the fault-free run.

numpy is optional at import time (:func:`vector_available`); campaigns
downgrade ``backend="vector"`` gracefully when it is absent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    np = None  # type: ignore[assignment]

from repro.core.colors import Color, ColoredValue
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
from repro.core.registers import DEST, PC_B, PC_G
from repro.core.state import MachineState, RegisterFile, Status, StoreQueue


def vector_available() -> bool:
    """True when numpy is importable and the vector backend can run."""
    return np is not None


#: Largest value magnitude the int64 lane arrays carry as *stored* state.
#: ``|x|, |y| <= VMAX + slack`` guarantees ``x + y`` cannot wrap int64, so
#: the add/sub overflow guards can inspect the exact result.
VMAX = 1 << 61

#: Operand magnitude above which a product might exceed ``VMAX``.
_MUL_SAFE = 1 << 30


class VectorUnsupported(Exception):
    """The program, state or fault set cannot be batch-vectorized."""


# ---------------------------------------------------------------------------
# Vectorized ALU
# ---------------------------------------------------------------------------
#
# Each entry maps an opcode to ``f(x, y) -> (result, unsafe)`` where
# ``unsafe`` is a boolean lane mask of results the engine must not keep
# (possible int64 wrap or a stored value beyond VMAX), or ``None`` when the
# op cannot leave the range.  ``y`` may be an array (op2r) or a Python int
# (op1r immediate, pre-checked to |imm| <= VMAX).


def _vec_add(x, y):
    result = x + y
    return result, np.abs(result) > VMAX


def _vec_sub(x, y):
    result = x - y
    return result, np.abs(result) > VMAX


def _vec_mul(x, y):
    # Guard on the operands: |x|,|y| <= 2^30 keeps |x*y| <= 2^60 <= VMAX.
    # A zero operand is always safe regardless of the other's magnitude.
    unsafe = (x != 0) & (y != 0) \
        & ((np.abs(x) > _MUL_SAFE) | (np.abs(y) > _MUL_SAFE))
    return x * y, unsafe


def _vec_slt(x, y):
    return (x < y).astype(np.int64), None


def _vec_seq(x, y):
    return (x == y).astype(np.int64), None


def _vec_sne(x, y):
    return (x != y).astype(np.int64), None


def _vec_and(x, y):
    return x & y, None


def _vec_or(x, y):
    return x | y, None


def _vec_xor(x, y):
    return x ^ y, None


def _vec_sll(x, y):
    # Mirrors instructions._sll: out-of-range shift counts yield 0.  The
    # shift count is clipped *before* shifting (numpy rejects negative
    # counts), and the magnitude guard runs on the operands so unsafe
    # lanes never depend on a wrapped intermediate.
    y = np.asarray(y)
    in_range = (y >= 0) & (y <= 63)
    count = np.clip(y, 0, 63)
    unsafe = in_range & (np.abs(x) > (VMAX >> count))
    return np.where(in_range, x << count, 0), unsafe


def _vec_sra(x, y):
    # Mirrors instructions._sra: negative counts yield 0, counts clamp at
    # 63.  numpy's >> on int64 is arithmetic, matching Python's floor
    # semantics on negatives.
    y = np.asarray(y)
    return np.where(y < 0, 0, x >> np.clip(y, 0, 63)), None


def _alu_table():
    return {
        "add": _vec_add, "sub": _vec_sub, "mul": _vec_mul,
        "slt": _vec_slt, "seq": _vec_seq, "sne": _vec_sne,
        "and": _vec_and, "or": _vec_or, "xor": _vec_xor,
        "sll": _vec_sll, "sra": _vec_sra,
    }


_ALU_VEC = _alu_table() if np is not None else {}


# ---------------------------------------------------------------------------
# The per-program schedule
# ---------------------------------------------------------------------------

#: Spec kinds (first element of every decoded spec tuple).
K_OP2R, K_OP1R, K_MOV, K_LDG, K_LDB, K_PLD, K_STG, K_STB, K_PST, \
    K_JMPG, K_JMPB, K_PJMP, K_BZG, K_BZB, K_PBZ, K_HALT = range(16)

#: Kinds that can retire lanes to the scalar fallback, by reason (metrics).
FALLBACK_REASONS = {
    K_OP2R: "value-range", K_OP1R: "value-range",
    K_STB: "store", K_PST: "store",
}


class Schedule:
    """The reference run's recording, decoded for lockstep execution.

    One entry per executed instruction: the fetch address, the decoded
    spec (register names resolved to array row indices) and the original
    :class:`Instruction` (for materialized fallback states).
    ``commit_addrs`` collects every memory address the reference commits,
    so a lane batch can pre-size its memory table; lanes committing
    elsewhere retire to the fallback.
    """

    __slots__ = ("reg_names", "reg_index", "pcs", "specs", "instrs",
                 "commit_addrs", "steps")

    def __init__(self, reg_names, reg_index, pcs, specs, instrs,
                 commit_addrs, steps):
        self.reg_names = reg_names
        self.reg_index = reg_index
        self.pcs = pcs
        self.specs = specs
        self.instrs = instrs
        self.commit_addrs = commit_addrs
        self.steps = steps


def _decode(instr: Instruction, reg_index: Dict[str, int]):
    """Decode ``instr`` to a row-indexed spec tuple, or ``None``."""
    rx = reg_index.get
    if isinstance(instr, ArithRRR):
        fn = _ALU_VEC.get(instr.op)
        rd, rs, rt = rx(instr.rd), rx(instr.rs), rx(instr.rt)
        if fn is None or rd is None or rs is None or rt is None:
            return None
        return (K_OP2R, instr.op, rd, rs, rt)
    if isinstance(instr, ArithRRI):
        fn = _ALU_VEC.get(instr.op)
        rd, rs = rx(instr.rd), rx(instr.rs)
        imm = instr.imm[1]
        if fn is None or rd is None or rs is None or abs(imm) > VMAX:
            return None
        return (K_OP1R, instr.op, rd, rs, imm)
    if isinstance(instr, Mov):
        rd, imm = rx(instr.rd), instr.imm[1]
        if rd is None or abs(imm) > VMAX:
            return None
        return (K_MOV, rd, imm)
    if isinstance(instr, Load):
        rd, rs = rx(instr.rd), rx(instr.rs)
        if rd is None or rs is None:
            return None
        return (K_LDG if instr.color is Color.GREEN else K_LDB, rd, rs)
    if isinstance(instr, Store):
        rd, rs = rx(instr.rd), rx(instr.rs)
        if rd is None or rs is None:
            return None
        return (K_STG if instr.color is Color.GREEN else K_STB, rd, rs)
    if isinstance(instr, Jmp):
        rd = rx(instr.rd)
        if rd is None:
            return None
        return (K_JMPG if instr.color is Color.GREEN else K_JMPB, rd)
    if isinstance(instr, Bz):
        rz, rd = rx(instr.rz), rx(instr.rd)
        if rz is None or rd is None:
            return None
        return (K_BZG if instr.color is Color.GREEN else K_BZB, rz, rd)
    if isinstance(instr, Halt):
        return (K_HALT,)
    if isinstance(instr, PlainLoad):
        rd, rs = rx(instr.rd), rx(instr.rs)
        if rd is None or rs is None:
            return None
        return (K_PLD, rd, rs)
    if isinstance(instr, PlainStore):
        rd, rs = rx(instr.rd), rx(instr.rs)
        if rd is None or rs is None:
            return None
        return (K_PST, rd, rs)
    if isinstance(instr, PlainJmp):
        rd = rx(instr.rd)
        if rd is None:
            return None
        return (K_PJMP, rd)
    if isinstance(instr, PlainBz):
        rz, rd = rx(instr.rz), rx(instr.rd)
        if rz is None or rd is None:
            return None
        return (K_PBZ, rz, rd)
    return None


def schedule_for(reference) -> Optional[Schedule]:
    """The :class:`Schedule` view of the reference run's recording
    (:class:`repro.injection.campaign.Recording`), or ``None`` when the
    run was not recorded whole or executes an instruction :func:`_decode`
    rejects.  Specs are decoded once per address, and the view is kept
    with the recording, so it lives and dies with its reference run."""
    recording = reference.recording
    if np is None or recording is None:
        return None
    views = recording.views
    if "vector" not in views:
        views["vector"] = _schedule(recording)
    return views["vector"]


def _schedule(recording) -> Optional[Schedule]:
    reg_index = {name: row for row, name in enumerate(recording.reg_names)}
    decoded = {}
    for pc, instr in dict(zip(recording.pcs, recording.instrs)).items():
        spec = _decode(instr, reg_index)
        if spec is None:
            return None
        decoded[pc] = spec
    return Schedule(recording.reg_names, reg_index, recording.pcs,
                    list(map(decoded.__getitem__, recording.pcs)),
                    recording.instrs, recording.commit_addrs,
                    recording.steps)


# ---------------------------------------------------------------------------
# The lane batch
# ---------------------------------------------------------------------------


class LaneBatch:
    """One injection step's fault variants as columns of SoA arrays.

    ``R`` is ``(num_registers, n)`` int64 (row order = register bank
    order); memory is a sorted address table ``addrs`` with value matrix
    ``M`` and presence matrix ``P`` (both ``(num_addrs, n)``); the store
    queue is a front-first list of ``(addr_row, value_row)`` pairs --
    its *length* is shared across lanes because every active lane pushes
    and pops at exactly the reference's instructions.

    :meth:`fetch` and :meth:`execute` step all active lanes at once and
    report the columns that faulted (detected -- settled from reference
    slices alone), fell back (materialized states for the scalar
    engines) and halted.
    """

    def __init__(self, schedule: Schedule, base: MachineState,
                 faults) -> None:
        if tuple(base.regs._regs) != schedule.reg_names:
            raise VectorUnsupported("register bank differs from schedule")
        n = len(faults)
        self.n = n
        self.schedule = schedule
        self.code = base.code
        self.obs_min = base.observable_min
        self.reg_names = schedule.reg_names
        self.reg_colors = tuple(cv[0] for cv in base.regs._regs.values())
        self.pcg_row = schedule.reg_index[PC_G]
        self.pcb_row = schedule.reg_index[PC_B]
        self.d_row = schedule.reg_index[DEST]
        try:
            base_vals = np.fromiter(
                (cv[1] for cv in base.regs._regs.values()),
                dtype=np.int64, count=len(self.reg_names))
        except OverflowError:
            raise VectorUnsupported("register value exceeds int64") from None
        if base_vals.size and (base_vals.max() > VMAX
                               or base_vals.min() < -VMAX):
            raise VectorUnsupported("register value exceeds VMAX")
        self.R = np.repeat(base_vals[:, None], n, axis=1)

        table = sorted(set(base.memory) | set(schedule.commit_addrs))
        position = {address: k for k, address in enumerate(table)}
        try:
            self.addrs = np.array(table, dtype=np.int64)
        except OverflowError:
            raise VectorUnsupported("memory address exceeds int64") from None
        if self.addrs.size and (self.addrs.max() > VMAX
                                or self.addrs.min() < -VMAX):
            raise VectorUnsupported("memory address exceeds VMAX")
        base_mem = np.zeros(len(table), dtype=np.int64)
        present = np.zeros(len(table), dtype=bool)
        for address, value in base.memory.items():
            if abs(value) > VMAX:
                raise VectorUnsupported("memory value exceeds VMAX")
            k = position[address]
            base_mem[k] = value
            present[k] = True
        self.M = np.repeat(base_mem[:, None], n, axis=1)
        self.P = np.repeat(present[:, None], n, axis=1)

        self.queue: List[Tuple] = []
        for address, value in base.queue.pairs():  # front first
            if abs(address) > VMAX or abs(value) > VMAX:
                raise VectorUnsupported("queue entry exceeds VMAX")
            self.queue.append((np.full(n, address, dtype=np.int64),
                               np.full(n, value, dtype=np.int64)))

        # Inject: one fault per lane.  Callers screen faults to known
        # registers / in-range queue indices / |value| <= VMAX, so plain
        # array pokes apply the zap exactly (colors are untouched ghost
        # state and reg-zap preserves them by definition).
        from repro.core.faults import QueueZapAddress, RegZap

        for j, fault in enumerate(faults):
            if isinstance(fault, RegZap):
                self.R[schedule.reg_index[fault.reg], j] = fault.new_value
            elif isinstance(fault, QueueZapAddress):
                self.queue[fault.index][0][j] = fault.new_value
            else:
                self.queue[fault.index][1][j] = fault.new_value

        self.active = np.ones(n, dtype=bool)
        self.active_count = n
        self._cols = np.arange(n)

    # -- lane retirement ----------------------------------------------------

    def _retire(self, mask) -> List[int]:
        cols = np.nonzero(mask)[0]
        if not cols.size:
            return []
        self.active[cols] = False
        self.active_count -= cols.size
        return [int(j) for j in cols]

    def _fallback(self, mask, ir: Optional[Instruction]):
        return [(j, self.materialize(j, ir)) for j in self._retire(mask)]

    def retire_all(self, ir: Optional[Instruction] = None):
        """Materialize every remaining active lane (cutoff / tail)."""
        return self._fallback(self.active.copy(), ir)

    def materialize(self, lane: int, ir: Optional[Instruction]) -> MachineState:
        """The exact scalar :class:`MachineState` of one lane.

        ``ir`` is the pending instruction when the lane retired during an
        execute phase (the fetch already happened), ``None`` at a fetch
        boundary.  Colors come from the injection-time base state; no
        rule branches on them and classification is colorless, so the
        continuation is observationally exact.
        """
        regs = {
            name: ColoredValue(self.reg_colors[row], int(self.R[row, lane]))
            for row, name in enumerate(self.reg_names)
        }
        memory = {}
        present = self.P[:, lane]
        values = self.M[:, lane]
        for k in np.nonzero(present)[0]:
            memory[int(self.addrs[k])] = int(values[k])
        queue = StoreQueue(
            (int(qa[lane]), int(qv[lane])) for qa, qv in self.queue)
        return MachineState(
            RegisterFile(regs), self.code, memory, queue, ir=ir,
            status=Status.RUNNING, observable_min=self.obs_min)

    # -- memory helpers -----------------------------------------------------

    def _mem_index(self, addr):
        """Per-lane table position of ``addr``: ``(in_table, index)``."""
        if self.addrs.size == 0:
            zero = np.zeros(self.n, dtype=np.int64)
            return np.zeros(self.n, dtype=bool), zero
        idx = np.searchsorted(self.addrs, addr)
        idx = np.minimum(idx, self.addrs.size - 1)
        return self.addrs[idx] == addr, idx

    def _mem_lookup(self, addr):
        """Per-lane memory read: ``(found, value)`` (value 0 when absent)."""
        in_table, idx = self._mem_index(addr)
        found = in_table & self.P[idx, self._cols]
        return found, np.where(found, self.M[idx, self._cols], 0)

    def _bump(self) -> None:
        self.R[self.pcg_row] += 1
        self.R[self.pcb_row] += 1

    # -- lockstep stepping --------------------------------------------------

    def fetch(self, pc: int):
        """One fetch step against the reference address ``pc``.

        Returns ``(faulted_cols, fallback_pairs)``: lanes whose program
        counters disagree take the ``fetch-fail`` rule (detected); lanes
        whose counters agree with each other but not with the reference
        diverged control flow and retire to the scalar fallback with no
        pending instruction.
        """
        pg = self.R[self.pcg_row]
        pb = self.R[self.pcb_row]
        ok = (pg == pc) & (pb == pc)
        bad = self.active & ~ok
        if not bad.any():
            return [], []
        fail = bad & (pg != pb)
        faulted = self._retire(fail)
        fallback = self._fallback(bad & (pg == pb), None)
        return faulted, fallback

    def execute(self, spec, ir: Instruction, oob_trap: bool,
                ref_pair: Optional[Tuple[int, int]]):
        """One execute step of ``spec`` for all active lanes.

        ``ref_pair`` is the reference's emission at this step (or
        ``None``); any lane that would emit differently retires to the
        fallback *before* mutating its queue or memory, which is what
        keeps every active lane's output history a reference slice.
        Returns ``(faulted_cols, fallback_pairs, halted_cols)``.
        """
        kind = spec[0]
        R = self.R
        active = self.active
        faulted: List[int] = []
        fallback: List = []
        halted: List[int] = []

        if kind == K_OP2R or kind == K_OP1R:
            y = R[spec[4]] if kind == K_OP2R else spec[4]
            result, unsafe = _ALU_VEC[spec[1]](R[spec[3]], y)
            if unsafe is not None:
                bad = active & unsafe
                if bad.any():
                    fallback = self._fallback(bad, ir)
            self._bump()
            R[spec[2]] = result

        elif kind == K_MOV:
            self._bump()
            R[spec[1]] = spec[2]

        elif kind == K_HALT:
            halted = self._retire(self.active.copy())

        elif kind in (K_LDG, K_LDB, K_PLD):
            addr = R[spec[2]]
            if kind == K_LDG and self.queue:
                # find(Q, n): first front-to-back match per lane.
                hit = np.zeros(self.n, dtype=bool)
                value = np.zeros(self.n, dtype=np.int64)
                for qa, qv in self.queue:
                    match = (qa == addr) & ~hit
                    if match.any():
                        value[match] = qv[match]
                        hit |= match
                in_mem, mem_value = self._mem_lookup(addr)
                found = hit | in_mem
                result = np.where(hit, value, mem_value)
            else:
                found, result = self._mem_lookup(addr)
            missing = active & ~found
            if missing.any():
                if oob_trap:
                    faulted = self._retire(missing)
                else:
                    # ld*-rand: campaigns always run with the zero rand
                    # source, so the "arbitrary" value is 0.
                    result = np.where(found, result, 0)
            self._bump()
            R[spec[1]] = result

        elif kind == K_STG:
            self.queue.insert(
                0, (R[spec[1]].copy(), R[spec[2]].copy()))
            self._bump()

        elif kind == K_STB:
            if not self.queue:
                # The reference would have faulted here; unreachable for a
                # schedule built from a halting run, but stay exact.
                return faulted, self.retire_all(ir), halted
            qa, qv = self.queue[-1]
            mismatch = active & ((R[spec[1]] != qa) | (R[spec[2]] != qv))
            faulted = self._retire(mismatch)
            in_table, idx = self._mem_index(qa)
            emits = qa >= self.obs_min
            if ref_pair is None:
                deviates = emits
            else:
                deviates = ~emits | (qa != ref_pair[0]) | (qv != ref_pair[1])
            bad = self.active & (~in_table | deviates)
            if bad.any():
                fallback = self._fallback(bad, ir)
            stay = np.nonzero(self.active)[0]
            if stay.size:
                self.M[idx[stay], stay] = qv[stay]
                self.P[idx[stay], stay] = True
            self.queue.pop()
            self._bump()

        elif kind == K_PST:
            addr = R[spec[1]]
            value = R[spec[2]]
            in_table, idx = self._mem_index(addr)
            emits = addr >= self.obs_min
            if ref_pair is None:
                deviates = emits
            else:
                deviates = ~emits | (addr != ref_pair[0]) \
                    | (value != ref_pair[1])
            bad = active & (~in_table | deviates)
            if bad.any():
                fallback = self._fallback(bad, ir)
            stay = np.nonzero(self.active)[0]
            if stay.size:
                self.M[idx[stay], stay] = value[stay]
                self.P[idx[stay], stay] = True
            self._bump()

        elif kind == K_JMPG:
            bad = active & (R[self.d_row] != 0)
            faulted = self._retire(bad)
            target = R[spec[1]].copy()  # read before the bump
            self._bump()
            R[self.d_row] = target

        elif kind == K_JMPB:
            d = R[self.d_row]
            bad = active & ((d == 0) | (R[spec[1]] != d))
            faulted = self._retire(bad)
            d_old = d.copy()
            R[self.pcg_row] = d_old
            # PC_B reads rd *after* PC_G is written (as the interpreter
            # does) -- row assignment above already updated R, so a plain
            # re-read matches even when rd is pcG itself.
            R[self.pcb_row] = R[spec[1]]
            R[self.d_row] = 0

        elif kind == K_PJMP:
            target = R[spec[1]].copy()
            R[self.pcg_row] = target
            R[self.pcb_row] = target

        elif kind == K_BZG:
            z = R[spec[1]]
            # Both the untaken and the taken green branch fault iff a
            # transfer is already pending (d != 0) -- one shared check.
            bad = active & (R[self.d_row] != 0)
            faulted = self._retire(bad)
            taken = z == 0
            target = R[spec[2]].copy()  # read before the bump
            self._bump()
            R[self.d_row] = np.where(taken, target, R[self.d_row])

        elif kind == K_BZB:
            z = R[spec[1]]
            d = R[self.d_row]
            untaken = z != 0
            bad = active & np.where(
                untaken, d != 0, (d == 0) | (R[spec[2]] != d))
            faulted = self._retire(bad)
            d_old = d.copy()
            # Taken lanes re-read rd after the PC_G write, exactly like
            # jmpB: when rd *is* pcG the committed PC_B equals d.
            rd_val = d_old if spec[2] == self.pcg_row else R[spec[2]].copy()
            pg = R[self.pcg_row]
            pb = R[self.pcb_row]
            R[self.pcg_row] = np.where(untaken, pg + 1, d_old)
            R[self.pcb_row] = np.where(untaken, pb + 1, rd_val)
            R[self.d_row] = np.where(untaken, d_old, 0)

        elif kind == K_PBZ:
            untaken = R[spec[1]] != 0
            target = R[spec[2]].copy()
            pg = R[self.pcg_row]
            pb = R[self.pcb_row]
            R[self.pcg_row] = np.where(untaken, pg + 1, target)
            R[self.pcb_row] = np.where(untaken, pb + 1, target)

        else:  # pragma: no cover - decode admits only the kinds above
            return faulted, self.retire_all(ir), halted

        return faulted, fallback, halted
