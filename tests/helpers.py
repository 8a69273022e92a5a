"""Shared builders for type-system and metatheory tests."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.core import Color, MachineState, RegisterFile, StoreQueue
from repro.core.registers import DEST, PC_B, PC_G, gpr_range
from repro.statics import KIND_INT, KIND_MEM, IntConst, KindContext, Var
from repro.types import (
    INT,
    CodeType,
    RegAssign,
    RegFileType,
    RegType,
    StaticContext,
)

#: Default number of general-purpose registers used by the tests.
NUM_GPRS = 8


def zero_gamma(
    entry: int = 1,
    num_gprs: int = NUM_GPRS,
    overrides: Optional[Mapping[str, RegAssign]] = None,
) -> RegFileType:
    """A register-file type with every register at (c, int, 0)."""
    assigns: Dict[str, RegAssign] = {
        PC_G: RegType(Color.GREEN, INT, IntConst(entry)),
        PC_B: RegType(Color.BLUE, INT, IntConst(entry)),
        DEST: RegType(Color.GREEN, INT, IntConst(0)),
    }
    for name in gpr_range(num_gprs):
        assigns[name] = RegType(Color.GREEN, INT, IntConst(0))
    if overrides:
        assigns.update(overrides)
    return RegFileType(assigns)


def entry_context(
    entry: int = 1,
    num_gprs: int = NUM_GPRS,
    overrides: Optional[Mapping[str, RegAssign]] = None,
    queue: Tuple = (),
    mem_var: str = "m",
) -> StaticContext:
    """A solved-form block-entry context over a single memory variable.

    Any expression variables appearing free in ``overrides`` or ``queue``
    are automatically bound at kind int in the context's Delta.
    """
    from repro.statics import free_vars
    from repro.types.syntax import reg_assign_free_vars

    bindings = {mem_var: KIND_MEM}
    for assign in (overrides or {}).values():
        for name in reg_assign_free_vars(assign):
            bindings.setdefault(name, KIND_INT)
    for ed, es in queue:
        for name in free_vars(ed) | free_vars(es):
            bindings.setdefault(name, KIND_INT)
    return StaticContext(
        delta=KindContext(bindings),
        gamma=zero_gamma(entry, num_gprs, overrides),
        queue=queue,
        mem=Var(mem_var),
    )


def entry_code_type(
    entry: int = 1,
    num_gprs: int = NUM_GPRS,
    overrides: Optional[Mapping[str, RegAssign]] = None,
    mem_var: str = "m",
) -> CodeType:
    return CodeType(entry_context(entry, num_gprs, overrides, mem_var=mem_var))


def boot_state(
    code: Mapping[int, object],
    memory: Optional[Dict[int, int]] = None,
    entry: int = 1,
    num_gprs: int = NUM_GPRS,
) -> MachineState:
    """A machine state matching :func:`entry_context` at boot."""
    return MachineState(
        regs=RegisterFile.initial(entry, num_gprs=num_gprs),
        code=dict(code),
        memory=dict(memory or {}),
        queue=StoreQueue(),
    )


def paper_store_program():
    """The Section 2.2 store sequence as a typed Program."""
    from repro.core import Halt, Mov, Store, blue, green
    from repro.program import Program
    from repro.types import INT, RefType

    G, B = Color.GREEN, Color.BLUE
    code = {
        1: Mov("r1", green(5)),
        2: Mov("r2", green(256)),
        3: Store(G, "r2", "r1"),
        4: Mov("r3", blue(5)),
        5: Mov("r4", blue(256)),
        6: Store(B, "r4", "r3"),
        7: Halt(),
    }
    return Program(
        code=code,
        label_types={1: entry_code_type(num_gprs=NUM_GPRS)},
        data_psi={256: RefType(INT)},
        entry=1,
        initial_memory={256: 0},
        num_gprs=NUM_GPRS,
    )


def countdown_loop_program(count: int = 3):
    """A typed countdown loop storing count..1 to address 256.

    Exercises stores, arithmetic, conditional branches (both directions)
    and the two-phase jump back to the loop head.
    """
    from repro.core import ArithRRI, Bz, Halt, Jmp, Mov, Store, blue, green
    from repro.program import Program
    from repro.statics import Var as SVar, var
    from repro.types import INT, CodeType, RefType, RegType

    G, B = Color.GREEN, Color.BLUE
    LOOP, DONE = 6, 20

    # DONE precondition: every register generalized to a fresh variable.
    done_overrides = {}
    for i in range(1, NUM_GPRS + 1):
        color = B if i % 2 == 0 else G
        done_overrides[f"r{i}"] = RegType(color, INT, var(f"d{i}"))
    done_type = entry_code_type(entry=DONE, overrides=done_overrides,
                                mem_var="md")

    # LOOP precondition: paired counter variable n, fresh vars elsewhere.
    loop_overrides = {
        "r1": RegType(G, INT, var("n")),
        "r2": RegType(B, INT, var("n")),
    }
    for i in range(3, NUM_GPRS + 1):
        color = B if i % 2 == 0 else G
        loop_overrides[f"r{i}"] = RegType(color, INT, var(f"l{i}"))
    loop_type = entry_code_type(entry=LOOP, overrides=loop_overrides,
                                mem_var="ml")

    code = {
        1: Mov("r1", green(count)),
        2: Mov("r2", blue(count)),
        # Pre-color the blue-held registers so the loop precondition (which
        # types the even registers blue) is established on first entry too.
        3: Mov("r4", blue(0)),
        4: Mov("r6", blue(0)),
        5: Mov("r8", blue(0)),
        # LOOP:
        6: Mov("r3", green(256)),
        7: Mov("r4", blue(256)),
        8: Store(G, "r3", "r1"),
        9: Store(B, "r4", "r2"),
        10: ArithRRI("sub", "r1", "r1", green(1)),
        11: ArithRRI("sub", "r2", "r2", blue(1)),
        12: Mov("r5", green(DONE)),
        13: Mov("r6", blue(DONE)),
        14: Bz(G, "r1", "r5"),
        15: Bz(B, "r2", "r6"),
        16: Mov("r7", green(LOOP)),
        17: Mov("r8", blue(LOOP)),
        18: Jmp(G, "r7"),
        19: Jmp(B, "r8"),
        # DONE:
        20: Halt(),
    }
    return Program(
        code=code,
        label_types={
            1: entry_code_type(num_gprs=NUM_GPRS),
            LOOP: loop_type,
            DONE: done_type,
        },
        data_psi={256: RefType(INT)},
        entry=1,
        initial_memory={256: 0},
        num_gprs=NUM_GPRS,
        labels_by_name={"main": 1, "loop": LOOP, "done": DONE},
    )


def executed_variants(run):
    """``(result, executed)``: what ``run()`` returns, and how many fault
    variants its pruned steps executed for real (``prune_executed_total``
    in a fresh metrics registry around the call).

    Only this process counts: pool workers' counters are not folded
    back into the parent, so a pooled run reads 0.
    """
    from repro.observe import MetricsRegistry, set_registry

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        result = run()
    finally:
        set_registry(previous)
    return result, registry.counter("prune_executed_total").value
