"""Code-memory typing (rule ``C-t`` of Figure 8).

``Psi |- C`` requires every code address to carry a code type whose context
is a valid precondition for the instruction stored there, with fall-through
postconditions feeding the next address.  Practically, compilers declare
preconditions only at *labels* (block entries); the checker threads the
context through each block, computing the interior preconditions, and
verifies fall-through edges into labeled blocks with the same subsumption
check used for jumps.

The restriction relative to the fully general rule -- interior (computed)
addresses are not valid ``mov`` immediates or jump targets -- is sound: it
merely shrinks the set of accepted programs (to those whose control flow
targets labels, which is every program a compiler emits).

Because every block starts from its *declared* precondition, the blocks
are mutually independent given ``label_types``.  They are checked in
address order, so on ill-typed programs the first diagnostic is always the
lowest-addressed error (blocks are contiguous address ranges and each
block's check stops at its first error).

:func:`check_program` returns a :class:`CheckedProgram` carrying the
per-address contexts, which the machine-state typing judgment and the
executable Preservation checker consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.instructions import Instruction
from repro.statics.expressions import IntConst
from repro.types.errors import TypeCheckError
from repro.types.instructions import (
    VOID,
    InstructionHint,
    NO_HINT,
    check_instruction,
    check_jump_target,
)
from repro.types.syntax import (
    BasicType,
    CodeType,
    HeapType,
    RegType,
    StaticContext,
    check_code_type_closed,
)
from repro.core.registers import PC_B, PC_G


@dataclass
class CheckedProgram:
    """The outcome of a successful ``Psi |- C`` check."""

    #: Full heap typing: data addresses -> ref types, labels -> code types.
    psi: Dict[int, BasicType]
    #: The precondition context established at *every* code address.
    contexts: Dict[int, StaticContext]
    #: Label addresses (the declared block entries).
    labels: Dict[int, CodeType] = field(default_factory=dict)


def _validate(
    code: Mapping[int, Instruction],
    label_types: Mapping[int, CodeType],
    data_psi: Mapping[int, BasicType],
) -> Tuple[Dict[int, BasicType], List[int]]:
    """The whole-program well-formedness checks (run once, in the parent)."""
    if not label_types:
        raise TypeCheckError("a program needs at least one labeled block")
    for address, code_type in label_types.items():
        if address not in code:
            raise TypeCheckError(f"label at {address} has no instruction")
        check_code_type_closed(code_type)
    for address in label_types:
        if address in data_psi:
            raise TypeCheckError(
                f"address {address} is both code and data", address
            )
    psi: Dict[int, BasicType] = dict(data_psi)
    psi.update(label_types)
    addresses = sorted(code)
    if addresses[0] not in label_types:
        raise TypeCheckError(
            f"first code address {addresses[0]} is not labeled", addresses[0]
        )
    return psi, addresses


def _split_blocks(
    addresses: List[int], label_types: Mapping[int, CodeType]
) -> List[List[int]]:
    """Partition the sorted code addresses into basic blocks.

    A block starts at every label and at every discontinuity of the
    address sequence, and runs to the next such boundary.  This mirrors
    exactly how the serial context-threading loop propagates state: a
    context only ever flows from ``address`` to ``address + 1``, and
    labeled addresses restart from their declared precondition.
    """
    blocks: List[List[int]] = []
    current: List[int] = []
    previous: Optional[int] = None
    for address in addresses:
        if address in label_types or previous is None \
                or address != previous + 1:
            current = [address]
            blocks.append(current)
        else:
            current.append(address)
        previous = address
    return blocks


def _check_block(
    psi: HeapType,
    code: Mapping[int, Instruction],
    label_types: Mapping[int, CodeType],
    hints: Mapping[int, InstructionHint],
    block: List[int],
) -> Dict[int, StaticContext]:
    """Check one basic block from its declared precondition.

    Returns the per-address contexts of the block; raises
    :class:`TypeCheckError` at the block's first ill-typed address.  The
    loop body is the exact serial rule: the only contexts entering from
    outside the block are declared label preconditions.
    """
    entry = block[0]
    declared = label_types.get(entry)
    current: Optional[StaticContext]
    if declared is None:
        current = None
    else:
        current = declared.context
    contexts: Dict[int, StaticContext] = {}
    for address in block:
        if current is None:
            raise TypeCheckError(
                "unreachable unlabeled instruction (no context flows here)",
                address,
            )
        contexts[address] = current
        result = check_instruction(
            psi, current, code[address], hints.get(address, NO_HINT), address
        )
        successor = address + 1
        if result is VOID:
            # Control never falls through; the next address (if any) must be
            # a fresh label.
            if successor in code and successor not in label_types:
                raise TypeCheckError(
                    "instruction after a non-falling-through instruction "
                    "must be labeled",
                    successor,
                )
            current = None
            continue
        assert isinstance(result, StaticContext)
        if successor not in code:
            raise TypeCheckError(
                "control falls off the end of code memory", address
            )
        if successor in label_types:
            # Fall-through into a labeled block: the computed postcondition
            # must establish the declared precondition (same subsumption
            # check as a jump, with the transfer address = successor).
            target = label_types[successor]
            green_expr = _pc_expr(result, PC_G, address)
            blue_expr = _pc_expr(result, PC_B, address)
            try:
                check_jump_target(
                    psi, result, target, green_expr, blue_expr,
                    hints.get(address, NO_HINT).subst,
                )
            except TypeCheckError as exc:
                raise TypeCheckError(
                    f"fall-through into label {successor} fails: {exc.args[0]}",
                    address,
                ) from None
            current = None
        else:
            current = result
    return contexts


def check_program(
    code: Mapping[int, Instruction],
    label_types: Mapping[int, CodeType],
    data_psi: Mapping[int, BasicType],
    hints: Optional[Mapping[int, InstructionHint]] = None,
) -> CheckedProgram:
    """Check ``Psi |- C`` and return the computed per-address contexts.

    ``label_types`` declares the code type of each block entry;
    ``data_psi`` types the data addresses; ``hints`` maps code addresses to
    their :class:`InstructionHint`.

    Raises :class:`TypeCheckError` (with the offending address) on failure.
    """
    from repro.observe import get_registry, phase_timer
    from time import perf_counter as _perf_counter

    hints = hints or {}
    registry = get_registry()
    with phase_timer("typecheck", registry):
        psi, addresses = _validate(code, label_types, data_psi)
        blocks = _split_blocks(addresses, label_types)

        contexts: Dict[int, StaticContext] = {}
        block_seconds = registry.histogram("typecheck_block_seconds")
        for block in blocks:
            block_start = _perf_counter()
            contexts.update(_check_block(psi, code, label_types, hints, block))
            block_seconds.observe(_perf_counter() - block_start)
        registry.counter("typecheck_blocks_total").inc(len(blocks))
        registry.counter("typecheck_instructions_total").inc(len(addresses))

    return CheckedProgram(psi=psi, contexts=contexts, labels=dict(label_types))


def _pc_expr(context: StaticContext, pc: str, address: int):
    assign = context.gamma.get(pc)
    if not isinstance(assign, RegType):
        raise TypeCheckError(f"{pc} has a conditional type", address)
    return assign.expr
