"""Driving the timing model: functional trace -> scheduled stream -> cycles.

The runner executes a compiled program functionally once, recording the
dynamic *block path* (which block instances ran, how many of their
instructions executed, and whether they ended in a taken transfer).  The
path is then replayed through the issue model using each block's static
schedule -- constrained or relaxed -- which is how the "TAL-FT without
ordering" configuration is timed even though the functional machine can
only execute the constrained order.

The functional pass defaults to the compiled execution backend
(:mod:`repro.exec`): fused chains cover runs of consecutive addresses, so
the executed-address stream is recovered as ``range(pc, pc + n)`` per
dispatch instead of one interpreter round-trip per small step.  Block
paths, per-block instruction lists and static schedules are all memoized
in the shared execution cache (:func:`repro.exec.get_aux`), so timing the
same kernel under several machine configurations -- the Figure 10 sweep --
pays for the functional run and the block walks once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as _dataclass_fields
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.errors import MachineStuck
from repro.core.instructions import Instruction
from repro.core.registers import PC_B, PC_G
from repro.core.semantics import OobPolicy, step
from repro.compiler.backend import CompiledProgram
from repro.simulator.config import MachineConfig
from repro.simulator.pipeline import TimingResult, time_stream
from repro.simulator.schedule import schedule_block, schedule_prefix


@dataclass(frozen=True)
class BlockInstance:
    """One dynamic execution of (a prefix of) a basic block."""

    label: str
    executed: int  # number of instructions executed, from the block start
    taken: bool  # did the instance end in a taken control transfer?


def _program_key(compiled: CompiledProgram) -> Tuple:
    """Identity of a compiled program for the shared execution cache: the
    code memory fingerprint plus the block structure laid over it."""
    from repro.exec import code_fingerprint

    return (
        code_fingerprint(compiled.program.code),
        tuple(
            (label, tuple(compiled.block_bodies[label]))
            for label in compiled.block_order
        ),
    )


def _config_key(config: MachineConfig) -> Tuple:
    """A hashable rendering of a :class:`MachineConfig` (the latency table
    is a dict, so the dataclass itself cannot key a cache)."""
    parts = []
    for field in _dataclass_fields(config):
        value = getattr(config, field.name)
        parts.append(
            tuple(sorted(value.items())) if isinstance(value, dict) else value
        )
    return tuple(parts)


def _discard(pair) -> None:
    """Output sink for the functional pass (observable outputs do not
    affect block timing)."""


def record_block_path(
    compiled: CompiledProgram,
    max_steps: int = 10_000_000,
    backend: str = "compiled",
) -> List[BlockInstance]:
    """Run the program functionally and decompose it into block instances."""
    if backend not in ("step", "compiled"):
        raise ValueError(f"unknown backend {backend!r}")
    address_to_block: Dict[int, Tuple[str, int]] = {}
    for label, body in compiled.block_bodies.items():
        for offset, address in enumerate(body):
            address_to_block[address] = (label, offset)

    state = compiled.program.boot()
    executed: List[int] = []
    pending_address: Optional[int] = None
    steps = 0

    compiled_exec = None
    if backend == "compiled":
        from repro.exec import compiled_for

        compiled_exec = compiled_for(state, OobPolicy.TRAP)
    if compiled_exec is not None:
        # Fused dispatch: every chain covers consecutive addresses starting
        # at the dispatch pc and every small step contributes one rule, so
        # the executed-address stream of a dispatch returning ``ret`` is
        # exactly range(pc, pc + len(ret) // 2).  Anything the closures
        # cannot drive (pending ir, pc disagreement, missing instruction,
        # a 1-step budget remainder) falls through to interpreter steps.
        regs = state.regs._regs
        fast_get = compiled_exec.fast.get
        base_get = compiled_exec.base.get
        quantum = compiled_exec.max_quantum
        while steps < max_steps and not state.is_terminal:
            if state.ir is None:
                pcg = regs[PC_G][1]
                if pcg == regs[PC_B][1]:
                    remaining = max_steps - steps
                    if remaining >= quantum:
                        fn = fast_get(pcg)
                    elif remaining >= 2:
                        fn = base_get(pcg)
                    else:
                        fn = None
                    if fn is not None:
                        ret = fn(state, regs, _discard, _zero_rand)
                        executed.extend(range(pcg, pcg + len(ret) // 2))
                        steps += len(ret)
                        continue
            if state.ir is None:
                pending_address = state.regs.value(PC_G)
                step(state)
            else:
                assert pending_address is not None
                executed.append(pending_address)
                step(state)
            steps += 1
    else:
        while steps < max_steps and not state.is_terminal:
            if state.ir is None:
                pending_address = state.regs.value(PC_G)
                step(state)
            else:
                assert pending_address is not None
                executed.append(pending_address)
                step(state)
            steps += 1
    if not state.is_terminal:
        raise MachineStuck(
            f"program did not terminate within {max_steps} steps"
        )

    instances: List[BlockInstance] = []
    position = 0
    while position < len(executed):
        label, offset = address_to_block[executed[position]]
        if offset != 0:
            raise MachineStuck(
                f"control entered block {label!r} at interior offset {offset}"
            )
        length = 1
        while (
            position + length < len(executed)
            and executed[position + length] == executed[position + length - 1] + 1
            and address_to_block[executed[position + length]][0] == label
        ):
            length += 1
        next_position = position + length
        taken = (
            next_position < len(executed)
            and executed[next_position] != executed[next_position - 1] + 1
        )
        instances.append(BlockInstance(label, length, taken))
        position = next_position
    return instances


def _zero_rand() -> int:
    return 0


def build_schedules(
    compiled: CompiledProgram,
    config: MachineConfig,
) -> Dict[str, List[int]]:
    """Static per-block schedules under ``config``'s ordering rules."""
    return {
        label: schedule_block(compiled.instructions_of(label), config)
        for label in compiled.block_order
    }


def _block_instructions(compiled: CompiledProgram) -> Dict[str, List[Instruction]]:
    """Per-block instruction lists, memoized in the shared cache (walking
    code memory per ``replay_stream`` call is pure recomputation)."""
    from repro.exec import get_aux

    return get_aux(
        ("sim-block-instrs", _program_key(compiled)),
        lambda: {
            label: compiled.instructions_of(label)
            for label in compiled.block_order
        },
    )


def replay_stream(
    compiled: CompiledProgram,
    path: List[BlockInstance],
    schedules: Dict[str, List[int]],
) -> Iterator[Tuple[Instruction, bool]]:
    """The scheduled dynamic instruction stream with taken-ness marks.

    A path repeats few distinct block instances, so each distinct
    ``(label, executed, taken)`` is laid out once per call."""
    instruction_cache = _block_instructions(compiled)
    layouts: Dict[Tuple[str, int, bool], Tuple] = {}
    for instance in path:
        key = (instance.label, instance.executed, instance.taken)
        pairs = layouts.get(key)
        if pairs is None:
            instructions = instruction_cache[instance.label]
            taken_index = instance.executed - 1 if instance.taken else -1
            pairs = layouts[key] = tuple(
                (instructions[index], index == taken_index)
                for index in schedule_prefix(
                    schedules[instance.label], instance.executed)
            )
        yield from pairs


def simulate(
    compiled: CompiledProgram,
    config: Optional[MachineConfig] = None,
    path: Optional[List[BlockInstance]] = None,
    max_steps: int = 10_000_000,
    backend: str = "compiled",
) -> TimingResult:
    """Cycles to execute ``compiled`` on the configured machine."""
    from repro.exec import get_aux

    config = config or MachineConfig()
    if path is None:
        # The block path is backend-invariant (the compiled backend is an
        # observational twin of the interpreter), so both backends share
        # one cache entry; the backend choice only decides who computes it
        # on a miss.
        path = get_aux(
            ("sim-block-path", _program_key(compiled), max_steps),
            lambda: record_block_path(
                compiled, max_steps=max_steps, backend=backend
            ),
        )
    schedules = get_aux(
        ("sim-schedules", _program_key(compiled), _config_key(config)),
        lambda: build_schedules(compiled, config),
    )
    return time_stream(replay_stream(compiled, path, schedules), config)
