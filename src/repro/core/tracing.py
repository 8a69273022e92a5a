"""Execution tracing: human-readable step-by-step machine logs.

A debugging aid for anyone writing TAL_FT assembly or compiler passes:
records, for every small step, the rule that fired, the instruction (on
execute steps), every register the step changed, the store-queue contents
and any observable output.

Used by ``talft trace`` and handy in tests when a rule misbehaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.colors import ColoredValue
from repro.core.errors import MachineStuck
from repro.core.registers import PC_G
from repro.core.semantics import OobPolicy, step
from repro.core.state import MachineState


@dataclass(frozen=True)
class TraceEvent:
    """One small step of the machine."""

    step: int
    rule: str
    #: Code address of the instruction (execute steps) or the fetch target.
    address: int
    #: The instruction executed, or None for fetch/terminal steps.
    instruction: Optional[object]
    #: Registers whose value changed: name -> (before, after).
    changes: Dict[str, Tuple[ColoredValue, ColoredValue]]
    #: Store-queue contents after the step (front first).
    queue: Tuple[Tuple[int, int], ...]
    #: Observable output of the step.
    outputs: Tuple[Tuple[int, int], ...]

    def format(self) -> str:
        what = str(self.instruction) if self.instruction is not None else ""
        parts = [f"{self.step:5d}  @{self.address:<5d} {self.rule:16s} {what}"]
        for name, (before, after) in sorted(self.changes.items()):
            if name in ("pcG", "pcB"):
                continue  # pc churn is noise; transfers show via the rule
            parts.append(f"    {name}: {before} -> {after}")
        if self.outputs:
            for address, value in self.outputs:
                parts.append(f"    OUTPUT M[{address}] <- {value}")
        if self.queue:
            rendered = ", ".join(f"({a},{v})" for a, v in self.queue)
            parts.append(f"    queue: [{rendered}]")
        return "\n".join(parts)


def trace_execution(
    state: MachineState,
    max_steps: int = 200,
    oob_policy: OobPolicy = OobPolicy.TRAP,
) -> List[TraceEvent]:
    """Run ``state`` for up to ``max_steps``, recording every step.

    Always runs on the interpreter: tracing is a debugging aid, and the
    interpreter *is* the specification being debugged.
    """
    events: List[TraceEvent] = []
    step_index = 0
    while step_index < max_steps and not state.is_terminal:
        address = state.regs.value(PC_G)
        instruction = state.ir
        before = {name: state.regs.get(name) for name in state.regs.names()}
        try:
            result = step(state, oob_policy)
        except MachineStuck:
            break
        # Register changes are diffed even on the terminal step: a rule
        # that writes a register *and* halts in the same step must still
        # show that final write in the trace.
        changes = {
            name: (before[name], state.regs.get(name))
            for name in before
            if state.regs.get(name) != before[name]
        }
        events.append(TraceEvent(
            step=step_index,
            rule=result.rule,
            address=address,
            instruction=instruction,
            changes=changes,
            queue=state.queue.pairs(),
            outputs=result.outputs,
        ))
        step_index += 1
    return events


def format_trace(events: List[TraceEvent]) -> str:
    """The whole trace as one printable block."""
    return "\n".join(event.format() for event in events)
