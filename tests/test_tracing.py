"""Tests for the execution tracer and the `talft trace` command."""

import os
import re
from dataclasses import dataclass

import pytest

from repro.asm import parse_program
from repro.cli import main
from repro.core import Machine, RegZap, semantics
from repro.core.colors import green
from repro.core.instructions import Halt, Instruction, Mov
from repro.core.semantics import StepResult
from repro.core.tracing import format_trace, trace_execution
from tests.helpers import (
    boot_state,
    countdown_loop_program,
    paper_store_program,
)

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples",
                        "programs")


class TestTraceExecution:
    def test_trace_records_every_step(self):
        program = paper_store_program()
        events = trace_execution(program.boot(), max_steps=100)
        assert len(events) == 14  # 7 instructions, fetch+execute each
        assert events[0].rule == "fetch"
        assert events[1].rule == "mov"
        assert events[-1].rule == "halt"

    def test_register_changes_recorded(self):
        program = paper_store_program()
        events = trace_execution(program.boot(), max_steps=4)
        mov_event = events[1]
        assert "r1" in mov_event.changes
        before, after = mov_event.changes["r1"]
        assert before.value == 0 and after.value == 5

    def test_queue_and_outputs_recorded(self):
        program = paper_store_program()
        events = trace_execution(program.boot(), max_steps=100)
        st_green = next(e for e in events if e.rule == "stG-queue")
        assert st_green.queue == ((256, 5),)
        st_blue = next(e for e in events if e.rule == "stB-mem")
        assert st_blue.outputs == ((256, 5),)
        assert st_blue.queue == ()

    def test_trace_stops_at_terminal(self):
        program = paper_store_program()
        events = trace_execution(program.boot(), max_steps=10_000)
        assert events[-1].rule == "halt"

    def test_format_is_readable(self):
        program = countdown_loop_program(1)
        text = format_trace(trace_execution(program.boot(), max_steps=60))
        assert "stG-queue" in text
        assert "OUTPUT M[256] <- 1" in text
        assert "bzB-taken" in text

    def test_addresses_follow_control_flow(self):
        program = countdown_loop_program(1)
        events = trace_execution(program.boot(), max_steps=60)
        addresses = [e.address for e in events if e.rule == "fetch"]
        assert addresses[0] == program.entry
        assert program.address_of("done") in addresses


@dataclass(frozen=True)
class WriteAndHalt(Instruction):
    """Test-only instruction: write a register, then halt -- in one step.

    No built-in rule both writes a general-purpose register and
    terminates in the same small step, so this is the only way to
    exercise the tracer's terminal-step register diff.
    """

    rd: str
    value: int


def _write_and_halt(state, instr, oob_policy, rand_source):
    state.regs.set(instr.rd, green(instr.value))
    state.halt()
    return StepResult((), "write-and-halt")


@pytest.fixture
def write_and_halt_rule():
    semantics._DISPATCH[WriteAndHalt] = _write_and_halt
    try:
        yield
    finally:
        semantics._DISPATCH.pop(WriteAndHalt, None)


class TestTerminalStepChanges:
    """The final step's register writes must appear in the trace.

    Regression: the tracer used to guard the register diff with
    ``not state.is_terminal``, silently dropping any write made by a
    rule that also terminated the machine.
    """

    CODE = {1: Mov("r2", green(7)), 2: WriteAndHalt("r1", 99)}

    def test_interpreter_keeps_terminal_write(self, write_and_halt_rule):
        events = trace_execution(boot_state(self.CODE), max_steps=100)
        last = events[-1]
        assert last.rule == "write-and-halt"
        assert "r1" in last.changes
        before, after = last.changes["r1"]
        assert before.value == 0 and after.value == 99

    def test_halt_still_shows_no_changes(self):
        # A plain halt writes nothing; removing the guard must not
        # invent changes on ordinary terminal steps.
        code = {1: Mov("r1", green(5)), 2: Halt()}
        events = trace_execution(boot_state(code), max_steps=100)
        assert events[-1].rule == "halt"
        assert events[-1].changes == {}


class TestTraceCommand:
    STORE = os.path.join(EXAMPLES, "store.tal")

    def test_trace_fault_free(self, capsys):
        assert main(["trace", self.STORE, "--steps", "30"]) == 0
        out = capsys.readouterr().out
        assert "stB-mem" in out
        assert "status: halted" in out

    def test_trace_with_fault(self, capsys):
        assert main(["trace", self.STORE, "--steps", "30",
                     "--fault", "r1=666@2"]) == 0
        out = capsys.readouterr().out
        assert "FAULT INJECTED" in out
        assert "stB-mem-fail" in out
        assert "status: fault" in out

    def test_fault_trace_follows_the_injected_run(self, capsys):
        """The trace around a ``--fault`` fires exactly the rules of the
        interpreter's run with that fault injected at that step."""
        assert main(["trace", self.STORE, "--steps", "30",
                     "--fault", "r2=300@4"]) == 0
        out = capsys.readouterr().out
        rules = re.findall(r"^ *\d+  @\d+ +(\S+)", out, re.MULTILINE)
        with open(self.STORE) as handle:
            state = parse_program(handle.read()).boot()
        trace = Machine(state, record_rules=True, backend="step").run(
            max_steps=30, fault=RegZap("r2", 300), fault_at_step=4)
        assert rules == trace.rules
        banner = out.index("FAULT INJECTED: reg-zap r2 := 300")
        assert out.rindex("mov r2, G256", 0, banner) > 0
        assert out.endswith(f"status: {state.status.value}\n")
