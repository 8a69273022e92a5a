"""Round-trip tests: Program -> .tal text -> Program.

The emitter must preserve code, typing interface, boot state, and hence
observable behavior; re-parsed FT builds must still type-check.
"""

import pytest

from repro.asm import emit_tal, parse_program, render_expr
from repro.core import AsmError, Color, Outcome, ReproError, run_to_completion
from repro.injection import program_digest
from repro.statics import BinExpr, EmptyMem, IntConst, Sel, Upd, Var
from repro.workloads import KERNELS, compile_kernel
from tests.helpers import countdown_loop_program, paper_store_program

ROUND_TRIP_KERNELS = ("vpr", "jpeg", "gsm")


def round_trip(program):
    text = emit_tal(program)
    reparsed = parse_program(text)
    return text, reparsed


class TestRenderExpr:
    @pytest.mark.parametrize("expr,text", [
        (IntConst(5), "5"),
        (IntConst(-3), "-3"),
        (Var("x"), "x"),
        (EmptyMem(), "emp"),
        (BinExpr("add", Var("x"), IntConst(1)), "(x add 1)"),
        (Sel(Var("m"), IntConst(4)), "sel(m, 4)"),
        (Upd(Var("m"), IntConst(4), Var("v")), "upd(m, 4, v)"),
    ])
    def test_rendering(self, expr, text):
        assert render_expr(expr) == text

    def test_rendered_expressions_reparse(self):
        # Render an expression, embed it in a precondition, re-parse.
        from repro.asm.parser import _Parser

        expr = BinExpr("mul", BinExpr("add", Var("x"), IntConst(2)), Var("y"))
        parser = _Parser(render_expr(expr))
        assert parser.parse_expr() == expr


class TestHandwrittenRoundTrip:
    def test_store_program(self):
        program = paper_store_program()
        text, reparsed = round_trip(program)
        reparsed.check()
        assert run_to_completion(reparsed.boot()).outputs == [(256, 5)]

    def test_loop_program(self):
        program = countdown_loop_program(3)
        text, reparsed = round_trip(program)
        reparsed.check()
        trace = run_to_completion(reparsed.boot())
        assert trace.outputs == [(256, 3), (256, 2), (256, 1)]

    def test_second_round_trip_is_stable(self):
        program = countdown_loop_program(2)
        text1, reparsed = round_trip(program)
        text2, _ = round_trip(reparsed)
        assert text1 == text2


@pytest.mark.parametrize("name", ROUND_TRIP_KERNELS)
class TestCompiledRoundTrip:
    def test_reparsed_build_typechecks(self, name):
        _text, reparsed = round_trip(compile_kernel(name, "ft").program)
        reparsed.check()

    def test_identical_observable_behavior(self, name):
        program = compile_kernel(name, "ft").program
        _text, reparsed = round_trip(program)
        original = run_to_completion(program.boot(), max_steps=2_000_000)
        replayed = run_to_completion(reparsed.boot(), max_steps=2_000_000)
        assert original.outcome is Outcome.HALTED
        assert replayed.outputs == original.outputs

    def test_boot_colors_preserved(self, name):
        program = compile_kernel(name, "ft").program
        _text, reparsed = round_trip(program)
        assert reparsed.gpr_colors == program.gpr_colors


def _boot_state(program):
    state = program.boot()
    return (state.regs, state.code, state.memory, state.queue,
            state.observable_min)


@pytest.mark.parametrize("mode", ["ft", "baseline", "swift"])
def test_every_kernel_build_round_trips(mode):
    # Typed and untyped builds alike: same identity, same boot state,
    # and the emitted text is a fixed point.
    for name in sorted(KERNELS):
        program = compile_kernel(name, mode).program
        text, reparsed = round_trip(program)
        assert (".pre" in text) == (mode == "ft"), name
        assert program_digest(reparsed) == program_digest(program), name
        assert _boot_state(reparsed) == _boot_state(program), name
        assert emit_tal(reparsed) == text, name


class TestUntyped:
    SOURCE = """
.gprs 4
.data
  word 100 = 7
.code
main:
  mov r1, G 100
  ld r2, r1
  mov r3, G @done
  jmp r3
done:
  st r1, r2
  halt
"""

    def test_untyped_program_has_no_typing_interface(self):
        program = parse_program(self.SOURCE)
        assert program.label_types == {} and program.data_psi == {}
        assert program.labels_by_name == {"main": 1, "done": 5}
        assert run_to_completion(program.boot()).outputs == [(100, 7)]

    def test_untyped_program_round_trips(self):
        program = parse_program(self.SOURCE)
        text, reparsed = round_trip(program)
        assert ".pre" not in text
        assert reparsed.code == program.code
        assert emit_tal(reparsed) == text

    def test_pre_is_all_or_nothing(self):
        typed_main = self.SOURCE.replace(
            "main:\n", "main:\n  .pre [m: mem] { rest: zero } mem m\n")
        with pytest.raises(AsmError, match="every label"):
            parse_program(typed_main)

    def test_untyped_data_carries_no_type(self):
        annotated = self.SOURCE.replace("word 100 = 7",
                                        "word 100 = @done : code @done")
        with pytest.raises(AsmError, match="untyped"):
            parse_program(annotated)


def test_split_blue_pool_round_trips():
    program = parse_program(TestUntyped.SOURCE)
    program.gpr_colors = {"r1": Color.BLUE, "r3": Color.BLUE,
                          "r4": Color.BLUE}
    text, reparsed = round_trip(program)
    assert ".bluepool 1 1\n.bluepool 3 4\n" in text
    assert reparsed.gpr_colors == program.gpr_colors


class TestEmitterErrors:
    def test_unlabeled_entry_rejected(self):
        from repro.program import Program
        from repro.core import Halt

        program = Program(code={1: Halt()})
        with pytest.raises(ReproError):
            emit_tal(program)


class TestDirectives:
    def test_bluepool_directive(self):
        source = """
.gprs 8
.bluepool 5 8
.code
main:
  .pre [m: mem] {
      r5: (B, int, 0), r6: (B, int, 0), r7: (B, int, 0), r8: (B, int, 0),
      rest: zero
  } mem m
  halt
"""
        program = parse_program(source)
        from repro.core import Color

        assert program.gpr_colors["r5"] is Color.BLUE
        assert "r4" not in program.gpr_colors
        program.check()  # blue-typed entry matches blue boot

    def test_bluepool_out_of_range_rejected(self):
        from repro.core import AsmError

        source = """
.gprs 4
.bluepool 3 9
.code
main:
  .pre [m: mem] { rest: zero } mem m
  halt
"""
        with pytest.raises(AsmError):
            parse_program(source)

    def test_observable_directive(self):
        source = """
.observable 1000
.data
  word 500 = 0
  word 1000 = 0
.code
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 500
  mov r2, G 7
  stG r1, r2
  mov r3, B 500
  mov r4, B 7
  stB r3, r4
  mov r1, G 1000
  mov r3, B 1000
  stG r1, r2
  stB r3, r4
  halt
"""
        program = parse_program(source)
        trace = run_to_completion(program.boot())
        # Only the store at/above the observable threshold is output.
        assert trace.outputs == [(1000, 7)]
        assert program.observable_min == 1000


class TestGeneratedWorkloadRoundTrip:
    """Property-style: compiled synthetic workloads survive the round trip."""

    @pytest.mark.parametrize("chains,loads,branches", [
        (1, 0, 0), (2, 1, 1), (4, 2, 0), (3, 1, 2),
    ])
    def test_generated_round_trip(self, chains, loads, branches):
        from repro.workloads import WorkloadSpec, generate_compiled

        spec = WorkloadSpec(chains=chains, loads_per_chain=loads,
                            branches=branches, iterations=6, seed=42)
        program = generate_compiled(spec, "ft").program
        text, reparsed = round_trip(program)
        reparsed.check()
        original = run_to_completion(program.boot(), max_steps=2_000_000)
        replayed = run_to_completion(reparsed.boot(), max_steps=2_000_000)
        assert replayed.outputs == original.outputs
