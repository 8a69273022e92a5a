"""Tests for the textual assembler: lexer, parser, resolution, round trips."""

import pytest

from repro.asm import emit_tal, parse_program, tokenize
from repro.core import (
    ArithRRI,
    AsmError,
    Color,
    Halt,
    Load,
    Mov,
    Outcome,
    Store,
    blue,
    green,
    run_to_completion,
)
from repro.types import CondType, IntType, RefType, RegType, TypeCheckError
from repro.verify import check_fault_tolerance, check_type_safety

STORE_EXAMPLE = """
; The Section 2.2 store sequence.
.gprs 8
.data
  word 256 = 0

.code
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  mov r3, B 5
  mov r4, B 256
  stB r4, r3
  halt
"""

LOOP_EXAMPLE = """
.gprs 8
.data
  word 256 = 0

.code
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 3
  mov r2, B 3
  mov r4, B 0
  mov r6, B 0
  mov r8, B 0

loop:
  .pre [ml: mem, n: int, l3: int, l4: int, l5: int, l6: int, l7: int, l8: int] {
      r1: (G, int, n), r2: (B, int, n),
      r3: (G, int, l3), r4: (B, int, l4),
      r5: (G, int, l5), r6: (B, int, l6),
      r7: (G, int, l7), r8: (B, int, l8)
  } queue [] mem ml
  mov r3, G 256
  mov r4, B 256
  stG r3, r1
  stB r4, r2
  sub r1, r1, G 1
  sub r2, r2, B 1
  mov r5, G @done
  mov r6, B @done
  bzG r1, r5
  bzB r2, r6
  mov r7, G @loop
  mov r8, B @loop
  jmpG r7
  jmpB r8

done:
  .pre [md: mem, d1: int, d2: int, d3: int, d4: int,
        d5: int, d6: int, d7: int, d8: int] {
      r1: (G, int, d1), r2: (B, int, d2),
      r3: (G, int, d3), r4: (B, int, d4),
      r5: (G, int, d5), r6: (B, int, d6),
      r7: (G, int, d7), r8: (B, int, d8)
  } queue [] mem md
  halt
"""


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("mov r1, G 5 ; comment\nhalt")
        kinds = [(t.kind, t.text) for t in tokens]
        assert ("IDENT", "mov") in kinds
        assert ("INT", "5") in kinds
        assert ("NEWLINE", "\n") in kinds
        assert kinds[-1] == ("EOF", "")

    def test_comments_stripped(self):
        tokens = tokenize("halt ; this is ignored")
        texts = [t.text for t in tokens if t.kind == "IDENT"]
        assert texts == ["halt"]

    def test_negative_integers(self):
        tokens = tokenize("mov r1, G -3")
        assert ("INT", "-3") in [(t.kind, t.text) for t in tokens]

    def test_punctuation_arrow(self):
        tokens = tokenize("x = 0 => (G, int, 1)")
        assert ("PUNCT", "=>") in [(t.kind, t.text) for t in tokens]

    def test_bad_character_raises(self):
        with pytest.raises(AsmError):
            tokenize("mov r1 ` 5")

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        idents = [t for t in tokens if t.kind == "IDENT"]
        assert [t.line for t in idents] == [1, 2, 3]


class TestParsing:
    def test_store_example_structure(self):
        program = parse_program(STORE_EXAMPLE)
        assert program.size == 7
        assert program.entry == 1
        assert program.code[1] == Mov("r1", green(5))
        assert program.code[3] == Store(Color.GREEN, "r2", "r1")
        assert program.code[6] == Store(Color.BLUE, "r4", "r3")
        assert program.code[7] == Halt()
        assert program.initial_memory == {256: 0}
        assert program.data_psi[256] == RefType(IntType())

    def test_store_example_checks_and_runs(self):
        program = parse_program(STORE_EXAMPLE)
        program.check()
        trace = run_to_completion(program.boot())
        assert trace.outcome is Outcome.HALTED
        assert trace.outputs == [(256, 5)]

    def test_loop_example_checks_and_runs(self):
        program = parse_program(LOOP_EXAMPLE)
        program.check()
        trace = run_to_completion(program.boot())
        assert trace.outputs == [(256, 3), (256, 2), (256, 1)]

    def test_loop_example_is_fault_tolerant(self):
        program = parse_program(LOOP_EXAMPLE)
        run = check_type_safety(program)
        assert run.status.value == "halted"

    def test_label_immediates_resolve(self):
        program = parse_program(LOOP_EXAMPLE)
        loop_address = program.address_of("loop")
        done_address = program.address_of("done")
        # mov r5, G @done
        offset = loop_address + 6
        assert program.code[offset] == Mov("r5", green(done_address))

    def test_imm_arith_forms(self):
        source = """
.gprs 4
.code
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 10
  add r2, r1, G 5
  sub r3, r2, G 1
  halt
"""
        program = parse_program(source)
        assert program.code[2] == ArithRRI("add", "r2", "r1", green(5))
        program.check()

    def test_plain_baseline_instructions_parse(self):
        source = """
.gprs 4
.data
  word 100 = 7
.code
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 100
  ld r2, r1
  st r1, r2
  halt
"""
        program = parse_program(source)
        trace = run_to_completion(program.boot())
        assert trace.outputs == [(100, 7)]
        with pytest.raises(TypeCheckError):
            program.check()

    def test_conditional_type_syntax(self):
        source = """
.gprs 2
.code
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 1
  halt
second:
  .pre [m2: mem, z: int] {
      d: z = 0 => (G, code @main, 1), rest: zero
  } mem m2
  halt
"""
        program = parse_program(source)
        second = program.address_of("second")
        dest = program.label_types[second].context.gamma.get("d")
        assert isinstance(dest, CondType)

    def test_code_pointer_in_data(self):
        source = """
.gprs 4
.data
  word 100 = @main : code @main
.code
main:
  .pre [m: mem] { rest: zero } mem m
  halt
"""
        program = parse_program(source)
        from repro.types import CodeType

        assert isinstance(program.data_psi[100].pointee, CodeType)
        assert program.initial_memory[100] == 1

    def test_recursive_code_types_rejected(self):
        source = """
.gprs 2
.code
a:
  .pre [m: mem, x: int] { r1: (G, code @b, x), rest: zero } mem m
  halt
b:
  .pre [m2: mem, y: int] { r1: (G, code @a, y), rest: zero } mem m2
  halt
"""
        with pytest.raises(AsmError):
            parse_program(source)

    def test_undefined_label_rejected(self):
        source = """
.code
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G @nowhere
  halt
"""
        with pytest.raises(AsmError):
            parse_program(source)

    def test_duplicate_label_rejected(self):
        source = """
.code
main:
  .pre [m: mem] { rest: zero } mem m
  halt
main:
  .pre [m: mem] { rest: zero } mem m
  halt
"""
        with pytest.raises(AsmError):
            parse_program(source)

    def test_missing_register_type_without_rest(self):
        source = """
.gprs 4
.code
main:
  .pre [m: mem] { r1: (G, int, 0) } mem m
  halt
"""
        with pytest.raises(AsmError):
            parse_program(source)

    def test_entry_directive(self):
        source = """
.entry second
.gprs 2
.code
first:
  .pre [m: mem] { rest: zero } mem m
  halt
second:
  .pre [m2: mem] { rest: zero } mem m2
  halt
"""
        program = parse_program(source)
        assert program.entry == program.address_of("second")

    def test_empty_program_rejected(self):
        with pytest.raises(AsmError):
            parse_program(".code\n")


class TestHints:
    def test_explicit_jump_hint_parses_and_checks(self):
        source = """
.gprs 4
.code
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G @main2
  mov r2, B @main2
  jmpG r1
  jmpB r2 with [m2 = m, a = @main2, b = @main2]
main2:
  .pre [m2: mem, a: int, b: int] {
      r1: (G, int, a), r2: (B, int, b), rest: zero
  } mem m2
  halt
"""
        program = parse_program(source)
        program.check()
        assert program.hints  # the hint survived assembly


class TestPrinter:
    """The listing is the emitted ``.tal`` text itself."""

    def test_round_trip_listing_mentions_everything(self):
        program = parse_program(LOOP_EXAMPLE)
        listing = emit_tal(program)
        assert "loop:" in listing
        assert "done:" in listing
        assert "stG r3, r1" in listing
        assert ".data" in listing
        assert "word 256 = 0" in listing
        assert listing.count(".pre [") == 3
        assert emit_tal(parse_program(listing)) == listing

    def test_listing_of_sequential_addresses(self):
        program = parse_program(STORE_EXAMPLE)
        lines = emit_tal(program).splitlines()
        assert "  mov r1, G 5                  ; 1" in lines
        assert "  halt                         ; 7" in lines
