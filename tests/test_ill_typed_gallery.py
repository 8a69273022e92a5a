"""A gallery of ill-typed programs: every typing premise is load-bearing.

Each test violates exactly one premise of one typing rule (Figure 7) and
asserts the checker rejects the program.  For the most instructive cases
a fault-injection campaign additionally demonstrates that the rejected
program really is silently corruptible -- the premise is not bureaucracy.

Written in textual assembly so each program documents itself.
"""

import pytest

from repro.asm import parse_program
from repro.injection import CampaignConfig, run_campaign
from repro.types import TypeCheckError

HEADER = """
.gprs 8
.data
  word 256 = 0
  word 257 = 0
.code
"""


def reject(body, match=None):
    program = parse_program(HEADER + body)
    with pytest.raises(TypeCheckError) as excinfo:
        program.check()
    if match is not None:
        assert match in str(excinfo.value), str(excinfo.value)
    return program


def corruptible(program, samples=25):
    config = CampaignConfig(max_injection_steps=samples,
                            max_values_per_site=3, max_sites_per_step=8,
                            seed=11)
    report = run_campaign(program, config)
    return report.silent > 0


class TestArithmeticPremises:
    def test_op2r_mixed_colors(self):
        # Principle 2: green may only depend on green.
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 1
  mov r2, B 2
  add r3, r1, r2
  halt
""", match="mix colors")

    def test_op1r_mixed_immediate(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 1
  add r2, r1, B 2
  halt
""", match="mix colors")


class TestStorePremises:
    def test_stG_blue_operands(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, B 256
  mov r2, B 5
  stG r1, r2
  halt
""")

    def test_stB_green_operands_cse_bug(self):
        # The Section 2.2 disaster: blue store reusing green registers.
        program = reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  stB r2, r1
  halt
""")
        assert corruptible(program)

    def test_stB_without_pending_green_store(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, B 256
  mov r2, B 5
  stB r1, r2
  halt
""", match="empty")

    def test_stB_value_disagrees_with_queue(self):
        # Green announced 5; blue tries to commit 6.
        program = reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  mov r3, B 6
  mov r4, B 256
  stB r4, r3
  halt
""", match="not provably")

    def test_stB_address_disagrees_with_queue(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  mov r3, B 5
  mov r4, B 257
  stB r4, r3
  halt
""", match="not provably")

    def test_store_through_untyped_address(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 999
  mov r2, G 5
  stG r1, r2
  halt
""", match="not a reference")

    def test_unmatched_green_store_before_halt(self):
        # A dangling queue entry at halt: the announced store would never
        # be checked or committed.
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 5
  mov r2, G 256
  stG r2, r1
  halt
""", match="uncommitted")


class TestLoadPremises:
    def test_ldG_blue_address(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, B 256
  ldG r2, r1
  halt
""")

    def test_ldB_green_address(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 256
  ldB r2, r1
  halt
""")

    def test_ld_from_integer(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 12345
  ldG r2, r1
  halt
""", match="not a reference")


class TestControlFlowPremises:
    def test_jmpG_with_pending_destination(self):
        # Two green announcements without a blue commit in between.
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G @main2
  jmpG r1
  jmpG r1
  halt
main2:
  .pre [m2: mem, a: int] { r1: (G, int, a), rest: zero } mem m2
  halt
""", match="destination")

    def test_jmpB_without_announcement(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r2, B @main2
  jmpB r2
main2:
  .pre [m2: mem, b: int] { r2: (B, int, b), rest: zero } mem m2
  halt
""")

    def test_jmpB_target_disagrees_with_announcement(self):
        # Green announced main2; blue jumps to main3.
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G @main2
  mov r2, B @main3
  jmpG r1
  jmpB r2
main2:
  .pre [m2: mem, a: int, b: int] { r1: (G, int, a), r2: (B, int, b), rest: zero } mem m2
  halt
main3:
  .pre [m3: mem, a: int, b: int] { r1: (G, int, a), r2: (B, int, b), rest: zero } mem m3
  halt
""", match="different code types")

    def test_jmp_to_non_code_value(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 256
  jmpG r1
  halt
""", match="code pointer")

    def test_bzG_blue_condition(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, B 0
  mov r2, G @main2
  bzG r1, r2
  halt
main2:
  .pre [m2: mem, a: int, b: int] { r1: (B, int, a), r2: (G, int, b), rest: zero } mem m2
  halt
""", match="green")

    def test_bzB_without_green_announcement(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, B 0
  mov r2, B @main2
  bzB r1, r2
  halt
main2:
  .pre [m2: mem, a: int, b: int] { r1: (B, int, a), r2: (B, int, b), rest: zero } mem m2
  halt
""", match="conditional")

    def test_bzB_condition_disagrees(self):
        # Green tested r1 (= 0), blue tests r3 (= 1): different decisions.
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 0
  mov r3, B 1
  mov r2, G @main2
  mov r4, B @main2
  bzG r1, r2
  bzB r3, r4
  halt
main2:
  .pre [m2: mem, a: int, b: int, c: int, e: int] {
      r1: (G, int, a), r2: (G, int, b), r3: (B, int, c), r4: (B, int, e),
      rest: zero
  } mem m2
  halt
""", match="not provably equal")

    def test_jump_with_wrong_register_state(self):
        # Target demands r3 hold 7; it holds 8.
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r3, G 8
  mov r1, G @main2
  mov r2, B @main2
  jmpG r1
  jmpB r2
main2:
  .pre [m2: mem, a: int, b: int] {
      r1: (G, int, a), r2: (B, int, b), r3: (G, int, 7), rest: zero
  } mem m2
  halt
""")

    def test_jump_with_nonempty_queue_to_empty_queue_target(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r5, G 5
  mov r6, G 256
  stG r6, r5
  mov r1, G @main2
  mov r2, B @main2
  jmpG r1
  jmpB r2
main2:
  .pre [m2: mem, a: int, b: int, c: int, e: int] {
      r1: (G, int, a), r2: (B, int, b), r5: (G, int, c), r6: (G, int, e),
      rest: zero
  } queue [] mem m2
  halt
""", match="queue")


class TestStructuralPremises:
    def test_fall_through_into_wrong_precondition(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 3
second:
  .pre [m2: mem] { r1: (G, int, 4), rest: zero } mem m2
  halt
""", match="fall-through")

    def test_fall_off_the_end(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 3
""", match="falls off")

    def test_plain_instruction_rejected(self):
        reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 256
  ld r2, r1
  halt
""", match="unprotected")


class TestSchedulingPremises:
    """The paper's compiler-debugging story applied to *schedulers*: an
    instruction reordering that lets the blue computation observe memory
    at a different time than the green computation is rejected, because
    the two copies' singleton expressions stop being provably equal."""

    def test_blue_load_moved_inside_store_window(self):
        # Legal order: stG ; stB ; ldG ; ldB -- both loads see the new
        # value.  A scheduler that hoists ldB above stB makes the blue
        # copy read stale memory while ldG reads the queue:
        program = reject("""
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 5
  mov r2, G 256
  mov r3, B 5
  mov r4, B 256
  stG r2, r1
  ldG r5, r2
  ldB r6, r4        ; HOISTED: reads memory before the store commits
  stB r4, r3
  mov r7, G 257
  mov r8, B 257
  stG r7, r5
  stB r8, r6        ; green copy is 5, blue copy is stale 0: rejected
  halt
""", match="not provably")
        # And the rejection is justified: fault-free the two builds agree
        # only by luck of the initial memory; re-ordered code really can
        # publish a green/blue disagreement... here the checker catches it
        # even though THIS run happens to differ already fault-free.

    def test_correctly_scheduled_version_accepted(self):
        # The same code with ldB after the commit type-checks.
        program = parse_program(HEADER + """
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 5
  mov r2, G 256
  mov r3, B 5
  mov r4, B 256
  stG r2, r1
  ldG r5, r2
  stB r4, r3
  ldB r6, r4
  mov r7, G 257
  mov r8, B 257
  stG r7, r5
  stB r8, r6
  halt
""")
        program.check()

    def test_green_load_may_float_between_the_pair(self):
        # The queue-forwarding rule ldG-queue exists precisely to give
        # the scheduler this freedom: a green load between stG and stB is
        # fine (it reads the pending store from the queue).
        program = parse_program(HEADER + """
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 5
  mov r2, G 256
  mov r3, B 5
  mov r4, B 256
  stG r2, r1
  ldG r5, r2        ; between the pair: reads the queue
  stB r4, r3
  ldB r6, r4
  mov r7, G 257
  mov r8, B 257
  stG r7, r5
  stB r8, r6
  halt
""")
        program.check()
