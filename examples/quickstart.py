"""Quickstart: assemble, type-check, run, and fault a TAL_FT program.

This walks the paper's Section 2.2 store example end to end:

1. assemble textual TAL_FT (with a typed block precondition),
2. type-check it (``Psi |- C``),
3. run it fault-free and observe the memory-mapped output,
4. inject a single-event upset and watch the hardware detect it.

Run:  python examples/quickstart.py
"""

from repro.asm import emit_tal, parse_program
from repro.core import Machine, RegZap

SOURCE = """
; The Section 2.2 example: store 5 to address 256, redundantly.
.gprs 8
.data
  word 256 = 0

.code
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 5        ; green copy of the value
  mov r2, G 256      ; green copy of the address
  stG r2, r1         ; announce the store (enters the store queue)
  mov r3, B 5        ; blue copy of the value
  mov r4, B 256      ; blue copy of the address
  stB r4, r3         ; check against the queue, then commit
  halt
"""


def main() -> None:
    program = parse_program(SOURCE)
    print("assembled program:")
    print(emit_tal(program))

    program.check()
    print("type check: OK (the program is provably fault tolerant)")
    print()

    trace = Machine(program.boot()).run()
    print(f"fault-free run: {trace.outcome.value}, "
          f"observable output = {trace.outputs}")

    # Now flip register r1 (the green copy of the value) right after the
    # first instruction executed -- a transient particle strike.
    machine = Machine(program.boot())
    faulty = machine.run(fault=RegZap("r1", 1_000_000), fault_at_step=2)
    print(f"faulty run:     {faulty.outcome.value}, "
          f"observable output = {faulty.outputs}")
    assert faulty.detected and faulty.outputs == []
    print()
    print("the corrupted value never reached memory: the blue store's")
    print("comparison against the store queue caught the mismatch.")


if __name__ == "__main__":
    main()
