"""Backend parity: the compiled executor is an observational twin of step().

Every test here runs the same program through both execution backends and
demands *equality of everything observable*: outcome, output sequence,
step count, rule-name sequence, final register bank, store-queue contents,
memory, machine status and pending instruction register.  The sweeps cover
the places fusion could plausibly diverge -- faults landing between the
halves of a fused pair, step budgets that split chains mid-way, the RANDOM
out-of-bounds policy, and multi-fault schedules.  Fused chains are planned
on their first dispatch, so the sweeps start from a cold cache, and threads
race on those first dispatches.
"""

from __future__ import annotations

import random
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core.colors import Color, green
from repro.core.faults import QueueZapAddress, QueueZapValue, RegZap
from repro.core.instructions import ArithRRI, ArithRRR, Halt, Mov, Store
from repro.core.machine import Machine
from repro.core.semantics import KNOWN_RULES, OobPolicy
from repro.exec import (
    clear_exec_caches,
    compile_program,
    compiled_for,
    exec_cache_stats,
    get_compiled,
    run_compiled,
)
from repro.exec.fusion import MAX_QUANTUM
from repro.injection import CampaignConfig, run_campaign
from repro.injection.multifault import run_multifault_campaign
from repro.workloads import ALL_KERNELS, compile_kernel
from tests.helpers import boot_state

#: The shortest-running kernel (loads, stores, arithmetic and both
#: transfer kinds) -- cheap enough to sweep exhaustively.
_SMALL = "vpr"


def _program(name=_SMALL, mode="ft"):
    return compile_kernel(name, mode).program


def _snapshot(state):
    return (dict(state.regs._regs), state.queue.pairs(),
            dict(state.memory), state.status, state.ir)


def _observe(program, backend, *, fault=None, at=0, faults=None,
             max_steps=3000, budget=1, policy=OobPolicy.TRAP):
    """Run on one backend; return everything observable."""
    state = program.boot()
    machine = Machine(state, oob_policy=policy, record_rules=True,
                      fault_budget=budget, backend=backend)
    try:
        trace = machine.run(max_steps=max_steps, fault=fault,
                            fault_at_step=at, faults=faults)
        observed = (trace.outcome, tuple(trace.outputs), trace.steps,
                    tuple(trace.rules))
    except Exception as exc:  # must raise identically on both backends
        observed = ("raised", type(exc).__name__, str(exc))
    return observed, _snapshot(state)


def _run_both(program, *, fault=None, at=0, faults=None, max_steps=3000,
              budget=1, policy=OobPolicy.TRAP):
    """Run under both backends; return the (identical) observables."""
    results = [
        _observe(program, backend, fault=fault, at=at, faults=faults,
                 max_steps=max_steps, budget=budget, policy=policy)
        for backend in ("step", "compiled")
    ]
    assert results[0] == results[1], (fault, at, faults, max_steps)
    return results[0]


# ---------------------------------------------------------------------------
# Fault-free parity across the whole workload suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_KERNELS)
@pytest.mark.parametrize("mode", ("ft", "baseline", "swift"))
def test_fault_free_parity_all_kernels(name, mode):
    program = _program(name, mode)
    if name == "gzip":
        # The longest kernel: bound the run, parity must hold mid-flight.
        _run_both(program, max_steps=50_000)
    else:
        _run_both(program, max_steps=3_000_000)


@pytest.mark.parametrize("policy", (OobPolicy.TRAP, OobPolicy.RANDOM))
def test_fault_free_parity_policies(policy):
    _run_both(_program("vpr"), policy=policy, max_steps=50_000)


def test_rules_are_known():
    """Every rule the compiled backend emits is a semantics rule name."""
    state = _program("vpr").boot()
    compiled = compiled_for(state)
    assert compiled is not None
    trace = run_compiled(state, compiled, max_steps=20_000, rules=[])
    assert trace.rules and set(trace.rules) <= KNOWN_RULES


# ---------------------------------------------------------------------------
# Exhaustive fault sweep on a small program
# ---------------------------------------------------------------------------


def test_exhaustive_zap_sweep():
    """Every register zap and queue zap at every early step, both backends.

    This is the case fusion must not get wrong: the injection lands at
    exact small-step granularity, including *between* the two halves of
    what the compiled backend fuses into one dispatch.  Starting cold,
    chains are also planned on first dispatches from the fast loop,
    including mid-chain entries after a ``pcG`` zap.
    """
    clear_exec_caches()
    program = _program()
    registers = sorted(program.boot().regs._regs)
    cases = 0
    for at in range(48):
        for reg in registers:
            for value in (0, 999):
                _run_both(program, fault=RegZap(reg, value), at=at)
                cases += 1
        for index in range(2):
            _run_both(program, fault=QueueZapAddress(index, 5), at=at)
            _run_both(program, fault=QueueZapValue(index, 1000), at=at)
            cases += 2
    assert cases > 1000


def test_step_budget_parity():
    """Budgets that split fused chains mid-way, incl. mid-instruction.

    Starts cold, so each budget split decides which addresses the fast
    loop plans before the careful loop takes over on base closures."""
    clear_exec_caches()
    program = _program()
    for max_steps in (0, 1, 2, 3, 5, 17, 33, 101):
        _run_both(program, max_steps=max_steps)
        _run_both(program, fault=RegZap("pcG", 7), at=11,
                  max_steps=max_steps)


def test_multifault_schedule_parity():
    program = _program()
    registers = sorted(program.boot().regs._regs)
    rng = random.Random(7)
    for _ in range(60):
        count = rng.randint(2, 4)
        faults = sorted(
            ((rng.randint(0, 100), RegZap(rng.choice(registers),
                                          rng.randint(0, 99)))
             for _ in range(count)),
            key=lambda pair: pair[0],
        )
        _run_both(program, faults=faults, budget=count, max_steps=2500)


def test_multifault_engine_report_parity():
    program = _program("vpr")
    reports = [
        run_multifault_campaign(program, num_faults=2, samples=40, seed=9,
                                backend=backend)
        for backend in ("step", "compiled")
    ]
    assert reports[0].injections == reports[1].injections
    assert reports[0].counts == reports[1].counts


# ---------------------------------------------------------------------------
# Campaign reports
# ---------------------------------------------------------------------------


def test_campaign_report_parity():
    """Bit-identical campaign reports, incl. per-record diagnostics."""
    program = _program("vpr")
    config = CampaignConfig(max_injection_steps=12, max_values_per_site=2,
                            max_sites_per_step=6, seed=321,
                            keep_records=True)
    reports = [run_campaign(program, config, backend=backend)
               for backend in ("step", "compiled")]
    first, second = reports
    assert first.injections == second.injections
    assert first.counts == second.counts
    assert first.violations == second.violations
    assert len(first.records) == len(second.records)
    for a, b in zip(first.records, second.records):
        assert (a.step, a.fault, a.result, a.latency) == \
            (b.step, b.fault, b.result, b.latency)


def test_unknown_backend_rejected():
    program = _program()
    with pytest.raises(Exception):
        Machine(program.boot(), backend="jit")
    config = CampaignConfig(max_injection_steps=2, max_sites_per_step=2,
                            max_values_per_site=1)
    with pytest.raises(Exception):
        run_campaign(program, config, backend="jit")


def test_program_cache_shared():
    """One compilation serves repeated runs of the same program."""
    clear_exec_caches()
    program = _program("vpr")
    for _ in range(3):
        state = program.boot()
        Machine(state, backend="compiled").run(max_steps=10_000)
    stats = exec_cache_stats()
    assert stats["programs"] == 1


# ---------------------------------------------------------------------------
# Chains planned on first dispatch
# ---------------------------------------------------------------------------


def _chain_steps(entry):
    """The most small steps one call of a generated chain can consume.

    Every outcome of a generated chain returns one of the constant rule
    tuples in its globals, so the longest of them is its quantum."""
    return max(len(value) for value in entry.__globals__.values()
               if isinstance(value, tuple) and value
               and all(isinstance(rule, str) for rule in value))


def _is_chain(compiled, address):
    entry = compiled.fast[address]
    return (entry is not compiled.planner
            and entry is not compiled.base[address])


@pytest.mark.parametrize("mode", ("ft", "baseline", "swift"))
def test_every_planned_chain_compiles(mode):
    """Plan every address of every kernel through the planner, not only
    those a run dispatches: a template emitting invalid Python would
    otherwise fail only at a rarely dispatched address."""
    cases = [(name, OobPolicy.TRAP) for name in ALL_KERNELS]
    cases.append(("vpr", OobPolicy.RANDOM))
    for name, policy in cases:
        compiled = compile_program(_program(name, mode).code, policy)
        assert all(entry is compiled.planner
                   for entry in compiled.fast.values())
        chains = 0
        for address in compiled.code:
            entry = compiled.plan(address)
            assert compiled.fast[address] is entry
            if entry is not compiled.base[address]:
                assert 4 <= _chain_steps(entry) <= MAX_QUANTUM, \
                    (name, address)
                chains += 1
        assert chains, name


def test_racing_first_dispatches_match_interpreter():
    """Threads sharing one cold compilation race on first dispatches
    through the planner (no lock guards them); every thread must still
    observe exactly what the interpreter does for its own fault."""
    program = _program()
    registers = sorted(program.boot().regs._regs)
    cases = [(11, RegZap("pcG", 7))] + [
        (4 + 8 * index, RegZap(registers[(3 * index) % len(registers)], 999))
        for index in range(7)
    ]
    expected = [_observe(program, "step", fault=fault, at=at)
                for at, fault in cases]
    clear_exec_caches()
    compiled = compiled_for(program.boot())
    assert all(entry is compiled.planner for entry in compiled.fast.values())
    barrier = threading.Barrier(len(cases))
    observed = [None] * len(cases)

    def run(index):
        at, fault = cases[index]
        barrier.wait(timeout=60)
        observed[index] = _observe(program, "compiled", fault=fault, at=at)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert observed == expected
    assert get_compiled(program.code) is compiled
    # A planned slot holds a chain or, where fewer than two instructions
    # fuse, the base closure -- whichever racing install won, it is what
    # planning that address afresh gives.
    planned = [address for address, entry in compiled.fast.items()
               if entry is not compiled.planner]
    assert any(_is_chain(compiled, address) for address in planned)
    fresh = compile_program(program.code)
    for address in planned:
        assert _is_chain(compiled, address) == \
            (fresh.plan(address) is not fresh.base[address])


def _pc_reading_program(groups=5):
    """Straight-line code in which every group of fifteen instructions
    names ``pcG`` three times -- in an ALU interior, as a green store's
    value and as a green store's address -- each after two fusable
    interiors, and commits every green store to memory; five groups run
    152 steps, so runs start in the fast loop."""
    G, B = Color.GREEN, Color.BLUE
    code = {}
    for group in range(groups):
        base = len(code) + 1
        for instruction in (
            Mov("r1", green(3 + group)),
            ArithRRI("add", "r2", "r1", green(1)),
            ArithRRR("add", "r3", "pcG", "r2"),
            ArithRRI("mul", "r4", "r3", green(2)),
            Mov("r5", green(256 + group)),
            Store(G, "r5", "r4"),
            Store(B, "r5", "r4"),
            Mov("r6", green(base + 9)),
            ArithRRI("add", "r7", "r6", green(0)),
            Store(G, "r5", "pcG"),
            Store(B, "r5", "r6"),
            Mov("r6", green(base + 13)),
            ArithRRI("add", "r7", "r6", green(0)),
            Store(G, "pcG", "r4"),
            Store(B, "r6", "r4"),
        ):
            code[len(code) + 1] = instruction
    code[len(code) + 1] = Halt()
    return SimpleNamespace(code=code, boot=lambda: boot_state(code))


def test_chain_stops_before_an_interior_reading_pcG():
    """An interior-kind instruction that names a program counter -- an
    ALU reader, or a green store of or to one -- ends the chain before it
    (a chain bumps the pcs once, after its interiors), and runs as its
    own base closure.  Compiled runs still match the interpreter at every
    step budget and after register zaps."""
    program = _pc_reading_program()
    compiled = compile_program(program.code)
    for head, reader in ((1, 3), (8, 10), (12, 14)):
        state = program.boot()
        regs = state.regs._regs
        regs["pcG"] = regs["pcB"] = green(head)
        assert compiled.plan(head)(state, regs, [].append, None) == \
            ("fetch", "mov", "fetch", "op1r")
        assert regs["pcG"][1] == regs["pcB"][1] == reader
        assert not state.queue.pairs()
        assert compiled.plan(reader) is compiled.base[reader]
    assert compiled.plan(4) is not compiled.base[4]

    length = _run_both(program, max_steps=1000)[0][2]
    assert length == 2 * len(program.code) > MAX_QUANTUM
    for max_steps in range(1, length + 1):
        clear_exec_caches()
        _run_both(program, max_steps=max_steps)
    for at in range(length):
        for fault in (RegZap("r2", 999), RegZap("pcG", 3)):
            clear_exec_caches()
            _run_both(program, fault=fault, at=at, max_steps=1000)
