"""Backend parity: the compiled executor is an observational twin of step().

Every test here runs the same program through both execution backends and
demands *equality of everything observable*: outcome, output sequence,
step count, rule-name sequence, final register bank, store-queue contents,
memory, machine status and pending instruction register.  The sweeps cover
the places fusion could plausibly diverge -- faults landing between the
halves of a fused pair, step budgets that split chains mid-way, the RANDOM
out-of-bounds policy, and multi-fault schedules.  Fused chains compile on
their first dispatch, so the sweeps start from a cold cache, and threads
race on those first dispatches.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.core.faults import QueueZapAddress, QueueZapValue, RegZap
from repro.core.machine import Machine
from repro.core.semantics import KNOWN_RULES, OobPolicy
from repro.core.tracing import trace_execution
from repro.exec import (
    clear_exec_caches,
    compile_program,
    compiled_for,
    exec_cache_stats,
    get_compiled,
    run_compiled,
    trace_events_compiled,
)
from repro.exec.fusion import LazyChain
from repro.injection import CampaignConfig, run_campaign
from repro.injection.multifault import run_multifault_campaign
from repro.workloads import ALL_KERNELS, compile_kernel

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
    chains also compile on first dispatches from the fast loop, the
    careful loop and mid-chain entries after a ``pcG`` zap.
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

    Starts cold, so chains first compile from the careful loop at budget
    splits."""
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
# Trace events and campaign reports
# ---------------------------------------------------------------------------


def test_trace_event_parity():
    program = _program("vpr")
    interpreter = trace_execution(program.boot(), max_steps=4001)
    compiled = trace_events_compiled(program.boot(), max_steps=4001)
    assert interpreter == compiled


def test_trace_execution_backend_param():
    program = _program()
    assert trace_execution(program.boot(), max_steps=500) == \
        trace_execution(program.boot(), max_steps=500, backend="compiled")
    with pytest.raises(ValueError):
        trace_execution(program.boot(), backend="jit")


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
# Lazy chain compilation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ("ft", "baseline", "swift"))
def test_every_planned_chain_compiles(mode):
    """Compile every planned chain of every kernel, not only those a run
    dispatches: a template emitting invalid Python would otherwise fail
    only at a rarely dispatched address."""
    cases = [(name, OobPolicy.TRAP) for name in ALL_KERNELS]
    cases.append(("vpr", OobPolicy.RANDOM))
    for name, policy in cases:
        compiled = compile_program(_program(name, mode).code, policy)
        for address, (consumed, entry) in list(compiled.fused.items()):
            if isinstance(entry, LazyChain):
                chain = entry.install()
                assert compiled.fused[address] == (consumed, chain)
                assert compiled.fast[address] is chain


def test_racing_first_dispatches_match_interpreter():
    """Threads sharing one cold compilation race on chains' first
    dispatches (no lock guards them); every thread must still observe
    exactly what the interpreter does for its own fault."""
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
    assert all(isinstance(entry, LazyChain)
               for _, entry in compiled.fused.values())
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
    # Every install writes both tables, so they agree on what is compiled.
    for address, (_, entry) in compiled.fused.items():
        assert isinstance(entry, LazyChain) == \
            isinstance(compiled.fast[address], LazyChain)
