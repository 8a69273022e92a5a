"""The compiled execution backend.

``repro.exec`` executes machine states through per-address closures
(:mod:`repro.exec.compiler`) with superinstruction fusion planned on each
address's first dispatch (:mod:`repro.exec.fusion`), sharing one
compilation per program per process through a bounded LRU
(:mod:`repro.exec.cache`).  The backend is an *observational twin* of the
``step()`` interpreter: identical rule sequences, outputs, step counts,
terminal states and stuck behavior, on fault-free and fault-injected
states alike -- pinned by ``tests/test_exec_backend.py``.  See
``docs/EXECUTION.md`` for the design and the argument for why fusion
cannot mask a fault.

Drivers:

* :func:`run_compiled` -- the bounded multi-step runner (the campaign hot
  path), returning the same :class:`~repro.core.machine.Trace` shape as
  :meth:`Machine.run`;
* :func:`step_instruction` -- one whole fetch+execute pair (the recovery
  executor's superstep).

Everything falls back to the interpreter rather than guess: states with a
pending instruction register, register banks the compilation does not
cover, sub-instruction step budgets and uncompilable programs all route
through :func:`repro.core.semantics.step`.  Per-step tracing
(:func:`repro.core.tracing.trace_execution`) always runs on the
interpreter, the specification being debugged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.errors import MachineStuck
from repro.core.machine import Outcome, Trace
from repro.core.registers import PC_B, PC_G
from repro.core.semantics import OobPolicy, RandSource, step as _step
from repro.core.state import MachineState, Status
from repro.exec.cache import (
    clear_exec_caches,
    code_fingerprint,
    exec_cache_stats,
    get_aux,
    get_compiled,
)
from repro.exec.compiler import (
    CompilationUnsupported,
    CompiledExec,
    compile_program,
)
from repro.exec.fusion import MAX_QUANTUM

__all__ = [
    "BACKENDS",
    "CompilationUnsupported",
    "CompiledExec",
    "MACHINE_BACKENDS",
    "clear_exec_caches",
    "code_fingerprint",
    "compile_program",
    "compiled_for",
    "exec_cache_stats",
    "get_aux",
    "get_compiled",
    "require_backend",
    "run_compiled",
    "step_instruction",
]


#: The execution-backend registry: every backend name the project knows,
#: mapped to the one-line description the CLI help and docs derive from.
#: Config validation (``CampaignConfig``, ``run_campaign``, ``Machine``)
#: goes through :func:`require_backend` so adding a backend is one edit
#: here rather than a hunt for duplicated literal tuples.
BACKENDS: Dict[str, str] = {
    "step": "the step() interpreter (reference semantics)",
    "compiled": "closure-compiled per-address closures with "
                "superinstruction fusion (default)",
    "vector": "batch-vectorized SoA campaign engine (numpy lanes in "
              "lockstep; campaigns only)",
}

#: Backends that can drive a single :class:`~repro.core.machine.Machine`.
#: The vector engine executes whole campaign batches, not one machine, so
#: it is only a valid choice where a campaign is being configured.
MACHINE_BACKENDS: Tuple[str, ...] = ("step", "compiled")


def require_backend(
    name: str, allowed: Optional[Tuple[str, ...]] = None
) -> str:
    """Validate a backend name against the registry and return it.

    ``allowed`` restricts the choice to a subset (e.g.
    :data:`MACHINE_BACKENDS`); the default accepts every registered
    backend.  Raises ``ValueError`` with the registry-derived wording all
    entry points share.
    """
    choices = tuple(allowed) if allowed is not None else tuple(BACKENDS)
    if name not in choices:
        raise ValueError(
            f"unknown backend {name!r} (choose from {', '.join(choices)})")
    return name


def _zero_rand() -> int:
    return 0


def compiled_for(
    state: MachineState,
    oob_policy: OobPolicy = OobPolicy.TRAP,
) -> Optional[CompiledExec]:
    """The compilation that can drive ``state``, or ``None``.

    ``None`` means "use the interpreter": the program is uncompilable, or
    the state's register bank lacks a name the closures address directly
    (plain dict access would silently diverge from the interpreter's
    unknown-register error).
    """
    compiled = get_compiled(state.code, oob_policy)
    if compiled is None or not compiled.supports(state):
        return None
    return compiled


def run_compiled(
    state: MachineState,
    compiled: CompiledExec,
    max_steps: int = 1_000_000,
    rand_source: RandSource = _zero_rand,
    outputs: Optional[List[Tuple[int, int]]] = None,
    rules: Optional[List[str]] = None,
) -> Trace:
    """Run ``state`` for up to ``max_steps`` small steps, compiled.

    Byte-identical to ``Machine(state, ...).run(max_steps=...)`` on the
    interpreter: same outputs, same step count, same outcome, and (when
    ``rules`` is a list) the same rule-name sequence.  ``outputs`` and
    ``rules`` may be supplied to accumulate across segmented runs (the
    mid-run fault-injection path); the returned trace counts only this
    call's steps.
    """
    if outputs is None:
        outputs = []
    record = rules is not None
    steps = 0
    running = Status.RUNNING
    oob_policy = compiled.oob_policy

    # A pending instruction register (states captured mid-instruction by
    # checkpoint replay or a sub-instruction budget) is retired through the
    # interpreter; afterwards ir stays None for the whole compiled loop
    # (closures never leave it set).
    while state.ir is not None and steps < max_steps and state.status is running:
        try:
            result = _step(state, oob_policy, rand_source)
        except MachineStuck:
            return Trace(Outcome.STUCK, outputs, steps, rules if record else [])
        if result.outputs:
            outputs.extend(result.outputs)
        if record:
            rules.append(result.rule)
        steps += 1

    regs = state.regs._regs
    emit = outputs.append
    pc_g = PC_G
    pc_b = PC_B
    record_extend = rules.extend if record else None

    # Far from the budget horizon every chain fits, so the hot loop
    # dispatches through ``fast`` with no per-dispatch budget arithmetic;
    # the careful loop below finishes the last ``MAX_QUANTUM`` steps (and
    # all short segments) on the per-instruction closures with exact
    # checks.
    safe = max_steps - MAX_QUANTUM
    if steps < safe and state.status is running:
        fast_get = compiled.fast.get
        while True:
            pcg = regs[pc_g][1]
            if pcg != regs[pc_b][1]:
                # Rule fetch-fail: the program counters disagree.
                state.enter_fault()
                steps += 1
                if record:
                    rules.append("fetch-fail")
                break
            fn = fast_get(pcg)
            if fn is None:
                # No instruction at pcG: stuck; the failed fetch does not
                # count as a step (as in the interpreter runner).
                return Trace(Outcome.STUCK, outputs, steps,
                             rules if record else [])
            ret = fn(state, regs, emit, rand_source)
            steps += len(ret)
            if record_extend is not None:
                record_extend(ret)
            if steps >= safe or state.status is not running:
                break

    base_get = compiled.base.get
    while steps < max_steps and state.status is running:
        pcg = regs[pc_g][1]
        if pcg != regs[pc_b][1]:
            # Rule fetch-fail: the program counters disagree.
            state.enter_fault()
            steps += 1
            if record:
                rules.append("fetch-fail")
            break
        if max_steps - steps < 2:
            # One step of budget left: take the bare fetch so the state is
            # left exactly where the interpreter would leave it.
            try:
                result = _step(state, oob_policy, rand_source)
            except MachineStuck:
                return Trace(Outcome.STUCK, outputs, steps,
                             rules if record else [])
            if record:
                rules.append(result.rule)
            steps += 1
            break
        closure = base_get(pcg)
        if closure is None:
            # No instruction at pcG: stuck, and (as in the interpreter
            # runner) the failed fetch does not count as a step.
            return Trace(Outcome.STUCK, outputs, steps,
                         rules if record else [])
        ret = closure(state, regs, emit, rand_source)
        steps += len(ret)
        if record:
            rules.extend(ret)

    status = state.status
    if status is Status.HALTED:
        outcome = Outcome.HALTED
    elif status is Status.FAULT_DETECTED:
        outcome = Outcome.FAULT_DETECTED
    else:
        outcome = Outcome.RUNNING
    return Trace(outcome, outputs, steps, rules if record else [])


def step_instruction(
    state: MachineState,
    compiled: CompiledExec,
    outputs: List[Tuple[int, int]],
    rand_source: RandSource = _zero_rand,
) -> Optional[Tuple[str, ...]]:
    """One whole fetch+execute pair through the *unfused* closure table.

    Appends any observable output to ``outputs`` and returns the rule
    tuple (always two rules), or ``None`` when the compiled path does not
    apply (pending ``ir``, pc disagreement, missing instruction) and the
    caller must take interpreter steps instead.  Never mutates the state
    in the ``None`` case.
    """
    if state.ir is not None or state.status is not Status.RUNNING:
        return None
    regs = state.regs._regs
    pcg = regs[PC_G][1]
    if pcg != regs[PC_B][1]:
        return None
    closure = compiled.base.get(pcg)
    if closure is None:
        return None
    return closure(state, regs, outputs.append, rand_source)
