"""Batch injection driver: one campaign step as a vectorized lane batch.

:func:`run_step_batch` is the vector backend's twin of the scalar loop in
:func:`repro.injection.campaign._run_step`: given the already-enumerated
fault list of one injection step, it builds a :class:`~repro.exec.vector.
LaneBatch` (one lane per fault), walks the schedule the reference run
recorded in lockstep and settles every lane into exactly the ``(fault,
result, outputs, steps)`` tuple the scalar engines would produce:

* **Detected lanes** (``fetch-fail``, store/branch protocol checks,
  out-of-bounds traps) are settled from reference slices alone -- the
  lockstep invariant guarantees their output tail equals the reference
  outputs emitted between injection and detection, and the latency is the
  step distance.
* **Halted lanes** reached the reference's ``halt`` with an identical
  output history: MASKED, with the full reference tail.
* **Fallback lanes** (control-flow divergence, deviating emissions,
  values outside the vector range, batch cutoff) are materialized as
  exact scalar states and finished by the scalar loop itself
  (:func:`~repro.injection.campaign._run_scalar`, which also runs the
  faults the arrays cannot carry) -- exactness by construction, at
  scalar speed for only those lanes.

Detected and halted lanes settle by the reference's own rules
(:class:`~repro.injection.campaign.SettleRules`), the same rules the
pruner predicts class outcomes with.  The function returns ``None``
whenever the program or state resists vectorization (no numpy, an
unschedulable program, a base state off the recording); the caller falls
through to the scalar loop, so ``backend="vector"`` never changes a
report, only its speed.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional

from repro.core.faults import Fault, QueueZapAddress, QueueZapValue, RegZap
from repro.core.state import MachineState
from repro.exec import run_compiled
from repro.exec.vector import (
    FALLBACK_REASONS,
    LaneBatch,
    VMAX,
    VectorUnsupported,
    schedule_for,
    vector_available,
)
from repro.observe import get_registry

#: Retire the whole batch to the scalar fallback once this few lanes are
#: active (at a fetch boundary): full-width numpy ops on a nearly-empty
#: batch cost more than finishing the stragglers scalar.  Small batches
#: keep a proportional cutoff so tests still exercise the vector path.
CUTOFF_LANES = 24


def _screen_reason(fault: Fault, reg_index, queue_len: int) -> Optional[str]:
    """Why ``fault`` cannot be applied as an int64 array poke, or ``None``
    when it can.  The reason labels the ``vector_scalar_screened_total``
    counter, so ``--metrics`` distinguishes oversized replacement values
    from sites outside the lane layout."""
    if abs(fault.new_value) > VMAX:
        return "value-range"
    if isinstance(fault, RegZap):
        return None if fault.reg in reg_index else "site"
    if isinstance(fault, (QueueZapAddress, QueueZapValue)):
        return None if 0 <= fault.index < queue_len else "site"
    return "site"


def run_step_batch(
    program,
    config,
    reference,
    budget: int,
    step_index: int,
    base: MachineState,
    faults: List[Fault],
) -> Optional[List]:
    """All of one injection step's faulty runs, stepped in lockstep.

    Returns the step's outcomes in fault order -- element-for-element
    equal to the scalar loop's -- or ``None`` when the step cannot be
    vectorized and the caller must run it scalar.
    """
    from repro.injection.campaign import SettleRules, _injected, _run_scalar

    if not vector_available() or not faults:
        return None
    schedule = schedule_for(reference)
    if schedule is None or not reference.recording.pins(base, step_index):
        return None
    s = step_index
    oob_policy = config.oob_policy
    output_steps = reference.output_steps
    ref_outputs = reference.trace.outputs
    ref_steps = reference.trace.steps

    # Faults the arrays cannot carry (oversized values, sites outside the
    # lane layout) run scalar, exactly as the scalar loop would run them.
    queue_len = len(base.queue)
    reg_index = schedule.reg_index
    vector_faults: List[Fault] = []
    vector_cols: List[int] = []
    results: List[Optional[tuple]] = [None] * len(faults)
    screened: Dict[str, int] = {}
    screened_cols: List[int] = []
    for position, fault in enumerate(faults):
        reason = _screen_reason(fault, reg_index, queue_len)
        if reason is None:
            vector_faults.append(fault)
            vector_cols.append(position)
        else:
            screened[reason] = screened.get(reason, 0) + 1
            screened_cols.append(position)
    if screened:
        outcomes = _run_scalar(
            config, reference, budget, s, base,
            _injected(base, [faults[col] for col in screened_cols], s),
            run_compiled)
        for col, outcome in zip(screened_cols, outcomes):
            results[col] = outcome
        screen_registry = get_registry()
        for reason, count in screened.items():
            screen_registry.counter("vector_scalar_screened_total",
                                    reason=reason).inc(count)
    if not vector_faults:
        return results

    try:
        batch = LaneBatch(schedule, base, vector_faults)
    except VectorUnsupported:
        return None

    rules = SettleRules(reference, s, config.error_port)
    fallback_lanes = 0
    lane_steps = 0
    divergences: Dict[str, int] = {}

    def settle_fault(lane: int, t: int) -> None:
        # By the lockstep invariant the lane's output tail is the
        # reference slice up to the detecting step.
        results[vector_cols[lane]] = (vector_faults[lane],) \
            + rules.detected(t)

    def settle_halt(lane: int) -> None:
        results[vector_cols[lane]] = (vector_faults[lane],) + rules.masked

    def settle_fallback(lane: int, state: MachineState, t: int,
                        reason: str) -> None:
        nonlocal fallback_lanes
        fallback_lanes += 1
        divergences[reason] = divergences.get(reason, 0) + 1
        results[vector_cols[lane]], = _run_scalar(
            config, reference, budget, s, base,
            [(vector_faults[lane], state, t)], run_compiled)

    cutoff = min(CUTOFF_LANES, max(1, batch.n // 2))
    produced = bisect_left(output_steps, s)  # the next reference output
    t = s
    while t < ref_steps and batch.active_count:
        if t % 2 == 0 and batch.active_count <= cutoff:
            break
        lane_steps += batch.active_count
        instr_index = t // 2
        if t % 2 == 0:
            faulted, fallback = batch.fetch(schedule.pcs[instr_index])
            for lane in faulted:
                settle_fault(lane, t)
            for lane, state in fallback:
                settle_fallback(lane, state, t, "pc")
        else:
            ref_pair = None
            if produced < len(output_steps) and output_steps[produced] == t:
                ref_pair = ref_outputs[produced]
                produced += 1
            spec = schedule.specs[instr_index]
            faulted, fallback, halted = batch.execute(
                spec, schedule.instrs[instr_index],
                oob_policy.value == "trap", ref_pair)
            reason = FALLBACK_REASONS.get(spec[0], "other")
            for lane in faulted:
                settle_fault(lane, t)
            for lane, state in fallback:
                settle_fallback(lane, state, t, reason)
            for lane in halted:
                settle_halt(lane)
        t += 1
    if batch.active_count:
        # Cutoff (or a defensive tail): hand the stragglers to the scalar
        # engines at the current fetch boundary -- always exact.
        for lane, state in batch.retire_all():
            settle_fallback(lane, state, t, "cutoff")

    registry = get_registry()
    registry.counter("vector_batches_total").inc()
    registry.counter("vector_lanes_total").inc(batch.n)
    registry.counter("vector_lane_steps_total").inc(lane_steps)
    registry.counter("vector_fallback_lanes_total").inc(fallback_lanes)
    for reason, count in divergences.items():
        registry.counter("vector_divergences_total", reason=reason).inc(count)

    return results
