"""Fault-equivalence pruning: run one representative per outcome class.

Exhaustive SEU sweeps execute every (step, site, value) variant, yet most
variants are provably equivalent *before any lane is stepped*:

* **Masking analysis.**  A def-use walk over the per-register events the
  reference run recorded (:class:`~repro.injection.campaign.Recording`;
  this module never replays the fault-free run): a corrupted location
  that is overwritten (or never consulted) before its first semantic use
  cannot change the run.  All such faults at one injection step collapse
  into a single "no-effect" class whose outcome is the reference tail
  itself.
* **Detection congruence.**  The TAL_FT check rules are *total* on
  corrupt-vs-reference mismatches: a blue store compares both copies, the
  jump/branch protocol compares the announced and committed targets, and
  every fetch compares the two program counters.  Any corruption that
  reaches such a check with the "corrupt != reference" invariant intact
  is detected there regardless of the corrupt magnitude -- so all
  corruptions of a value reaching the same check share one
  "detected@step" class, detection-latency bucket included.

Only class representatives and unclassifiable faults execute on the
underlying engine (vector batch, compiled, or the interpreter, exactly
as an unpruned step would); every pruned member is assigned the class
prediction (:class:`~repro.injection.campaign.SettleRules`, the rules
the vector engine settles lanes by) *after the representative's real
execution confirmed it*, so ``CampaignReport`` stays bit-identical by
construction.  A randomized audit mode (``--prune-audit P``)
re-executes a sampled fraction of all variants unpruned, each to its
end, and hard-fails (:class:`PruneAuditError`) on any mismatch -- which
also audits the scalar finisher's early stop where a run rejoins the
reference.

Soundness of the classifier rests on one invariant: between semantic
events, both the reference and the faulty run leave a corrupted location
untouched, so "corrupt value != reference value" holds at the next event
exactly when it held at the previous one.  The walk is deliberately
conservative: any event whose outcome depends on the corrupt *magnitude*
(an ALU read, a flipped branch condition, a store-queue scan that could
hit), any two entities whose next events collide on the same step (the
correlated-corruption hazard), and anything exotic returns "unclassified"
and runs for real.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import replace as _dc_replace
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ReproError
from repro.core.faults import (
    Fault,
    QueueZapAddress,
    QueueZapValue,
    RegZap,
    is_effective,
)
from repro.core.registers import DEST, PC_B, PC_G
from repro.core.semantics import OobPolicy
from repro.core.state import MachineState
from repro.injection.campaign import (
    EV_BITS,
    EV_CHECK,
    EV_LOADADDR,
    EV_MASK,
    EV_READ,
    EV_SPAWN_DEST,
    EV_SPAWN_VAL,
    EV_WRITE,
    QE_POP,
    QE_PUSH,
    Recording,
    SettleRules,
    _run_faults,
)
from repro.observe import get_registry


class PruneAuditError(ReproError):
    """A variant's unpruned re-execution disagreed with its pruned
    outcome -- the pruning analysis, or the early stop of a run that
    rejoins the reference, is unsound for this program and must not be
    trusted (run with ``--no-prune`` and report the case)."""


# ---------------------------------------------------------------------------
# The reference recording, as the pruner sees it
# ---------------------------------------------------------------------------


def analysis_for(reference) -> Optional[Recording]:
    """The def-use/check schedule of the reference run: its
    :class:`~repro.injection.campaign.Recording`, or ``None`` when the
    pruner must decline (a run that did not halt or booted
    mid-instruction, or one that executed something the walk does not
    model)."""
    recording = reference.recording
    if recording is None or not recording.prunable:
        return None
    return recording


# ---------------------------------------------------------------------------
# Per-fault classification
# ---------------------------------------------------------------------------

#: Entity caps: a fault tracks at most this many corrupt locations (the
#: original plus spawned copies) for at most this many event rounds
#: before the walk gives up and the fault runs for real.
_MAX_ENTITIES = 3
_MAX_ROUNDS = 64


def _reg_next_event(analysis: Recording, name: str, cursor: int):
    """The register's next semantic event at or after ``cursor``, as
    ``(step, kind)``; for the program counters the ubiquitous fetch
    comparison is an analytic CHECK at the next even step."""
    events = analysis.reg_events.get(name)
    sparse = None
    if events is not None:
        index = bisect_left(events, cursor << EV_BITS)
        if index < len(events):
            packed = events[index]
            sparse = (packed >> EV_BITS, packed & EV_MASK)
    if name == PC_G or name == PC_B:
        fetch = cursor if cursor % 2 == 0 else cursor + 1
        # Execute events sit on odd steps, fetches on even ones -- no tie.
        if fetch < analysis.steps and (sparse is None or fetch < sparse[0]):
            return (fetch, EV_CHECK)
    return sparse


def _pair_next_event(analysis: Recording, entity: List):
    """Walk the corrupt queue pair through the reference queue events,
    consuming transparent ones (pushes ahead of it, pops and scans that
    cannot see it) in place.  Returns the next *significant* event:
    EV_CHECK when the blue-store compare pops the corrupt pair (always a
    mismatch -- the registers hold reference values or their own entity
    would collide on the same step), EV_READ when a green-load scan could
    observe the corruption, or ``None`` when it stays buried until halt.
    """
    queue_steps = analysis.queue_steps
    queue_events = analysis.queue_events
    index = bisect_left(queue_steps, entity[4])
    while index < len(queue_steps):
        step = queue_steps[index]
        event = queue_events[index]
        kind = event[0]
        if kind == QE_PUSH:
            entity[1] += 1
        elif kind == QE_POP:
            if entity[1] == event[1] - 1:
                return (step, EV_CHECK)
        else:  # QE_SCAN(address, hit)
            address, hit = event[1], event[2]
            if not (hit >= 0 and entity[1] > hit):
                # The scan reaches our position before stopping.
                if entity[2]:  # corrupt address component
                    # Either the reference hit this pair (the corrupt
                    # address now misses) or the corrupt address aliases
                    # the scanned one (a spurious hit): divergence.
                    if entity[1] == hit or entity[3] == address:
                        return (step, EV_READ)
                elif entity[1] == hit:
                    # Address intact, so the scan still hits -- and
                    # returns the corrupt value.
                    return (step, EV_READ)
        entity[4] = step + 1
        index += 1
    return None


def classify_fault(
    analysis: Recording,
    fault: Fault,
    step_index: int,
    oob_trap: bool,
) -> Optional[tuple]:
    """Classify one *effective* fault injected before ``step_index``.

    Returns ``("masked",)`` (the corruption provably never reaches an
    observable), ``("det", t)`` (a TAL_FT check detects it at step ``t``
    with certainty), or ``None`` (run it for real).
    """
    if isinstance(fault, RegZap):
        entities: List[List] = [["r", fault.reg, fault.new_value, step_index]]
    elif isinstance(fault, QueueZapAddress):
        entities = [["q", fault.index, True, fault.new_value, step_index]]
    elif isinstance(fault, QueueZapValue):
        entities = [["q", fault.index, False, fault.new_value, step_index]]
    else:
        return None
    for _round in range(_MAX_ROUNDS):
        if not entities:
            return ("masked",)
        live: List[Tuple[tuple, List]] = []
        for entity in entities:
            if entity[0] == "r":
                event = _reg_next_event(analysis, entity[1], entity[3])
            else:
                event = _pair_next_event(analysis, entity)
            if event is not None:
                live.append((event, entity))
        if not live:
            return ("masked",)
        live.sort(key=lambda item: item[0][0])
        if len(live) > 1 and live[0][0][0] == live[1][0][0]:
            # Two corrupt locations reach events on the same step: their
            # effects can correlate (e.g. both copies of a blue store
            # corrupted identically would *pass* the compare).  Decline.
            return None
        (step, kind), entity = live[0]
        entities = [item[1] for item in live]
        if kind == EV_WRITE:
            entities.remove(entity)
            continue
        if kind == EV_CHECK:
            return ("det", step)
        if kind == EV_READ:
            return None
        if kind == EV_LOADADDR:
            if oob_trap and entity[2] not in analysis.universe:
                return ("det", step)
            return None
        # Spawns: the corruption is copied into a new location while the
        # source stays live; both continue past this step.
        if len(entities) >= _MAX_ENTITIES:
            return None
        value = entity[2]
        entity[3] = step + 1
        if kind == EV_SPAWN_DEST:
            entities.append(["r", DEST, value, step + 1])
        elif kind == EV_SPAWN_VAL:
            entities.append(["q", 0, False, value, step + 1])
        else:  # EV_SPAWN_ADDR / EV_SPAWN_BOTH: the address-corrupt walk
            # is exact for both (transparent paths never consult the
            # value component).
            entities.append(["q", 0, True, value, step + 1])
    return None


# ---------------------------------------------------------------------------
# Names the frozen benchmark still binds
# ---------------------------------------------------------------------------

#: Empty, and nothing writes it: ``perfbench/unit.py`` reads it in its
#: cold-start check.  Kept until the next benchmark change.
_MEMO_TABLES: Dict = {}


def load_memo(*_args) -> None:
    """Does nothing and nothing calls it: ``perfbench/tracer.py`` wraps
    it, and :func:`save_memo`, as its ``injection.prune.memo_io`` layer.
    Kept until the next benchmark change."""


def save_memo(*_args) -> None:
    """Does nothing; see :func:`load_memo`."""


# ---------------------------------------------------------------------------
# The pruned step driver
# ---------------------------------------------------------------------------


def run_step_pruned(
    program,
    config,
    reference,
    budget: int,
    step_index: int,
    base: MachineState,
    faults: List[Fault],
) -> Optional[List]:
    """One injection step with equivalence pruning.

    Returns the step's outcomes in fault order -- element-for-element
    equal to the unpruned engines' -- or ``None`` when the program
    resists analysis and the caller must run the step unpruned.
    """
    s = step_index
    analysis = analysis_for(reference)
    if analysis is None or not analysis.pins(base, s):
        return None
    oob_trap = config.oob_policy is OobPolicy.TRAP
    rules = SettleRules(reference, s, config.error_port)

    def predict(cls: tuple):
        if cls[0] == "masked":
            return rules.masked
        return rules.detected(cls[1])

    results: List[Optional[tuple]] = [None] * len(faults)
    classes: Dict[tuple, List[int]] = {}
    to_run: List[int] = []  # positions that must execute for real
    for position, fault in enumerate(faults):
        cls = ("masked",) if not is_effective(base, fault) \
            else classify_fault(analysis, fault, s, oob_trap)
        if cls is None:
            to_run.append(position)
        else:
            classes.setdefault(cls, []).append(position)
    # One representative per class executes for real.
    to_run.extend(members[0] for members in classes.values())

    def execute(positions: List[int]) -> None:
        if not positions:
            return
        positions.sort()
        subset = [faults[position] for position in positions]
        outcomes = _run_faults(program, config, reference, budget, s, base,
                               subset)
        for position, outcome in zip(positions, outcomes):
            results[position] = outcome

    execute(to_run)

    # Replicate each class prediction to its members -- but only after
    # the representative's *real* outcome confirmed it.  A mismatch means
    # the analysis mis-modeled this program: fall back to executing the
    # whole class (the report stays exact; only the speedup is lost).
    replicated = 0
    mismatched: List[int] = []
    mismatches = 0
    for cls, members in classes.items():
        prediction = predict(cls)
        if results[members[0]][1:] == prediction:
            for member in members[1:]:
                results[member] = (faults[member],) + prediction
            replicated += len(members) - 1
        else:
            mismatches += 1
            mismatched.extend(members[1:])
    execute(mismatched)

    # Randomized audit: re-execute a sampled fraction of the variants --
    # replicated members and executed ones alike -- unpruned, so every
    # sampled run goes to its end instead of stopping where it rejoins
    # the reference, and hard-fail on any disagreement.  The audit RNG is
    # derived from (seed, step) like everything else, so audits are
    # deterministic and identical across jobs/backends -- and it never
    # touches the campaign RNG, so audited reports stay bit-identical.
    audit_runs = 0
    if config.prune_audit > 0.0:
        audit_rng = random.Random(f"{config.seed}:prune-audit:{s}")
        sampled = [position for position in range(len(faults))
                   if audit_rng.random() < config.prune_audit]
        if sampled:
            audit_runs = len(sampled)
            subset = [faults[position] for position in sampled]
            actual = _run_faults(program, _dc_replace(config, prune=False),
                                 reference, budget, s, base, subset)
            for position, outcome in zip(sampled, actual):
                if outcome != results[position]:
                    raise PruneAuditError(
                        f"prune audit mismatch at step {s} for "
                        f"{faults[position].describe()}: pruned outcome "
                        f"{results[position][1].value}/"
                        f"{len(results[position][2])} outputs/"
                        f"{results[position][3]} steps, re-execution got "
                        f"{outcome[1].value}/{len(outcome[2])} outputs/"
                        f"{outcome[3]} steps; the pruning analysis is "
                        "unsound for this program -- rerun with --no-prune")

    registry = get_registry()
    registry.counter("prune_steps_total").inc()
    registry.counter("prune_classes_total").inc(len(classes))
    registry.counter("prune_pruned_variants_total").inc(replicated)
    registry.counter("prune_executed_total").inc(len(faults) - replicated)
    if audit_runs:
        registry.counter("prune_audit_runs_total").inc(audit_runs)
    if mismatches:
        registry.counter("prune_analysis_mismatch_total").inc(mismatches)

    return results
