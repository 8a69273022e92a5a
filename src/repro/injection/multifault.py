"""Beyond the model: multi-fault injection.

Every theorem of the paper assumes a Single Event Upset; nothing is
promised for two or more faults, and the mechanism is in fact *defeatable*
by a correlated pair -- strike the green copy and the blue copy of the
same value with the same wrong bits and every comparison passes on corrupt
data.  This module probes that boundary:

* :func:`run_multifault_campaign` samples random k-fault schedules and
  classifies the runs exactly as the single-fault campaign does;
* :func:`correlated_double_fault` builds the adversarial pair for a given
  pair of registers, the minimal witness that the SEU assumption is
  load-bearing.

These are *negative-space* experiments: the interesting outcome is the
silent corruptions that single-fault campaigns can never produce on
well-typed code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.faults import Fault, RegZap, fault_sites
from repro.core.machine import Machine
from repro.core.state import MachineState
from repro.core.errors import ReproError
from repro.injection.campaign import (
    CampaignConfig,
    CampaignReport,
    InjectionRecord,
    _VIOLATIONS,
    _reference_run,
    classify,
)
from repro.exec import MACHINE_BACKENDS, require_backend
from repro.injection.values import representative_values, with_value
from repro.core.machine import Trace
from repro.program import Program

#: Bounded resampling budget per fault slot when a chosen site yields no
#: replacement values (see :func:`run_multifault_campaign`).
_SITE_RETRIES = 8


def correlated_double_fault(
    green_register: str,
    blue_register: str,
    value: int,
    green_at_step: int,
    blue_at_step: Optional[int] = None,
) -> List[Tuple[int, Fault]]:
    """The adversarial schedule: both copies struck with the same value.

    To defeat the store-queue check the green copy must be struck *before*
    the green store consumes it (so the corrupt value enters the queue) and
    the blue copy before the blue store's compare.
    """
    if blue_at_step is None:
        blue_at_step = green_at_step
    return [
        (green_at_step, RegZap(green_register, value)),
        (blue_at_step, RegZap(blue_register, value)),
    ]


def run_faults(
    program: Program,
    schedule: List[Tuple[int, Fault]],
    max_steps: int = 1_000_000,
) -> Trace:
    """Run ``program`` under an arbitrary fault schedule."""
    machine = Machine(program.boot(), fault_budget=len(schedule))
    return machine.run(max_steps=max_steps, faults=schedule)


def run_multifault_campaign(
    program: Program,
    num_faults: int = 2,
    samples: int = 500,
    seed: int = 1,
    config: Optional[CampaignConfig] = None,
    backend: Optional[str] = None,
) -> CampaignReport:
    """Randomly sampled ``num_faults``-fault schedules, classified against
    the fault-free reference (same classification as Theorem 4's).

    ``backend`` overrides ``config.backend`` for the faulty runs; any name
    in :data:`repro.exec.BACKENDS` is accepted, campaign-only engines
    (``"vector"``) resolving to the compiled machine engine for the
    per-schedule runs.  Reports are identical across backends.

    Samples whose every resampling attempt produced a site with no
    replacement values are counted in ``report.discarded_samples`` (so
    ``injections + discarded_samples == samples``), never dropped
    silently.
    """
    config = config or CampaignConfig()
    if num_faults < 1:
        raise ReproError(
            f"multifault campaigns need at least one fault per schedule "
            f"(got num_faults={num_faults})")
    if samples < 0:
        raise ReproError(f"samples must be non-negative (got {samples})")
    if backend is None:
        backend = config.backend
    require_backend(backend)
    if backend not in MACHINE_BACKENDS:
        # Campaign-only engines (the vector lane engine, and whatever the
        # registry grows next) execute whole fault batches, not one
        # schedule at a time; their per-schedule runs use the compiled
        # machine engine, exactly as vector lanes fall back per lane.
        backend = "compiled"
    rng = random.Random(seed)
    run = _reference_run(program, config)
    reference = run.trace
    if reference.outcome.value != "halted":
        raise ValueError("reference run did not halt")
    budget = reference.steps + config.step_slack

    report = CampaignReport(reference=reference)
    total_steps = run.num_steps
    for _ in range(samples):
        schedule: List[Tuple[int, Fault]] = []
        for _fault_index in range(num_faults):
            # A chosen site can yield no replacement values; resample it
            # (bounded) rather than silently shipping a short schedule.
            # The first draw consumes the RNG exactly as the historical
            # loop did, so reports for existing seeds are unchanged.
            for _attempt in range(_SITE_RETRIES):
                step_index = rng.randrange(total_steps)
                base: MachineState = run.state_at(step_index)
                sites = list(fault_sites(base))
                site = rng.choice(sites)
                values = representative_values(base, site, program, rng)
                if values:
                    schedule.append(
                        (step_index, with_value(site, rng.choice(values))))
                    break
            else:
                break
        if len(schedule) < num_faults:
            # Every retry came up empty: account for the dropped sample
            # instead of quietly reporting fewer injections than asked.
            report.discarded_samples += 1
            continue
        schedule.sort(key=lambda pair: pair[0])
        # Replay from the earliest reconstructed state (faults before it
        # already scheduled relative to absolute step counts).
        first_step = schedule[0][0]
        machine = Machine(run.state_at(first_step),
                          fault_budget=num_faults,
                          oob_policy=config.oob_policy,
                          backend=backend)
        relative = [(at - first_step, fault) for at, fault in schedule]
        trace = machine.run(max_steps=budget, faults=relative)
        produced = reference.outputs[:run.outputs_before(first_step)]
        merged = Trace(trace.outcome, produced + trace.outputs, trace.steps)
        result = classify(merged, reference)
        report.injections += 1
        report.counts[result] = report.counts.get(result, 0) + 1
        record = InjectionRecord(first_step, schedule[0][1], result,
                                 tuple(merged.outputs))
        if config.keep_records:
            report.records.append(record)
        if result in _VIOLATIONS:
            report.violations.append(record)
    return report
