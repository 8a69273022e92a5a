"""Single-event-upset injection campaigns.

A campaign takes a program, runs it fault-free to obtain the reference
observable output, then re-executes it once per (step, site, value) triple
with exactly one fault applied, classifying every faulty run against the
Fault Tolerance theorem (Theorem 4):

* ``MASKED``    -- the run produced exactly the reference output sequence
  (the fault changed nothing observable);
* ``DETECTED``  -- the hardware entered the ``fault`` state and the output
  produced so far is a *prefix* of the reference;
* ``SILENT_CORRUPTION`` -- the output deviated from the reference without
  detection (for well-typed programs this is a theorem violation; for the
  unprotected baseline it is the expected failure mode);
* ``STUCK`` / ``TIMEOUT`` -- the machine got stuck or overran its budget
  (both are violations for well-typed programs).

Exhaustive campaigns enumerate every dynamic step and fault site;
:class:`CampaignConfig` offers sampling knobs for larger programs.

Engine architecture.  The reference run is recorded as **sparse
checkpoints + deterministic replay** (:class:`ReferenceRun`): a full state
clone every ``checkpoint_interval`` steps instead of before *every* step,
with any injection point reconstructed by replaying at most
``checkpoint_interval - 1`` deterministic steps from the nearest
checkpoint.  The same walk records, per executed instruction, what the
pruner and the vector engine need (:class:`Recording`), so no other
layer replays the fault-free run.  The checkpoints double as meeting
points: with pruning on, a faulty run stops at the first one where it
has rejoined the reference (:func:`_run_rejoining`).  Each injection
step is processed independently with an RNG derived from ``(seed,
step_index)``, which makes the work embarrassingly parallel:
``run_campaign(..., jobs=N)`` partitions the injection steps across a
supervised process pool (:mod:`repro.injection.resilience`) and merges
the per-step results in step order, producing a report bit-identical to
the serial engine's.
"""

from __future__ import annotations

import enum
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace as _dc_replace
from itertools import chain
from operator import itemgetter
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - types only (avoids import cycles)
    from repro.injection.chaos import ChaosSpec
    from repro.injection.resilience import ResilienceConfig, ResilienceStats

from repro.core.colors import Color
from repro.core.faults import Fault, apply_fault, fault_sites, is_effective
from repro.core.instructions import (
    ArithRRI,
    ArithRRR,
    Bz,
    Halt,
    Jmp,
    Load,
    Mov,
    PlainBz,
    PlainJmp,
    PlainLoad,
    PlainStore,
    Store,
)
from repro.core.machine import Machine, Outcome, Trace
from repro.core.registers import DEST, PC_B, PC_G
from repro.core.semantics import OobPolicy, step as _semantics_step
from repro.core.state import MachineState, Status
from repro.exec import (
    CompiledExec,
    compiled_for,
    require_backend,
    run_compiled,
)
from repro.exec.vector import vector_available
from repro.injection.values import representative_values, with_value
from repro.observe import (
    ProgressReporter,
    STEPS_BUCKETS,
    emit as _emit_event,
    get_registry,
    phase_timer,
)
from repro.program import Program


class FaultResult(enum.Enum):
    MASKED = "masked"
    DETECTED = "detected"
    SILENT_CORRUPTION = "silent-corruption"
    STUCK = "stuck"
    TIMEOUT = "timeout"


#: Results that falsify Theorem 4 for well-typed programs.
_VIOLATIONS = frozenset((
    FaultResult.SILENT_CORRUPTION, FaultResult.STUCK, FaultResult.TIMEOUT,
))


@dataclass(frozen=True)
class InjectionRecord:
    """One faulty run."""

    step: int
    fault: Fault
    result: FaultResult
    outputs: Tuple[Tuple[int, int], ...]
    #: Steps from injection to the terminal state (detection latency for
    #: DETECTED runs; -1 when not recorded).
    latency: int = -1


@dataclass
class CampaignConfig:
    """Knobs for campaign size and machine policy."""

    #: Extra steps allowed beyond the fault-free run length before a faulty
    #: run is declared TIMEOUT.
    step_slack: int = 64
    #: Hard cap on the fault-free run itself.
    max_steps: int = 200_000
    #: Inject at every k-th dynamic step (1 = every step).
    step_stride: int = 1
    #: Optionally cap the number of injection steps (evenly sampled).
    max_injection_steps: Optional[int] = None
    #: Out-of-bounds load policy (the semantics allows either).
    oob_policy: OobPolicy = OobPolicy.TRAP
    #: Seed for random replacement values (None disables the random value).
    seed: Optional[int] = 12345
    #: Skip faults that would not change the state.
    skip_ineffective: bool = True
    #: Cap on replacement values per site (None = all representatives).
    max_values_per_site: Optional[int] = None
    #: Cap on fault sites sampled per injection step (None = all sites).
    max_sites_per_step: Optional[int] = None
    #: Keep per-run records (can be large for exhaustive campaigns).
    keep_records: bool = False
    #: Software-detection convention: a trailing write to this address is a
    #: detection announcement, not payload output (used to classify
    #: SWIFT-style software-only builds, whose "detector" is ordinary code).
    error_port: Optional[int] = None
    #: Reference-run steps between full state checkpoints.  Injection
    #: points between checkpoints are reconstructed by replaying at most
    #: this many deterministic steps; raising it trades replay time for
    #: snapshot memory.
    checkpoint_interval: int = 32
    #: Worker processes for the campaign (1 = serial).  Any value produces
    #: the same report as ``jobs=1`` for the same seed.
    jobs: int = 1
    #: Execution backend (any name in :data:`repro.exec.BACKENDS`):
    #: ``"compiled"`` (closure-compiled, see :mod:`repro.exec`),
    #: ``"step"`` (the interpreter) or ``"vector"`` (batch-vectorized
    #: lockstep lanes, see :mod:`repro.exec.vector`).  All are
    #: observationally identical; ``"compiled"`` falls back to ``"step"``
    #: when the program cannot be compiled, and ``"vector"`` to
    #: ``"compiled"`` when numpy is unavailable (and per-lane to the
    #: scalar engines whenever a lane leaves the vectorized path).
    backend: str = "compiled"
    #: Fault-equivalence pruning (:mod:`repro.injection.prune`): per
    #: injection step, provably-equivalent fault variants share one real
    #: execution, and the class prediction is replicated only after the
    #: representative's execution confirmed it; each executed run stops
    #: where it rejoins the fault-free run (:func:`_run_rejoining`) --
    #: reports stay bit-identical by construction.  ``False``
    #: (``--no-prune``) executes every variant, each to its end.
    prune: bool = True
    #: Audit fraction: re-execute this share of all variants (executed
    #: and replicated) unpruned, each to its end, and raise
    #: :class:`~repro.injection.prune.PruneAuditError` on any mismatch
    #: (0.0 disables, 1.0 re-runs every variant).  Purely a verification
    #: knob -- audited reports are bit-identical to unaudited ones.
    prune_audit: float = 0.0

    def __post_init__(self) -> None:
        """Reject nonsense knob values up front, with the same friendly
        wording the CLI uses.

        Library callers get the same guardrails as ``talft campaign``:
        ``step_stride=0`` would loop :func:`_injection_steps` forever, and
        a ``checkpoint_interval``, ``jobs`` or ``max_injection_steps``
        below 1 used to fail obscurely deep inside the engine.
        """
        for name, value, minimum in (
            ("step_stride", self.step_stride, 1),
            ("checkpoint_interval", self.checkpoint_interval, 1),
            ("jobs", self.jobs, 1),
            ("max_steps", self.max_steps, 1),
            ("max_injection_steps", self.max_injection_steps, 1),
            ("max_values_per_site", self.max_values_per_site, 1),
            ("max_sites_per_step", self.max_sites_per_step, 1),
            ("step_slack", self.step_slack, 0),
        ):
            if value is not None and value < minimum:
                raise ValueError(
                    f"{name} must be at least {minimum} (got {value})")
        if not 0.0 <= self.prune_audit <= 1.0:
            raise ValueError(
                f"prune_audit must be between 0.0 and 1.0 "
                f"(got {self.prune_audit})")
        require_backend(self.backend)

    def to_dict(self) -> Dict[str, object]:
        """Every field, the OOB policy as its value: the JSON form shard
        jobs carry and :func:`repro.injection.journal.config_digest`
        hashes."""
        data = {name: getattr(self, name) for name in CONFIG_FIELDS}
        data["oob_policy"] = self.oob_policy.value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignConfig":
        """The inverse of :meth:`to_dict`: missing fields keep their
        defaults, unknown ones raise ``ValueError``."""
        unknown = set(data).difference(CONFIG_FIELDS)
        if unknown:
            raise ValueError("unknown campaign config fields: "
                             + ", ".join(sorted(unknown)))
        if "oob_policy" in data:
            data = dict(data, oob_policy=OobPolicy(data["oob_policy"]))
        return cls(**data)


#: Every :class:`CampaignConfig` field name, in declaration order.
CONFIG_FIELDS = tuple(spec.name for spec in fields(CampaignConfig))

#: Fields that choose how the engine runs, never what it reports, so
#: campaign identity (:func:`repro.injection.journal.config_digest`)
#: leaves them out: partitioning (``jobs``) never changes results, every
#: ``backend`` is observationally identical, replayed states equal eager
#: snapshots (``checkpoint_interval``), records are rebuilt from
#: journaled outcomes (``keep_records``), and pruning replicates exact
#: outcomes while its audit only verifies (``prune``, ``prune_audit``).
ENGINE_ONLY_FIELDS = frozenset({
    "jobs", "backend", "checkpoint_interval", "keep_records", "prune",
    "prune_audit",
})


@dataclass
class CampaignReport:
    """Aggregate results of a campaign."""

    reference: Trace
    injections: int = 0
    counts: Dict[FaultResult, int] = field(default_factory=dict)
    records: List[InjectionRecord] = field(default_factory=list)
    violations: List[InjectionRecord] = field(default_factory=list)
    #: Detection-latency histogram for DETECTED runs: power-of-two bucket
    #: (steps from injection to the fault state, rounded up) -> count.
    #: Deterministic -- a function of the injections alone, identical for
    #: any ``jobs``/backend -- but observational: never part of the
    #: bit-identical parity contract (see ``report_fingerprint``).
    latency_buckets: Dict[int, int] = field(default_factory=dict)
    #: What the supervision/journaling layer did (``None`` for plain
    #: serial runs with neither a journal nor a pool).  Never part of the
    #: bit-identical parity contract -- two runs with different retry
    #: histories still produce equal records, counts and summaries.
    resilience: Optional["ResilienceStats"] = None
    #: Sampled-campaign accounting (multifault campaigns): schedules the
    #: sampler gave up on after bounded resampling (a chosen site kept
    #: yielding no replacement values).  Always 0 for SEU campaigns;
    #: ``injections + discarded_samples`` equals the requested sample
    #: count, so dropped work is never silent.
    discarded_samples: int = 0

    @property
    def masked(self) -> int:
        return self.counts.get(FaultResult.MASKED, 0)

    @property
    def detected(self) -> int:
        return self.counts.get(FaultResult.DETECTED, 0)

    @property
    def silent(self) -> int:
        return self.counts.get(FaultResult.SILENT_CORRUPTION, 0)

    @property
    def coverage(self) -> float:
        """Fraction of injections that were masked or detected."""
        if not self.injections:
            return 1.0
        return (self.masked + self.detected) / self.injections

    def summary(self) -> str:
        parts = [f"{self.injections} injections"]
        for result in FaultResult:
            count = self.counts.get(result, 0)
            if count:
                parts.append(f"{result.value}: {count}")
        parts.append(f"coverage: {self.coverage:.4%}")
        return ", ".join(parts)


def _is_prefix(prefix: Sequence, full: Sequence) -> bool:
    if len(prefix) > len(full):
        return False
    return all(a == b for a, b in zip(prefix, full))


def classify(
    trace: Trace, reference: Trace, error_port: Optional[int] = None
) -> FaultResult:
    """Classify one faulty run against the reference output sequence.

    ``error_port`` enables the software-detection convention: a run that
    halts after announcing on the error port counts as DETECTED when the
    output produced *before* the announcement is a reference prefix.
    """
    if error_port is not None and trace.outcome is Outcome.HALTED:
        outputs = list(trace.outputs)
        announced = False
        while outputs and outputs[-1][0] == error_port:
            outputs.pop()
            announced = True
        if announced:
            if _is_prefix(outputs, reference.outputs):
                return FaultResult.DETECTED
            return FaultResult.SILENT_CORRUPTION
    if trace.outcome is Outcome.FAULT_DETECTED:
        if _is_prefix(trace.outputs, reference.outputs):
            return FaultResult.DETECTED
        return FaultResult.SILENT_CORRUPTION  # detected, but after deviating
    if trace.outcome is Outcome.HALTED:
        if len(trace.outputs) == len(reference.outputs) and \
                _is_prefix(trace.outputs, reference.outputs):
            return FaultResult.MASKED
        return FaultResult.SILENT_CORRUPTION
    if trace.outcome is Outcome.STUCK:
        return FaultResult.STUCK
    return FaultResult.TIMEOUT


def _tail_matches(
    reference_outputs: Sequence[Tuple[int, int]],
    produced: int,
    tail: Sequence[Tuple[int, int]],
) -> bool:
    """Does ``tail`` equal ``reference_outputs[produced:produced+len(tail)]``?

    Compared element-wise in place -- no slices, no list copies.
    """
    return all(
        reference_outputs[produced + index] == pair
        for index, pair in enumerate(tail)
    )


def classify_tail(
    trace: Trace,
    reference: Trace,
    produced: int,
    error_port: Optional[int] = None,
) -> FaultResult:
    """Zero-copy classification of a faulty run resumed mid-execution.

    ``produced`` is the number of reference outputs already emitted before
    the injection point; by construction they are an exact prefix of the
    reference, so only ``trace.outputs`` (the post-injection tail) needs
    comparing.  Equivalent to building the merged output sequence and
    calling :func:`classify`, without materializing it.
    """
    if error_port is not None and trace.outcome is Outcome.HALTED:
        # Software-detection convention (rare path): trailing error-port
        # pops may reach into the pre-injection prefix, so fall back to the
        # general classifier on the merged sequence.
        merged = Trace(
            trace.outcome,
            list(reference.outputs[:produced]) + list(trace.outputs),
            trace.steps,
        )
        return classify(merged, reference, error_port)
    reference_outputs = reference.outputs
    tail = trace.outputs
    if trace.outcome is Outcome.FAULT_DETECTED:
        if produced + len(tail) <= len(reference_outputs) and \
                _tail_matches(reference_outputs, produced, tail):
            return FaultResult.DETECTED
        return FaultResult.SILENT_CORRUPTION
    if trace.outcome is Outcome.HALTED:
        if produced + len(tail) == len(reference_outputs) and \
                _tail_matches(reference_outputs, produced, tail):
            return FaultResult.MASKED
        return FaultResult.SILENT_CORRUPTION
    if trace.outcome is Outcome.STUCK:
        return FaultResult.STUCK
    return FaultResult.TIMEOUT


class ReferenceDidNotHalt(ValueError):
    """The fault-free reference run ended without halting: it ran into
    :attr:`CampaignConfig.max_steps` (``trace.outcome`` is ``RUNNING``),
    got stuck or faulted.  Campaigns need terminating programs."""

    def __init__(self, trace: Trace):
        super().__init__(f"reference run did not halt ({trace.outcome}); "
                         "campaigns need terminating programs")
        self.trace = trace


class ReferenceRun:
    """The fault-free reference run, stored as checkpoints + replay.

    Instead of cloning the full machine state before every dynamic step
    (O(steps x state) memory), a clone is kept every
    ``checkpoint_interval`` steps and :meth:`state_at` reconstructs the
    pre-step state of *any* step by replaying at most
    ``checkpoint_interval - 1`` steps from the nearest checkpoint.  The
    semantics is deterministic (the reference run never consults the
    random source), so replayed states are equal to eager snapshots.
    ``checkpoints[k]`` is the state at step ``k * interval`` exactly,
    whichever engine walked; read it through :meth:`checkpoint`, since a
    fused walk leaves the ones that fell inside a chain to be advanced
    on first use.  ``output_steps`` holds the step of every reference
    output, and :meth:`outputs_before` counts them by bisection.
    """

    __slots__ = ("trace", "output_steps", "checkpoints", "interval",
                 "oob_policy", "compiled", "recording")

    def __init__(
        self,
        trace: Trace,
        output_steps: List[int],
        checkpoints: List[MachineState],
        interval: int,
        oob_policy: OobPolicy,
        compiled: Optional[CompiledExec] = None,
        recording: Optional["Recording"] = None,
    ):
        self.trace = trace
        #: The step that emitted each output, in output order (one output
        #: per step at most); :meth:`outputs_before` counts them.
        self.output_steps = output_steps
        self.checkpoints = checkpoints
        self.interval = interval
        self.oob_policy = oob_policy
        #: The shared compilation of the program, when the campaign runs on
        #: the compiled backend.  Never pickled: forked pool workers
        #: inherit the driver's reference, compilation included, and every
        #: other worker process walks its own.
        self.compiled = compiled
        #: What the walk recorded per executed instruction, or ``None``
        #: when the run did not halt or booted mid-instruction.
        self.recording = recording

    @property
    def num_steps(self) -> int:
        return self.trace.steps

    def outputs_before(self, step_index: int) -> int:
        """The number of outputs emitted before step ``step_index`` (what
        a faulty run injected there has already produced)."""
        return bisect_left(self.output_steps, step_index)

    def tail(self, step_index: int,
             stop: Optional[int] = None) -> Tuple[Tuple[int, int], ...]:
        """The fault-free outputs after step ``step_index``: what every
        MASKED run reproduces, and what the journal's ``"="`` tail
        sentinel expands to.  With ``stop``, only those emitted before
        step ``stop``: the output of a run that tracked the reference
        until it was detected (or handed to another engine) there."""
        outputs = self.trace.outputs
        end = len(outputs) if stop is None or stop >= self.trace.steps \
            else self.outputs_before(stop)
        return tuple(outputs[self.outputs_before(step_index):end])

    def checkpoint(self, index: int) -> MachineState:
        """The state at step ``index * interval``, shared: callers must
        not mutate it.  A fused walk leaves a checkpoint that fell inside
        a chain as ``(state, count)``, a clone taken ``count`` steps
        before the boundary; it is advanced on its first use."""
        entry = self.checkpoints[index]
        if type(entry) is tuple:
            state, count = entry
            state = state.clone()  # other boundaries may share the clone
            _advance(state, count, self.compiled.base, self.oob_policy)
            self.checkpoints[index] = entry = state
        return entry

    def state_at(self, step_index: int) -> MachineState:
        """A fresh machine state as it was *before* step ``step_index``.

        The caller owns the returned state and may mutate it freely.
        """
        if not 0 <= step_index < self.trace.steps:
            raise IndexError(
                f"step {step_index} outside the reference run "
                f"(0..{self.trace.steps - 1})"
            )
        interval = self.interval
        state = self.checkpoint(step_index // interval).clone()
        oob_policy = self.oob_policy
        for _ in range(step_index % interval):
            _semantics_step(state, oob_policy)
        return state


class SettleRules:
    """How a run faulted before step ``step_index`` ends when it provably
    tracks the reference: detected at step ``t`` after emitting exactly
    the reference outputs before ``t`` (:meth:`detected`), or at the
    reference's ``halt`` with the whole reference tail (``masked``; an
    error port can still reclassify it).  The pruner predicts class
    outcomes by these rules and the vector engine settles lanes by them.
    """

    __slots__ = ("_reference", "_step", "_tails", "full_tail", "masked")

    def __init__(self, reference: ReferenceRun, step_index: int,
                 error_port: Optional[int]):
        self._reference = reference
        self._step = step_index
        self._tails: Dict[int, tuple] = {}  # one shared tuple per step
        self.full_tail = reference.tail(step_index)
        steps = reference.num_steps - step_index
        result = FaultResult.MASKED
        if error_port is not None:
            # A trailing error-port write can reclassify even an exact run.
            result = classify_tail(
                Trace(Outcome.HALTED, list(self.full_tail), steps),
                reference.trace, reference.outputs_before(step_index),
                error_port)
        self.masked = (result, self.full_tail, steps)

    def detected(self, t: int) -> Tuple[FaultResult, tuple, int]:
        """A check fires at step ``t``: DETECTED with or without an error
        port (the port convention only reinterprets HALTED runs)."""
        tail = self._tails.get(t)
        if tail is None:
            tail = self._tails[t] = self._reference.tail(self._step, t)
        return (FaultResult.DETECTED, tail, t - self._step + 1)


# ---------------------------------------------------------------------------
# The reference recording
# ---------------------------------------------------------------------------

#: Register event kinds of the pruner's def-use walk
#: (:mod:`repro.injection.prune`), in increasing "gives up more" order.
#: READ: the corrupt magnitude flows into data/control -- unclassified.
#: CHECK: a TAL_FT check that detects any corrupt != reference value.
#: WRITE: the location is overwritten with a reference value -- the
#: corruption dies.
#: LOADADDR: the corrupt value is used as a load address (classifiable
#: when it cannot alias any address the run ever maps).
#: SPAWN_*: a green store / green jump copies the corruption into a new
#: location (a store-queue pair, the destination register) while the
#: source stays live.
(EV_READ, EV_CHECK, EV_WRITE, EV_LOADADDR,
 EV_SPAWN_DEST, EV_SPAWN_ADDR, EV_SPAWN_VAL, EV_SPAWN_BOTH) = range(8)

#: A recorded register event is one int, ``step << EV_BITS | kind``.
EV_BITS = 3
EV_MASK = (1 << EV_BITS) - 1

#: Store-queue event kinds (one per queue-touching instruction).
QE_PUSH, QE_POP, QE_SCAN = range(3)

#: What the walk reads from the live state at an instruction, beyond its
#: static first-touch events.
(_LIVE_NONE, _LIVE_BRANCH, _LIVE_LOAD_GREEN, _LIVE_STORE_GREEN,
 _LIVE_STORE_BLUE, _LIVE_STORE_PLAIN, _LIVE_UNMODELED) = range(7)

#: :meth:`Recording.live_at` keeps the live mask before every
#: ``_LIVE_STRIDE``-th instruction; at the default checkpoint interval
#: (32 steps) those are exactly the instructions the checkpoints fall on.
_LIVE_STRIDE = 16


class Recording:
    """What the fault-free walk recorded, one entry per executed
    instruction, for the pruner and the vector engine.  The walk fills
    the live parts as it runs (queue events, ``universe``,
    ``commit_addrs``) and :meth:`finish` the rest from its dispatch
    log, so a fused walk and an interpreter walk record the same run.

    ``pcs[i]`` and ``instrs[i]`` are the fetch address and instruction of
    the ``i``-th instruction, whose execute step is ``2 * i + 1``.
    ``reg_events[name]`` holds, in step order, the first semantic touch
    (``EV_*``) of that register at each execute step that touches it,
    each packed as ``step << EV_BITS | kind`` into an int64 array (no
    object per event).  ``queue_steps``/``queue_events`` record every
    queue-touching instruction in order (``QE_*``).  ``universe`` is
    every address that can ever be mapped (boot memory and queue, plus
    every green/plain store address): a corrupt load address outside it
    is guaranteed out-of-bounds.  ``commit_addrs`` is every address the
    run commits to memory.  ``prunable`` is false when the run executed
    something the pruner does not model.  ``liveness[pc]`` is the
    liveness transfer of the instruction at each executed address, as
    ``(kill, if_live, always)`` register names (see :func:`_touches`).
    ``views`` holds what consumers derive from the recording (the vector
    engine's decoded schedule, the scalar finisher's live registers per
    checkpoint); they live and die with it.
    """

    __slots__ = ("reg_names", "pcs", "instrs", "reg_events", "queue_steps",
                 "queue_events", "universe", "commit_addrs", "steps",
                 "prunable", "liveness", "views")

    def __init__(self, boot: MachineState):
        self.reg_names = tuple(boot.regs._regs)
        self.pcs: List[int] = []
        self.instrs: List = []
        self.reg_events: Dict[str, array] = {}
        self.queue_steps: List[int] = []
        self.queue_events: List[tuple] = []
        self.universe = set(boot.memory)
        self.universe.update(address for address, _ in boot.queue.pairs())
        self.commit_addrs = set()
        self.steps = 0
        self.prunable = True
        self.liveness: Dict[int, tuple] = {}
        self.views: Dict[str, object] = {}

    def pins(self, base: MachineState, step_index: int) -> bool:
        """Does ``base`` sit exactly where the recording puts the state
        before step ``step_index``?  Always true for states from
        :meth:`ReferenceRun.state_at`; consumers decline on anything
        else rather than guess."""
        index = step_index // 2
        if tuple(base.regs._regs) != self.reg_names \
                or not 0 <= index < len(self.pcs):
            return False
        regs = base.regs._regs
        pc = self.pcs[index]
        if regs[PC_G][1] != pc or regs[PC_B][1] != pc:
            return False
        if step_index % 2:
            return base.ir == self.instrs[index]
        return base.ir is None

    def live_at(self, step: int) -> Callable:
        """An ``itemgetter`` over the registers the reference still needs
        from step ``step`` on: the program counters and every register a
        later load address, store, branch, jump or check still needs.  A
        register outside it is overwritten before any such use or never
        used again; at most it feeds ALU results that are themselves
        never needed, and no ALU op can fault, so its value cannot change
        the rest of the run.  Only meaningful on a ``prunable`` recording
        (the walk models every instruction).  One backward pass
        (:meth:`_live_masks`) runs on the first call; its masks and each
        step's getter are cached in :attr:`views`."""
        cache = self.views.setdefault("live", {})
        getter = cache.get(step)
        if getter is None:
            faint = self.views.get("live_masks")
            if faint is None:
                faint = self.views["live_masks"] = self._live_masks()
            masks, transfer = faint
            index = step // 2  # the instruction ``step`` falls on
            kept = -(-index // _LIVE_STRIDE)
            mask = _live_before(
                masks[kept], self.pcs[index:kept * _LIVE_STRIDE], transfer)
            getter = cache[step] = itemgetter(
                *[name for bit, name in enumerate(self.reg_names)
                  if mask >> bit & 1])
        return getter

    def _live_masks(self) -> tuple:
        """Faint-variable liveness, one backward pass over the executed
        instructions: ``(masks, transfer)``, where ``masks[k]`` is the
        live-register mask (bit ``i`` is ``reg_names[i]``) before
        instruction ``k * _LIVE_STRIDE`` (0 past the last one) and
        ``transfer`` maps an address to its transfer as bitmasks."""
        bits = {name: 1 << bit for bit, name in enumerate(self.reg_names)}
        transfer = {pc: _masks(uses, bits)
                    for pc, uses in self.liveness.items()}.__getitem__
        pcs = self.pcs
        masks = [0] * (-(-len(pcs) // _LIVE_STRIDE) + 1)
        live = 0
        end = len(pcs)
        for kept in range(len(masks) - 2, -1, -1):
            start = kept * _LIVE_STRIDE
            live = masks[kept] = _live_before(live, pcs[start:end],
                                              transfer)
            end = start
        return masks, transfer

    def _bind(self, touches) -> tuple:
        seen = set()
        bound = []
        for name, kind in touches:
            if name in seen:
                continue  # the first touch within an instruction wins
            seen.add(name)
            events = self.reg_events.setdefault(name, array("q"))
            bound.append((events.append, kind))
        return tuple(bound)

    def finish(self, steps: int, log: List[list],
               shapes: Dict[int, tuple], taken) -> "Recording":
        """Seal the recording of a halted run of ``steps`` steps from the
        walk's dispatch log (see :func:`_walk`).  :attr:`pcs` and
        :attr:`instrs` are the entries' addresses and instructions in
        order.  Each entry binds its static register events once per
        walk, each event to its register's array with its step as an
        offset from the entry's first execute step.  ``shapes[pc]`` is
        the :func:`_shape` of each executed address, and ``taken`` holds
        the execute step of every branch the reference took, which
        records the branch's ``taken_touches`` instead of its
        ``touches``.  First touches depend only on register names, so
        each address binds its events once."""
        self.steps = steps
        self.pcs = list(chain.from_iterable(map(itemgetter(1), log)))
        self.instrs = list(chain.from_iterable(map(itemgetter(2), log)))
        liveness = self.liveness
        bound: Dict[int, tuple] = {}

        def bind(addresses) -> tuple:
            """``(events, branches)`` of an entry: ``(append, offset |
            kind)`` per static event, and ``(offset, touches,
            taken_touches)`` per branch.  Fusion puts a chain's
            branches last, so its static events all come before them."""
            events = []
            branches = []
            for j, pc in enumerate(addresses):
                pair = bound.get(pc)
                if pair is None:
                    live, touches, taken_touches, _, uses = shapes[pc]
                    liveness[pc] = uses
                    if live == _LIVE_UNMODELED:
                        self.prunable = False
                    pair = bound[pc] = (
                        self._bind(touches), None if taken_touches is None
                        else self._bind(taken_touches))
                untaken, taken_events = pair
                if taken_events is None:
                    shift = 2 * j << EV_BITS
                    events.extend((append, shift | kind)
                                  for append, kind in untaken)
                else:
                    branches.append((2 * j, untaken, taken_events))
            return tuple(events), tuple(branches)

        t = 1
        for entry in log:
            template = entry[6]
            if template is None:
                template = entry[6] = bind(entry[1])
            events, branches = template
            packed = t << EV_BITS
            for append, offset in events:
                append(packed + offset)
            for offset, untaken, taken_events in branches:
                at = t + offset
                packed = at << EV_BITS
                for append, kind in (taken_events if at in taken
                                     else untaken):
                    append(packed | kind)
            t += entry[0]
        self.reg_events = {name: events
                           for name, events in self.reg_events.items()
                           if events}
        self.universe = frozenset(self.universe)
        self.commit_addrs = frozenset(self.commit_addrs)
        return self


def _shape(instr, reg_names) -> tuple:
    """:func:`_touches` of ``instr``, for a run over ``reg_names``: an
    instruction whose live read names a register outside the bank is
    unmodeled (the reference itself fails on it; the walk must not fail
    first)."""
    live, touches, taken, reg, uses = _touches(instr)
    if reg is not None and reg not in reg_names:
        return _LIVE_UNMODELED, [], None, reg, uses
    return live, touches, taken, reg, uses


def _touches(instr) -> tuple:
    """The pruner's register events of ``instr`` in the order
    :mod:`repro.core.semantics` touches them, and its liveness transfer,
    as ``(live, touches, taken_touches, reg, uses)`` (see
    :func:`_shape`).  Only the first touch counts: ``add r1,
    r1, r2`` *reads* a corrupt r1 before overwriting it.

    ``uses`` is ``(kill, if_live, always)`` for :meth:`Recording.live_at`:
    the registers the instruction overwrites, the ones it reads only into
    them, and the ones it needs whatever follows -- a load address (a
    corrupt one can trap or change a green load's queue scan), both store
    operands, a branch condition, a jump or branch target and ``d`` at
    every jump and branch (a branch's transfer covers both directions);
    ``None`` needs every register.  An ALU op or ``mov`` reads its sources
    only into ``rd``: this assumes every op in
    :data:`repro.core.instructions.ALU_OPS` is total, so an op that can
    fault must put its sources in ``always``."""
    if isinstance(instr, ArithRRR):
        return (_LIVE_NONE, [(instr.rs, EV_READ), (instr.rt, EV_READ),
                             (instr.rd, EV_WRITE)], None, None,
                ((instr.rd,), (instr.rs, instr.rt), ()))
    if isinstance(instr, ArithRRI):
        return (_LIVE_NONE, [(instr.rs, EV_READ), (instr.rd, EV_WRITE)],
                None, None, ((instr.rd,), (instr.rs,), ()))
    if isinstance(instr, Mov):
        return (_LIVE_NONE, [(instr.rd, EV_WRITE)], None, None,
                ((instr.rd,), (), ()))
    if isinstance(instr, Load):
        live = _LIVE_LOAD_GREEN if instr.color is Color.GREEN \
            else _LIVE_NONE
        return (live, [(instr.rs, EV_LOADADDR), (instr.rd, EV_WRITE)],
                None, instr.rs, ((instr.rd,), (), (instr.rs,)))
    if isinstance(instr, Store):
        uses = ((), (), (instr.rd, instr.rs))
        if instr.color is not Color.GREEN:
            return (_LIVE_STORE_BLUE,
                    [(instr.rd, EV_CHECK), (instr.rs, EV_CHECK)], None, None,
                    uses)
        if instr.rd == instr.rs:
            touches = [(instr.rd, EV_SPAWN_BOTH)]
        else:
            touches = [(instr.rd, EV_SPAWN_ADDR), (instr.rs, EV_SPAWN_VAL)]
        return _LIVE_STORE_GREEN, touches, None, instr.rd, uses
    if isinstance(instr, Jmp):
        return (_LIVE_NONE, _transfer(instr.color, instr.rd), None, None,
                ((), (), (DEST, instr.rd)))
    if isinstance(instr, Bz):
        return (_LIVE_BRANCH, [(instr.rz, EV_READ), (DEST, EV_CHECK)],
                [(instr.rz, EV_READ)] + _transfer(instr.color, instr.rd),
                instr.rz, ((), (), (instr.rz, DEST, instr.rd)))
    if isinstance(instr, Halt):
        return _LIVE_NONE, [], None, None, ((), (), ())
    if isinstance(instr, PlainLoad):
        return (_LIVE_NONE, [(instr.rs, EV_LOADADDR), (instr.rd, EV_WRITE)],
                None, None, ((instr.rd,), (), (instr.rs,)))
    if isinstance(instr, PlainStore):
        return (_LIVE_STORE_PLAIN, [(instr.rd, EV_READ), (instr.rs, EV_READ)],
                None, instr.rd, ((), (), (instr.rd, instr.rs)))
    if isinstance(instr, PlainJmp):
        return (_LIVE_NONE, [(instr.rd, EV_READ), (PC_G, EV_WRITE),
                             (PC_B, EV_WRITE)], None, None,
                ((), (), (instr.rd,)))
    if isinstance(instr, PlainBz):
        return (_LIVE_BRANCH, [(instr.rz, EV_READ)],
                [(instr.rz, EV_READ), (instr.rd, EV_READ), (PC_G, EV_WRITE),
                 (PC_B, EV_WRITE)], instr.rz, ((), (), (instr.rz, instr.rd)))
    return _LIVE_UNMODELED, [], None, None, None


def _live_before(live: int, pcs: List[int], transfer: Callable) -> int:
    """The live mask before the instructions at ``pcs``, given ``live``
    after them: each one's transfer applied backwards."""
    for kill, if_live, always in map(transfer, reversed(pcs)):
        if live & kill:  # the destination is needed
            live = live & ~kill | if_live | always
        else:
            live |= always
    return live


def _masks(uses, bits: Dict[str, int]) -> tuple:
    """``uses`` (see :func:`_touches`) as bitmasks over ``bits``; a name
    outside the bank has no value to compare.  Every fetch needs both
    program counters."""
    if uses is None:
        return 0, 0, (1 << len(bits)) - 1
    get = bits.get
    kill, if_live, always = (sum({get(name, 0) for name in names})
                             for names in uses)
    return kill, if_live, always | bits[PC_G] | bits[PC_B]


def _transfer(color: Color, rd: str) -> list:
    """First touches of a taken jump or branch."""
    if color is Color.GREEN:
        return [(DEST, EV_CHECK), (rd, EV_SPAWN_DEST)]
    if rd == DEST:
        # Degenerate blue transfer: the check compares the register
        # against itself, so a nonzero corruption passes and the machine
        # jumps to it.
        checks = [(DEST, EV_READ)]
    else:
        checks = [(DEST, EV_CHECK), (rd, EV_CHECK)]
    return checks + [(PC_G, EV_WRITE), (PC_B, EV_WRITE)]


#: Rules of a branch the reference takes.
_TAKEN_RULES = frozenset(("bzG-taken", "bzB-taken", "bz-taken"))

#: The step count of a chain the walk runs one instruction at a time.
_UNFUSED_STEPS = 1 << 62

_PCS = frozenset((PC_G, PC_B))


def _writes(instr) -> frozenset:
    """The registers ``instr`` can write, program counters included."""
    if isinstance(instr, (ArithRRR, ArithRRI, Mov, Load, PlainLoad)):
        return _PCS | {instr.rd}
    if isinstance(instr, (Jmp, Bz)):
        return _PCS | {DEST}
    return _PCS


def _read_after(live: int, reg: str, j: int, writes: List[frozenset],
                queued: List[bool]) -> bool:
    """Does the state after a dispatch of a chain still hold what the
    chain's ``j``-th instruction, a load or a store, read live?  It does
    when no instruction from ``j`` on writes ``reg`` and, for a green
    load's queue scan and a blue store's pop, none after ``j`` pushes or
    pops the store queue.  ``writes[k]`` and ``queued[k]`` say what the
    chain's ``k``-th instruction writes and whether it pushes or pops.
    A blue store's commit address is its address register on the
    success path."""
    if reg in frozenset().union(*writes[j:]):
        return False
    return not ((live == _LIVE_LOAD_GREEN or live == _LIVE_STORE_BLUE)
                and any(queued[j + 1:]))


def _plan_entry(compiled: CompiledExec, pc: int,
                shape: Callable[[int], tuple]) -> tuple:
    """What the walk's log entry of the chain at ``pc`` holds whatever
    the run: ``(steps, addresses, instructions, entry, backs, ops)``,
    where ``ops`` lists ``(offset, live, reg)`` per load or store
    (``None`` when there are none, or when the chain runs unfused and
    ``steps`` is ``_UNFUSED_STEPS``: a read the state after the dispatch
    no longer holds, see :func:`_read_after`).  Plans the chain if no
    run has."""
    fn = compiled.fast[pc]
    if fn is compiled.planner:
        fn = compiled.plan(pc)
    span = tuple(range(pc, pc + compiled.extent[pc]))
    nsteps = 2 * len(span)
    instrs = tuple(map(compiled.code.__getitem__, span))
    writes = [_writes(instr) for instr in instrs]
    queued = [type(instr) is Store for instr in instrs]
    ops = []
    backs = []
    for j, address in enumerate(span):
        live, _, _, reg, _ = shape(address)
        if live == _LIVE_NONE or live == _LIVE_UNMODELED:
            continue
        if live == _LIVE_BRANCH:
            backs.append(nsteps - 2 * j - 1)
            continue
        if live == _LIVE_STORE_BLUE:
            reg = instrs[j].rd  # the address it commits, after it
        if not _read_after(live, reg, j, writes, queued):
            return _UNFUSED_STEPS, span, instrs, fn, None, None
        ops.append((2 * j + 1, live, reg))
    return nsteps, span, instrs, fn, tuple(backs) or None, \
        tuple(ops) or None


def _walk(state: MachineState, compiled: Optional[CompiledExec],
          interval: int, max_steps: int, oob_policy: OobPolicy,
          recording: Recording) -> tuple:
    """Run ``state`` fault-free for at most ``max_steps`` steps, taking a
    checkpoint at every multiple of ``interval`` and recording what
    :class:`Recording` needs.  Returns ``(outputs, output_steps,
    checkpoints, steps, log, shapes, taken)``: ``log`` holds one entry
    per dispatch, in order, and :meth:`Recording.finish` takes the rest.

    With a compilation the walk dispatches through ``compiled.fast``, the
    fused chains :func:`~repro.exec.run_compiled` uses.  Each chain start
    gets one entry per walk, ``[steps, addresses, instructions, entry,
    act, backs, events]``: its step count when no check fires
    (:attr:`CompiledExec.extent`), the addresses and instructions it
    executes, its entry, the wrapper that runs it and takes its loads'
    and stores' live reads from the state after it (``None`` when it
    has none), how far from its end its branches execute
    (their directions are read from the rules the dispatch returns), and
    its static register events once :meth:`Recording.finish` binds
    them (see :func:`_plan_entry` for what every walk shares).  A chain
    that would reach a
    checkpoint boundary runs fused all the same; the checkpoint is a
    clone of the state before the chain, advanced to the boundary on the
    per-instruction closures when it is first used
    (:meth:`ReferenceRun.checkpoint`).  A chain with a read the state
    after it no longer holds, a chain past the step cap, and everything
    the chains cannot drive (a pending ``ir``, disagreeing program
    counters) run on the interpreter, one step at a time: each
    instruction gets an entry of its own, its reads are taken between
    fetch and execute, and every checkpoint is exact.
    """
    regs = state.regs._regs
    code = state.code
    queue = state.queue._pairs
    obs = state.observable_min
    reg_names = recording.reg_names
    outputs: List[Tuple[int, int]] = []
    emit = outputs.append
    output_steps: List[int] = []
    output_step = output_steps.append
    checkpoints: List[MachineState] = [state.clone()]
    log: List[list] = []
    log_append = log.append
    singles: Dict[int, list] = {}
    if compiled is not None:
        # What the walk derives from the code alone is shared by every
        # walk over the compilation (its bank holds every register the
        # closures name, so no shape depends on the run's bank).
        plans, shapes = compiled.views.setdefault("reference-walk",
                                                  ({}, {}))
    else:
        plans, shapes = {}, {}
    taken = set()
    taken_add = taken.add
    taken_rules = _TAKEN_RULES
    queue_step = recording.queue_steps.append
    queue_event = recording.queue_events.append
    universe_add = recording.universe.add
    commit_add = recording.commit_addrs.add
    push = (QE_PUSH,)
    running = Status.RUNNING
    rand = _zero_rand

    def shape(pc: int) -> tuple:
        found = shapes.get(pc)
        if found is None:
            found = shapes[pc] = _shape(code[pc], reg_names)
        return found

    def scan(reg: str) -> tuple:
        """A green load's queue event: its address and the queue index
        it hits (-1 for memory)."""
        address = regs[reg][1]
        for index, pair in enumerate(queue):
            if pair[0] == address:
                return QE_SCAN, address, index
        return QE_SCAN, address, -1

    def note(pc: int, t: int) -> None:
        """Log the instruction at ``pc`` executing at step ``t`` on its
        own, and record its live reads from the state between its fetch
        and its execute."""
        live, _, _, reg, _ = shape(pc)
        entry = singles.get(pc)
        if entry is None:
            entry = singles[pc] = [2, (pc,), (code[pc],), None, None, None,
                                   None]
        log_append(entry)
        if live == _LIVE_BRANCH:
            if regs[reg][1] == 0:
                taken_add(t)
        elif live == _LIVE_LOAD_GREEN:
            queue_step(t)
            queue_event(scan(reg))
        elif live == _LIVE_STORE_GREEN:
            universe_add(regs[reg][1])
            queue_step(t)
            queue_event(push)
        elif live == _LIVE_STORE_BLUE:
            if queue:
                commit_add(queue[-1][0])
                queue_step(t)
                queue_event((QE_POP, len(queue)))
            else:  # the reference faults here
                recording.prunable = False
        elif live == _LIVE_STORE_PLAIN:
            address = regs[reg][1]
            universe_add(address)
            commit_add(address)

    def recipe(pc: int) -> list:
        """The log entry of the chain at ``pc``."""
        plan = plans.get(pc)
        if plan is None:
            plan = plans[pc] = _plan_entry(compiled, pc, shape)
        nsteps, span, instrs, fn, backs, ops = plan
        if ops is None:
            return [nsteps, span, instrs, fn, None, backs, None]

        def act(t0: int) -> tuple:
            count = len(outputs)
            ret = fn(state, regs, emit, rand)
            emitted = len(outputs) - count
            for offset, live, reg in ops:
                t = t0 + offset
                if live == _LIVE_LOAD_GREEN:
                    queue_step(t)
                    queue_event(scan(reg))
                    continue
                address = regs[reg][1]
                if live == _LIVE_STORE_GREEN:
                    universe_add(address)
                    queue_step(t)
                    queue_event(push)
                    continue
                if live == _LIVE_STORE_PLAIN:
                    universe_add(address)
                else:  # a blue store: it popped the entry it committed
                    queue_step(t)
                    queue_event((QE_POP, len(queue) + 1))
                commit_add(address)
                # A store emits iff it commits an observable address; a
                # check that fires ends the chain before its own store.
                if emitted and address >= obs:
                    output_step(t)
                    emitted -= 1
            return ret

        return [nsteps, span, instrs, fn, act, backs, None]

    chains: Dict[int, list] = {}
    chain_get = chains.get
    base = compiled.base if compiled is not None else {}
    steps = 0
    boundary = interval  # the next checkpoint step
    stop = min(boundary, max_steps)
    unfused = 0  # instructions of an unfused chain still to run
    while steps < max_steps and state.status is running:
        if base and not unfused and state.ir is None:
            while True:  # the fused loop
                pcg = regs[PC_G][1]
                if pcg != regs[PC_B][1]:
                    break
                chain = chain_get(pcg)
                if chain is None:
                    if pcg not in base:
                        break
                    chain = chains[pcg] = recipe(pcg)
                nsteps, _, _, fn, act, backs, _ = chain
                start = steps
                if start + nsteps < stop:
                    ret = fn(state, regs, emit, rand) if act is None \
                        else act(start)
                    steps += len(ret)
                else:  # the chain reaches a checkpoint boundary or the cap
                    if start + nsteps > max_steps:
                        break  # past the cap, or unfused
                    before = state.clone() if start + nsteps > boundary \
                        else None
                    ret = fn(state, regs, emit, rand) if act is None \
                        else act(start)
                    steps += len(ret)
                    while boundary <= steps:
                        if boundary == steps:
                            if state.status is running:
                                checkpoints.append(state.clone())
                        else:
                            checkpoints.append((before, boundary - start))
                        boundary += interval
                    stop = min(boundary, max_steps)
                log_append(chain)
                if state.status is not running:
                    break
                if backs is not None:
                    for back in backs:
                        if ret[-back] in taken_rules:
                            taken_add(steps - back)
            if state.status is not running:
                break
            pcg = regs[PC_G][1]
            chain = chain_get(pcg) if pcg == regs[PC_B][1] else None
            if chain is not None and chain[0] == _UNFUSED_STEPS:
                unfused = len(chain[1])
        fetch = state.ir is None
        result = _semantics_step(state, oob_policy)
        if result.outputs:
            outputs.extend(result.outputs)
            output_steps.extend([steps] * len(result.outputs))
        steps += 1
        if fetch:
            if state.ir is not None:
                note(regs[PC_G][1], steps)
        elif unfused:
            unfused -= 1
        if steps == boundary:
            if state.status is running:
                checkpoints.append(state.clone())
            boundary += interval
            stop = min(boundary, max_steps)
    return outputs, output_steps, checkpoints, steps, log, shapes, taken


def _discard(pair) -> None:
    pass


def _zero_rand() -> int:
    return 0  # the reference semantics never consults rand


def _advance(state: MachineState, count: int, base: Dict[int, Callable],
             oob_policy: OobPolicy) -> None:
    """Run ``state`` fault-free ``count`` steps further: whole
    instructions on their closures, a pending execute and a last lone
    fetch on the interpreter.  Its outputs were emitted already."""
    regs = state.regs._regs
    if state.ir is not None:
        _semantics_step(state, oob_policy)
        count -= 1
    while count >= 2:
        base[regs[PC_G][1]](state, regs, _discard, _zero_rand)
        count -= 2
    if count:
        _semantics_step(state, oob_policy)


def _reference_run(program: Program, config: CampaignConfig) -> ReferenceRun:
    """Fault-free reference run with sparse checkpoints and a
    :class:`Recording` of every instruction it executes.

    On a compiled program the walk dispatches the fused chains
    :func:`~repro.exec.run_compiled` uses, planning any it reaches
    first; otherwise it steps the interpreter (:func:`_walk`).  Either
    way its trace, output steps, checkpoint states and recording are
    the same: checkpoints stand for exactly the multiples of
    ``checkpoint_interval``, and which chains the process had planned
    before never shows.
    """
    state = program.boot()
    oob_policy = config.oob_policy
    interval = max(1, config.checkpoint_interval)
    compiled = None
    if config.backend in ("compiled", "vector"):
        # The vector backend shares the compilation: its reference run is
        # identical, and its per-lane fallbacks run compiled.
        compiled = compiled_for(state, oob_policy)
    # Instruction i executes at step 2i + 1 only in a run that boots
    # between instructions.
    recordable = state.ir is None
    recording = Recording(state)
    outputs, output_steps, checkpoints, steps, log, shapes, taken = _walk(
        state, compiled, interval, config.max_steps, oob_policy, recording)
    if state.status is Status.HALTED:
        outcome = Outcome.HALTED
    elif state.status is Status.FAULT_DETECTED:
        outcome = Outcome.FAULT_DETECTED
    else:
        outcome = Outcome.RUNNING
    trace = Trace(outcome, outputs, steps)
    return ReferenceRun(
        trace, output_steps, checkpoints, interval, oob_policy, compiled,
        recording.finish(steps, log, shapes, taken)
        if recordable and outcome is Outcome.HALTED else None)


def _injection_steps(total: int, config: CampaignConfig) -> List[int]:
    """The dynamic steps a campaign injects at, evenly sampled.

    Candidates are every ``step_stride``-th step; when
    ``max_injection_steps`` caps them the cap is met exactly (when enough
    candidates exist) with evenly spaced picks that always include the
    first candidate and the last -- the tail of long runs is never
    skipped.
    """
    candidates = range(0, total, config.step_stride)
    cap = config.max_injection_steps
    count = len(candidates)
    if cap is None or count <= cap:
        return list(candidates)
    if cap <= 0:
        return []
    if cap == 1:
        return [candidates[0]]
    span = (count - 1) / (cap - 1)
    return [candidates[round(index * span)] for index in range(cap)]


def _step_rng(config: CampaignConfig, step_index: int) -> Optional[random.Random]:
    """The per-injection-step RNG.

    Seeded from ``(seed, step_index)`` rather than shared across the
    campaign, so any partition of the steps across workers draws exactly
    the same values as the serial loop -- the determinism that makes
    ``jobs=N`` bit-identical to ``jobs=1``.  (String seeding hashes with
    SHA-512, stable across processes and interpreter runs.)
    """
    if config.seed is None:
        return None
    return random.Random(f"{config.seed}:{step_index}")


#: One faulty run, as produced by a worker: (fault, classification,
#: post-injection outputs, steps from injection to termination).
StepOutcome = Tuple[Fault, FaultResult, Tuple[Tuple[int, int], ...], int]


def _enumerate_step_faults(
    program: Program,
    config: CampaignConfig,
    base: MachineState,
    step_index: int,
    rng: Optional[random.Random],
) -> List[Fault]:
    """The fault list of one injection step, in deterministic order.

    Consumes the per-step RNG exactly as the historical inline loop did
    (site sampling first, then one ``representative_values`` draw per
    site), so every backend -- and every jobs/journal combination --
    enumerates byte-identical campaigns.
    """
    sites = list(fault_sites(base))
    if config.max_sites_per_step is not None \
            and len(sites) > config.max_sites_per_step:
        sampler = rng if rng is not None else random.Random(step_index)
        sites = sampler.sample(sites, config.max_sites_per_step)
    skip_ineffective = config.skip_ineffective
    faults: List[Fault] = []
    for site in sites:
        values = representative_values(base, site, program, rng)
        if config.max_values_per_site is not None:
            values = values[: config.max_values_per_site]
        for value in values:
            fault = with_value(site, value)
            if skip_ineffective and not is_effective(base, fault):
                continue
            faults.append(fault)
    return faults


def _run_faults(
    program: Program,
    config: CampaignConfig,
    reference: ReferenceRun,
    budget: int,
    step_index: int,
    base: MachineState,
    faults: List[Fault],
) -> List[StepOutcome]:
    """Execute ``faults`` against ``base`` on the configured backend.

    The unpruned execution core: the vector batch when configured (with
    scalar fallthrough), else the scalar loop (:func:`_run_scalar`).  The
    pruning engine calls this on class representatives and unclassified
    faults; ``_run_step`` calls it on the whole fault list when pruning
    is off.
    """
    if config.backend == "vector" and faults:
        from repro.injection.batch import run_step_batch

        outcomes = run_step_batch(program, config, reference, budget,
                                  step_index, base, faults)
        if outcomes is not None:
            return outcomes
        # Unvectorizable step (exotic state or program): run it scalar.
    return _run_scalar(config, reference, budget, step_index, base,
                       _injected(base, faults, step_index), run_compiled)


def _injected(
    base: MachineState, faults: List[Fault], step_index: int,
) -> Iterator[Tuple[Fault, MachineState, int]]:
    """One fresh lane per fault: a clone of ``base`` with the fault
    applied, built only when the scalar finisher reaches it."""
    for fault in faults:
        faulty = base.clone()
        apply_fault(faulty, fault)
        yield fault, faulty, step_index


def _run_scalar(
    config: CampaignConfig,
    reference: ReferenceRun,
    budget: int,
    step_index: int,
    base: MachineState,
    lanes,
    run_compiled: Callable[..., Trace],
) -> List[StepOutcome]:
    """Finish faulty runs on the compiled engine (or the interpreter) and
    classify them.

    ``lanes`` yields ``(fault, state, t)``: a faulty state before step
    ``t`` that has emitted exactly the reference outputs since the
    injection before ``step_index`` -- ``t == step_index`` for a fresh
    injection, later for a vector lane retired mid-run.  ``run_compiled``
    is the caller's binding of :func:`repro.exec.run_compiled`, so a
    per-layer trace tells the vector engine's lane fallbacks apart.

    With ``config.prune`` a run stops where it rejoins the reference
    (:func:`_run_rejoining`) and returns exactly what finishing it would
    have; without it every run goes to its end.
    """
    produced = reference.outputs_before(step_index)
    oob_policy = config.oob_policy
    error_port = config.error_port
    # All faulty states share ``base``'s register bank (zaps never add or
    # remove registers, and retired vector lanes keep the bank's names),
    # so one supports() check covers the whole step.
    compiled = reference.compiled
    if compiled is not None and not compiled.supports(base):
        compiled = None
    if compiled is not None:
        def run(state: MachineState, max_steps: int) -> Trace:
            return run_compiled(state, compiled, max_steps=max_steps)
    else:
        def run(state: MachineState, max_steps: int) -> Trace:
            return Machine(state, oob_policy=oob_policy,
                           backend="step").run(max_steps=max_steps)
    rejoins = _rejoin_check(reference) if config.prune else None
    converged = skipped = 0
    outcomes = []
    for fault, state, t in lanes:
        max_steps = budget - (t - step_index)
        if rejoins is None:
            trace = run(state, max_steps)
        else:
            trace, saved = _run_rejoining(reference, run, rejoins, state, t,
                                          max_steps)
            if saved:
                converged += 1
                skipped += saved
        if t != step_index:
            trace = Trace(trace.outcome,
                          list(reference.tail(step_index, t)) + trace.outputs,
                          t - step_index + trace.steps)
        result = classify_tail(trace, reference.trace, produced,
                               error_port)
        outcomes.append((fault, result, tuple(trace.outputs),
                         trace.steps))
    if converged:
        registry = get_registry()
        registry.counter("campaign_converged_runs_total").inc(converged)
        registry.counter("campaign_converged_steps_total").inc(skipped)
    return outcomes


def _rejoin_check(reference: ReferenceRun) -> Callable[[MachineState, int],
                                                        bool]:
    """``rejoins(state, index)``: is ``state``, taken at the step of
    checkpoint ``index``, the reference run from there on?  It is when
    status, ``ir``, memory and the store queue are equal, and so is every
    register a later load address, store, branch, jump or check still
    needs (:meth:`Recording.live_at`): the run then executes the
    reference's instructions, on the reference's values wherever they
    matter, until it halts.  Without a prunable recording (an unrecorded
    run, or one that executed something the walk does not model) the
    whole register bank is compared."""
    checkpoint_at = reference.checkpoint
    interval = reference.interval
    recording = reference.recording
    live_at = recording.live_at \
        if recording is not None and recording.prunable else None

    def rejoins(state: MachineState, index: int) -> bool:
        checkpoint = checkpoint_at(index)
        regs = state.regs._regs
        ref_regs = checkpoint.regs._regs
        if live_at is None:
            if regs != ref_regs:
                return False
        else:
            live = live_at(index * interval)
            if live(regs) != live(ref_regs):
                return False
        return (state.status is checkpoint.status
                and state.ir == checkpoint.ir
                and state.queue._pairs == checkpoint.queue._pairs
                and state.memory == checkpoint.memory)

    return rejoins


def _run_rejoining(
    reference: ReferenceRun,
    run: Callable[[MachineState, int], Trace],
    rejoins: Callable[[MachineState, int], bool],
    state: MachineState,
    t: int,
    max_steps: int,
) -> Tuple[Trace, int]:
    """``run(state, max_steps)`` for a faulty state before step ``t``,
    stopped at the first reference checkpoint where it ``rejoins`` the
    reference.  Checks fall on the 1st, 2nd, 4th, 8th... checkpoint after
    ``t``, so a run that never rejoins pays a logarithmic number of them.
    A rejoined run returns what finishing it would have: HALTED, its own
    outputs plus the reference outputs from the checkpoint on, and
    ``reference.num_steps - t`` steps.  Returns ``(trace, steps the run
    did not execute)``."""
    interval = reference.interval
    last = len(reference.checkpoints) - 1
    start = t // interval
    outputs: List[Tuple[int, int]] = []
    steps = 0
    gap = 1
    while start + gap <= last:
        index = start + gap
        trace = run(state, index * interval - t - steps)
        outputs += trace.outputs
        steps += trace.steps
        if trace.outcome is not Outcome.RUNNING:
            return Trace(trace.outcome, outputs, steps), 0
        if rejoins(state, index):
            at = index * interval
            outputs += reference.trace.outputs[reference.outputs_before(at):]
            return (Trace(Outcome.HALTED, outputs, reference.num_steps - t),
                    reference.num_steps - at)
        gap *= 2
    trace = run(state, max_steps - steps)
    outputs += trace.outputs
    return Trace(trace.outcome, outputs, steps + trace.steps), 0


def _run_step(
    program: Program,
    config: CampaignConfig,
    reference: ReferenceRun,
    budget: int,
    step_index: int,
) -> List[StepOutcome]:
    """Every injection at one dynamic step, in deterministic order."""
    base = reference.state_at(step_index)
    rng = _step_rng(config, step_index)
    faults = _enumerate_step_faults(program, config, base, step_index, rng)
    if config.prune and faults:
        from repro.injection.prune import run_step_pruned

        outcomes = run_step_pruned(program, config, reference, budget,
                                   step_index, base, faults)
        if outcomes is not None:
            return outcomes
        # Unanalyzable step or program: run it unpruned.
    return _run_faults(program, config, reference, budget, step_index,
                       base, faults)


def _latency_bucket(latency: int) -> int:
    """Power-of-two ceiling bucket for a detection latency in steps."""
    return 1 << (max(1, latency) - 1).bit_length()


def _campaign_instruments(registry=None):
    """Resolve the campaign's registry metrics once, before the merge loop.

    Returns ``(injections_counter, per-result counters, latency
    histogram)``; metric lookups stay off the per-injection hot path.
    """
    reg = registry if registry is not None else get_registry()
    return (
        reg.counter("campaign_injections_total"),
        {result: reg.counter("campaign_results_total", result=result.value)
         for result in FaultResult},
        reg.histogram("campaign_detection_latency_steps",
                      buckets=STEPS_BUCKETS),
    )


def _merge_step(
    report: CampaignReport,
    reference: ReferenceRun,
    config: CampaignConfig,
    step_index: int,
    outcomes: List[StepOutcome],
    instruments=None,
) -> None:
    """Fold one step's outcomes into the report (deterministic order)."""
    produced = reference.outputs_before(step_index)
    counts = report.counts
    latency_buckets = report.latency_buckets
    if instruments is None:
        instruments = _campaign_instruments()
    injections_counter, result_counters, latency_hist = instruments
    for fault, result, tail, latency in outcomes:
        report.injections += 1
        counts[result] = counts.get(result, 0) + 1
        injections_counter.inc()
        result_counters[result].inc()
        if result is FaultResult.DETECTED and latency >= 0:
            bucket = _latency_bucket(latency)
            latency_buckets[bucket] = latency_buckets.get(bucket, 0) + 1
            latency_hist.observe(latency)
        is_violation = result in _VIOLATIONS
        if config.keep_records or is_violation:
            # The record carries the *full* output sequence; the prefix is
            # materialized only here, never on the classification hot path.
            full_outputs = tuple(reference.trace.outputs[:produced]) + tail
            record = InjectionRecord(step_index, fault, result, full_outputs,
                                     latency=latency)
            if config.keep_records:
                report.records.append(record)
            if is_violation:
                report.violations.append(record)


def resolve_backend_config(
    program: Program,
    config: CampaignConfig,
    backend: Optional[str] = None,
) -> CampaignConfig:
    """The config a campaign actually runs under, backend resolved.

    ``backend`` overrides ``config.backend``; ``"vector"`` downgrades to
    ``"compiled"`` when numpy is unavailable and ``"compiled"`` to
    ``"step"`` when the program cannot be compiled.  Both the in-process
    engine and the shard coordinator resolve *before* shipping the config
    to workers, so every process of a distributed campaign runs the same
    engine.
    """
    resolved = require_backend(
        backend if backend is not None else config.backend)
    if resolved == "vector" and not vector_available():
        resolved = "compiled"
    if resolved == "compiled" \
            and compiled_for(program.boot(), config.oob_policy) is None:
        resolved = "step"
    if resolved != config.backend:
        config = _dc_replace(config, backend=resolved)
    return config


def run_campaign(
    program: Program,
    config: Optional[CampaignConfig] = None,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    resilience: "Optional[ResilienceConfig]" = None,
    chaos: "Optional[ChaosSpec]" = None,
    progress: bool = False,
    on_step=None,
) -> CampaignReport:
    """Run a SEU campaign over ``program`` and classify every faulty run.

    ``jobs`` overrides ``config.jobs``; any value > 1 fans the injection
    steps out across a *supervised* process pool
    (:mod:`repro.injection.resilience`: per-chunk deadlines, bounded
    retries, serial fallback) and yields a report identical to the serial
    engine's for the same seed.  ``backend`` overrides ``config.backend``
    (any name in :data:`repro.exec.BACKENDS`); ``"vector"`` silently
    resolves to ``"compiled"`` when numpy is unavailable, ``"compiled"``
    to ``"step"`` when the program cannot be compiled, and the resolved
    choice is recorded in the config shipped to workers so every process
    runs the same engine.

    ``journal_path`` enables the durable result journal
    (:mod:`repro.injection.journal`): every completed injection step is
    appended (and group-committed to disk) before it is merged, and
    ``resume=True`` skips steps an existing (matching) journal already
    holds -- the reconstructed report is bit-identical to an
    uninterrupted run.  The journal is flushed and closed even when the
    campaign is interrupted (KeyboardInterrupt included), so partial
    progress survives.

    ``resilience`` tunes supervision; ``chaos`` injects infrastructure
    faults into the workers (the chaos harness's hook, not for production
    use).  When any of journal/resilience/chaos is active the report
    carries a :class:`~repro.injection.resilience.ResilienceStats` in
    ``report.resilience``.

    ``progress=True`` prints rate-limited per-step heartbeats with
    throughput and ETA to stderr (``--progress`` on the CLI).
    ``on_step`` is an optional ``callback(done, total)`` invoked after
    every merged injection step (the campaign service's live job
    progress).  All observability here -- progress, metrics, events --
    is purely observational: the report is bit-identical with or
    without it.
    """
    return _drive(program, config, jobs, backend, journal_path, resume,
                  resilience, chaos, progress, on_step)


#: A step source: ``source(config, reference, steps, stats)`` yields one
#: ``(step_index, outcomes)`` pair per step of ``steps``, in any order.
StepSource = Callable[
    [CampaignConfig, ReferenceRun, List[int], "ResilienceStats"],
    Iterator[Tuple[int, List[StepOutcome]]],
]


def _drive(
    program: Program,
    config: Optional[CampaignConfig],
    jobs: Optional[int],
    backend: Optional[str],
    journal_path: Optional[str],
    resume: bool,
    resilience: "Optional[ResilienceConfig]",
    chaos: "Optional[ChaosSpec]",
    progress: bool,
    on_step,
    source: Optional[StepSource] = None,
) -> CampaignReport:
    """The campaign driver behind :func:`run_campaign` and
    :func:`repro.service.coordinator.run_campaign_sharded`.

    It owns everything but execution: backend resolution, the reference
    run, step sampling, the journal, progress, events, metrics and the
    merge.  Steps come from one of three sources: inline, the supervised
    pool (``jobs > 1``, or supervision or chaos requested), or
    ``source`` -- the remote worker fleet, which delivers steps out of
    order.  Each step is journaled when it arrives and merged in
    ascending step order through a reorder buffer, so every source
    yields the same report; a source that ends with steps missing gets
    no report at all.
    """
    config = config or CampaignConfig()
    if jobs is None:
        jobs = config.jobs
    config = resolve_backend_config(program, config, backend)

    with phase_timer("campaign.reference"):
        reference = _reference_run(program, config)
    if reference.trace.outcome is not Outcome.HALTED:
        raise ReferenceDidNotHalt(reference.trace)
    budget = reference.trace.steps + config.step_slack
    steps = _injection_steps(reference.num_steps, config)
    report = CampaignReport(reference=reference.trace)

    parallel = jobs is not None and jobs > 1 and len(steps) > 1
    supervised = source is not None or parallel or \
        resilience is not None or chaos is not None
    journal = None
    #: Raw journal payloads awaiting decode (the "=" tail sentinel needs
    #: the reference run, so expansion happens at merge time).
    done_steps: Dict[int, List] = {}
    stats = None
    if supervised or journal_path is not None:
        from repro.injection.resilience import ResilienceStats

        stats = ResilienceStats()
        report.resilience = stats
    if journal_path is not None:
        from repro.injection import journal as _journal

        prog_digest = _journal.program_digest(program)
        conf_digest = _journal.config_digest(config)
        if resume:
            journal, load = _journal.resume_journal(
                journal_path, prog_digest, conf_digest)
            wanted = set(steps)
            done_steps = {step: outcomes
                          for step, outcomes in load.steps.items()
                          if step in wanted}
            stats.resumed_steps = len(done_steps)
            stats.corrupt_journal_lines = load.corrupt_lines
        else:
            journal = _journal.CampaignJournal.fresh(
                journal_path, prog_digest, conf_digest)
    remaining = [step for step in steps if step not in done_steps]
    registry = get_registry()
    instruments = _campaign_instruments(registry)
    steps_counter = registry.counter("campaign_steps_total")
    _emit_event("campaign-start", steps=len(steps), resumed=len(done_steps),
                jobs=jobs, backend=config.backend, pruned=config.prune,
                reference_steps=reference.trace.steps)
    reporter = ProgressReporter(len(steps), label="campaign") \
        if progress else None

    total = len(steps)
    merged = 0
    #: Arrived steps waiting for every earlier step (the reorder buffer).
    arrived: Dict[int, List[StepOutcome]] = {}

    def _merge_ready() -> None:
        nonlocal merged
        while merged < total:
            step_index = steps[merged]
            outcomes = arrived.pop(step_index, None)
            if outcomes is None:
                raw_outcomes = done_steps.get(step_index)
                if raw_outcomes is None:
                    return  # not here yet
                outcomes = _journal.decode_step(raw_outcomes,
                                                reference.tail(step_index))
            _merge_step(report, reference, config, step_index, outcomes,
                        instruments)
            steps_counter.inc()
            merged += 1
            if reporter is not None:
                reporter.advance()
            if on_step is not None:
                on_step(merged, total)

    producer = None
    injection_timer = phase_timer("campaign.injections", registry)
    injection_timer.__enter__()
    try:
        if not remaining:
            producer = iter(())
        elif source is not None:
            producer = source(config, reference, remaining, stats)
        elif supervised and len(remaining) > 1:
            from repro.injection.resilience import run_steps_supervised

            producer = run_steps_supervised(
                program, config, remaining, jobs, resilience, stats,
                reference=reference, chaos=chaos)
        else:
            producer = (
                (step_index, _run_step(program, config, reference, budget,
                                       step_index))
                for step_index in remaining)
        _merge_ready()
        for step_index, outcomes in producer:
            if journal is not None:
                journal.append_step(step_index, outcomes,
                                    reference.tail(step_index))
                stats.journaled_steps += 1
            arrived[step_index] = outcomes
            _merge_ready()
        if merged < total:
            missing = [step for step in steps[merged:]
                       if step not in arrived and step not in done_steps]
            raise ValueError(
                f"campaign is missing {len(missing)} of {total} injection "
                f"steps (first missing: {missing[0]}); refusing to build "
                "a partial report")
    finally:
        # Interrupts and worker failures must not lose completed work:
        # everything appended so far is flushed to disk before the
        # exception propagates, and the step source (pool or fleet)
        # shuts down with it.
        if producer is not None and hasattr(producer, "close"):
            producer.close()
        if journal is not None:
            journal.close()
        injection_timer.__exit__(None, None, None)
        if reporter is not None:
            reporter.finish()
    if stats is not None:
        # Supervision counters (retries, crashes, rebuilds) are recorded
        # live by the supervisor; only the journal-side tallies -- known
        # just once, here -- are folded into the registry.
        registry.counter("campaign_resumed_steps_total").inc(
            stats.resumed_steps)
        registry.counter("campaign_journaled_steps_total").inc(
            stats.journaled_steps)
        registry.counter("campaign_corrupt_journal_lines_total").inc(
            stats.corrupt_journal_lines)
    _emit_event("campaign-end", injections=report.injections,
                coverage=round(report.coverage, 6),
                violations=len(report.violations))
    return report
