"""Tests for stopping faulty runs where they rejoin the fault-free run.

With pruning on, the scalar finisher (``campaign._run_scalar``) runs a
faulty state from reference checkpoint to reference checkpoint and stops
at the first one where the state equals the reference's on status,
``ir``, memory, the store queue and every register the reference still
reads.  A stopped run returns exactly what finishing it would have.
These tests pin that contract:

* record parity -- ``keep_records=True`` campaigns with pruning on and
  off give equal records on every kernel, FT and baseline.  Latency is
  outside the report fingerprint, so records are compared directly;
* the rejoin rule -- a dead corruption rejoins at the first checkpoint,
  and so does one that only feeds ALU results nothing needs; a live one
  (one a later load address, store, branch or jump needs) does not; a
  reference without a prunable recording compares the whole register
  bank;
* handed-over lanes keep their output prefix, and STUCK and TIMEOUT runs
  keep their outcome and step count.
"""

from bisect import bisect_left

import pytest

from repro.core import (
    ArithRRI,
    ArithRRR,
    B,
    Bz,
    G,
    Halt,
    Jmp,
    Load,
    Mov,
    PlainBz,
    PlainJmp,
    PlainLoad,
    PlainStore,
    Store,
    blue,
    green,
)
from repro.core.faults import RegZap, apply_fault
from repro.core.registers import DEST
from repro.core.semantics import step as semantics_step
from repro.exec import run_compiled
from repro.injection import CampaignConfig, run_campaign
from repro.injection.campaign import (
    EV_BITS,
    EV_MASK,
    EV_READ,
    FaultResult,
    _enumerate_step_faults,
    _injection_steps,
    _reference_run,
    _rejoin_check,
    _run_faults,
    _run_scalar,
    _step_rng,
)
from repro.injection.prune import _MEMO_TABLES
from repro.observe import MetricsRegistry, set_registry
from repro.program import Program
from repro.workloads import ALL_KERNELS, compile_kernel
from tests.helpers import countdown_loop_program, paper_store_program

#: Small campaigns whose executed variants include runs that rejoin the
#: reference and runs that do not.
_PARITY = dict(max_injection_steps=3, max_sites_per_step=5,
               max_values_per_site=2, seed=17, keep_records=True,
               max_steps=500_000)


def _counters(registry):
    return {c["name"]: c["value"] for c in registry.as_dict()["counters"]}


def _records_parity(kernel, mode, backend):
    program = compile_kernel(kernel, mode).program
    _MEMO_TABLES.clear()  # every pruned variant executes or replicates
    registry = MetricsRegistry()
    set_registry(registry)
    try:
        pruned = run_campaign(program, CampaignConfig(
            backend=backend, prune=True, **_PARITY))
    finally:
        set_registry(None)
    plain = run_campaign(program, CampaignConfig(
        backend=backend, prune=False, **_PARITY))
    assert pruned.injections == plain.injections > 0
    for mine, theirs in zip(pruned.records, plain.records):
        assert mine == theirs, (kernel, mode, backend)
    assert len(pruned.records) == len(plain.records)
    assert pruned.latency_buckets == plain.latency_buckets
    # Not vacuous: some executed run stopped where it rejoined.
    assert _counters(registry).get("campaign_converged_runs_total", 0) > 0


class TestRecordParity:
    @pytest.mark.parametrize("mode", ["ft", "baseline"])
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_compiled_records_equal_unpruned(self, kernel, mode):
        _records_parity(kernel, mode, "compiled")

    @pytest.mark.parametrize("mode", ["ft", "baseline"])
    @pytest.mark.parametrize("kernel", ["vpr", "jpeg"])
    def test_step_records_equal_unpruned(self, kernel, mode):
        _records_parity(kernel, mode, "step")

    @pytest.mark.parametrize("mode", ["ft", "baseline"])
    @pytest.mark.parametrize("kernel", ["vpr", "jpeg"])
    def test_every_variant_matches_its_full_run(self, kernel, mode):
        # The pruner executes only a few variants per step; here every
        # effective fault at a few steps goes through the finisher, so
        # each one is checked against its run to the end.
        program = compile_kernel(kernel, mode).program
        config = CampaignConfig(seed=5)
        reference = _reference_run(program, config)
        budget = reference.num_steps + config.step_slack
        plain_config = CampaignConfig(seed=5, prune=False)
        registry = MetricsRegistry()
        for step in _injection_steps(reference.num_steps, CampaignConfig(
                max_injection_steps=4)):
            base = reference.state_at(step)
            faults = _enumerate_step_faults(program, config, base, step,
                                            _step_rng(config, step))
            set_registry(registry)
            try:
                pruned = _run_faults(program, config, reference, budget,
                                     step, base, faults)
            finally:
                set_registry(None)
            assert pruned == _run_faults(program, plain_config, reference,
                                         budget, step, base, faults), step
        assert _counters(registry)["campaign_converged_runs_total"] > 0


# ---------------------------------------------------------------------------
# The rejoin rule, one run at a time
# ---------------------------------------------------------------------------


def _setup(program, interval=8, **overrides):
    config = CampaignConfig(checkpoint_interval=interval, **overrides)
    reference = _reference_run(program, config)
    budget = reference.num_steps + config.step_slack
    return config, reference, budget


def _next_event(recording, reg, step):
    """``(step, kind)`` of ``reg``'s next recorded touch at or after
    ``step``, or ``None``."""
    events = recording.reg_events.get(reg)
    if events is None:
        return None
    index = bisect_left(events, step << EV_BITS)
    if index == len(events):
        return None
    return events[index] >> EV_BITS, events[index] & EV_MASK


def _faulty(reference, step, fault):
    state = reference.state_at(step)
    apply_fault(state, fault)
    return state


def _run(reference):
    def run(state, max_steps):
        return run_compiled(state, reference.compiled, max_steps=max_steps)
    return run


def _both(program, config, reference, budget, step, fault):
    """The fault's outcome with pruning on and off, and the steps the
    pruned run did not execute."""
    registry = MetricsRegistry()
    set_registry(registry)
    try:
        pruned, = _run_faults(program, config, reference, budget, step,
                              reference.state_at(step), [fault])
    finally:
        set_registry(None)
    plain_config = CampaignConfig(
        checkpoint_interval=config.checkpoint_interval, prune=False)
    plain, = _run_faults(program, plain_config, reference, budget, step,
                         reference.state_at(step), [fault])
    skipped = _counters(registry).get("campaign_converged_steps_total", 0)
    return pruned, plain, skipped


_PAD = Mov("r7", green(0))

#: Each ends the chain of :func:`_chain_program` in one use that needs
#: r3 (2 in the reference, 0 once r1 is zapped to 5).  The use starts at
#: address 13, which is fetched at step 24, the third checkpoint.
_USES = {
    "plain load address": [PlainLoad("r4", "r3"), Mov("r4", green(0))],
    "green load address": [Load(G, "r4", "r3"), Mov("r4", green(0))],
    "blue load address": [Load(B, "r4", "r3"), Mov("r4", green(0))],
    "plain store address": [Mov("r5", green(7)), PlainStore("r3", "r5")],
    "plain store value": [Mov("r5", green(256)), PlainStore("r5", "r3")],
    "green store address": [Mov("r5", green(254)), Mov("r6", blue(256)),
                            ArithRRR("add", "r5", "r5", "r3"),
                            Store(G, "r5", "r6"), Store(B, "r6", "r6")],
    "green store value": [Mov("r5", green(256)), Mov("r6", blue(256)),
                          Mov("r8", blue(2)), Store(G, "r5", "r3"),
                          Store(B, "r6", "r8")],
    "blue store address": [Mov("r5", green(2)), Store(G, "r5", "r5"),
                           Store(B, "r3", "r5")],
    "blue store value": [Mov("r5", green(256)), Mov("r6", blue(256)),
                         Mov("r8", green(2)), Store(G, "r5", "r8"),
                         Store(B, "r6", "r3")],
    "green bz condition": [Mov("r5", green(20)), Mov("r6", blue(20)),
                           Mov("r8", blue(2)), Bz(G, "r3", "r5"),
                           Bz(B, "r8", "r6")],
    "blue bz condition": [Mov("r5", green(20)), Mov("r6", blue(20)),
                          Mov("r8", green(2)), Bz(G, "r8", "r5"),
                          Bz(B, "r3", "r6")],
    "plain bz condition": [Mov("r5", green(17)), PlainBz("r3", "r5"),
                           Mov("r6", green(256)), PlainStore("r6", "r6")],
    "green bz target": [ArithRRI("add", "r3", "r3", green(16)),
                        Mov("r8", green(0)), Mov("r6", blue(18)),
                        Bz(G, "r8", "r3"), Bz(B, "r8", "r6")],
    "blue bz target": [ArithRRI("add", "r3", "r3", green(16)),
                       Mov("r8", green(0)), Mov("r5", green(18)),
                       Bz(G, "r8", "r5"), Bz(B, "r8", "r3")],
    "plain bz target": [ArithRRI("add", "r3", "r3", green(14)),
                        Mov("r8", green(0)), PlainBz("r8", "r3"),
                        Mov("r6", green(256)), PlainStore("r6", "r6")],
    "green jmp target": [ArithRRI("add", "r3", "r3", green(15)),
                         Mov("r8", blue(17)), Jmp(G, "r3"), Jmp(B, "r8")],
    "blue jmp target": [ArithRRI("add", "r3", "r3", green(15)),
                        Mov("r8", green(17)), Jmp(G, "r8"), Jmp(B, "r3")],
    "plain jmp target": [ArithRRI("add", "r3", "r3", green(13)),
                         PlainJmp("r3"), Mov("r6", green(256)),
                         PlainStore("r6", "r6")],
}


def _chain_program(use=()):
    """r1 feeds an ALU chain, ``r2 = r1 + r1`` and then ``r3 = r2 - 10``,
    spread over the first three checkpoints at interval 8.  The chain
    ends in ``use`` and r3 is overwritten after it, so a corrupt r1 can
    only matter through ``use``."""
    code = [Mov("r1", green(6)), _PAD, _PAD, _PAD,
            ArithRRR("add", "r2", "r1", "r1"), _PAD, _PAD, _PAD,
            ArithRRI("sub", "r3", "r2", green(10)), Mov("r1", green(0)),
            Mov("r2", green(0)), _PAD,
            *use,
            Mov("r3", green(0)), _PAD, _PAD, _PAD, _PAD, Halt()]
    return Program(code=dict(enumerate(code, 1)),
                   initial_memory={2: 0, 256: 0}, entry=1, num_gprs=8)


class TestRejoinRule:
    def test_dead_register_rejoins_at_first_checkpoint(self):
        program = countdown_loop_program(20)
        config, reference, budget = _setup(program)
        recording = reference.recording
        cases = [(reg, step) for step in range(0, reference.num_steps - 8)
                 for reg in ("r5", "r6", "r7", "r8")
                 if _next_event(recording, reg, step) is None]
        assert cases, "the loop leaves some register dead before halt"
        for reg, step in cases:
            fault = RegZap(reg, 12345)
            pruned, plain, skipped = _both(program, config, reference,
                                           budget, step, fault)
            assert pruned == plain
            assert pruned[1] is FaultResult.MASKED
            first = (step // 8 + 1) * 8
            assert skipped == reference.num_steps - first, (reg, step)

    def test_live_read_is_not_stopped_while_live(self):
        program = countdown_loop_program(20)
        config, reference, budget = _setup(program)
        recording = reference.recording
        rejoins = _rejoin_check(reference)
        run = _run(reference)
        checked = 0
        for step in range(reference.num_steps):
            for reg in ("r1", "r2"):
                event = _next_event(recording, reg, step)
                if event is None or event[1] != EV_READ:
                    continue
                read_at = event[0]
                first = step // 8 + 1
                if first * 8 > read_at:
                    continue  # no checkpoint while the value is live
                fault = RegZap(reg, 99)
                state = _faulty(reference, step, fault)
                position = step
                for index in range(first, read_at // 8 + 1):
                    run(state, index * 8 - position)
                    position = index * 8
                    assert not rejoins(state, index), (reg, step, index)
                    checked += 1
                pruned, plain, skipped = _both(program, config, reference,
                                               budget, step, fault)
                assert pruned == plain
                assert skipped == 0 or \
                    reference.num_steps - skipped > read_at
        assert checked > 0

    def test_faint_chain_rejoins_at_first_checkpoint(self):
        # r1 is read by an ALU op whose result only feeds another whose
        # result is overwritten unread: the corruption is already dead
        # at the first checkpoint, before the chain reads it.
        program = _chain_program()
        config, reference, budget = _setup(program)
        assert _next_event(reference.recording, "r1", 8)[1] == EV_READ
        pruned, plain, skipped = _both(program, config, reference, budget,
                                       2, RegZap("r1", 5))
        assert pruned == plain
        assert pruned[1] is FaultResult.MASKED
        assert skipped == reference.num_steps - 8

    @pytest.mark.parametrize("use", sorted(_USES))
    def test_chain_into_needed_use_stays_live(self, use):
        self._assert_live_until_use(_chain_program(_USES[use]),
                                    RegZap("r1", 5))

    @pytest.mark.parametrize("use", ["green bz condition",
                                     "green jmp target"])
    def test_corrupt_d_stays_live_until_its_check(self, use):
        # Nothing touches d before the use, whose first branch or jump
        # checks it.
        self._assert_live_until_use(_chain_program(_USES[use]),
                                    RegZap(DEST, 7))

    def _assert_live_until_use(self, program, fault):
        config, reference, budget = _setup(program)
        rejoins = _rejoin_check(reference)
        state = _faulty(reference, 2, fault)
        position = 2
        for index in (1, 2, 3):  # every checkpoint before the use
            _run(reference)(state, index * 8 - position)
            position = index * 8
            assert not rejoins(state, index), index
        pruned, plain, _ = _both(program, config, reference, budget, 2,
                                 fault)
        assert pruned == plain
        assert pruned[1] is not FaultResult.MASKED

    def test_unrecorded_reference_compares_whole_bank(self):
        class PendingBoot:
            """The program, booted one fetch in: ``ir`` is pending, so
            the walk records nothing."""

            def __init__(self, program):
                self.program = program

            def boot(self):
                state = self.program.boot()
                semantics_step(state)
                assert state.ir is not None
                return state

        program = paper_store_program()
        config, recorded, budget = _setup(PendingBoot(program), interval=4)
        assert recorded.recording is None
        self._assert_whole_bank(program, config, recorded, budget)

    def test_unprunable_recording_compares_whole_bank(self):
        program = paper_store_program()
        config, reference, budget = _setup(program, interval=4)
        # r7 is never touched: with the live view it rejoins at once.
        _, _, skipped = _both(program, config, reference, budget, 1,
                              RegZap("r7", 5))
        assert skipped == reference.num_steps - 4
        reference.recording.prunable = False
        self._assert_whole_bank(program, config, reference, budget)

    def _assert_whole_bank(self, program, config, reference, budget):
        # A never-touched register stays corrupt: the whole bank never
        # matches, so the run goes to its end ...
        pruned, plain, skipped = _both(program, config, reference, budget,
                                       1, RegZap("r7", 5))
        assert pruned == plain and skipped == 0
        # ... while one the reference overwrites (r1 at the first
        # instruction) matches from the checkpoint after the write on.
        pruned, plain, skipped = _both(program, config, reference, budget,
                                       0, RegZap("r1", 5))
        assert pruned == plain and pruned[1] is FaultResult.MASKED
        assert skipped == reference.num_steps - 4


class TestHandedOverLanes:
    def test_lane_handed_over_late_rejoins_with_prefix(self):
        program = countdown_loop_program(20)
        config, reference, budget = _setup(program)
        outputs_before = reference.outputs_before
        step = 40
        # A lane retired at a later fetch, after the reference emitted.
        later = next(t for t in range(step + 1, reference.num_steps, 2)
                     if outputs_before[t] > outputs_before[step]
                     and t % 8)
        fault = RegZap("r7", 777)  # r7 is rewritten before it is read
        assert _next_event(reference.recording, "r7", later)[1] != EV_READ
        lane = _faulty(reference, step, fault)
        trace = _run(reference)(lane, later - step)
        assert trace.outputs  # the lane emitted before its hand-over
        base = reference.state_at(step)
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            handed, = _run_scalar(config, reference, budget, step, base,
                                  [(fault, lane, later)], run_compiled)
        finally:
            set_registry(None)
        plain_config = CampaignConfig(checkpoint_interval=8, prune=False)
        fresh, = _run_scalar(plain_config, reference, budget, step, base,
                             [(fault, _faulty(reference, step, fault),
                               step)], run_compiled)
        assert handed == fresh
        assert handed[2] == reference.tail(step)
        counters = _counters(registry)
        assert counters["campaign_converged_runs_total"] == 1
        assert counters["campaign_converged_steps_total"] \
            == reference.num_steps - (later // 8 + 1) * 8


class TestTerminalOutcomes:
    @pytest.mark.parametrize("fault,result,steps", [
        (RegZap("r2", -1), FaultResult.TIMEOUT, None),
        (RegZap("r64", 0), FaultResult.STUCK, 2),
    ])
    def test_stuck_and_timeout_keep_outcome_and_steps(self, fault, result,
                                                      steps):
        program = compile_kernel("vpr", "baseline").program
        config, reference, budget = _setup(program, interval=32)
        pruned, plain, skipped = _both(program, config, reference, budget,
                                       722, fault)
        assert pruned == plain and skipped == 0
        assert pruned[1] is result
        assert pruned[3] == (budget if steps is None else steps)
