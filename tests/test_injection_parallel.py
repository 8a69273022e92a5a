"""Tests for the checkpoint/replay campaign engine and its parallel path.

The engine's contract is determinism: (1) a state reconstructed by
replaying from a sparse checkpoint equals the eager per-step snapshot the
seed engine used to keep, and (2) any worker count produces a report
bit-identical to the serial engine's for the same seed.
"""

import pytest

from repro.compiler import compile_source
from repro.core import Machine
from repro.core.machine import Outcome
from repro.core.registers import PC_G
from repro.injection import CampaignConfig, run_campaign
from repro.injection.campaign import (
    ReferenceRun,
    _injection_steps,
    _reference_run,
    classify_tail,
)
from repro.workloads import ALL_KERNELS, compile_kernel
from tests.helpers import countdown_loop_program, paper_store_program


def _eager_snapshots(program, config):
    """Per-step eager snapshots, the seed engine's O(steps x state) way."""
    state = program.boot()
    machine = Machine(state, oob_policy=config.oob_policy)
    snapshots = []
    while not state.is_terminal:
        snapshots.append(state.clone())
        machine.step()
    return snapshots


def _report_fingerprint(report):
    """Everything the parity contract promises, as comparable data."""
    return (
        report.injections,
        report.counts,
        report.coverage,
        [(r.step, r.fault, r.result, r.outputs, r.latency)
         for r in report.records],
        [(r.step, r.fault, r.result, r.outputs, r.latency)
         for r in report.violations],
    )


class TestCheckpointReplay:
    @pytest.mark.parametrize("interval", [1, 3, 7, 32, 64])
    def test_replayed_states_equal_eager_snapshots(self, interval):
        program = countdown_loop_program(3)
        config = CampaignConfig(checkpoint_interval=interval)
        reference = _reference_run(program, config)
        eager = _eager_snapshots(program, config)
        assert reference.num_steps == len(eager)
        for step_index, expected in enumerate(eager):
            replayed = reference.state_at(step_index)
            assert replayed.regs == expected.regs
            assert replayed.memory == expected.memory
            assert replayed.queue == expected.queue
            assert replayed.ir == expected.ir
            assert replayed.status == expected.status

    @pytest.mark.parametrize("interval", [1, 3, 7, 32, 64])
    @pytest.mark.parametrize("program_builder", [
        lambda: countdown_loop_program(3), paper_store_program,
    ], ids=["countdown", "paper-store"])
    def test_recording_matches_eager_snapshots(self, program_builder,
                                               interval):
        program = program_builder()
        config = CampaignConfig(checkpoint_interval=interval)
        recording = _reference_run(program, config).recording
        fetched = [(state.regs.value(PC_G), state.ir)
                   for state in _eager_snapshots(program, config)
                   if state.ir is not None]
        assert list(zip(recording.pcs, recording.instrs)) == fetched

    def test_checkpoint_count_is_sparse(self):
        program = countdown_loop_program(4)
        config = CampaignConfig(checkpoint_interval=16)
        reference = _reference_run(program, config)
        assert len(reference.checkpoints) <= reference.num_steps // 16 + 1
        assert len(reference.checkpoints) < reference.num_steps

    def test_state_at_returns_fresh_states(self):
        reference = _reference_run(paper_store_program(), CampaignConfig())
        first = reference.state_at(2)
        first.memory[999] = 1  # mutating a reconstruction ...
        again = reference.state_at(2)
        assert 999 not in again.memory  # ... never leaks into the next one

    def test_state_at_rejects_out_of_range(self):
        reference = _reference_run(paper_store_program(), CampaignConfig())
        with pytest.raises(IndexError):
            reference.state_at(reference.num_steps)

    def test_outputs_before_tracks_reference_outputs(self):
        reference = _reference_run(countdown_loop_program(3), CampaignConfig())
        assert reference.outputs_before[0] == 0
        assert reference.outputs_before[-1] <= len(reference.trace.outputs)
        assert reference.outputs_before == sorted(reference.outputs_before)


def _recorded(reference):
    """Everything a reference run recorded, as comparable data."""
    recording = reference.recording
    if recording is None:
        return None
    return {name: getattr(recording, name) for name in recording.__slots__
            if name != "views"}


class TestRecording:
    """The walk records the same run whichever engine executes it."""

    @pytest.mark.parametrize("mode", ["ft", "baseline"])
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_interpreter_and_closure_walks_agree(self, kernel, mode):
        # Odd intervals split instructions across checkpoints, so the
        # interval-7 interpreter walk records after separate fetches while
        # the interval-32 compiled walk records ahead of whole closures.
        program = compile_kernel(kernel, mode).program
        compiled = _reference_run(
            program, CampaignConfig(backend="compiled"))
        if compiled.trace.outcome is not Outcome.HALTED:
            assert compiled.recording is None
            return  # no recording to compare under the default max_steps
        stepped = _reference_run(
            program, CampaignConfig(backend="step", checkpoint_interval=7))
        assert compiled.recording.pcs  # a real walk, not two empty ones
        assert _recorded(stepped) == _recorded(compiled)


class TestInjectionStepSampling:
    def _config(self, stride=1, cap=None):
        return CampaignConfig(step_stride=stride, max_injection_steps=cap)

    def test_uncapped_is_every_strided_step(self):
        assert _injection_steps(10, self._config()) == list(range(10))
        assert _injection_steps(10, self._config(stride=3)) == [0, 3, 6, 9]

    def test_cap_is_met_exactly(self):
        # Seed regression: the combined stride step_stride * stride could
        # overshoot and return fewer than max_injection_steps points
        # (e.g. 100 candidates, cap 30 -> stride 3 -> 34... but 100/7 -> 15
        # candidates, cap 4 -> stride 3 -> 5). The fix samples indices.
        for total, stride, cap in [(100, 1, 30), (100, 7, 4), (1000, 1, 33),
                                   (77, 2, 13), (500, 3, 40)]:
            steps = _injection_steps(
                total, self._config(stride=stride, cap=cap))
            assert len(steps) == cap, (total, stride, cap, steps)

    def test_cap_covers_head_and_tail(self):
        steps = _injection_steps(1000, self._config(cap=10))
        assert steps[0] == 0
        assert steps[-1] == 999  # the tail of long runs is not skipped
        steps = _injection_steps(100, self._config(stride=7, cap=4))
        assert steps[0] == 0
        assert steps[-1] == 98  # last stride-aligned candidate

    def test_steps_are_strictly_increasing_and_stride_aligned(self):
        steps = _injection_steps(997, self._config(stride=5, cap=23))
        assert steps == sorted(set(steps))
        assert all(s % 5 == 0 for s in steps)

    def test_degenerate_caps(self):
        assert _injection_steps(50, self._config(cap=1)) == [0]
        assert _injection_steps(0, self._config()) == []
        # cap=0 is rejected at construction now (see
        # TestCampaignConfigValidation); the sampler itself still treats a
        # non-positive cap defensively as "no steps".
        config = self._config()
        config.max_injection_steps = 0
        assert _injection_steps(50, config) == []


class TestSerialParallelParity:
    @pytest.mark.parametrize("make_program", [
        paper_store_program,
        lambda: countdown_loop_program(3),
    ], ids=["store", "countdown"])
    def test_exhaustive_parity(self, make_program):
        program = make_program()
        config = CampaignConfig(seed=7, keep_records=True)
        serial = run_campaign(program, config, jobs=1)
        parallel = run_campaign(program, config, jobs=2)
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)
        assert serial.coverage == 1.0

    def test_sampled_parity_with_all_knobs(self):
        program = compile_source(
            """
            array src[3] = {5, 9, 2};
            array out[3];
            out[0] = src[0] + src[1];
            out[1] = src[1] * src[2];
            out[2] = src[2] - src[0];
            """,
            mode="ft",
        ).program
        config = CampaignConfig(
            seed=20260806,
            step_stride=2,
            max_injection_steps=9,
            max_sites_per_step=5,
            max_values_per_site=3,
            checkpoint_interval=8,
            keep_records=True,
        )
        serial = run_campaign(program, config, jobs=1)
        parallel = run_campaign(program, config, jobs=3)
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)

    def test_config_jobs_field_drives_the_pool(self):
        program = paper_store_program()
        config = CampaignConfig(seed=3, jobs=2, max_injection_steps=6)
        via_config = run_campaign(program, config)
        serial = run_campaign(program, config, jobs=1)
        assert _report_fingerprint(via_config) == _report_fingerprint(serial)

    def test_parallel_smoke_two_workers(self):
        # Tier-1-safe smoke test: a tiny campaign through the real pool
        # path (2 workers) so process startup/merge is exercised by
        # ``pytest -x -q``.
        report = run_campaign(
            paper_store_program(),
            CampaignConfig(seed=1, max_injection_steps=4,
                           max_sites_per_step=4, max_values_per_site=2),
            jobs=2,
        )
        assert report.injections > 0
        assert report.coverage == 1.0


class TestClassifyTail:
    def test_matches_full_classify_on_merged_traces(self):
        from repro.core import Outcome, Trace
        from repro.injection import classify

        reference = Trace(Outcome.HALTED, [(1, 1), (2, 2), (3, 3)], 30)
        cases = [
            (Outcome.HALTED, 1, [(2, 2), (3, 3)]),      # masked
            (Outcome.HALTED, 1, [(9, 9), (3, 3)]),      # silent
            (Outcome.HALTED, 2, []),                    # silent (short)
            (Outcome.FAULT_DETECTED, 2, []),            # detected prefix
            (Outcome.FAULT_DETECTED, 1, [(2, 2)]),      # detected prefix
            (Outcome.FAULT_DETECTED, 1, [(8, 8)]),      # deviated
            (Outcome.FAULT_DETECTED, 0, [(1, 1), (2, 2), (3, 3), (4, 4)]),
            (Outcome.STUCK, 1, []),
            (Outcome.RUNNING, 0, [(1, 1)]),
        ]
        for outcome, produced, tail in cases:
            trace = Trace(outcome, list(tail), 12)
            merged = Trace(
                outcome, list(reference.outputs[:produced]) + list(tail), 12)
            assert classify_tail(trace, reference, produced) == \
                classify(merged, reference), (outcome, produced, tail)

    def test_error_port_convention_matches(self):
        from repro.core import Outcome, Trace
        from repro.injection import classify

        reference = Trace(Outcome.HALTED, [(1, 1), (2, 2)], 20)
        # Announced on port 7 after a clean prefix: software-detected.
        trace = Trace(Outcome.HALTED, [(2, 2), (7, 1)], 15)
        merged = Trace(Outcome.HALTED, [(1, 1), (2, 2), (7, 1)], 15)
        assert classify_tail(trace, reference, 1, error_port=7) == \
            classify(merged, reference, error_port=7)


class TestCampaignConfigValidation:
    """CampaignConfig rejects nonsense knob values at construction.

    Regression: ``step_stride=0`` used to loop ``_injection_steps``
    forever, and sub-1 ``checkpoint_interval``/``jobs``/
    ``max_injection_steps`` failed obscurely deep inside the engine.
    """

    @pytest.mark.parametrize("field,value", [
        ("step_stride", 0),
        ("step_stride", -1),
        ("checkpoint_interval", 0),
        ("jobs", 0),
        ("jobs", -2),
        ("max_steps", 0),
        ("max_injection_steps", 0),
        ("max_values_per_site", 0),
        ("max_sites_per_step", 0),
        ("step_slack", -1),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            CampaignConfig(**{field: value})

    def test_error_message_is_friendly(self):
        with pytest.raises(ValueError,
                           match=r"step_stride must be at least 1 \(got 0\)"):
            CampaignConfig(step_stride=0)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            CampaignConfig(backend="jit")

    def test_accepts_boundary_values(self):
        config = CampaignConfig(step_stride=1, checkpoint_interval=1,
                                jobs=1, step_slack=0,
                                max_injection_steps=1,
                                max_values_per_site=1,
                                max_sites_per_step=1)
        assert config.step_slack == 0

    def test_none_caps_still_allowed(self):
        config = CampaignConfig(max_injection_steps=None,
                                max_values_per_site=None,
                                max_sites_per_step=None)
        assert config.max_injection_steps is None

    def test_dataclass_replace_revalidates(self):
        from dataclasses import replace

        config = CampaignConfig()
        with pytest.raises(ValueError, match="jobs"):
            replace(config, jobs=0)
