"""Tests for the batch-vectorized campaign backend.

The vector backend's contract is exactness: ``backend="vector"`` must
produce reports bit-identical to the interpreter and compiled engines --
same classifications, same per-record outputs and latencies, same
``latency_buckets`` -- no matter which control path a faulted lane takes.
These tests force lanes down every divergence class (corrupted branch
targets, deviating stores, early halts, oversized values, batch cutoff)
and compare the batch's settled outcomes element-for-element against
per-lane compiled runs, then check the campaign-level plumbing: the
backend registry, process-pool composition, journal interoperability,
the numpy-less downgrade chain, and the PR-5 metrics counters.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.compiler import compile_source
from repro.compiler.swift import ERROR_PORT
from repro.core import Color, Machine, green
from repro.core.faults import (
    QueueZapAddress,
    QueueZapValue,
    RegZap,
    apply_fault,
)
from repro.core.registers import PC_B, PC_G
from repro.exec import (
    BACKENDS,
    MACHINE_BACKENDS,
    clear_exec_caches,
    exec_cache_stats,
    run_compiled,
)
from repro.exec.vector import VMAX, vector_available
from repro.injection import CampaignConfig, run_campaign
from repro.injection.batch import run_step_batch
from repro.injection.campaign import _reference_run, classify_tail
from repro.injection.chaos import report_fingerprint
from repro.observe import MetricsRegistry, set_registry
from repro.workloads import ALL_KERNELS, compile_kernel
from tests.helpers import countdown_loop_program, paper_store_program

SOURCE = """
array out[4];
var i = 0;
while (i < 3) { out[i] = i * 10 + 7; i = i + 1; }
"""

#: Tiny-but-representative campaign for cross-backend fingerprinting.
_TINY = dict(max_injection_steps=3, max_sites_per_step=4,
             max_values_per_site=1, seed=11, max_steps=500_000)


def _campaign(backend, **overrides):
    params = dict(_TINY)
    params.update(overrides)
    return CampaignConfig(backend=backend, **params)


class TestBackendRegistry:
    def test_registry_lists_all_engines(self):
        assert set(MACHINE_BACKENDS) <= set(BACKENDS)
        assert "vector" in BACKENDS
        assert "vector" not in MACHINE_BACKENDS

    def test_config_accepts_registered_backends(self):
        for backend in BACKENDS:
            assert CampaignConfig(backend=backend).backend == backend

    def test_config_rejects_unregistered_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            CampaignConfig(backend="simd")

    def test_run_campaign_rejects_unregistered_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_campaign(paper_store_program(), CampaignConfig(),
                         backend="simd")

    def test_machine_rejects_campaign_only_backend(self):
        # The vector engine exists only at campaign granularity.
        with pytest.raises(ValueError, match="unknown backend"):
            Machine(paper_store_program().boot(), backend="vector")


class TestKernelParity:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_vector_matches_step_on_kernel(self, kernel):
        program = compile_kernel(kernel, "ft").program
        vector = run_campaign(program, _campaign("vector"))
        step = run_campaign(program, _campaign("step"))
        assert report_fingerprint(vector) == report_fingerprint(step)

    def test_deep_sweep_matches_including_latency_buckets(self):
        # No site cap: wide batches, every divergence class populated.
        program = compile_kernel("vpr", "ft").program
        config = dict(max_injection_steps=4, max_sites_per_step=None,
                      max_values_per_site=2, seed=3)
        vector = run_campaign(program, CampaignConfig(backend="vector",
                                                      **config))
        compiled = run_campaign(program, CampaignConfig(backend="compiled",
                                                        **config))
        assert report_fingerprint(vector) == report_fingerprint(compiled)
        assert vector.latency_buckets == compiled.latency_buckets
        assert vector.latency_buckets  # the sweep must land some latencies


class TestForcedDivergence:
    """Element-wise parity of one batch against per-lane compiled runs.

    ``run_step_batch`` is fed hand-built fault lists that force lanes onto
    faulted control paths: branch/jump targets redirected to other code
    addresses (the loop head and exit of ``countdown_loop_program``),
    store addresses and queued values corrupted, registers zapped just
    before ``halt``, plus oversized values the arrays cannot carry (which
    must take the scalar screen, not crash).  Every outcome tuple --
    fault, classification, output tail, latency -- must equal the one a
    per-lane compiled run produces.
    """

    def _scalar_outcomes(self, reference, config, base, faults, budget,
                         produced):
        outcomes = []
        for fault in faults:
            faulty = base.clone()
            apply_fault(faulty, fault)
            if reference.compiled is not None:
                trace = run_compiled(faulty, reference.compiled,
                                     max_steps=budget)
            else:
                trace = Machine(faulty, oob_policy=config.oob_policy,
                                backend="step").run(max_steps=budget)
            result = classify_tail(trace, reference.trace, produced,
                                   config.error_port)
            outcomes.append((fault, result, tuple(trace.outputs),
                             trace.steps))
        return outcomes

    def _forced_faults(self, base):
        # Branch/jump targets (6 = loop head, 20 = exit), store addresses
        # (256 is the observable cell), small arithmetic corruptions, a
        # value at the vector range and one beyond it (scalar screen).
        values = (0, 1, 2, 6, 20, 255, 256, -1, VMAX, VMAX + 1)
        faults = [RegZap(reg, value)
                  for reg in base.regs._regs
                  for value in values]
        for index in range(len(base.queue)):
            faults.append(QueueZapAddress(index, 6))
            faults.append(QueueZapValue(index, 257))
        return faults

    @pytest.mark.parametrize("program_builder,name", [
        (lambda: countdown_loop_program(4), "countdown"),
        (paper_store_program, "paper-store"),
    ])
    def test_batch_equals_per_lane_compiled_runs(self, program_builder,
                                                 name):
        program = program_builder()
        config = CampaignConfig(backend="vector")
        reference = _reference_run(program, config)
        budget = reference.trace.steps + config.step_slack
        for step_index in range(reference.num_steps):
            base = reference.state_at(step_index)
            faults = self._forced_faults(base)
            produced = reference.outputs_before[step_index]
            batch = run_step_batch(program, config, reference, budget,
                                   step_index, base, faults)
            assert batch is not None, \
                f"{name}: step {step_index} refused vectorization"
            scalar = self._scalar_outcomes(reference, config, base, faults,
                                           budget, produced)
            assert batch == scalar, f"{name}: step {step_index} diverged"

    def test_unschedulable_step_declines(self):
        # A base state whose registers disagree with the schedule must be
        # declined (None), never guessed at.
        program = countdown_loop_program(3)
        config = CampaignConfig(backend="vector")
        reference = _reference_run(program, config)
        budget = reference.trace.steps + config.step_slack
        base = reference.state_at(0)
        base.regs.set(PC_G, green(999))
        base.regs.set(PC_B, green(999))
        assert run_step_batch(program, config, reference, budget, 0, base,
                              [RegZap("r1", 1)]) is None

    def test_undecodable_instruction_declines_but_prunes(self):
        # An immediate beyond VMAX is an instruction _decode rejects: the
        # vector engine must decline (None), pruning must still apply,
        # and the campaign must match the interpreter's report.
        from repro.core import Halt, Mov, Store, blue
        from repro.injection.prune import analysis_for, run_step_pruned
        from repro.program import Program
        from repro.types import INT, RefType
        from tests.helpers import NUM_GPRS, entry_code_type

        G, B = Color.GREEN, Color.BLUE
        program = Program(
            code={1: Mov("r5", green(VMAX + 1)),
                  2: Mov("r1", green(5)), 3: Mov("r2", green(256)),
                  4: Store(G, "r2", "r1"), 5: Mov("r3", blue(5)),
                  6: Mov("r4", blue(256)), 7: Store(B, "r4", "r3"),
                  8: Halt()},
            label_types={1: entry_code_type(num_gprs=NUM_GPRS)},
            data_psi={256: RefType(INT)}, entry=1,
            initial_memory={256: 0}, num_gprs=NUM_GPRS)
        config = CampaignConfig(backend="vector")
        reference = _reference_run(program, config)
        budget = reference.trace.steps + config.step_slack
        base = reference.state_at(4)
        faults = [RegZap("r1", 9), RegZap("r6", 3)]
        assert run_step_batch(program, config, reference, budget, 4, base,
                              faults) is None
        assert analysis_for(reference) is not None
        assert run_step_pruned(program, config, reference, budget, 4, base,
                               faults) is not None
        vector = run_campaign(program, CampaignConfig(backend="vector"))
        step = run_campaign(program, CampaignConfig(backend="step",
                                                    prune=False))
        assert report_fingerprint(vector) == report_fingerprint(step)


class TestCampaignComposition:
    def test_pruned_vector_campaign_leaves_no_aux_entries(self):
        # The schedule and the pruner's analysis are views of the
        # reference run's recording: nothing outlives the campaign in the
        # shared derived-artifact cache.
        clear_exec_caches()
        run_campaign(countdown_loop_program(3),
                     _campaign("vector", prune=True))
        assert exec_cache_stats()["aux_entries"] == 0

    def test_jobs_pool_parity(self):
        program = countdown_loop_program(5)
        serial = run_campaign(program, _campaign("step"))
        pooled = run_campaign(program, _campaign("vector"), jobs=2)
        assert report_fingerprint(pooled) == report_fingerprint(serial)

    def test_journal_interoperates_across_backends(self, tmp_path):
        # config_digest excludes the backend: a journal written by the
        # vector engine must resume under the interpreter, bit-identical.
        program = countdown_loop_program(4)
        path = str(tmp_path / "campaign.journal")
        first = run_campaign(program, _campaign("vector"),
                             journal_path=path)
        resumed = run_campaign(program, _campaign("step"),
                               journal_path=path, resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(first)
        assert resumed.resilience.resumed_steps > 0
        assert resumed.resilience.journaled_steps == 0

    def test_vector_downgrades_without_numpy(self, monkeypatch):
        # With numpy "missing", backend="vector" must silently resolve to
        # the compiled engine and still produce the identical report.
        program = countdown_loop_program(3)
        expected = run_campaign(program, _campaign("compiled"))
        monkeypatch.setattr("repro.injection.campaign.vector_available",
                            lambda: False)
        report = run_campaign(program, _campaign("vector"))
        assert report_fingerprint(report) == report_fingerprint(expected)

    def test_unbatchable_step_falls_back_scalar(self, monkeypatch):
        # run_step_batch returning None mid-campaign (here: forced) must
        # fall through to the scalar loop without changing the report.
        program = countdown_loop_program(3)
        expected = run_campaign(program, _campaign("compiled"))
        monkeypatch.setattr("repro.injection.batch.vector_available",
                            lambda: False)
        report = run_campaign(program, _campaign("vector"))
        assert report_fingerprint(report) == report_fingerprint(expected)


class TestModesAndPorts:
    def test_baseline_mode_parity(self):
        # The plain ISA: silent corruptions and timeouts, no detection --
        # exercises the fallback classification paths hard.
        program = compile_source(SOURCE, mode="baseline").program
        config = dict(max_injection_steps=6, max_sites_per_step=None,
                      max_values_per_site=2, seed=5)
        vector = run_campaign(program, CampaignConfig(backend="vector",
                                                      **config))
        step = run_campaign(program, CampaignConfig(backend="step",
                                                    **config))
        assert report_fingerprint(vector) == report_fingerprint(step)

    def test_swift_error_port_parity(self):
        # An error port reclassifies HALTED runs, so the vector engine's
        # MASKED fast path must defer to classify_tail when one is set.
        program = compile_source(SOURCE, mode="swift").program
        config = dict(max_injection_steps=6, max_sites_per_step=None,
                      max_values_per_site=2, seed=5,
                      error_port=ERROR_PORT)
        vector = run_campaign(program, CampaignConfig(backend="vector",
                                                      **config))
        step = run_campaign(program, CampaignConfig(backend="step",
                                                    **config))
        assert report_fingerprint(vector) == report_fingerprint(step)


class TestMetrics:
    def test_vector_counters_are_recorded(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            # Pruning off: this test is about the lane-batch counters,
            # and pruning can classify every variant before a batch runs.
            program = countdown_loop_program(4)
            run_campaign(program, _campaign("vector", prune=False))
            assert fresh.counter("vector_batches_total").value > 0
            assert fresh.counter("vector_lanes_total").value > 0
            assert fresh.counter("vector_lane_steps_total").value > 0
        finally:
            set_registry(previous)
