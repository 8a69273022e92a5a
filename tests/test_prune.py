"""Tests for masked-fault equivalence pruning (``repro.injection.prune``).

The pruning engine's contract is the same as every other campaign
accelerator in this repo: **bit-identical reports**.  Pruning may skip
executing a fault variant only when the def-use analysis *proves* its
outcome (provably-masked, or provably-detected at a known step), and the
replicated outcome must equal what a real run would produce.  These tests
pin that contract three ways:

* ground truth -- every classification the analysis emits on the small
  typed programs is checked against a real scalar execution of that
  fault (masked claims must mask with the full reference tail, detection
  claims must detect at exactly the predicted step);
* report parity -- pruned campaigns fingerprint-identical to unpruned
  ones on every workload kernel, every backend, process pools, and
  across journal resume in both directions (pruned journal resumed
  unpruned and vice versa);
* the safety nets -- the randomized audit re-executes variants
  unpruned and hard-fails on a forced wrong class or a truncated
  live-register view, and the metrics counters account for every
  variant.
"""

import os

import pytest

from repro.core.faults import fault_sites, is_effective
from repro.core.machine import Outcome
from repro.core.semantics import OobPolicy
from repro.injection import CampaignConfig, config_digest, run_campaign
from repro.injection.campaign import (
    FaultResult,
    SettleRules,
    _reference_run,
    _run_faults,
)
from repro.injection.chaos import report_fingerprint
from repro.injection.prune import (
    PruneAuditError,
    analysis_for,
    classify_fault,
    run_step_pruned,
)
from repro.injection.values import representative_values, with_value
from repro.observe import MetricsRegistry, get_registry, set_registry
from repro.workloads import ALL_KERNELS, compile_kernel
from tests.helpers import (
    countdown_loop_program,
    executed_variants,
    paper_store_program,
)

#: Tiny-but-representative campaign (mirrors tests/test_vector_backend).
_TINY = dict(max_injection_steps=3, max_sites_per_step=4,
             max_values_per_site=1, seed=11, max_steps=500_000)


def _campaign(backend="compiled", *, prune, **overrides):
    params = dict(_TINY)
    params.update(overrides)
    return CampaignConfig(backend=backend, prune=prune, **params)


def _effective_faults(program, base):
    """Every effective single fault at ``base``, in enumeration order."""
    faults = []
    for site in fault_sites(base):
        for value in representative_values(base, site, program, None):
            fault = with_value(site, value)
            if is_effective(base, fault):
                faults.append(fault)
    return faults


class TestClassificationGroundTruth:
    """Every claim the analysis makes is checked against a real run."""

    @pytest.mark.parametrize("program_builder,name", [
        (paper_store_program, "paper-store"),
        (countdown_loop_program, "countdown"),
    ])
    def test_every_claim_matches_scalar_execution(self, program_builder,
                                                  name):
        program = program_builder()
        config = CampaignConfig(seed=5)
        reference = _reference_run(program, config)
        assert reference.trace.outcome is Outcome.HALTED
        analysis = analysis_for(reference)
        assert analysis is not None, f"{name} must be analyzable"
        budget = reference.trace.steps + config.step_slack
        oob_trap = config.oob_policy is OobPolicy.TRAP
        masked_claims = detected_claims = 0
        for step in range(reference.trace.steps):
            base = reference.state_at(step)
            produced = reference.outputs_before(step)
            full_tail = tuple(reference.trace.outputs[produced:])
            for site in fault_sites(base):
                for value in representative_values(base, site, program,
                                                   None):
                    fault = with_value(site, value)
                    if not is_effective(base, fault):
                        continue
                    claim = classify_fault(analysis, fault, step, oob_trap)
                    if claim is None:
                        continue  # declined: always sound
                    outcome, = _run_faults(program, config, reference,
                                           budget, step, base, [fault])
                    _, result, outputs, steps = outcome
                    if claim == ("masked",):
                        masked_claims += 1
                        assert result is FaultResult.MASKED, \
                            (name, step, fault.describe())
                        assert outputs == full_tail
                        assert steps == reference.trace.steps - step
                    else:
                        detected_claims += 1
                        assert claim[0] == "det"
                        assert result is FaultResult.DETECTED, \
                            (name, step, fault.describe())
                        assert steps == claim[1] - step + 1
        # The analysis must actually bite on these programs, or the
        # parity tests below would be vacuous.
        assert masked_claims > 0
        assert detected_claims > 0


class TestKernelParity:
    """Pruned reports are bit-identical on every kernel and backend.

    The unpruned cross-backend equality (step == compiled == vector) is
    already pinned by tests/test_vector_backend and
    tests/test_exec_backend, so one unpruned fingerprint per kernel
    anchors all three pruned backends.
    """

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_pruned_matches_unpruned_on_kernel(self, kernel):
        program = compile_kernel(kernel, "ft").program
        plain = run_campaign(program, _campaign("step", prune=False))
        anchor = report_fingerprint(plain)
        executed = []
        for backend in ("step", "compiled", "vector"):
            pruned, count = executed_variants(lambda: run_campaign(
                program, _campaign(backend, prune=True)))
            assert report_fingerprint(pruned) == anchor, (kernel, backend)
            assert pruned.latency_buckets == plain.latency_buckets
            executed.append(count)
        # Each backend executes its own representatives; none replays
        # the outcomes of the run before it.
        assert executed[0] > 0, kernel
        assert executed == [executed[0]] * 3, (kernel, executed)

    def test_exhaustive_sweep_parity_including_latency_buckets(self):
        # No site cap: the regime pruning is built for.
        program = compile_kernel("vpr", "ft").program
        config = dict(max_injection_steps=4, max_sites_per_step=None,
                      max_values_per_site=2, seed=3)
        pruned = run_campaign(program, CampaignConfig(
            backend="vector", prune=True, **config))
        plain = run_campaign(program, CampaignConfig(
            backend="vector", prune=False, **config))
        assert report_fingerprint(pruned) == report_fingerprint(plain)
        assert pruned.latency_buckets == plain.latency_buckets
        assert pruned.latency_buckets  # the sweep must land latencies

    def test_pool_parity(self):
        program = compile_kernel("vpr", "ft").program
        pruned = run_campaign(program, _campaign(prune=True), jobs=2)
        plain = run_campaign(program, _campaign(prune=False))
        assert report_fingerprint(pruned) == report_fingerprint(plain)


class TestJournalInterop:
    """Pruned and unpruned runs share journal identity and resume each
    other, staying bit-identical either way."""

    def test_config_digest_ignores_prune_knobs(self):
        base = CampaignConfig(seed=7)
        assert config_digest(base) \
            == config_digest(CampaignConfig(seed=7, prune=False)) \
            == config_digest(CampaignConfig(seed=7, prune_audit=0.5))

    @pytest.mark.parametrize("first,second", [(True, False), (False, True)])
    def test_resume_across_prune_modes(self, tmp_path, first, second):
        from repro.injection.chaos import truncate_journal_tail

        program = countdown_loop_program()
        path = str(tmp_path / "c.journal")
        config = dict(seed=99, max_sites_per_step=5, max_values_per_site=2,
                      max_injection_steps=6)
        # Run journaled, "crash" by truncating the journal tail, then
        # resume with the opposite prune mode; the merged report must
        # equal an uninterrupted unpruned run.
        run_campaign(program, CampaignConfig(prune=first, **config),
                     journal_path=path)
        truncate_journal_tail(path)
        resumed = run_campaign(program, CampaignConfig(prune=second,
                                                       **config),
                               journal_path=path, resume=True)
        full = run_campaign(program, CampaignConfig(prune=False, **config))
        assert report_fingerprint(resumed) == report_fingerprint(full)


class TestAudit:
    def test_full_audit_passes_and_counts(self):
        program = countdown_loop_program()
        config = _campaign(prune=True, prune_audit=1.0)
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            audited = run_campaign(program, config)
        finally:
            set_registry(None)
        plain = run_campaign(program, _campaign(prune=False))
        assert report_fingerprint(audited) == report_fingerprint(plain)
        counters = {c["name"]: c["value"]
                    for c in registry.as_dict()["counters"]}
        assert counters.get("prune_audit_runs_total", 0) > 0

    def test_audit_catches_planted_wrong_outcome(self, monkeypatch):
        # Force every effective fault into the masked class.  At a step
        # whose representative really is masked, the class replicates
        # "masked" to members that are not, and the audit's unpruned
        # re-execution must catch the disagreement.
        from repro.injection import prune

        program = countdown_loop_program()
        config = _campaign(prune=True, prune_audit=1.0)
        reference = _reference_run(program, config)
        budget = reference.trace.steps + config.step_slack
        for step in range(reference.trace.steps):
            base = reference.state_at(step)
            faults = _effective_faults(program, base)
            truth = _run_faults(program, _campaign(prune=False), reference,
                                budget, step, base, faults)
            masked = SettleRules(reference, step, config.error_port).masked
            if truth and truth[0][1:] == masked \
                    and any(outcome[1:] != masked for outcome in truth):
                break
        else:
            pytest.fail("no step has a masked representative and an "
                        "unmasked member")
        monkeypatch.setattr(prune, "classify_fault",
                            lambda *args: ("masked",))
        with pytest.raises(PruneAuditError, match="prune audit mismatch"):
            run_step_pruned(program, config, reference, budget, step, base,
                            faults)

    def test_audit_catches_truncated_liveness_view(self, monkeypatch):
        # A live-register view that keeps only the program counters
        # stops executed runs early while a corruption is still live;
        # the audit re-runs them to their end and must disagree.
        from operator import itemgetter

        from repro.core.registers import PC_B, PC_G
        from repro.injection.campaign import Recording

        program = compile_kernel("vpr", "ft").program
        config = CampaignConfig(max_injection_steps=5,
                                max_sites_per_step=None,
                                max_values_per_site=1, seed=20260808,
                                prune=True, prune_audit=1.0)
        run_campaign(program, config)  # the true view passes
        monkeypatch.setattr(Recording, "live_at",
                            lambda self, step: itemgetter(PC_G, PC_B))
        with pytest.raises(PruneAuditError, match="prune audit mismatch"):
            run_campaign(program, config)

    def test_audit_fraction_validated(self):
        with pytest.raises(ValueError, match="prune_audit"):
            CampaignConfig(prune_audit=1.5)
        with pytest.raises(ValueError, match="prune_audit"):
            CampaignConfig(prune_audit=-0.1)


class TestMetrics:
    def test_counters_account_for_every_variant(self):
        program = compile_kernel("vpr", "ft").program
        config = _campaign("vector", prune=True)
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            report = run_campaign(program, config)
        finally:
            set_registry(None)
        counters = {c["name"]: c["value"]
                    for c in registry.as_dict()["counters"]}
        assert counters["prune_steps_total"] > 0
        pruned = counters.get("prune_pruned_variants_total", 0)
        executed = counters.get("prune_executed_total", 0)
        assert pruned > 0  # pruning must bite on a real kernel
        assert pruned + executed == report.injections

    def test_scalar_screen_counter_labels_reasons(self):
        np = pytest.importorskip("numpy")  # noqa: F841 - vector backend
        from repro.core.faults import QueueZapValue, RegZap
        from repro.exec.vector import VMAX
        from repro.injection.batch import _screen_reason, run_step_batch

        # The reason taxonomy itself:
        assert _screen_reason(RegZap("r1", VMAX + 1), {"r1": 0}, 0) \
            == "value-range"
        assert _screen_reason(RegZap("r9", 1), {"r1": 0}, 0) == "site"
        assert _screen_reason(QueueZapValue(2, 1), {"r1": 0}, 1) == "site"
        assert _screen_reason(RegZap("r1", 1), {"r1": 0}, 0) is None

        # And the counter a screened lane increments, end to end.
        program = countdown_loop_program()
        config = CampaignConfig(backend="vector", prune=False)
        reference = _reference_run(program, config)
        budget = reference.trace.steps + config.step_slack
        base = reference.state_at(1)
        faults = [RegZap("r1", VMAX + 1),         # value-range screen
                  RegZap("r1", 12345)]            # vectorizable
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            outcomes = run_step_batch(program, config, reference, budget,
                                      1, base, faults)
        finally:
            set_registry(None)
        assert outcomes is not None and len(outcomes) == 2
        screened = {c["labels"]["reason"]: c["value"]
                    for c in registry.as_dict()["counters"]
                    if c["name"] == "vector_scalar_screened_total"}
        assert screened == {"value-range": 1}


class TestStepDriver:
    def test_declines_without_faults_effect(self):
        # A non-halting reference (impossible here) aside, the driver
        # must at least decline cleanly on an empty fault list.
        program = paper_store_program()
        config = _campaign(prune=True)
        reference = _reference_run(program, config)
        budget = reference.trace.steps + config.step_slack
        base = reference.state_at(0)
        assert run_step_pruned(program, config, reference, budget, 0,
                               base, []) == []

    def test_outcomes_match_unpruned_run_faults(self):
        program = countdown_loop_program()
        config = _campaign(prune=True)
        reference = _reference_run(program, config)
        budget = reference.trace.steps + config.step_slack
        step = 3
        base = reference.state_at(step)
        faults = _effective_faults(program, base)
        assert faults
        pruned = run_step_pruned(program, config, reference, budget, step,
                                 base, list(faults))
        plain = _run_faults(program, config, reference, budget, step,
                            base, list(faults))
        assert pruned == plain


class TestCli:
    EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "programs")
    DOT_MWL = os.path.join(EXAMPLES, "dotproduct.mwl")

    def test_no_prune_flag_runs(self, capsys):
        from repro.cli import main

        assert main(["campaign", self.DOT_MWL, "--samples", "6",
                     "--no-prune"]) == 0
        assert "injections" in capsys.readouterr().out

    def test_pruned_cli_output_matches_no_prune(self, capsys):
        from repro.cli import main

        assert main(["campaign", self.DOT_MWL, "--samples", "6"]) == 0
        pruned_out = capsys.readouterr().out
        assert main(["campaign", self.DOT_MWL, "--samples", "6",
                     "--no-prune"]) == 0
        assert capsys.readouterr().out == pruned_out

    def test_prune_audit_flag_runs(self, capsys):
        from repro.cli import main

        assert main(["campaign", self.DOT_MWL, "--samples", "6",
                     "--prune-audit", "1.0"]) == 0

    def test_prune_audit_out_of_range_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", self.DOT_MWL, "--prune-audit", "1.5"])
        assert excinfo.value.code == 2
        assert "between 0.0 and 1.0" in capsys.readouterr().err
