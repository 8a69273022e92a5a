"""Tests for crash-safe campaigns: journaling, supervision, chaos.

The contract under test is *infrastructure* fault tolerance: whatever the
journal or the worker pool suffers -- truncated files, flipped bits, a
SIGKILLed worker, a stalled chunk -- the final ``CampaignReport`` must be
bit-identical to an uninterrupted serial run (or the journal must be
rejected outright when it belongs to a different campaign).
"""

import os
import random
import warnings

import pytest

from repro.core.framing import unframe
from repro.injection import (
    CampaignConfig,
    ChaosSpec,
    JournalMismatch,
    ResilienceConfig,
    config_digest,
    load_journal,
    program_digest,
    run_campaign,
)
from repro.injection.campaign import _injection_steps, _reference_run
from repro.injection.chaos import (
    corrupt_journal_line,
    report_fingerprint,
    run_scenarios,
    truncate_journal_tail,
)
from repro.injection.journal import (
    CampaignJournal,
    _outcome_from_json,
    _outcome_to_json,
    resume_journal,
)
from tests.helpers import countdown_loop_program, paper_store_program


def _config(**overrides):
    base = dict(seed=99, keep_records=True, max_sites_per_step=5,
                max_values_per_site=2)
    base.update(overrides)
    return CampaignConfig(**base)


class TestJournalRoundTrip:
    def test_outcome_codec_is_lossless(self):
        program = paper_store_program()
        config = _config()
        reference = _reference_run(program, config)
        from repro.injection.campaign import _run_step

        budget = reference.trace.steps + config.step_slack
        outcomes = _run_step(program, config, reference, budget, 1)
        assert outcomes  # the codec test needs real material
        decoded = [_outcome_from_json(_outcome_to_json(o)) for o in outcomes]
        assert decoded == outcomes
        # With a reference tail, MASKED tails collapse to the "=" sentinel
        # and re-expand to the identical tuples.
        ref_tail = tuple(
            reference.trace.outputs[reference.outputs_before(1):])
        framed = [_outcome_to_json(o, ref_tail) for o in outcomes]
        assert any(entry[2] == "=" for entry in framed)
        assert [_outcome_from_json(entry, ref_tail)
                for entry in framed] == outcomes
        # Decoding a sentinel without the tail is a programming error.
        sentinel = next(entry for entry in framed if entry[2] == "=")
        with pytest.raises(ValueError):
            _outcome_from_json(sentinel)

    def test_journal_holds_every_step(self, tmp_path):
        program = paper_store_program()
        config = _config()
        path = str(tmp_path / "c.journal")
        report = run_campaign(program, config, journal_path=path)
        load = load_journal(path, program_digest(program),
                            config_digest(config))
        reference = _reference_run(program, config)
        expected_steps = _injection_steps(reference.num_steps, config)
        assert sorted(load.steps) == expected_steps
        assert load.corrupt_lines == 0
        assert report.resilience.journaled_steps == len(expected_steps)

    def test_resume_with_zero_remaining_steps(self, tmp_path):
        program = paper_store_program()
        config = _config()
        path = str(tmp_path / "c.journal")
        first = run_campaign(program, config, journal_path=path)
        resumed = run_campaign(program, config, journal_path=path,
                               resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(first)
        assert resumed.resilience.resumed_steps == \
            first.resilience.journaled_steps
        assert resumed.resilience.journaled_steps == 0

    def test_empty_campaign_journal(self, tmp_path):
        # A stride past the run length leaves a single injection step; a
        # journal written for it must load and resume cleanly, and the
        # degenerate empty-journal file (header only) must too.
        program = paper_store_program()
        config = _config(step_stride=10_000)
        path = str(tmp_path / "tiny.journal")
        report = run_campaign(program, config, journal_path=path)
        resumed = run_campaign(program, config, journal_path=path,
                               resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(report)
        # Header-only journal: fresh writer, no steps appended.
        empty = str(tmp_path / "empty.journal")
        CampaignJournal.fresh(empty, program_digest(program),
                              config_digest(config)).close()
        load = load_journal(empty, program_digest(program),
                            config_digest(config))
        assert load.has_header and load.steps == {}

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        program = paper_store_program()
        config = _config()
        path = str(tmp_path / "never-written.journal")
        report = run_campaign(program, config, journal_path=path,
                              resume=True)
        assert report.resilience.resumed_steps == 0
        assert report.resilience.journaled_steps > 0
        assert os.path.exists(path)

    def test_config_hash_mismatch_rejected(self, tmp_path):
        program = paper_store_program()
        path = str(tmp_path / "c.journal")
        run_campaign(program, _config(seed=99), journal_path=path)
        with pytest.raises(JournalMismatch):
            run_campaign(program, _config(seed=100), journal_path=path,
                         resume=True)

    def test_program_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "c.journal")
        run_campaign(paper_store_program(), _config(), journal_path=path)
        with pytest.raises(JournalMismatch):
            run_campaign(countdown_loop_program(2), _config(),
                         journal_path=path, resume=True)

    def test_partition_invariant_digest_fields_resume(self, tmp_path):
        # jobs/backend/checkpoint_interval cannot change outcomes, so a
        # journal written under one combination resumes under another.
        program = paper_store_program()
        path = str(tmp_path / "c.journal")
        first = run_campaign(program, _config(checkpoint_interval=8),
                             journal_path=path, backend="step")
        resumed = run_campaign(program, _config(checkpoint_interval=64),
                               journal_path=path, resume=True,
                               backend="compiled")
        assert report_fingerprint(resumed) == report_fingerprint(first)
        assert resumed.resilience.resumed_steps > 0

    def test_corrupt_checksum_line_skipped_with_warning(self, tmp_path):
        program = paper_store_program()
        config = _config()
        path = str(tmp_path / "c.journal")
        reference = run_campaign(program, config, journal_path=path)
        corrupt_journal_line(path, line_index=-1)
        with pytest.warns(UserWarning, match="corrupt"):
            resumed = run_campaign(program, config, journal_path=path,
                                   resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(reference)
        assert resumed.resilience.corrupt_journal_lines == 1
        assert resumed.resilience.journaled_steps == 1  # recomputed

    def test_truncated_tail_with_torn_line_resumes(self, tmp_path):
        program = paper_store_program()
        config = _config()
        path = str(tmp_path / "c.journal")
        reference = run_campaign(program, config, journal_path=path)
        removed = truncate_journal_tail(path, lines=2, torn_bytes=30)
        assert removed == 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = run_campaign(program, config, journal_path=path,
                                   resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(reference)
        assert resumed.resilience.journaled_steps >= 2

    def test_resume_rewrite_compacts_torn_tail(self, tmp_path):
        # resume_journal must rewrite the file so a torn half-line cannot
        # concatenate with the next append.
        program = paper_store_program()
        config = _config()
        path = str(tmp_path / "c.journal")
        run_campaign(program, config, journal_path=path)
        truncate_journal_tail(path, lines=1, torn_bytes=10)
        digests = (program_digest(program), config_digest(config))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # torn-tail skip is expected
            journal, load = resume_journal(path, *digests)
        journal.close()
        with open(path) as handle:
            assert handle.read().endswith("\n")
        reload = load_journal(path, *digests)
        assert reload.corrupt_lines == 0
        assert sorted(reload.steps) == sorted(load.steps)


#: Two programs that differ only in an array initializer.
_INIT_SOURCE = (
    "array data[4] = {%s}; array out[4]; var i = 0; "
    "while (i < 4) { if (data[i] > 5) { out[i] = data[i] * 3; } "
    "else { out[i] = data[i] + 1; } i = i + 1; }")


class TestProgramIdentity:
    """Journal identity covers the whole boot image: programs with the
    same code and different initial memory are different campaigns."""

    CONFIG = CampaignConfig(max_injection_steps=30, max_sites_per_step=10,
                            max_values_per_site=3, seed=5)
    #: B's report from a fresh process (811 masked, 89 detected).
    B_FINGERPRINT = "b5311af466954107"

    def _programs(self):
        from repro.compiler import compile_source

        return (compile_source(_INIT_SOURCE % "3, 5, 7, 9").program,
                compile_source(_INIT_SOURCE % "9, 2, 8, 1").program)

    def test_initial_memory_changes_the_digest(self):
        program_a, program_b = self._programs()
        assert program_a.code == program_b.code
        assert program_digest(program_a) != program_digest(program_b)

    def test_journal_of_other_initial_memory_rejected(self, tmp_path):
        program_a, program_b = self._programs()
        path = str(tmp_path / "a.journal")
        run_campaign(program_a, self.CONFIG, journal_path=path)
        with pytest.raises(JournalMismatch, match="different program"):
            run_campaign(program_b, self.CONFIG, journal_path=path,
                         resume=True)

    def test_memo_of_other_initial_memory_not_replayed(self):
        # B run after A in one process equals B from a fresh process.
        from repro.injection.chaos import fingerprint_digest

        program_a, program_b = self._programs()
        run_campaign(program_a, self.CONFIG)
        report = run_campaign(program_b, self.CONFIG)
        assert (report.masked, report.detected) == (811, 89)
        assert fingerprint_digest(report) == self.B_FINGERPRINT

    def test_version_1_journal_refused_with_version_message(self, tmp_path):
        from repro.core.framing import frame

        program = paper_store_program()
        config = _config()
        path = str(tmp_path / "old.journal")
        with open(path, "w") as handle:
            handle.write(frame({
                "magic": "talft-campaign-journal", "version": 1,
                "program": program_digest(program),
                "config": config_digest(config)}))
        with pytest.raises(JournalMismatch, match="version 1, expected 2"):
            run_campaign(program, config, journal_path=path, resume=True)


class TestArbitraryCutPoints:
    """Resume from a finished journal cut or corrupted at seeded byte
    offsets: the report always matches the uninterrupted run, and only
    the steps whose lines were damaged recompute."""

    TRIALS = 16

    def _finished(self, tmp_path):
        program = countdown_loop_program(3)
        config = _config(max_injection_steps=12)
        path = str(tmp_path / "c.journal")
        report = run_campaign(program, config, journal_path=path)
        with open(path, "rb") as handle:
            pristine = handle.read()
        # Each line's step (None for the header) and the byte span of its
        # content, newline excluded.
        spans, start = [], 0
        for line in pristine.splitlines(keepends=True):
            payload = unframe(line.decode())
            spans.append((payload.get("step"), start,
                          start + len(line.rstrip(b"\n"))))
            start += len(line)
        return program, config, path, report, pristine, spans

    def _resume_and_check(self, program, config, path, report, damaged,
                          lost):
        with open(path, "wb") as handle:
            handle.write(damaged)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # corrupt-line warnings
            resumed = run_campaign(program, config, journal_path=path,
                                   resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(report)
        assert resumed.latency_buckets == report.latency_buckets
        assert resumed.resilience.journaled_steps == len(lost)
        assert resumed.resilience.resumed_steps == \
            report.resilience.journaled_steps - len(lost)

    def test_truncated_at_seeded_offsets(self, tmp_path):
        program, config, path, report, pristine, spans = \
            self._finished(tmp_path)
        rng = random.Random(20261019)
        for offset in rng.sample(range(len(pristine)), self.TRIALS):
            torn = {step for step, _, end in spans if end > offset}
            lost = {step for step, _, _ in spans} - {None} \
                if None in torn else torn
            self._resume_and_check(program, config, path, report,
                                   pristine[:offset], lost)

    def test_byte_flipped_at_seeded_offsets(self, tmp_path):
        program, config, path, report, pristine, spans = \
            self._finished(tmp_path)
        rng = random.Random(20261020)
        # The seeded offsets, then the newline ending the second step.
        offsets = rng.sample(range(len(pristine)), self.TRIALS)
        for offset in offsets + [spans[2][2]]:
            damaged = bytearray(pristine)
            damaged[offset] ^= rng.randrange(1, 256)
            # A line fails when the byte is in its content or its
            # newline, or is the newline before it (the two lines join).
            hit = {step for step, start, end in spans
                   if start - 1 <= offset <= end}
            lost = {step for step, _, _ in spans} - {None} \
                if None in hit else hit
            self._resume_and_check(program, config, path, report,
                                   bytes(damaged), lost)


class TestSupervisedPool:
    def test_supervised_parity_with_serial(self):
        program = countdown_loop_program(3)
        config = _config(max_injection_steps=8)
        serial = run_campaign(program, config, jobs=1)
        supervised = run_campaign(program, config, jobs=2,
                                  resilience=ResilienceConfig())
        assert report_fingerprint(supervised) == report_fingerprint(serial)
        assert supervised.resilience is not None
        assert supervised.resilience.retries == 0

    def test_killed_worker_is_retried_with_parity(self, tmp_path):
        program = paper_store_program()
        config = _config(max_injection_steps=6)
        serial = run_campaign(program, config, jobs=1)
        chaotic = run_campaign(
            program, config, jobs=2,
            resilience=ResilienceConfig(max_retries=3, backoff_base=0.01),
            chaos=ChaosSpec(kill_chunk=1, marker_dir=str(tmp_path)),
        )
        assert report_fingerprint(chaotic) == report_fingerprint(serial)
        stats = chaotic.resilience
        assert stats.worker_crashes >= 1
        assert stats.pool_rebuilds >= 1

    def test_hung_chunk_times_out_and_retries(self, tmp_path):
        program = paper_store_program()
        config = _config(max_injection_steps=6)
        serial = run_campaign(program, config, jobs=1)
        chaotic = run_campaign(
            program, config, jobs=2,
            resilience=ResilienceConfig(chunk_timeout=0.5, max_retries=3,
                                        backoff_base=0.01),
            chaos=ChaosSpec(delay_chunk=1, delay_seconds=3.0,
                            marker_dir=str(tmp_path)),
        )
        assert report_fingerprint(chaotic) == report_fingerprint(serial)
        assert chaotic.resilience.timeouts >= 1

    def test_exhausted_retries_fall_back_to_serial(self, tmp_path):
        # max_retries=0: the first kill exhausts the budget, so the chunk
        # must degrade to in-process execution -- and still match.
        program = paper_store_program()
        config = _config(max_injection_steps=6)
        serial = run_campaign(program, config, jobs=1)
        chaotic = run_campaign(
            program, config, jobs=2,
            resilience=ResilienceConfig(max_retries=0, backoff_base=0.01),
            chaos=ChaosSpec(kill_chunk=1, marker_dir=str(tmp_path)),
        )
        assert report_fingerprint(chaotic) == report_fingerprint(serial)
        assert chaotic.resilience.fallback_chunks >= 1

    def test_forked_workers_inherit_the_reference_run(self, tmp_path):
        """A fork-started pool never walks the reference again, not even
        when it is rebuilt after a killed worker: with every walk after
        the driver's own patched to raise (and the reference
        unpicklable), the pooled report still matches the serial one and
        no chunk falls back.  Runs in a fresh interpreter, so no thread
        left over from another test turns the pool into a spawn-started
        one."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import sys

            from repro.core.pool import mp_context
            from repro.injection import campaign
            from repro.injection import (
                CampaignConfig, ChaosSpec, ResilienceConfig,
            )
            from repro.injection.chaos import fingerprint_digest
            from repro.workloads import compile_kernel

            program = compile_kernel("adpcm", "ft").program
            config = CampaignConfig(max_injection_steps=8, seed=7,
                                    max_sites_per_step=4,
                                    max_values_per_site=1)
            serial = campaign.run_campaign(program, config)
            walk = campaign._reference_run
            walks = []

            def driver_walk_only(*args):
                walks.append(args)
                if len(walks) > 1:
                    raise RuntimeError("a second reference walk")
                return walk(*args)

            def refuse(*args):
                raise RuntimeError("the reference run was pickled")

            campaign._reference_run = driver_walk_only
            campaign.ReferenceRun.__reduce_ex__ = refuse
            pooled = campaign.run_campaign(
                program, config, jobs=2,
                resilience=ResilienceConfig(max_retries=1,
                                            backoff_base=0.01,
                                            serial_fallback=False),
                chaos=ChaosSpec(kill_chunk=1, marker_dir=sys.argv[1]))
            stats = pooled.resilience
            print(mp_context().get_start_method(), len(walks),
                  stats.pool_rebuilds, stats.fallback_chunks,
                  fingerprint_digest(serial), fingerprint_digest(pooled))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                             env=env, capture_output=True, text=True,
                             timeout=240)
        assert out.returncode == 0, out.stderr[-2000:]
        method, walks, rebuilds, fallbacks, serial, pooled = \
            out.stdout.split()
        assert (method, walks, fallbacks) == ("fork", "1", "0")
        assert int(rebuilds) >= 1
        assert pooled == serial

    def test_journal_plus_pool_resume(self, tmp_path):
        # Journaled parallel run, truncated, resumed in parallel: the
        # composition of every resilience layer still reproduces the
        # serial report.
        program = countdown_loop_program(3)
        config = _config(max_injection_steps=10)
        serial = run_campaign(program, config, jobs=1)
        path = str(tmp_path / "c.journal")
        run_campaign(program, config, jobs=2, journal_path=path)
        truncate_journal_tail(path, lines=3)
        resumed = run_campaign(program, config, jobs=2, journal_path=path,
                               resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(serial)
        assert resumed.resilience.resumed_steps > 0


class TestChaosHarness:
    def test_journal_scenarios_on_kernel(self):
        # The full worker-kill scenarios run in the CLI/CI chaos smoke;
        # here the journal-tamper scenarios (serial, fast) pin the
        # harness end to end on a real compiled kernel.
        from repro.workloads import compile_kernel

        program = compile_kernel("adpcm", "ft").program
        results = run_scenarios(
            program, ["truncate-journal", "corrupt-journal", "recovery"],
            config=_config(max_injection_steps=6),
        )
        for result in results:
            assert result.passed, (result.scenario, result.detail)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            run_scenarios(paper_store_program(), ["space-weather"])
