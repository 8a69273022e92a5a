"""The fuzzer itself: generator validity, printer round-trip, oracle,
minimizer, corpus persistence, runner, CLI -- plus replay of every
committed regression reproducer (the anti-regression ratchet)."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.compiler import compile_source
from repro.fuzz import (
    Corpus,
    FuzzConfig,
    OracleConfig,
    check_program,
    generate_program,
    minimize_program,
    run_fuzz,
)
from repro.fuzz.generator import PROFILES, FuzzProgram, generate_mwl
from repro.lang import check_source, format_source, parse_source

REGRESSIONS = Path(__file__).resolve().parent.parent / "corpus" / "regressions"

#: One light oracle for the whole module (programs are tiny; the default
#: knobs are already small, so this is purely about shared construction).
ORACLE = OracleConfig()


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


class TestGenerator:
    def test_deterministic(self):
        for index in range(6):
            first = generate_program(11, index)
            second = generate_program(11, index)
            assert first == second

    def test_distinct_across_indices(self):
        sources = {generate_program(11, index).source for index in range(12)}
        assert len(sources) > 8

    def test_mwl_programs_parse_and_check(self):
        import random

        for profile, config in sorted(PROFILES.items()):
            for trial in range(4):
                rng = random.Random(f"validity:{profile}:{trial}")
                source = generate_mwl(rng, config)
                check_source(parse_source(source))

    def test_tal_programs_typecheck(self):
        from repro.asm import parse_program

        checked = 0
        for index in range(40):
            program = generate_program(5, index, kind="tal")
            parsed = parse_program(program.source)
            parsed.check()
            checked += 1
        assert checked == 40

    def test_profiles_cover_language_features(self):
        # Across a modest sample the generator must actually exercise
        # loops, branches, calls and multiple arrays -- the knobs the
        # tentpole promises beyond the 4-knob workload generator.
        saw = {"while": False, "if": False, "fn": False}
        arrays = 0
        for index in range(30):
            program = generate_program(13, index, kind="mwl")
            for feature in saw:
                saw[feature] = saw[feature] or f"{feature} " in program.source
            arrays = max(arrays, program.source.count("array "))
        assert all(saw.values()), saw
        assert arrays >= 2


# ---------------------------------------------------------------------------
# Pretty-printer round-trip
# ---------------------------------------------------------------------------


class TestPrinterRoundTrip:
    def test_parse_format_parse_is_identity(self):
        for index in range(25):
            program = generate_program(17, index, kind="mwl")
            ast = parse_source(program.source)
            rendered = format_source(ast)
            assert parse_source(rendered) == ast

    def test_formatted_source_still_checks(self):
        for index in range(10):
            program = generate_program(19, index, kind="mwl")
            check_source(parse_source(format_source(
                parse_source(program.source))))


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


class TestOracle:
    def test_sample_of_generated_programs_passes(self):
        for index in range(10):
            program = generate_program(23, index)
            verdict = check_program(program, ORACLE)
            assert verdict.ok, (program.name, verdict.stage, verdict.detail)
            assert verdict.injections > 0
            # Backend x prune x build matrix all collapsed to fingerprints.
            assert len(verdict.fingerprints) >= 4

    def test_pruned_cells_execute_with_a_cold_memo(self, monkeypatch):
        # Every pruned cell of a build executes as many variants as the
        # first one: no cell replays the outcomes of the cells before it.
        from repro.fuzz import oracle
        from repro.injection.journal import program_digest
        from tests.helpers import executed_variants

        executed = {}
        real = oracle.run_campaign

        def counting(program, config):
            report, count = executed_variants(
                lambda: real(program, config))
            if config.prune:
                executed.setdefault(program_digest(program), []).append(
                    count)
            return report

        monkeypatch.setattr(oracle, "run_campaign", counting)
        for index in range(3):
            verdict = check_program(generate_program(3, index), ORACLE)
            assert verdict.ok, (verdict.stage, verdict.detail)
        assert executed
        for counts in executed.values():
            assert len(counts) > 1
            assert counts == [counts[0]] * len(counts), counts
        assert sum(counts[0] for counts in executed.values()) > 0

    def test_flags_parse_failure(self):
        bad = FuzzProgram(name="bad", kind="mwl", source="var = ;\n")
        verdict = check_program(bad, ORACLE)
        assert not verdict.ok
        assert verdict.stage == "parse"

    def test_flags_semantic_failure(self):
        bad = FuzzProgram(name="bad", kind="mwl",
                          source="array a0[4];\na0[0] = nosuch;\n")
        verdict = check_program(bad, ORACLE)
        assert (verdict.ok, verdict.stage) == (False, "check-source")

    def test_flags_tal_type_error(self):
        # A store through a plain int register: well-formed assembly the
        # checker must reject (and the oracle must classify as such).
        source = (
            ".gprs 8\n"
            ".data\n"
            "  word 256 = 0\n"
            "\n"
            ".code\n"
            "main:\n"
            "  .pre [m: mem] { rest: zero } mem m\n"
            "  mov r1, G 7\n"
            "  mov r2, B 7\n"
            "  stG r1, r1\n"
            "  stB r2, r2\n"
            "  halt\n"
        )
        bad = FuzzProgram(name="bad", kind="tal", source=source)
        verdict = check_program(bad, ORACLE)
        assert (verdict.ok, verdict.stage) == (False, "typecheck")


# ---------------------------------------------------------------------------
# Minimizer
# ---------------------------------------------------------------------------


def _oracle_stage_predicate(program, stage):
    def predicate(source):
        candidate = dataclasses.replace(program, source=source)
        return check_program(candidate, ORACLE).stage == stage
    return predicate


class TestMinimizer:
    def test_planted_mwl_divergence_shrinks_and_still_fails(self):
        # Bury one semantic error (an undeclared name) inside a real
        # generated program: the minimizer must strip the noise and keep
        # the failure.
        base = generate_program(29, 0, kind="mwl", profile="mixed")
        planted = dataclasses.replace(
            base, source=base.source + "a0[0] = planted_undefined;\n")
        verdict = check_program(planted, ORACLE)
        assert (verdict.ok, verdict.stage) == (False, "check-source")

        # Pin the *specific* diagnostic, not just the stage: a stage-only
        # predicate may slide onto an unrelated error of the same kind.
        def predicate(source):
            candidate = dataclasses.replace(planted, source=source)
            result = check_program(candidate, ORACLE)
            return result.stage == "check-source" \
                and "planted_undefined" in result.detail

        result = minimize_program(planted, predicate)
        assert result.reduced
        minimized = result.program
        assert len(minimized.source) < len(planted.source) / 2
        assert "planted_undefined" in minimized.source
        final = check_program(minimized, ORACLE)
        assert (final.ok, final.stage) == (False, "check-source")

    def test_planted_tal_type_error_shrinks_by_lines(self):
        lines = [
            ".gprs 8",
            ".data",
            "  word 256 = 0",
            "",
            ".code",
            "main:",
            "  .pre [m: mem] { rest: zero } mem m",
        ]
        # Noise: replicated constant moves the failure does not need.
        for i in range(1, 4):
            lines.append(f"  mov r{2 * i - 1}, G {i}")
            lines.append(f"  mov r{2 * i}, B {i}")
        lines += ["  stG r1, r1", "  stB r2, r2", "  halt"]
        planted = FuzzProgram(name="planted", kind="tal",
                              source="\n".join(lines) + "\n")
        verdict = check_program(planted, ORACLE)
        assert (verdict.ok, verdict.stage) == (False, "typecheck")

        result = minimize_program(
            planted, _oracle_stage_predicate(planted, "typecheck"))
        assert result.reduced
        assert len(result.source.splitlines()) < len(lines)
        final = check_program(result.program, ORACLE)
        assert (final.ok, final.stage) == (False, "typecheck")

    def test_no_reduction_when_predicate_never_holds(self):
        program = generate_program(29, 1, kind="mwl")
        result = minimize_program(program, lambda source: False)
        assert not result.reduced
        assert result.source == program.source


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


class TestCorpus:
    def test_save_and_reload_round_trip(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        program = generate_program(31, 0, kind="mwl")
        corpus.save("failures", program, {"stage": "differential"})
        corpus.save("minimized", dataclasses.replace(
            program, name=f"{program.name}_min"), {"stage": "differential"})
        entries = corpus.entries()
        assert [entry.category for entry in entries] == \
            ["failures", "minimized"]
        assert entries[0].program.source == program.source
        assert entries[0].meta["stage"] == "differential"
        assert entries[0].program.kind == "mwl"
        assert len(corpus) == 2

    def test_rejects_unknown_category(self, tmp_path):
        corpus = Corpus(tmp_path)
        with pytest.raises(ValueError, match="category"):
            corpus.save("nonsense", generate_program(31, 1))

    def test_committed_regressions_replay_clean(self):
        # Every reproducer the fuzzer ever minimized must keep passing
        # the full oracle: a failure here means a fixed bug came back.
        entries = Corpus(REGRESSIONS).entries()
        assert entries, "committed regression corpus is missing"
        for entry in entries:
            verdict = check_program(entry.program, ORACLE)
            assert verdict.ok, (
                f"regression {entry.path.name} fails again at "
                f"{verdict.stage}: {verdict.detail}")


class TestFrontendStoreAddressRegression:
    """The first bug the fuzzer found: a store whose value inlines a
    call containing a branch used to compute its address *before* the
    branch, so the FT build failed its own type check at the stG in the
    join block ("register ... is not a reference")."""

    def test_repro_compiles_and_typechecks(self):
        source = (REGRESSIONS / "minimized" /
                  "store_value_call_branch.mwl").read_text(encoding="utf-8")
        compile_source(source, mode="ft").program.check()

    def test_branchy_index_and_value_still_typecheck(self):
        # Same shape, index side: the address arithmetic must land in the
        # store's own block no matter where the operand expressions went.
        source = (
            "array a0[4];\n"
            "fn pick(p0) {\n"
            "    var r = 2;\n"
            "    if (p0) {\n"
            "        r = 1;\n"
            "    }\n"
            "    return r;\n"
            "}\n"
            "a0[pick(0)] = pick(1);\n"
        )
        compiled = compile_source(source, mode="ft")
        compiled.program.check()
        verdict = check_program(
            FuzzProgram(name="branchy", kind="mwl", source=source), ORACLE)
        assert verdict.ok, (verdict.stage, verdict.detail)


# ---------------------------------------------------------------------------
# Runner + CLI
# ---------------------------------------------------------------------------


class TestRunner:
    def test_clean_run_reports_and_persists_manifest(self, tmp_path):
        config = FuzzConfig(programs=6, seed=37,
                            corpus_dir=str(tmp_path / "corpus"))
        report = run_fuzz(config)
        assert report.programs == 6
        assert report.ok == 6
        assert report.by_stage == {"ok": 6}
        assert not report.failures
        manifest = json.loads(
            (tmp_path / "corpus" / "manifest_37.json").read_text())
        assert manifest["ok"] == 6
        assert manifest["failed"] == 0

    def test_failure_is_minimized_and_persisted(self, tmp_path, monkeypatch):
        bad = FuzzProgram(
            name="planted", kind="mwl",
            source="array a0[4];\na0[0] = 1;\na0[1] = planted_bad;\n")

        import repro.fuzz.runner as runner_module
        real_generate = runner_module.generate_program

        def planted_generate(seed, index=0, **kwargs):
            if index == 1:
                return bad
            return real_generate(seed, index, **kwargs)

        monkeypatch.setattr(runner_module, "generate_program",
                            planted_generate)
        config = FuzzConfig(programs=3, seed=41,
                            corpus_dir=str(tmp_path / "corpus"),
                            max_failures=1)
        report = run_fuzz(config)
        assert report.failed == 1
        assert report.stopped_early
        failure = report.failures[0]
        assert failure.stage == "check-source"
        assert failure.minimized_source is not None
        assert "planted_bad" in failure.minimized_source
        assert len(failure.minimized_source) < len(bad.source)
        corpus = Corpus(tmp_path / "corpus")
        categories = {entry.category for entry in corpus.entries()}
        assert categories == {"failures", "minimized"}

    def test_config_validation(self):
        with pytest.raises(ValueError, match="programs"):
            FuzzConfig(programs=0)
        with pytest.raises(ValueError, match="profile"):
            FuzzConfig(profile="nonsense")
        with pytest.raises(ValueError, match="kind"):
            FuzzConfig(kind="c")
        with pytest.raises(ValueError, match="tal_fraction"):
            FuzzConfig(tal_fraction=1.5)

    def test_seeded_runs_are_reproducible(self):
        first = run_fuzz(FuzzConfig(programs=4, seed=43)).summary()
        second = run_fuzz(FuzzConfig(programs=4, seed=43)).summary()
        first.pop("elapsed_seconds")
        second.pop("elapsed_seconds")
        assert first == second


class TestCli:
    def test_fuzz_clean_exit_zero(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["fuzz", "--programs", "4", "--seed", "47",
                     "--corpus", str(tmp_path / "corpus")])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 program(s)" in out
        assert "ok: 4" in out
        assert (tmp_path / "corpus" / "manifest_47.json").is_file()

    def test_fuzz_metrics_snapshot(self, tmp_path):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        code = main(["fuzz", "--programs", "2", "--seed", "53",
                     "--metrics", str(metrics)])
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        names = {entry["name"] for entry in snapshot["metrics"]["counters"]}
        assert "fuzz.programs" in names
