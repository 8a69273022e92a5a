"""Tests for the ``talft`` command-line interface."""

import os

import pytest

from repro.asm import parse_program
from repro.cli import main
from repro.compiler import compile_source
from repro.core import run_to_completion

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples",
                        "programs")
STORE_TAL = os.path.join(EXAMPLES, "store.tal")
COUNTDOWN_TAL = os.path.join(EXAMPLES, "countdown.tal")
DOT_MWL = os.path.join(EXAMPLES, "dotproduct.mwl")


class TestCheck:
    def test_check_ok(self, capsys):
        assert main(["check", STORE_TAL]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "fault tolerant" in out

    def test_check_countdown(self, capsys):
        assert main(["check", COUNTDOWN_TAL]) == 0

    def test_check_untyped_build(self, tmp_path, capsys):
        path = str(tmp_path / "baseline.tal")
        assert main(["compile", DOT_MWL, "--mode", "baseline",
                     "--emit-tal", path]) == 0
        capsys.readouterr()
        assert main(["check", path]) == 1
        assert "untyped" in capsys.readouterr().out

    def test_check_ill_typed(self, tmp_path, capsys):
        bad = tmp_path / "bad.tal"
        bad.write_text("""
.gprs 4
.data
  word 100 = 0
.code
main:
  .pre [m: mem] { rest: zero } mem m
  mov r1, G 100
  mov r2, G 5
  stG r1, r2
  stB r1, r2
  halt
""")
        assert main(["check", str(bad)]) == 1
        assert "type error" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.tal"]) == 2


class TestRun:
    def test_run_fault_free(self, capsys):
        assert main(["run", STORE_TAL]) == 0
        out = capsys.readouterr().out
        assert "halted" in out
        assert "M[256] <- 5" in out

    def test_run_with_fault(self, capsys):
        assert main(["run", STORE_TAL, "--fault", "r1=666@2"]) == 0
        out = capsys.readouterr().out
        assert "fault-detected" in out
        assert "M[" not in out  # nothing observable escaped

    def test_run_countdown_outputs(self, capsys):
        assert main(["run", COUNTDOWN_TAL]) == 0
        out = capsys.readouterr().out
        assert out.count("M[256]") == 3

    def test_bad_fault_spec(self):
        with pytest.raises(SystemExit):
            main(["run", STORE_TAL, "--fault", "gibberish"])


class TestCompile:
    def test_compile_ft(self, capsys):
        assert main(["compile", DOT_MWL]) == 0
        out = capsys.readouterr().out
        assert "ft build" in out
        assert "type check: OK" in out

    def test_compile_baseline_listing(self, capsys):
        assert main(["compile", DOT_MWL, "--mode", "baseline",
                     "--listing"]) == 0
        out = capsys.readouterr().out
        assert "baseline build" in out
        assert ".code" in out

    def test_listing_with_preconditions(self, capsys):
        # The FT listing is typed .tal: every label carries its .pre,
        # and the listing parses back to the build.
        assert main(["compile", DOT_MWL, "--listing"]) == 0
        out = capsys.readouterr().out
        listing = out[out.index("; emitted by"):]
        assert ".pre" in listing
        with open(DOT_MWL) as handle:
            build = compile_source(handle.read()).program
        assert parse_program(listing).code == build.code

    @pytest.mark.parametrize("mode", ["baseline", "swift"])
    def test_untyped_emit_tal_runs(self, mode, tmp_path, capsys):
        # Untyped builds round-trip through .tal too: no .pre anywhere,
        # and 'talft run' halts with the build's own outputs.
        path = str(tmp_path / f"{mode}.tal")
        assert main(["compile", DOT_MWL, "--mode", mode,
                     "--emit-tal", path]) == 0
        with open(path) as handle:
            assert ".pre" not in handle.read()
        capsys.readouterr()
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("outcome: halted")
        with open(DOT_MWL) as handle:
            build = compile_source(handle.read(), mode=mode).program
        outputs = run_to_completion(build.boot()).outputs
        assert outputs
        for address, value in outputs:
            assert f"output: M[{address}] <- {value}" in out


class TestTimeAndCampaign:
    def test_time(self, capsys):
        assert main(["time", DOT_MWL]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "TAL-FT" in out and "x)" in out

    def test_campaign(self, capsys):
        assert main(["campaign", DOT_MWL, "--samples", "8"]) == 0
        out = capsys.readouterr().out
        assert "coverage: 100" in out


class TestCampaignValidation:
    """Nonsense knob values must die with exit code 2 and a friendly
    message, not a traceback from deep inside the campaign engine."""

    @pytest.mark.parametrize("flag,value", [
        ("--samples", "0"),
        ("--samples", "-3"),
        ("--jobs", "0"),
        ("--checkpoint-interval", "0"),
        ("--stride", "0"),
        ("--max-retries", "-1"),
        ("--chunk-timeout", "0"),
        ("--chunk-timeout", "-0.5"),
        ("--shards", "0"),
        ("--shards", "-2"),
        ("--shards", "four"),
    ])
    def test_bad_values_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", DOT_MWL, flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "must be" in err

    def test_resume_requires_journal(self, capsys):
        assert main(["campaign", DOT_MWL, "--samples", "4",
                     "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_workers_requires_shards(self, capsys):
        assert main(["campaign", DOT_MWL, "--samples", "4",
                     "--workers", "127.0.0.1:7070"]) == 2
        assert "--shards" in capsys.readouterr().err

    @pytest.mark.parametrize("addresses", [
        "not-an-address", "host:99999", "host:port", ",,,",
        "1:2:3",        # unbracketed multi-colon: rejected, not mis-split
        "::1:7070",     # bare IPv6 literal needs [::1]:7070
        "[::1]7070",    # bracket without the :PORT separator
    ])
    def test_bad_worker_addresses_exit_2(self, addresses, capsys):
        assert main(["campaign", DOT_MWL, "--samples", "4", "--shards", "2",
                     "--workers", addresses]) == 2
        err = capsys.readouterr().err
        assert "--workers" in err

    def test_unreachable_worker_exits_1_with_message(self, capsys):
        # A closed loopback port parses fine but refuses the dial; the
        # coordinator must surface a friendly error, not a traceback.
        import socket

        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()  # nothing listens there now
        assert main(["campaign", DOT_MWL, "--samples", "4", "--shards", "2",
                     "--workers", f"127.0.0.1:{port}"]) == 1
        err = capsys.readouterr().err
        assert "cannot reach shard worker" in err

    def test_authkey_file_requires_workers(self, capsys, tmp_path):
        keyfile = tmp_path / "fleet.key"
        keyfile.write_text("sekrit\n")
        assert main(["campaign", DOT_MWL, "--samples", "4", "--shards", "2",
                     "--authkey-file", str(keyfile)]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_empty_authkey_file_exit_2(self, capsys, tmp_path):
        keyfile = tmp_path / "fleet.key"
        keyfile.write_text("")
        assert main(["campaign", DOT_MWL, "--samples", "4", "--shards", "2",
                     "--workers", "127.0.0.1:7070",
                     "--authkey-file", str(keyfile)]) == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "65536", "http"])
    def test_bad_serve_port_exit_2(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--serve-port", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--serve-port" in err and "must be" in err


class TestCampaignJournal:
    def test_journal_then_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "dot.journal")
        assert main(["campaign", DOT_MWL, "--samples", "6",
                     "--journal", journal]) == 0
        first = capsys.readouterr().out
        assert "journaled_steps" in first
        assert main(["campaign", DOT_MWL, "--samples", "6",
                     "--journal", journal, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed_steps" in second
        # The resumed report reprints the identical campaign summary.
        pick = [line for line in first.splitlines()
                if "resilience" not in line]
        repick = [line for line in second.splitlines()
                  if "resilience" not in line]
        assert pick == repick

    def test_supervision_knobs_accepted(self, capsys):
        assert main(["campaign", DOT_MWL, "--samples", "4", "--jobs", "2",
                     "--chunk-timeout", "30", "--max-retries", "1"]) == 0
        assert "coverage: 100" in capsys.readouterr().out


class TestShardedCampaignCli:
    def test_sharded_matches_single_process_output(self, capsys):
        assert main(["campaign", DOT_MWL, "--samples", "6",
                     "--seed", "7"]) == 0
        single = capsys.readouterr().out.splitlines()[0]
        assert main(["campaign", DOT_MWL, "--samples", "6", "--seed", "7",
                     "--shards", "3"]) == 0
        sharded = capsys.readouterr().out.splitlines()[0]
        assert sharded == single

    def test_sharded_journal_then_plain_resume(self, tmp_path, capsys):
        """``--shards`` and ``--jobs`` runs each write exactly one journal
        at PATH, and a plain resume replays either one into the same
        summary without re-executing anything."""
        import glob

        summaries = []
        for flags in (["--shards", "2"], ["--jobs", "2"]):
            journal = str(tmp_path / f"dot{flags[0]}.journal")
            assert main(["campaign", DOT_MWL, "--samples", "6", "--seed",
                         "7", "--journal", journal] + flags) == 0
            summaries.append(capsys.readouterr().out.splitlines()[0])
            assert sorted(glob.glob(journal + "*")) == [journal,
                                                     journal + ".memo"]
            assert main(["campaign", DOT_MWL, "--samples", "6", "--seed",
                         "7", "--journal", journal, "--resume"]) == 0
            resumed = capsys.readouterr().out.splitlines()
            assert resumed[0] == summaries[-1]
            assert "resumed_steps: 6" in resumed[1]
            assert "journaled_steps" not in resumed[1]
        assert summaries[0] == summaries[1]


class TestChaos:
    def test_chaos_journal_scenarios(self, capsys):
        assert main(["chaos", DOT_MWL, "--samples", "6",
                     "--scenarios", "truncate-journal,recovery"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "all scenario runs passed" in out

    def test_chaos_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["chaos", DOT_MWL, "--scenarios", "bit-rot"])
