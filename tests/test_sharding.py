"""Tests for sharded campaigns and the remote worker fleet.

Three layers, one contract:

* the campaign driver's order-insensitive merge: steps may arrive in any
  order from any source, and a source that ends with steps missing gets
  no report;
* :mod:`repro.service` -- the wire protocol, the worker loop, the
  fleet's scheduling over TCP workers (work stealing, dead-worker
  reissue), and the HTTP campaign service;
* the contract: a sharded campaign's report is **bit-identical**
  (fingerprint-equal, ``latency_buckets`` included) to the
  single-process run -- under every backend, with pruning on or off,
  with workers dying mid-shard, and across interrupt/resume, with one
  journal per campaign.
"""

import base64
import glob
import json
import os
import pickle
import random
import re
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.asm import emit_tal
from repro.core.pool import chunk
from repro.injection import CampaignConfig, ResilienceConfig, run_campaign
from repro.injection.campaign import (
    _drive,
    _injection_steps,
    _reference_run,
    _run_step,
    resolve_backend_config,
)
from repro.injection.chaos import ChaosSpec, report_fingerprint
from repro.injection.journal import (
    config_digest,
    load_journal,
    program_digest,
)
from repro.service import run_campaign_sharded
from repro.service.protocol import (
    AUTHKEY_ENV,
    Connection,
    ProtocolError,
    coordinator_mac,
    make_nonce,
    parse_address,
    worker_mac,
)
from repro.service.worker import serve_connection
from repro.workloads import compile_kernel

CONFIG = CampaignConfig(max_injection_steps=8, max_sites_per_step=6,
                        max_values_per_site=2, seed=20260808)


def _program(name="adpcm"):
    return compile_kernel(name, "ft").program


def _start_tcp_workers(count):
    """``count`` real ``talft shard-worker --listen 127.0.0.1:0 --once``
    subprocesses and the addresses they announced."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    procs, addresses = [], []
    try:
        for _ in range(count):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "shard-worker",
                 "--listen", "127.0.0.1:0", "--once"],
                stdout=subprocess.PIPE, text=True, env=env)
            procs.append(proc)
            line = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            assert match, f"worker did not announce a port: {line!r}"
            addresses.append((match.group(1), int(match.group(2))))
    except BaseException:
        _stop(procs)
        raise
    return procs, addresses


def _stop(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()


# ---------------------------------------------------------------------------
# Planner: the fleet's shards are contiguous balanced parts of the
# pending steps (repro.core.pool.chunk)
# ---------------------------------------------------------------------------


class TestPlanner:
    def test_partition_is_exact_and_ordered(self):
        parts = chunk(list(range(100)), 7)
        assert len(parts) == 7
        recombined = [step for part in parts for step in part]
        assert recombined == list(range(100))  # contiguous, disjoint, total
        sizes = [len(part) for part in parts]
        assert max(sizes) - min(sizes) <= 1  # balanced

    def test_plan_is_deterministic(self):
        assert chunk(list(range(50)), 4) == chunk(list(range(50)), 4)

    def test_more_shards_than_steps_never_plans_empty_shards(self):
        parts = chunk([3, 9], 8)
        assert len(parts) == 2
        assert all(parts)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            run_campaign_sharded(_program(), CONFIG, shards=0)


# ---------------------------------------------------------------------------
# The driver's order-insensitive merge
# ---------------------------------------------------------------------------


def _outcomes_by_step(program, config):
    reference = _reference_run(program, config)
    budget = reference.trace.steps + config.step_slack
    steps = _injection_steps(reference.num_steps, config)
    return {step: _run_step(program, config, reference, budget, step)
            for step in steps}


def _fake_source(outcomes, order):
    """A step source replaying precomputed outcomes in ``order(steps)``
    -- what a fleet delivering out of order looks like to the driver."""
    def source(config, reference, steps, stats):
        for step in order(list(steps)):
            yield step, outcomes[step]
    return source


def _drive_source(program, config, source, journal_path=None):
    return _drive(program, config, None, None, journal_path, False, None,
                  None, False, None, source=source)


class TestMergeOutcomes:
    def test_any_arrival_order_merges_identically(self, tmp_path):
        program = _program()
        config = resolve_backend_config(program, CONFIG)
        base = run_campaign(program, config)
        outcomes = _outcomes_by_step(program, config)

        def shuffled(steps):
            random.Random(7).shuffle(steps)
            return steps

        journal = str(tmp_path / "c.journal")
        report = _drive_source(program, config,
                               _fake_source(outcomes, shuffled), journal)
        assert report_fingerprint(report) == report_fingerprint(base)
        assert report.latency_buckets == base.latency_buckets
        # Journaled on arrival, in arrival order: a resume replays all.
        resumed = run_campaign(program, config, journal_path=journal,
                               resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(base)
        assert resumed.resilience.resumed_steps == len(outcomes)

    def test_missing_steps_refuse_to_merge(self):
        program = _program()
        config = resolve_backend_config(program, CONFIG)
        outcomes = _outcomes_by_step(program, config)
        with pytest.raises(ValueError, match="missing"):
            _drive_source(program, config, _fake_source(
                outcomes, lambda steps: list(reversed(steps))[:-1]))


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def _pair(self):
        left, right = socket.socketpair()
        return Connection(left), Connection(right)

    def test_round_trip(self):
        a, b = self._pair()
        try:
            a.send({"type": "hello", "n": 42, "nested": {"x": [1, 2]}})
            assert b.recv() == {"type": "hello", "n": 42,
                                "nested": {"x": [1, 2]}}
        finally:
            a.close(), b.close()

    def test_clean_eof_is_none(self):
        a, b = self._pair()
        a.close()
        assert b.recv() is None
        b.close()

    def test_garbage_frame_raises(self):
        left, right = socket.socketpair()
        conn = Connection(right)
        left.sendall(b"\x00\x00\x00\x05notjs")
        with pytest.raises(ProtocolError):
            conn.recv()
        conn.close(), left.close()

    def test_oversized_frame_announcement_raises(self):
        left, right = socket.socketpair()
        conn = Connection(right)
        left.sendall(b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError, match="limit"):
            conn.recv()
        conn.close(), left.close()

    def test_untyped_message_raises(self):
        left, right = socket.socketpair()
        conn = Connection(right)
        payload = json.dumps([1, 2, 3]).encode()
        left.sendall(len(payload).to_bytes(4, "big") + payload)
        with pytest.raises(ProtocolError, match="typed"):
            conn.recv()
        conn.close(), left.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.2:7070") == ("10.0.0.2", 7070)
        assert parse_address("7070") == ("127.0.0.1", 7070)
        with pytest.raises(ValueError):
            parse_address("host:notaport")
        with pytest.raises(ValueError):
            parse_address("host:70707")

    def test_parse_address_ipv6(self):
        assert parse_address("[::1]:7070") == ("::1", 7070)
        assert parse_address("[fe80::2]:7421") == ("fe80::2", 7421)
        # A bare multi-colon address must be rejected, never mis-split
        # into a bogus (host, port) by a right-partition on ':'.
        with pytest.raises(ValueError, match="brackets"):
            parse_address("::1:7070")
        with pytest.raises(ValueError):
            parse_address("[::1]7070")  # bracket without :PORT
        with pytest.raises(ValueError):
            parse_address("[]:7070")  # empty bracketed host

    def test_close_unblocks_a_parked_reader_thread(self):
        """close() must shut the socket down *before* touching the
        BufferedReader: a reader thread parked in recv() holds the
        reader's lock, and closing the file first deadlocks on it --
        exactly the coordinator's timeout force-close path."""
        a, b = self._pair()
        parked = threading.Event()

        def _read():
            parked.set()
            assert b.recv() is None  # unblocked by close(), clean EOF

        thread = threading.Thread(target=_read, daemon=True)
        thread.start()
        parked.wait(timeout=5)
        time.sleep(0.05)  # let the thread actually enter the read
        b.close()  # must not block on the reader's lock
        thread.join(timeout=5)
        assert not thread.is_alive()
        a.close()


# ---------------------------------------------------------------------------
# Sharded execution parity (the tentpole contract)
# ---------------------------------------------------------------------------


def _available_backends():
    from repro.exec.vector import vector_available

    backends = ["step", "compiled"]
    if vector_available():
        backends.append("vector")
    return backends


class TestShardedParity:
    @pytest.mark.parametrize("backend", _available_backends())
    @pytest.mark.parametrize("prune", [False, True])
    def test_local_fleet_matches_single_process(self, backend, prune):
        program = _program()
        config = CampaignConfig(
            max_injection_steps=8, max_sites_per_step=6,
            max_values_per_site=2, seed=20260808, prune=prune,
            backend=backend)
        base = run_campaign(program, config)
        sharded = run_campaign_sharded(program, config, shards=4)
        assert report_fingerprint(sharded) == report_fingerprint(base)
        assert sharded.latency_buckets == base.latency_buckets

    @pytest.mark.parametrize("kernel", ["gsm", "vpr"])
    def test_other_kernels_shard_identically(self, kernel):
        program = _program(kernel)
        base = run_campaign(program, CONFIG)
        sharded = run_campaign_sharded(program, CONFIG, shards=3)
        assert report_fingerprint(sharded) == report_fingerprint(base)

    def test_single_shard_degenerate_case(self):
        program = _program()
        base = run_campaign(program, CONFIG)
        sharded = run_campaign_sharded(program, CONFIG, shards=1)
        assert report_fingerprint(sharded) == report_fingerprint(base)

    def test_spawn_fleet_matches_single_process(self):
        # A second live thread makes the pool spawn its workers, as it
        # does inside the HTTP service (forking a multi-threaded process
        # is unsafe); parity must hold there too.
        from repro.core.pool import mp_context

        program = _program()
        base = run_campaign(program, CONFIG)
        release = threading.Event()
        bystander = threading.Thread(target=release.wait)
        bystander.start()
        try:
            assert mp_context().get_start_method() == "spawn"
            sharded = run_campaign_sharded(program, CONFIG, shards=2)
        finally:
            release.set()
            bystander.join()
        assert report_fingerprint(sharded) == report_fingerprint(base)

    def test_more_workers_than_shards(self):
        program = _program()
        base = run_campaign(program, CONFIG)
        sharded = run_campaign_sharded(program, CONFIG, shards=2,
                                       local_workers=4)
        assert report_fingerprint(sharded) == report_fingerprint(base)

    def test_tcp_worker_fleet(self):
        program = _program()
        base = run_campaign(program, CONFIG)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        procs, addresses = [], []
        try:
            for _ in range(2):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "shard-worker",
                     "--listen", "127.0.0.1:0", "--once"],
                    stdout=subprocess.PIPE, text=True, env=env)
                line = proc.stdout.readline()
                match = re.search(r"listening on ([\d.]+):(\d+)", line)
                assert match, f"worker did not announce a port: {line!r}"
                addresses.append((match.group(1), int(match.group(2))))
                procs.append(proc)
            sharded = run_campaign_sharded(program, CONFIG, shards=4,
                                           workers=addresses)
            assert report_fingerprint(sharded) == report_fingerprint(base)
            for proc in procs:
                assert proc.wait(timeout=30) == 0  # --once exits cleanly
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()


class TestShardedResilience:
    def test_hung_worker_is_force_closed_and_campaign_completes(self):
        """A worker that accepts a shard and then streams nothing must be
        force-closed at its chunk-timeout deadline -- and the force-close
        must not deadlock the scheduler on the reader thread's lock."""
        program = _program()
        base = run_campaign(program, CONFIG)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def _hung_worker():
            sock, _ = listener.accept()
            conn = Connection(sock)
            conn.send({"type": "hello", "host": "hung", "pid": 0,
                       "nonce": make_nonce()})
            try:
                # Swallow the job and shard assignment, produce nothing.
                while conn.recv() is not None:
                    pass
            except (ProtocolError, OSError):
                pass

        thread = threading.Thread(target=_hung_worker, daemon=True)
        thread.start()
        try:
            sharded = run_campaign_sharded(
                program, CONFIG, shards=2, workers=[("127.0.0.1", port)],
                resilience=ResilienceConfig(chunk_timeout=0.5,
                                            max_retries=1,
                                            backoff_base=0.01))
        finally:
            listener.close()
        assert report_fingerprint(sharded) == report_fingerprint(base)
        stats = sharded.resilience
        assert stats.timeouts >= 1
        assert stats.shard_worker_deaths >= 1
        assert stats.fallback_chunks >= 1  # fleet gone -> serial finish


# ---------------------------------------------------------------------------
# Fleet authentication, and a wire that carries no executable payload
# ---------------------------------------------------------------------------


class _EvilPayload:
    """Pickles to a payload whose *unpickling* creates a marker dir --
    proof that a worker unpickled a job."""

    def __init__(self, marker):
        self._marker = str(marker)

    def __reduce__(self):
        return (os.mkdir, (self._marker,))


def _pickled_job(marker):
    """A ``job`` whose program and config are base64 pickles of an
    :class:`_EvilPayload`: what the wire carried before it spoke .tal."""
    payload = base64.b64encode(pickle.dumps(_EvilPayload(marker))).decode()
    return {"type": "job", "program": payload, "config": payload,
            "program_digest": "x", "config_digest": "x",
            "die_after_steps": None}


class TestFleetAuth:
    def _worker_thread(self, authkey):
        left, right = socket.socketpair()
        thread = threading.Thread(target=serve_connection,
                                  args=(right,), kwargs={"authkey": authkey},
                                  daemon=True)
        thread.start()
        return Connection(left), thread

    def test_handshake_round_trip(self):
        key = b"fleet-secret"
        conn, thread = self._worker_thread(key)
        hello = conn.recv()
        assert hello["type"] == "hello" and hello["nonce"]
        nonce = make_nonce()
        conn.send({"type": "auth",
                   "mac": coordinator_mac(key, hello["nonce"]),
                   "nonce": nonce})
        reply = conn.recv()
        assert reply["type"] == "auth-ok"
        assert reply["mac"] == worker_mac(key, nonce)
        conn.send({"type": "shutdown"})
        assert conn.recv()["type"] == "bye"
        thread.join(timeout=10)
        conn.close()

    def test_keyed_worker_never_unpickles_unauthenticated_job(self,
                                                              tmp_path):
        marker = tmp_path / "pwned"
        conn, thread = self._worker_thread(b"fleet-secret")
        assert conn.recv()["type"] == "hello"
        conn.send(_pickled_job(marker))
        assert conn.recv() is None  # worker refused and closed
        thread.join(timeout=10)
        assert not marker.exists()
        conn.close()

    def test_keyless_worker_never_unpickles_job(self, tmp_path):
        # Past the handshake too, a pickle is text that does not parse.
        marker = tmp_path / "pwned"
        conn, thread = self._worker_thread(None)
        assert conn.recv()["type"] == "hello"
        conn.send(_pickled_job(marker))
        assert conn.recv() is None  # unreadable job: worker closed
        thread.join(timeout=10)
        assert not marker.exists()
        conn.close()

    def test_job_must_match_its_digests(self):
        program = compile_kernel("adpcm", "baseline").program
        conn, thread = self._worker_thread(None)
        assert conn.recv()["type"] == "hello"
        conn.send({"type": "job", "program": emit_tal(program),
                   "config": CONFIG.to_dict(),
                   "program_digest": program_digest(program),
                   "config_digest": "0000000000000000",
                   "die_after_steps": None})
        assert conn.recv() is None
        thread.join(timeout=10)
        conn.close()

    def test_keyed_worker_rejects_wrong_key(self):
        conn, thread = self._worker_thread(b"right-key")
        hello = conn.recv()
        conn.send({"type": "auth",
                   "mac": coordinator_mac(b"wrong-key", hello["nonce"]),
                   "nonce": make_nonce()})
        assert conn.recv() is None
        thread.join(timeout=10)
        conn.close()

    def test_keyless_worker_refuses_keyed_coordinator(self):
        conn, thread = self._worker_thread(None)
        hello = conn.recv()
        conn.send({"type": "auth",
                   "mac": coordinator_mac(b"some-key", hello["nonce"]),
                   "nonce": make_nonce()})
        assert conn.recv() is None  # fails loudly, no silent downgrade
        thread.join(timeout=10)
        conn.close()

    @pytest.mark.parametrize("shard", [
        {}, {"shard": 0}, {"shard": 0, "steps": 3},
        {"shard": 0, "steps": ["x"]}, {"shard": 0, "steps": [10 ** 9]},
    ])
    def test_malformed_shard_closes_the_connection(self, shard):
        # A bad assignment ends this connection; serve_connection returns
        # normally, so a listening worker process goes on serving.
        program = compile_kernel("adpcm", "baseline").program
        left, right = socket.socketpair()
        errors = []

        def serve():
            try:
                serve_connection(right)
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        conn = Connection(left)
        assert conn.recv()["type"] == "hello"
        conn.send({"type": "job", "program": emit_tal(program),
                   "config": CONFIG.to_dict(),
                   "program_digest": program_digest(program),
                   "config_digest": config_digest(CONFIG)})
        conn.send(dict(shard, type="shard"))
        assert conn.recv() is None
        thread.join(timeout=10)
        assert not thread.is_alive() and errors == []
        conn.close()

    def test_listen_on_loopback_needs_no_key(self):
        # A keyless worker serves a whole campaign; an untyped baseline
        # build (.tal without .pre) crosses the wire and reports the same.
        program = compile_kernel("adpcm", "baseline").program
        base = run_campaign(program, CONFIG)
        procs, addresses = _start_tcp_workers(1)
        try:
            sharded = run_campaign_sharded(program, CONFIG, shards=2,
                                           workers=addresses)
        finally:
            _stop(procs)
        assert report_fingerprint(sharded) == report_fingerprint(base)
        assert sharded.latency_buckets == base.latency_buckets
        assert sharded.resilience.fallback_chunks == 0

    def test_tcp_fleet_with_shared_key_parity(self):
        program = _program()
        base = run_campaign(program, CONFIG)
        key = "tcp-fleet-secret"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        env[AUTHKEY_ENV] = key
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "shard-worker",
             "--listen", "127.0.0.1:0", "--once"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            assert match, f"worker did not announce a port: {line!r}"
            address = (match.group(1), int(match.group(2)))
            sharded = run_campaign_sharded(
                program, CONFIG, shards=2, workers=[address],
                authkey=key.encode("utf-8"))
            assert report_fingerprint(sharded) == report_fingerprint(base)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_mismatched_keys_degrade_to_serial_parity(self):
        """A coordinator with the wrong key is refused by every worker;
        the campaign still completes (serial fallback), bit-identically."""
        program = _program()
        base = run_campaign(program, CONFIG)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        env[AUTHKEY_ENV] = "worker-side-key"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "shard-worker",
             "--listen", "127.0.0.1:0", "--once"],
            stdout=subprocess.PIPE, text=True, env=env)
        try:
            line = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            assert match
            address = (match.group(1), int(match.group(2)))
            sharded = run_campaign_sharded(
                program, CONFIG, shards=2, workers=[address],
                authkey=b"coordinator-side-key")
            assert report_fingerprint(sharded) == report_fingerprint(base)
            assert sharded.resilience.fallback_chunks >= 1
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


class TestChaosKillShardWorker:
    def test_killed_worker_reissues_bit_identically(self):
        """Fleet worker 0 -- a real ``talft shard-worker`` subprocess --
        SIGKILLs itself after streaming one step; its unfinished tail is
        reissued to the survivor and the report stays bit-identical.

        Two shards of 20 steps each: the survivor cannot run out of work
        (and steal the doomed tail) until it has run 20 steps, so the
        death is read long before the campaign could finish without it.
        """
        program = _program()
        config = CampaignConfig(max_injection_steps=40, max_sites_per_step=6,
                                max_values_per_site=2, seed=20260808)
        base = run_campaign(program, config)
        chaos = ChaosSpec(kill_shard_worker=0, kill_shard_after_steps=1)
        procs, addresses = _start_tcp_workers(2)
        try:
            sharded = run_campaign_sharded(
                program, config, shards=2, workers=addresses, chaos=chaos,
                resilience=ResilienceConfig(max_retries=3,
                                            backoff_base=0.01))
        finally:
            _stop(procs)
        assert report_fingerprint(sharded) == report_fingerprint(base)
        stats = sharded.resilience
        assert stats.shard_worker_deaths >= 1
        assert stats.retries >= 1 or stats.shard_steals >= 1


# ---------------------------------------------------------------------------
# Journals: one per campaign, interrupt, resume
# ---------------------------------------------------------------------------


class TestShardJournals:
    @pytest.mark.parametrize("engine", ["shards", "jobs"])
    def test_one_journal_per_campaign(self, tmp_path, engine):
        program = _program()
        journal = str(tmp_path / "c.journal")
        if engine == "shards":
            run_campaign_sharded(program, CONFIG, shards=3,
                                 journal_path=journal)
        else:
            run_campaign(program, CONFIG, jobs=3, journal_path=journal)
        assert glob.glob(journal + ".shard-*") == []
        load = load_journal(journal, program_digest(program),
                            config_digest(CONFIG))
        assert len(load.steps) == 8

    @pytest.mark.parametrize("prune", [False, True])
    def test_interrupted_run_resumes_bit_identically(self, tmp_path, prune):
        """Interrupt simulation: crash-truncate the journal's tail, then
        ``resume`` -- only the lost steps recompute, and the report is
        bit-identical in both prune modes."""
        from repro.injection.chaos import truncate_journal_tail

        program = _program()
        config = CampaignConfig(
            max_injection_steps=8, max_sites_per_step=6,
            max_values_per_site=2, seed=20260808, prune=prune)
        base = run_campaign(program, config)
        journal = str(tmp_path / "c.journal")
        run_campaign_sharded(program, config, shards=3, journal_path=journal)
        truncate_journal_tail(journal, lines=2, torn_bytes=20)
        with pytest.warns(UserWarning):
            resumed = run_campaign_sharded(program, config, shards=3,
                                           journal_path=journal, resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(base)
        stats = resumed.resilience
        assert stats.resumed_steps == 6  # 8 total minus the 2 truncated
        assert stats.journaled_steps == 2  # only the lost tail re-ran

    def test_resume_across_shard_counts(self, tmp_path):
        """Shard count is execution topology, not campaign identity: a
        4-shard resume accepts a 3-shard journal (and a single-process
        journal) interchangeably."""
        program = _program()
        base = run_campaign(program, CONFIG)
        journal = str(tmp_path / "c.journal")
        run_campaign_sharded(program, CONFIG, shards=3, journal_path=journal)
        resumed = run_campaign_sharded(program, CONFIG, shards=4,
                                       journal_path=journal, resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(base)
        assert resumed.resilience.resumed_steps == 8
        assert resumed.resilience.journaled_steps == 0

    def test_sharded_resume_reads_single_process_journal(self, tmp_path):
        program = _program()
        journal = str(tmp_path / "c.journal")
        base = run_campaign(program, CONFIG, journal_path=journal)
        resumed = run_campaign_sharded(program, CONFIG, shards=3,
                                       journal_path=journal, resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(base)
        assert resumed.resilience.resumed_steps == 8

    def test_tcp_fleet_writes_one_journal(self, tmp_path):
        program = _program()
        base = run_campaign(program, CONFIG)
        journal = str(tmp_path / "c.journal")
        procs, addresses = _start_tcp_workers(2)
        try:
            sharded = run_campaign_sharded(program, CONFIG, shards=4,
                                           workers=addresses,
                                           journal_path=journal)
        finally:
            _stop(procs)
        assert report_fingerprint(sharded) == report_fingerprint(base)
        assert sharded.resilience.journaled_steps == 8
        assert glob.glob(journal + ".shard-*") == []
        resumed = run_campaign(program, CONFIG, journal_path=journal,
                               resume=True)
        assert report_fingerprint(resumed) == report_fingerprint(base)
        assert resumed.resilience.resumed_steps == 8


# ---------------------------------------------------------------------------
# The HTTP campaign service
# ---------------------------------------------------------------------------


@pytest.fixture
def service_url():
    from repro.service.server import http_server

    server, service = http_server("127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        # Leave no scheduler thread behind: later pools in this process
        # would spawn instead of fork.
        service.close(timeout=60)


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _wait_for_job(base, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, job = _get(f"{base}/jobs/{job_id}")
        if job["status"] in ("done", "error"):
            return job
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not finish in {timeout}s")


class TestCampaignService:
    def test_healthz(self, service_url):
        status, body = _get(service_url + "/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_job_lifecycle_with_progress(self, service_url):
        status, body = _post(service_url + "/jobs", {
            "kernel": "adpcm",
            "config": {"max_injection_steps": 6, "max_sites_per_step": 6,
                       "max_values_per_site": 2, "seed": 3}})
        assert status == 202
        job = _wait_for_job(service_url, body["id"])
        assert job["status"] == "done", job.get("error")
        assert job["progress"] == {"done": 6, "total": 6}
        assert job["result"]["injections"] > 0
        assert "coverage" in job["result"]
        _, listing = _get(service_url + "/jobs")
        assert any(entry["id"] == body["id"] for entry in listing["jobs"])

    def test_sharded_job_through_service(self, service_url):
        status, body = _post(service_url + "/jobs", {
            "kernel": "adpcm", "shards": 2,
            "config": {"max_injection_steps": 6, "max_sites_per_step": 6,
                       "max_values_per_site": 2, "seed": 3}})
        assert status == 202
        job = _wait_for_job(service_url, body["id"])
        assert job["status"] == "done", job.get("error")
        assert job["result"]["summary"].startswith(
            str(job["result"]["injections"]))

    @pytest.mark.parametrize("payload,complaint", [
        ({"kernel": "bogus"}, "unknown kernel"),
        ({"kernel": "adpcm", "mode": "wat"}, "unknown mode"),
        ({"kernel": "adpcm", "shards": 0}, "shards"),
        ({"kernel": "adpcm", "config": {"nope": 1}}, "unknown config keys"),
        ({"kernel": "adpcm", "config": {"max_injection_steps": -1}},
         "invalid campaign config"),
    ])
    def test_submission_validation_is_400(self, service_url, payload,
                                          complaint):
        status, body = _post(service_url + "/jobs", payload)
        assert status == 400
        assert complaint in body["error"]

    def test_unknown_job_is_404(self, service_url):
        try:
            urllib.request.urlopen(service_url + "/jobs/job-999")
            raise AssertionError("expected a 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404

    def test_metrics_exposition(self, service_url):
        with urllib.request.urlopen(service_url + "/metrics") as response:
            assert response.status == 200
            assert "text/plain" in response.headers["Content-Type"]
