"""The durable multi-tenant campaign service (PR 9).

Three layers, tested bottom-up:

* :mod:`repro.service.store` -- the CRC-framed job journal: record /
  replay round trips, compaction, torn-tail and corrupt-line tolerance,
  id continuation across restarts;
* :mod:`repro.service.scheduler` -- weighted fair queueing: priority
  order, tenant interleaving, bounded admission (QueueFull +
  Retry-After), cancellation, drain;
* :mod:`repro.service.server` -- the HTTP control plane: validation,
  cancellation endpoints, retention, backpressure, the concurrent
  submission hammer, and crash-restart recovery with bit-identical
  resumed reports.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.injection.campaign import CampaignConfig, run_campaign
from repro.injection.chaos import (
    fingerprint_digest,
    truncate_journal_tail,
)
from repro.core.framing import frame
from repro.service.scheduler import (
    FairScheduler,
    QueueFull,
    SchedulerDraining,
    parse_tenant_weights,
)
from repro.service.server import CampaignService, http_server
from repro.service.store import JobStore, _replay
from repro.workloads import compile_kernel

SMALL = {"max_injection_steps": 3, "max_sites_per_step": 3,
         "max_values_per_site": 2, "seed": 5}


def _job(job_id, status="queued", **extra):
    job = {"id": job_id, "kernel": "adpcm", "mode": "ft", "shards": 1,
           "tenant": "default", "priority": 0, "timeout": None,
           "config": dict(SMALL), "status": status,
           "progress": {"done": 0, "total": None},
           "result": None, "error": None}
    job.update(extra)
    return job


# ---------------------------------------------------------------------------
# JobStore
# ---------------------------------------------------------------------------


class TestJobStore:
    def test_record_replay_round_trip(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.open()
        store.record_submit(_job("job-1"))
        store.record_state("job-1", "running")
        store.record_result("job-1", {"injections": 9})
        store.record_state("job-1", "done")
        store.record_submit(_job("job-2", tenant="teamB", priority=7))
        store.close()

        load = JobStore(str(tmp_path)).open()
        assert set(load.jobs) == {"job-1", "job-2"}
        assert load.jobs["job-1"]["status"] == "done"
        assert load.jobs["job-1"]["result"] == {"injections": 9}
        assert load.jobs["job-2"]["status"] == "queued"
        assert load.jobs["job-2"]["tenant"] == "teamB"
        assert load.jobs["job-2"]["priority"] == 7
        assert load.corrupt_lines == 0

    def test_next_id_continues_after_restart(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.open()
        store.record_submit(_job("job-41"))
        store.record_submit(_job("job-7"))
        store.close()
        assert JobStore(str(tmp_path)).open().next_id == 42

    def test_open_compacts_to_one_line_per_job(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.open()
        store.record_submit(_job("job-1"))
        for status in ("running", "queued", "running", "done"):
            store.record_state("job-1", status)
        store.close()
        reopened = JobStore(str(tmp_path))
        load = reopened.open()
        reopened.close()
        assert load.jobs["job-1"]["status"] == "done"
        with open(reopened.path) as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 2  # header + one compacted snapshot

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.open()
        store.record_submit(_job("job-1", status="done"))
        store.record_submit(_job("job-2"))
        store.close()
        truncate_journal_tail(store.path, lines=1, torn_bytes=20)
        with pytest.warns(UserWarning, match="corrupt"):
            load = JobStore(str(tmp_path)).open()
        assert set(load.jobs) == {"job-1"}
        assert load.corrupt_lines == 1

    def test_events_for_unknown_jobs_count_as_corrupt(self, tmp_path):
        path = tmp_path / JobStore.JOURNAL_NAME
        with open(path, "w") as handle:
            handle.write(frame({"magic": "talft-job-journal",
                                 "version": 1}))
            handle.write(frame({"event": "state", "id": "job-9",
                                 "status": "done"}))
            handle.write(frame({"event": "wat"}))
        with pytest.warns(UserWarning):
            load = _replay(str(path))
        assert load.jobs == {}
        assert load.corrupt_lines == 2

    def test_recording_requires_open(self, tmp_path):
        with pytest.raises(RuntimeError, match="open"):
            JobStore(str(tmp_path)).record_state("job-1", "done")


# ---------------------------------------------------------------------------
# FairScheduler
# ---------------------------------------------------------------------------


class _Recorder:
    """Stub runner: records dispatch order, optionally blocks."""

    def __init__(self):
        self.order = []
        self.gate = threading.Event()
        self.blocking = False
        self.started = threading.Event()

    def __call__(self, job_id):
        self.order.append(job_id)
        self.started.set()
        if self.blocking:
            self.gate.wait(timeout=30)


def _drained(scheduler, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if scheduler.idle():
            return True
        time.sleep(0.01)
    return False


class TestFairScheduler:
    def _blocked(self, recorder, **kwargs):
        """A scheduler whose single worker is parked on a blocker job,
        so everything submitted next queues up behind it."""
        recorder.blocking = True
        scheduler = FairScheduler(recorder, max_concurrent=1, **kwargs)
        self.__dict__.setdefault("made", []).append((recorder, scheduler))
        scheduler.submit("blocker")
        assert recorder.started.wait(timeout=10)
        return scheduler

    def teardown_method(self, method):
        # Stop every worker thread: one left parked would make later
        # process pools in this interpreter spawn instead of fork.
        for recorder, scheduler in self.__dict__.get("made", []):
            recorder.gate.set()
            scheduler.drain(timeout=10)

    def test_priority_within_tenant_then_fifo(self):
        recorder = _Recorder()
        scheduler = self._blocked(recorder, queue_limit=10)
        for job_id, priority in (("low", -5), ("mid-a", 0), ("high", 9),
                                 ("mid-b", 0)):
            scheduler.submit(job_id, tenant="t", priority=priority)
        recorder.gate.set()
        assert _drained(scheduler)
        assert recorder.order == ["blocker", "high", "mid-a", "mid-b",
                                  "low"]

    def test_equal_weights_alternate_tenants(self):
        recorder = _Recorder()
        scheduler = self._blocked(recorder, queue_limit=20)
        for index in range(4):
            scheduler.submit(f"a{index}", tenant="alpha")
        for index in range(4):
            scheduler.submit(f"b{index}", tenant="beta")
        recorder.gate.set()
        assert _drained(scheduler)
        tenants = [job_id[0] for job_id in recorder.order[1:]]
        # Strict alternation: every prefix is balanced within one job.
        for length in range(1, len(tenants) + 1):
            prefix = tenants[:length]
            assert abs(prefix.count("a") - prefix.count("b")) <= 1, tenants

    def test_weighted_tenant_gets_proportional_slots(self):
        recorder = _Recorder()
        scheduler = self._blocked(
            recorder, queue_limit=30,
            tenant_weights={"heavy": 2.0, "light": 1.0})
        for index in range(6):
            scheduler.submit(f"h{index}", tenant="heavy")
        for index in range(3):
            scheduler.submit(f"l{index}", tenant="light")
        recorder.gate.set()
        assert _drained(scheduler)
        tenants = [job_id[0] for job_id in recorder.order[1:]]
        # Weight 2 vs 1: every 3-dispatch window holds 2 heavy + 1 light
        # until the light tenant runs dry.
        assert tenants[:9].count("l") == 3
        for window_start in (0, 3, 6):
            window = tenants[window_start:window_start + 3]
            assert window.count("h") == 2 and window.count("l") == 1, tenants

    def test_queue_full_raises_with_retry_after(self):
        recorder = _Recorder()
        scheduler = self._blocked(recorder, queue_limit=2)
        scheduler.submit("q1")
        scheduler.submit("q2")
        with pytest.raises(QueueFull) as excinfo:
            scheduler.submit("q3")
        assert excinfo.value.retry_after >= 1
        recorder.gate.set()
        assert _drained(scheduler)
        assert "q3" not in recorder.order

    def test_cancel_queued_running_and_unknown(self):
        recorder = _Recorder()
        scheduler = self._blocked(recorder, queue_limit=10)
        scheduler.submit("victim")
        assert scheduler.cancel("victim") == "queued"
        assert scheduler.cancel("blocker") == "running"
        assert scheduler.cancel_event("blocker").is_set()
        assert scheduler.cancel("nope") is None
        recorder.gate.set()
        assert _drained(scheduler)
        assert "victim" not in recorder.order

    def test_drain_refuses_new_work_and_unqueues(self):
        recorder = _Recorder()
        scheduler = self._blocked(recorder, queue_limit=10)
        scheduler.submit("parked")
        recorder.gate.set()
        assert scheduler.drain(timeout=10)
        assert scheduler.drain_event.is_set()
        assert "parked" not in recorder.order
        with pytest.raises(SchedulerDraining):
            scheduler.submit("late")

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_concurrent"):
            FairScheduler(lambda job_id: None, max_concurrent=0)
        with pytest.raises(ValueError, match="queue_limit"):
            FairScheduler(lambda job_id: None, queue_limit=0)
        with pytest.raises(ValueError, match="positive"):
            FairScheduler(lambda job_id: None,
                          tenant_weights={"t": 0.0})

    def test_parse_tenant_weights(self):
        assert parse_tenant_weights(["teamA=2", "teamB=1.5"]) == {
            "teamA": 2.0, "teamB": 1.5}
        for bad in ("teamA", "=2", "teamA=x", "teamA=0", "teamA=-1"):
            with pytest.raises(ValueError, match="invalid tenant weight"):
                parse_tenant_weights([bad])


# ---------------------------------------------------------------------------
# The HTTP service
# ---------------------------------------------------------------------------


def _serve(service=None):
    server, service = http_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, service, f"http://127.0.0.1:{server.server_address[1]}"


def _request(method, url, payload=None, headers=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method,
                                     headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read()), \
                dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture
def service_trio():
    server, service, base = _serve()
    try:
        yield server, service, base
    finally:
        server.shutdown()
        server.server_close()
        service._scheduler.drain(timeout=30, interrupt=True)


SLOW = {"max_injection_steps": 24, "max_sites_per_step": 6,
        "max_values_per_site": 2, "seed": 7}

#: A job too slow to finish on its own: tests that need a job still
#: running when they assert park the worker on it (after
#: ``_wait_running``) and cancel it at the end.
BLOCKER = dict(SLOW, max_injection_steps=100_000)


def _wait_running(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.job(job_id)
        if job["status"] == "running" and job["progress"]["done"] > 0:
            return job
        if job["status"] not in ("queued", "running"):
            raise AssertionError(f"job settled early: {job}")
        time.sleep(0.01)
    raise AssertionError(f"{job_id} never started running")


class TestServiceValidation:
    @pytest.mark.parametrize("payload,complaint", [
        ({"kernel": "adpcm", "tenant": ""}, "tenant"),
        ({"kernel": "adpcm", "tenant": 7}, "tenant"),
        ({"kernel": "adpcm", "priority": "high"}, "priority"),
        ({"kernel": "adpcm", "priority": 5000}, "priority"),
        ({"kernel": "adpcm", "timeout": 0}, "timeout"),
        ({"kernel": "adpcm", "timeout": "soon"}, "timeout"),
        ({"kernel": "adpcm", "surprise": 1}, "unknown job keys"),
    ])
    def test_submission_validation(self, service_trio, payload, complaint):
        _, _, base = service_trio
        status, body, _ = _request("POST", base + "/jobs", payload)
        assert status == 400
        assert complaint in body["error"]

    def test_oversized_body_is_413(self, service_trio):
        _, _, base = service_trio
        status, body, _ = _request(
            "POST", base + "/jobs", {"kernel": "adpcm"},
            headers={"Content-Length": str(2 << 20)})
        assert status == 413
        assert "exceeds" in body["error"]

    def test_unknown_jobs_filter_is_400(self, service_trio):
        _, _, base = service_trio
        status, body, _ = _request("GET", base + "/jobs?owner=me")
        assert status == 400
        assert "unknown query parameters" in body["error"]

    def test_stride_knob_maps_to_step_stride(self, service_trio):
        _, service, base = service_trio
        status, body, _ = _request("POST", base + "/jobs", {
            "kernel": "adpcm",
            "config": dict(SMALL, stride=2)})
        assert status == 202, body
        job = service.wait(body["id"], timeout=120)
        assert job["status"] == "done", job["error"]


class TestCancellationAndTimeouts:
    def test_cancel_queued_job(self, service_trio):
        _, service, base = service_trio
        _, blocker, _ = _request("POST", base + "/jobs",
                                 {"kernel": "adpcm", "config": BLOCKER})
        _wait_running(service, blocker["id"])
        _, queued, _ = _request("POST", base + "/jobs",
                                {"kernel": "adpcm", "config": SMALL})
        status, body, _ = _request("DELETE",
                                   f"{base}/jobs/{queued['id']}")
        assert (status, body["status"]) == (200, "cancelled")
        assert service.job(queued["id"])["status"] == "cancelled"
        # Idempotence-ish: a settled job refuses further cancels.
        status, body, _ = _request("DELETE",
                                   f"{base}/jobs/{queued['id']}")
        assert status == 409
        _request("DELETE", f"{base}/jobs/{blocker['id']}")
        service.wait(blocker["id"], timeout=120)

    def test_cancel_running_job_aborts_cooperatively(self, service_trio):
        _, service, base = service_trio
        _, body, _ = _request("POST", base + "/jobs",
                              {"kernel": "adpcm", "config": BLOCKER})
        _wait_running(service, body["id"])
        status, verdict, _ = _request("DELETE", f"{base}/jobs/{body['id']}")
        assert (status, verdict["status"]) == (202, "cancelling")
        job = service.wait(body["id"], timeout=120)
        assert job["status"] == "cancelled"
        assert job["result"] is None

    def test_cancel_unknown_job_is_404(self, service_trio):
        _, _, base = service_trio
        status, _, _ = _request("DELETE", base + "/jobs/job-404")
        assert status == 404

    def test_timeout_settles_as_error(self, service_trio):
        _, service, base = service_trio
        _, body, _ = _request("POST", base + "/jobs", {
            "kernel": "adpcm", "timeout": 0.001, "config": SLOW})
        job = service.wait(body["id"], timeout=120)
        assert job["status"] == "error"
        assert "timed out" in job["error"]


class TestRetentionAndFilters:
    def test_settled_retention_cap(self, tmp_path):
        service = CampaignService(state_dir=str(tmp_path),
                                  job_retention=2)
        ids = [service.submit({"kernel": "adpcm", "config": SMALL})
               for _ in range(4)]
        for job_id in ids:
            service.wait(job_id, timeout=240)
        # Give the final _transition's lock window a beat to settle.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and \
                len(service.jobs()["jobs"]) != 2:
            time.sleep(0.02)
        live = {entry["id"] for entry in service.jobs()["jobs"]}
        assert live == set(ids[-2:])
        service.close()
        # The journal keeps the full history regardless of retention.
        load = JobStore(str(tmp_path)).open()
        assert set(load.jobs) >= set(ids)

    def test_status_and_tenant_filters(self, service_trio):
        _, service, base = service_trio
        _, blocker, _ = _request("POST", base + "/jobs", {
            "kernel": "adpcm", "tenant": "ops", "config": BLOCKER})
        _wait_running(service, blocker["id"])
        _, queued, _ = _request("POST", base + "/jobs", {
            "kernel": "adpcm", "tenant": "science", "config": SMALL})
        status, body, _ = _request("GET", base + "/jobs?tenant=science")
        assert [entry["id"] for entry in body["jobs"]] == [queued["id"]]
        status, body, _ = _request("GET", base + "/jobs?status=queued")
        assert {entry["id"] for entry in body["jobs"]} == {queued["id"]}
        _request("DELETE", f"{base}/jobs/{queued['id']}")
        _request("DELETE", f"{base}/jobs/{blocker['id']}")
        service.wait(blocker["id"], timeout=120)


class TestBackpressure:
    def test_saturated_queue_answers_429_with_retry_after(self, tmp_path):
        service = CampaignService(queue_limit=2)
        server, service, base = _serve(service)
        try:
            _, blocker, _ = _request("POST", base + "/jobs",
                                     {"kernel": "adpcm", "config": BLOCKER})
            _wait_running(service, blocker["id"])
            accepted = [blocker["id"]]
            refused = None
            for _ in range(6):
                status, body, headers = _request(
                    "POST", base + "/jobs",
                    {"kernel": "adpcm", "config": SMALL})
                if status == 202:
                    accepted.append(body["id"])
                else:
                    refused = (status, body, headers)
                    break
            assert refused is not None, "queue never filled"
            status, body, headers = refused
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after"] == int(headers["Retry-After"])
            for job_id in accepted:
                _request("DELETE", f"{base}/jobs/{job_id}")
            for job_id in accepted:
                service.wait(job_id, timeout=120)
        finally:
            server.shutdown()
            server.server_close()
            service._scheduler.drain(timeout=30, interrupt=True)


class TestConcurrentSubmission:
    def test_hammer_unique_ids_all_settle_fair_order(self):
        """The satellite contract: many threads POST /jobs at once; ids
        stay unique, everything settles, and dispatch interleaves the
        two tenants fairly."""
        per_tenant = 6
        service = CampaignService(queue_limit=64)
        server, service, base = _serve(service)
        try:
            # Park the single worker on a blocker too slow to finish on
            # its own; it is cancelled once the hammer settles.  A
            # blocker that can finish mid-hammer releases the worker
            # against a partial (unequal) backlog, and the fair-queue
            # ordering asserted below only holds for equal backlogs.
            _, blocker, _ = _request("POST", base + "/jobs", {
                "kernel": "adpcm", "config": BLOCKER})
            _wait_running(service, blocker["id"])
            results = []
            errors = []
            lock = threading.Lock()

            def _hammer(tenant):
                try:
                    status, body, _ = _request("POST", base + "/jobs", {
                        "kernel": "adpcm", "tenant": tenant,
                        "config": dict(SMALL, max_injection_steps=1)})
                    with lock:
                        results.append((tenant, status, body))
                except Exception as exc:  # pragma: no cover
                    with lock:
                        errors.append(exc)

            threads = [threading.Thread(target=_hammer,
                                        args=(tenant,))
                       for tenant in ["alpha", "beta"] * per_tenant]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert all(status == 202 for _, status, _ in results)
            ids = [body["id"] for _, _, body in results]
            assert len(set(ids)) == len(ids) == 2 * per_tenant
            # The fairness precondition: the entire backlog queued while
            # the worker was still parked on the blocker.
            assert service.job(blocker["id"])["status"] == "running"
            assert all(service.job(job_id)["status"] == "queued"
                       for job_id in ids)
            status, verdict, _ = _request(
                "DELETE", f"{base}/jobs/{blocker['id']}")
            assert (status, verdict["status"]) == (202, "cancelling")
            assert service.wait(blocker["id"],
                                timeout=120)["status"] == "cancelled"
            for job_id in ids:
                job = service.wait(job_id, timeout=300)
                assert job["status"] == "done", job["error"]
            # Fair-queue ordering: sort by dispatch order and check the
            # two tenants alternate (equal weights, equal backlogs).
            dispatched = sorted(
                (service.job(job_id) for job_id in ids),
                key=lambda job: job["run_seq"])
            tenants = [job["tenant"] for job in dispatched]
            for length in range(1, len(tenants) + 1):
                prefix = tenants[:length]
                imbalance = abs(prefix.count("alpha")
                                - prefix.count("beta"))
                assert imbalance <= 1, tenants
        finally:
            server.shutdown()
            server.server_close()
            service._scheduler.drain(timeout=30, interrupt=True)


# ---------------------------------------------------------------------------
# Fork safety: pools started from the threaded service spawn
# ---------------------------------------------------------------------------


class TestForkSafety:
    def test_pool_start_method_follows_thread_count(self):
        """``fork`` while the process has one thread, ``spawn`` while a
        second is alive (run in a fresh interpreter, so no thread left
        over from another test can skew it)."""
        import os
        import subprocess
        import sys

        script = (
            "import threading\n"
            "from repro.core.pool import mp_context\n"
            "seen = [mp_context().get_start_method()]\n"
            "release = threading.Event()\n"
            "bystander = threading.Thread(target=release.wait)\n"
            "bystander.start()\n"
            "seen.append(mp_context().get_start_method())\n"
            "release.set()\n"
            "bystander.join()\n"
            "seen.append(mp_context().get_start_method())\n"
            "print(' '.join(seen))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True).stdout
        assert out.split() == ["fork", "spawn", "fork"]

    def test_pooled_jobs_settle_with_serial_fingerprint(self, monkeypatch):
        """Jobs asking for ``config.jobs > 1`` or ``shards > 1`` run on
        the process pool; from the multi-threaded service that pool must
        spawn, never fork, and still reproduce the serial report."""
        import repro.injection.resilience as resilience

        started = []
        real_context = resilience._mp_context

        def recording_context():
            context = real_context()
            started.append(context.get_start_method())
            return context

        monkeypatch.setattr(resilience, "_mp_context", recording_context)
        reference = run_campaign(compile_kernel("adpcm", "ft").program,
                                 CampaignConfig(**SMALL))
        server, service, base = _serve()
        try:
            ids = []
            for job in ({"kernel": "adpcm", "config": dict(SMALL, jobs=2)},
                        {"kernel": "adpcm", "shards": 2, "config": SMALL}):
                status, body, _ = _request("POST", base + "/jobs", job)
                assert status == 202, body
                ids.append(body["id"])
            for job_id in ids:
                job = service.wait(job_id, timeout=240)
                assert job["status"] == "done", job["error"]
                assert job["result"]["fingerprint"] == \
                    fingerprint_digest(reference)
        finally:
            server.shutdown()
            server.server_close()
            service._scheduler.drain(timeout=30, interrupt=True)
        assert started == ["spawn", "spawn"]


# ---------------------------------------------------------------------------
# Durability: restart recovery
# ---------------------------------------------------------------------------


class TestRestartRecovery:
    def test_settled_and_queued_jobs_survive_restart(self, tmp_path):
        service = CampaignService(state_dir=str(tmp_path))
        done_id = service.submit({"kernel": "adpcm", "config": SMALL})
        done_before = service.wait(done_id, timeout=240)
        # Survive a *graceful* stop first: drain with nothing running.
        service.close()

        service = CampaignService(state_dir=str(tmp_path))
        restored = service.job(done_id)
        assert restored["status"] == "done"
        assert restored["result"] == done_before["result"]
        service.close()

    def test_interrupted_job_resumes_bit_identically(self, tmp_path):
        """Simulated crash: a job journaled as ``running`` whose
        campaign journal holds only a prefix of its steps.  The next
        service start must resume it and publish the exact fingerprint
        and latency buckets of an uninterrupted run."""
        program = compile_kernel("adpcm", "ft").program
        config = CampaignConfig(**SMALL)
        reference = run_campaign(program, config)

        store = JobStore(str(tmp_path))
        store.open()
        job = _job("job-1", status="running", config=dict(SMALL))
        store.record_submit(job)
        store.record_state("job-1", "running")
        campaign_journal = store.campaign_journal_path("job-1")
        store.close()
        run_campaign(program, config, journal_path=campaign_journal)
        # Lose the tail: the "crash" happened mid-campaign.
        truncate_journal_tail(campaign_journal, lines=1)

        service = CampaignService(state_dir=str(tmp_path))
        resumed = service.wait("job-1", timeout=240)
        service.close()
        assert resumed["status"] == "done", resumed["error"]
        assert resumed["result"]["fingerprint"] == \
            fingerprint_digest(reference)
        assert resumed["result"]["latency_buckets"] == {
            str(bucket): count
            for bucket, count in sorted(reference.latency_buckets.items())}
        assert resumed["result"]["resilience"]["resumed_steps"] > 0

    def test_drain_parks_running_job_for_next_start(self, tmp_path,
                                                      monkeypatch):
        """SIGTERM semantics in-process: drain interrupts the running
        job at a step boundary, journals it back to queued, and the next
        start finishes it with a bit-identical report."""
        from repro.service import server as service_module

        program = compile_kernel("adpcm", "ft").program
        reference = run_campaign(program, CampaignConfig(**SLOW))
        held = threading.Event()
        real_run_campaign = service_module.run_campaign

        def run_held_after_first_step(*args, on_step, **kwargs):
            def hook(done, total):
                on_step(done, total)
                if done == 1 and not held.is_set():
                    # Hold the first run after one step until the drain
                    # is requested, so the drain lands mid-campaign.
                    held.set()
                    first._scheduler.drain_event.wait(timeout=60)
            return real_run_campaign(*args, on_step=hook, **kwargs)

        monkeypatch.setattr(service_module, "run_campaign",
                            run_held_after_first_step)
        service = first = CampaignService(state_dir=str(tmp_path))
        job_id = service.submit({"kernel": "adpcm", "config": SLOW})
        _wait_running(service, job_id)
        assert service.drain(timeout=60)
        parked = service.job(job_id)
        assert parked["status"] == "queued"
        assert 0 < parked["progress"]["done"] < parked["progress"]["total"]

        service = CampaignService(state_dir=str(tmp_path))
        finished = service.wait(job_id, timeout=240)
        service.close()
        assert finished["status"] == "done", finished["error"]
        assert finished["result"]["fingerprint"] == \
            fingerprint_digest(reference)
        assert finished["result"]["resilience"]["resumed_steps"] > 0


# ---------------------------------------------------------------------------
# Handler robustness
# ---------------------------------------------------------------------------


class _GoneClient:
    """A wfile whose client already hung up."""

    def write(self, data):
        raise BrokenPipeError("client went away")


class TestReplyGuard:
    def test_reply_swallows_broken_pipe(self):
        from repro.service.server import _Handler

        handler = _Handler.__new__(_Handler)
        handler.wfile = _GoneClient()
        handler.send_response = lambda status: None
        handler.send_header = lambda name, value: None
        handler.end_headers = lambda: None
        handler.close_connection = False
        handler._reply(200, {"status": "ok"})  # must not raise
        assert handler.close_connection is True
