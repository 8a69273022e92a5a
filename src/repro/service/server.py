"""``talft serve``: the durable, multi-tenant campaign service.

A stdlib-only (:mod:`http.server`) control plane over the campaign
engine: POST a campaign job, poll its live progress, cancel it, read the
final summary, scrape the process's Prometheus registry -- no new
dependencies, no framework.

Endpoints:

* ``GET /healthz`` -- liveness: ``{"status": "ok"}`` plus job counts and
  per-tenant queue depths;
* ``GET /metrics`` -- the live default registry in Prometheus text
  exposition format (the same registry every campaign instruments);
* ``POST /jobs`` -- submit a job: ``{"kernel": "adpcm", "mode": "ft",
  "shards": 4, "tenant": "teamA", "priority": 5, "timeout": 120,
  "config": {"max_injection_steps": 50, "seed": 7}}``; responds ``202``
  with the job id, ``400`` for malformed jobs, ``413`` for oversized
  bodies, ``429`` + ``Retry-After`` when the queue is full, and ``503``
  while draining;
* ``GET /jobs[?status=...&tenant=...]`` -- job listing, filterable;
* ``GET /jobs/<id>`` -- one job in full (result summary once done);
* ``DELETE /jobs/<id>`` -- cancel: a queued job settles ``cancelled``
  immediately, a running one aborts cooperatively at its next step
  boundary (``202``).

Scheduling: jobs carry ``tenant`` and ``priority`` and are dispatched by
weighted fair queueing across tenants onto ``max_concurrent_jobs``
worker threads (:mod:`repro.service.scheduler`) -- no tenant can starve
another, and the queue is bounded so overload surfaces as backpressure
instead of memory growth.

Durability: with a ``state_dir`` every submission, state transition and
result summary is journaled to a CRC-framed job journal
(:mod:`repro.service.store`), and every job's campaign runs with a
per-job PR-4 result journal.  A service killed mid-job and restarted
with the same ``--state-dir`` restores settled jobs, re-enqueues queued
ones, and *resumes* interrupted ones through ``--resume`` -- the final
report is bit-identical (fingerprint and latency buckets) to an
uninterrupted run, which the ``kill-service`` chaos scenario asserts.

Fork-safety: every job runs through
:func:`~repro.injection.campaign.run_campaign`.  Jobs default to one
in-process serial engine; a job asking for ``shards > 1`` (or
``config.jobs > 1``) runs on the supervised process pool with that many
workers.  :class:`ThreadingHTTPServer` handler threads may hold
io/stdlib locks at any moment, so forking from this process could hand
a worker child a lock that is never released.  The pool sees more than
one live thread here and **spawns** its workers instead
(:func:`repro.core.pool.mp_context`): each starts from a fresh
interpreter, one extra compile warm-up per worker that a long-running
service amortizes.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import threading
import time
import urllib.parse
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.injection.campaign import CampaignConfig, run_campaign
from repro.service.scheduler import (
    FairScheduler,
    JobCancelled,
    JobInterrupted,
    JobTimeout,
    QueueFull,
    SchedulerDraining,
)
from repro.service.store import SETTLED_STATUSES, JobStore

#: Campaign-config knobs a job's ``config`` object may set.  An
#: allow-list, not every :class:`CampaignConfig` field: the service is an
#: external surface and should name its own contract.
_CONFIG_KEYS = frozenset({
    "max_injection_steps", "max_sites_per_step", "max_values_per_site",
    "stride", "seed", "step_slack", "keep_records", "backend", "jobs",
    "prune", "prune_audit", "error_port", "max_steps",
})
#: The service's names for config fields that it calls differently.
_CONFIG_ALIASES = {"stride": "step_stride"}

#: Top-level keys a job body may carry.
_JOB_KEYS = frozenset({
    "kernel", "mode", "shards", "config", "tenant", "priority", "timeout",
})

#: Largest request body the service will buffer.  Job specs are a few
#: hundred bytes; anything bigger is a mistake or an attack, and gets a
#: 413 instead of an unbounded read.
MAX_BODY_BYTES = 1 << 20

#: Settled jobs kept in the live registry by default; the job journal
#: keeps the full history regardless.
DEFAULT_JOB_RETENTION = 256


class CampaignService:
    """Durable job registry + the fair multi-tenant scheduler.

    ``state_dir=None`` runs fully in-memory (handy for tests and
    throwaway services); with a directory, the job journal and per-job
    campaign journals make the whole control plane crash-safe.
    """

    def __init__(
        self,
        state_dir: Optional[str] = None,
        max_concurrent_jobs: int = 1,
        queue_limit: int = 64,
        job_retention: int = DEFAULT_JOB_RETENTION,
        tenant_weights: Optional[Dict[str, float]] = None,
    ):
        from repro.observe import get_registry

        if job_retention < 1:
            raise ValueError(
                f"job_retention must be at least 1 (got {job_retention})")
        self._jobs: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.RLock()
        self._settled: Deque[str] = deque()
        self.job_retention = job_retention
        self._run_seq = itertools.count(1)
        registry = get_registry()
        self._transitions = {
            status: registry.counter("service_job_transitions_total",
                                     status=status)
            for status in ("queued", "running", "done", "error",
                           "cancelled")
        }
        self._recovered_counter = registry.counter(
            "service_jobs_recovered_total")
        self.store: Optional[JobStore] = None
        next_id = 1
        recovered: List[Dict[str, Any]] = []
        if state_dir is not None:
            self.store = JobStore(state_dir)
            load = self.store.open()
            next_id = load.next_id
            recovered = [load.jobs[job_id]
                         for job_id in sorted(load.jobs,
                                              key=_numeric_job_id)]
        self._ids = itertools.count(next_id)
        self._scheduler = FairScheduler(
            self._execute, max_concurrent=max_concurrent_jobs,
            queue_limit=queue_limit, tenant_weights=tenant_weights)
        if recovered:
            self._recover(recovered)

    # -- recovery --------------------------------------------------------

    def _recover(self, snapshots: List[Dict[str, Any]]) -> None:
        """Restore replayed jobs: settled ones into the registry,
        queued ones back onto the scheduler, interrupted (``running``)
        ones re-enqueued for a ``--resume`` through their campaign
        journals."""
        for job in snapshots:
            job.setdefault("tenant", "default")
            job.setdefault("priority", 0)
            job.setdefault("progress", {"done": 0, "total": None})
            status = job.get("status")
            with self._lock:
                self._jobs[job["id"]] = job
                if status in SETTLED_STATUSES:
                    self._note_settled(job["id"])
                    continue
                if status == "running":
                    # Interrupted mid-campaign: its per-job campaign
                    # journal holds every completed step; resuming
                    # reconstructs the exact uninterrupted report.
                    job["status"] = "queued"
                    job["recovered"] = True
                    self._recovered_counter.inc()
                    if self.store is not None:
                        self.store.record_state(job["id"], "queued",
                                                recovered=True)
                try:
                    self._scheduler.submit(job["id"], job["tenant"],
                                           job["priority"])
                except (QueueFull, SchedulerDraining):
                    # A replayed backlog larger than the queue limit:
                    # park the overflow as an error rather than dropping
                    # it silently.
                    self._transition(job, "error",
                                     error="queue full during recovery")

    # -- submission ------------------------------------------------------

    def submit(self, spec: Dict[str, Any]) -> str:
        """Validate and enqueue one job; returns its id.

        Raises ``ValueError`` for anything malformed (HTTP 400),
        :class:`QueueFull` when admission is refused (HTTP 429), and
        :class:`SchedulerDraining` during shutdown (HTTP 503).
        """
        from repro.workloads import KERNELS

        if not isinstance(spec, dict):
            raise ValueError("job body must be a JSON object")
        unknown_top = set(spec) - _JOB_KEYS
        if unknown_top:
            raise ValueError(
                f"unknown job keys: {', '.join(sorted(unknown_top))} "
                f"(known: {', '.join(sorted(_JOB_KEYS))})")
        kernel = spec.get("kernel")
        if kernel not in KERNELS:
            known = ", ".join(sorted(KERNELS))
            raise ValueError(f"unknown kernel {kernel!r} (known: {known})")
        mode = spec.get("mode", "ft")
        if mode not in ("ft", "baseline", "swift"):
            raise ValueError(
                f"unknown mode {mode!r} (known: ft, baseline, swift)")
        shards = spec.get("shards", 1)
        if not isinstance(shards, int) or isinstance(shards, bool) or \
                shards < 1:
            raise ValueError(f"shards must be a positive integer "
                             f"(got {shards!r})")
        tenant = spec.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant.strip() or \
                len(tenant) > 100:
            raise ValueError(
                f"tenant must be a non-empty string of at most 100 "
                f"characters (got {tenant!r})")
        tenant = tenant.strip()
        priority = spec.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool) or \
                not -1000 <= priority <= 1000:
            raise ValueError(
                f"priority must be an integer in [-1000, 1000] "
                f"(got {priority!r})")
        timeout = spec.get("timeout")
        if timeout is not None and (
                isinstance(timeout, bool) or
                not isinstance(timeout, (int, float)) or timeout <= 0):
            raise ValueError(
                f"timeout must be a positive number of seconds "
                f"(got {timeout!r})")
        knobs = spec.get("config", {})
        if not isinstance(knobs, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(knobs) - _CONFIG_KEYS
        if unknown:
            raise ValueError(
                f"unknown config keys: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(_CONFIG_KEYS))})")
        try:  # validate now, rebuild at dispatch
            CampaignConfig.from_dict({_CONFIG_ALIASES.get(key, key): value
                                      for key, value in knobs.items()})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid campaign config: {exc}") from exc
        with self._lock:
            job_id = f"job-{next(self._ids)}"
            job = {
                "id": job_id,
                "kernel": kernel,
                "mode": mode,
                "shards": shards,
                "tenant": tenant,
                "priority": priority,
                "timeout": timeout,
                "config": dict(knobs),
                "status": "queued",
                "progress": {"done": 0, "total": None},
                "result": None,
                "error": None,
            }
            # Admission first: a QueueFull must not journal the job.
            self._scheduler.submit(job_id, tenant, priority)
            self._jobs[job_id] = job
            if self.store is not None:
                self.store.record_submit(job)
            self._transitions["queued"].inc()
        return job_id

    # -- cancellation ----------------------------------------------------

    def cancel(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        """Cancel a job; returns the ``(http_status, payload)`` verdict."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return 404, {"error": "no such job"}
            if job["status"] in SETTLED_STATUSES:
                return 409, {"error": f"job already {job['status']}"}
            verdict = self._scheduler.cancel(job_id)
            if verdict == "queued":
                self._transition(job, "cancelled")
                return 200, {"id": job_id, "status": "cancelled"}
            if verdict == "running":
                # The runner aborts at its next step boundary; completed
                # steps stay journaled.
                return 202, {"id": job_id, "status": "cancelling"}
            # Scheduler no longer knows it: it settled in the races
            # between our registry read and the cancel.
            return 409, {"error": "job just settled"}

    # -- introspection ---------------------------------------------------

    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._jobs.get(job_id)
            return dict(job) if job is not None else None

    def jobs(self, status: Optional[str] = None,
             tenant: Optional[str] = None) -> Dict[str, Any]:
        with self._lock:
            listing = []
            for job in self._jobs.values():
                if status is not None and job["status"] != status:
                    continue
                if tenant is not None and job.get("tenant") != tenant:
                    continue
                listing.append({
                    "id": job["id"],
                    "status": job["status"],
                    "tenant": job.get("tenant", "default"),
                    "priority": job.get("priority", 0),
                    "progress": dict(job["progress"]),
                })
            return {"jobs": listing}

    def wait(self, job_id: str, timeout: float = 60.0) -> Dict[str, Any]:
        """Block until a job settles; returns it.

        A polling convenience for tests and smoke scripts -- the HTTP
        surface itself stays poll-based.
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job is None:
                raise ValueError(f"no such job {job_id!r}")
            if job["status"] in SETTLED_STATUSES:
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{job_id} still {job['status']} after {timeout:.0f}s")
            time.sleep(0.05)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            tally: Dict[str, int] = {}
            for job in self._jobs.values():
                tally[job["status"]] = tally.get(job["status"], 0) + 1
            return tally

    def queue_depths(self) -> Dict[str, int]:
        return self._scheduler.depths()

    # -- execution -------------------------------------------------------

    def _transition(self, job: Dict[str, Any], status: str,
                    error: Optional[str] = None,
                    recovered: bool = False) -> None:
        with self._lock:
            job["status"] = status
            job["error"] = error
            counter = self._transitions.get(status)
            if counter is not None:
                counter.inc()
            if self.store is not None:
                self.store.record_state(job["id"], status, error=error,
                                        recovered=recovered)
            if status in SETTLED_STATUSES:
                self._note_settled(job["id"])

    def _note_settled(self, job_id: str) -> None:
        """Retention: keep at most ``job_retention`` settled jobs live.
        The job journal keeps the full history; eviction only trims the
        in-memory registry a long-running service would otherwise grow
        without bound."""
        self._settled.append(job_id)
        while len(self._settled) > self.job_retention:
            evicted = self._settled.popleft()
            self._jobs.pop(evicted, None)

    def _execute(self, job_id: str) -> None:
        """Scheduler runner: execute one job to settlement (or drain)."""
        from repro.injection.chaos import fingerprint_digest
        from repro.workloads import compile_kernel

        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:  # cancelled and evicted in a race; nothing to do
                return
            job["run_seq"] = next(self._run_seq)
            self._transition(job, "running")
        cancel = self._scheduler.cancel_event(job_id)
        drain = self._scheduler.drain_event
        timeout = job.get("timeout")
        deadline = time.monotonic() + timeout if timeout else None

        def on_step(done: int, total: int) -> None:
            with self._lock:
                job["progress"] = {"done": done, "total": total}
            # Cooperative abort, checked at every step boundary: the
            # engine's own cleanup (journal flush/close, pool teardown)
            # runs as the exception unwinds, so everything completed so
            # far stays durable.
            if drain.is_set():
                raise JobInterrupted()
            if cancel is not None and cancel.is_set():
                raise JobCancelled()
            if deadline is not None and time.monotonic() > deadline:
                raise JobTimeout()

        journal_path = None
        if self.store is not None:
            journal_path = self.store.campaign_journal_path(job_id)
        try:
            program = compile_kernel(job["kernel"], job["mode"]).program
            config = CampaignConfig.from_dict(
                {_CONFIG_ALIASES.get(key, key): value
                 for key, value in job["config"].items()})
            # The pool spawns, never forks, from this threaded process
            # (see module docstring).
            report = run_campaign(
                program, config,
                jobs=job["shards"] if job["shards"] > 1 else None,
                journal_path=journal_path,
                resume=journal_path is not None, on_step=on_step)
        except JobInterrupted:
            # Drain: journal the job back to queued so the next start
            # resumes it from its campaign journal.
            self._transition(job, "queued", recovered=True)
            return
        except JobCancelled:
            self._transition(job, "cancelled")
            return
        except JobTimeout:
            self._transition(
                job, "error",
                error=f"job timed out after {timeout}s (cancelled "
                      "cooperatively at a step boundary; completed steps "
                      "remain journaled)")
            return
        except Exception as exc:  # job errors are the client's news
            self._transition(job, "error",
                             error=f"{type(exc).__name__}: {exc}")
            return
        summary = {
            "injections": report.injections,
            "counts": {key.value: value
                       for key, value in sorted(
                           report.counts.items(),
                           key=lambda item: item[0].value)},
            "coverage": report.coverage,
            "violations": len(report.violations),
            "summary": report.summary(),
            # The bit-identical contract, made comparable over HTTP: the
            # kill-service chaos scenario checks these against an
            # uninterrupted single-process run.
            "fingerprint": fingerprint_digest(report),
            "latency_buckets": {str(bucket): count
                                for bucket, count in sorted(
                                    report.latency_buckets.items())},
        }
        if report.resilience is not None:
            summary["resilience"] = report.resilience.as_dict()
        with self._lock:
            job["result"] = summary
            if self.store is not None:
                self.store.record_result(job_id, summary)
            self._transition(job, "done")

    # -- shutdown --------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: refuse new work, interrupt running jobs at
        their next step boundary (their campaign journals hold every
        completed step), journal final states, close the store.  The
        SIGTERM path of ``talft serve``."""
        finished = self._scheduler.drain(timeout=timeout, interrupt=True)
        if self.store is not None:
            self.store.close()
        return finished

    def close(self, timeout: float = 60.0) -> None:
        """Flush-and-stop for tests: let queued/running jobs finish,
        then release the store."""
        self._scheduler.drain(timeout=timeout, interrupt=False)
        if self.store is not None:
            self.store.close()


def _numeric_job_id(job_id: str) -> Tuple[int, str]:
    try:
        return int(job_id.rsplit("-", 1)[1]), job_id
    except (IndexError, ValueError):
        return (1 << 62), job_id


class _Handler(BaseHTTPRequestHandler):
    service: CampaignService  # set by http_server()

    # Silence the default stderr access log; campaigns own the terminal.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _reply(self, status: int, payload: Any,
               content_type: str = "application/json",
               headers: Optional[Dict[str, str]] = None) -> None:
        if content_type == "application/json":
            body = (json.dumps(payload, indent=2, sort_keys=True) +
                    "\n").encode("utf-8")
        else:
            body = payload.encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, OSError):
            # The client hung up mid-response; its loss, not a handler
            # crash -- drop the write and let the connection close.
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        from repro.observe import get_registry

        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path.rstrip("/") or "/"
        if path == "/healthz":
            self._reply(200, {"status": "ok",
                              "jobs": self.service.counts(),
                              "queue_depths": self.service.queue_depths()})
        elif path == "/metrics":
            self._reply(200, get_registry().to_prometheus(),
                        content_type="text/plain; version=0.0.4")
        elif path == "/jobs":
            query = urllib.parse.parse_qs(parsed.query)
            unknown = set(query) - {"status", "tenant"}
            if unknown:
                self._reply(400, {"error": "unknown query parameters: " +
                                  ", ".join(sorted(unknown)) +
                                  " (known: status, tenant)"})
                return
            self._reply(200, self.service.jobs(
                status=query.get("status", [None])[0],
                tenant=query.get("tenant", [None])[0]))
        elif path.startswith("/jobs/"):
            job = self.service.job(path[len("/jobs/"):])
            if job is None:
                self._reply(404, {"error": "no such job"})
            else:
                self._reply(200, job)
        else:
            self._reply(404, {"error": f"no such endpoint {path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path.rstrip("/") != "/jobs":
            self._reply(404, {"error": f"no such endpoint {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._reply(400, {"error": "invalid Content-Length header"})
            return
        if length > MAX_BODY_BYTES:
            # Refuse before buffering: Content-Length is the client's
            # claim, and honoring an arbitrarily large one would turn
            # every request into a memory commitment.
            self._reply(413, {"error": f"request body of {length} bytes "
                              f"exceeds the {MAX_BODY_BYTES}-byte limit"})
            self.close_connection = True
            return
        try:
            spec = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "request body is not valid JSON"})
            return
        try:
            job_id = self.service.submit(spec)
        except QueueFull as exc:
            self._reply(429, {"error": str(exc),
                              "retry_after": exc.retry_after},
                        headers={"Retry-After": str(exc.retry_after)})
            return
        except SchedulerDraining as exc:
            self._reply(503, {"error": str(exc)},
                        headers={"Retry-After": "30"})
            return
        except ValueError as exc:
            self._reply(400, {"error": str(exc)})
            return
        self._reply(202, {"id": job_id, "status": "queued"})

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        path = self.path.rstrip("/")
        if not path.startswith("/jobs/"):
            self._reply(404, {"error": f"no such endpoint {self.path}"})
            return
        status, payload = self.service.cancel(path[len("/jobs/"):])
        self._reply(status, payload)


def http_server(
    host: str, port: int, service: Optional[CampaignService] = None
) -> Tuple[ThreadingHTTPServer, CampaignService]:
    """Build (but do not run) the service's HTTP server.

    Returns ``(server, service)``; ``server.server_address`` carries the
    bound port (useful with ``port=0`` in tests).  Call
    ``server.serve_forever()`` -- or drive it from a thread and
    ``shutdown()`` it -- as the caller pleases.
    """
    service = service or CampaignService()
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    return server, service


def serve_http(host: str, port: int,
               state_dir: Optional[str] = None,
               max_concurrent_jobs: int = 1,
               queue_limit: int = 64,
               job_retention: int = DEFAULT_JOB_RETENTION,
               tenant_weights: Optional[Dict[str, float]] = None) -> None:
    """Run the campaign service until SIGTERM/SIGINT (CLI: ``talft
    serve``).

    SIGTERM drains gracefully: admission stops (503s), running jobs
    checkpoint through their journals at the next step boundary and are
    journaled back to ``queued``, and the job journal closes -- a
    subsequent start with the same ``state_dir`` picks everything back
    up.
    """
    service = CampaignService(
        state_dir=state_dir, max_concurrent_jobs=max_concurrent_jobs,
        queue_limit=queue_limit, job_retention=job_retention,
        tenant_weights=tenant_weights)
    server, _ = http_server(host, port, service)
    bound = server.server_address

    def _drain_and_stop() -> None:
        service.drain()
        server.shutdown()

    def _on_sigterm(signum, frame) -> None:
        # shutdown() must not run on the serve_forever thread; a helper
        # thread drains and stops.
        threading.Thread(target=_drain_and_stop, daemon=True).start()

    signal.signal(signal.SIGTERM, _on_sigterm)
    durability = f"state-dir {state_dir}" if state_dir else "in-memory"
    print(f"talft campaign service on http://{bound[0]}:{bound[1]} "
          f"({durability}, {max_concurrent_jobs} concurrent job(s); "
          "POST /jobs, GET /jobs, DELETE /jobs/<id>, GET /metrics, "
          "GET /healthz)", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        service.drain()
    finally:
        server.server_close()
        if service.store is not None:
            service.store.close()
