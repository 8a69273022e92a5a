"""Multi-tenant fair scheduling for the campaign service.

PR 8's service ran jobs FIFO on a single runner thread; this module is
the real scheduler behind ``talft serve``:

* **Weighted fair queueing across tenants.**  Every job carries a
  ``tenant`` label; each tenant holds its own queue and accumulates
  *virtual time* as its jobs are dispatched (``1 / weight`` per job).
  The next job always comes from the backlogged tenant with the lowest
  virtual time, so a tenant submitting 100 jobs cannot starve a tenant
  submitting 2 -- with equal weights, dispatch alternates; a tenant with
  weight 2 receives two dispatch slots per slot of a weight-1 tenant.
  Idle tenants re-enter at the current virtual floor, so sitting out
  never banks credit (the standard start-time fair-queueing guard).
* **Priority within a tenant.**  Higher ``priority`` dispatches first;
  ties run in submission order.  Priority never crosses tenant
  boundaries -- a tenant cannot jump the fairness schedule by inflating
  its own priorities.
* **Bounded admission.**  At most ``queue_limit`` jobs may be queued;
  beyond that :meth:`FairScheduler.submit` raises :class:`QueueFull`
  carrying a ``retry_after`` estimate (EWMA of recent job durations
  scaled by backlog), which the HTTP layer maps to ``429`` +
  ``Retry-After``.  Backpressure beats unbounded memory growth.
* **Concurrency + cooperative cancellation.**  ``max_concurrent`` worker
  threads dispatch jobs.  Every job gets a cancellation
  :class:`threading.Event`; the service's runner checks it (plus the
  job's deadline) at each campaign step boundary and aborts through the
  engine's existing abort path -- ``run_campaign`` flushes and closes
  its journal and tears its pool down on the way out, so a cancelled
  job's completed steps stay durable.
* **Graceful drain.**  :meth:`FairScheduler.drain` stops admission,
  interrupts running jobs cooperatively (they checkpoint through their
  campaign journals), and joins the workers -- the SIGTERM path of
  ``talft serve``.

The scheduler is deliberately ignorant of HTTP and of campaigns: it
dispatches opaque job ids to a runner callable.  That keeps fairness
testable with stub jobs and leaves campaign semantics in
:mod:`repro.service.server`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.observe import get_registry


class QueueFull(Exception):
    """Admission refused: the queue is at ``queue_limit``.

    ``retry_after`` is the seconds a client should wait before retrying
    (the HTTP layer's ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after: int):
        super().__init__(message)
        self.retry_after = retry_after


class SchedulerDraining(Exception):
    """Admission refused: the scheduler is shutting down."""


class JobCancelled(Exception):
    """Raised inside a runner when its job's cancel event fires."""


class JobTimeout(Exception):
    """Raised inside a runner when its job's deadline passes."""


class JobInterrupted(Exception):
    """Raised inside a runner during drain: the job should checkpoint
    and be re-enqueued by the next service start, not settle."""


#: Fallback Retry-After (seconds) before any job duration is known.
_DEFAULT_RETRY_AFTER = 5
#: EWMA smoothing for observed job durations.
_EWMA_ALPHA = 0.3


class _Entry:
    """One queued job: heap-ordered by (-priority, submission order)."""

    __slots__ = ("priority", "seq", "job_id", "tenant", "cancelled")

    def __init__(self, priority: int, seq: int, job_id: str, tenant: str):
        self.priority = priority
        self.seq = seq
        self.job_id = job_id
        self.tenant = tenant
        self.cancelled = False  # lazy removal: popped entries are skipped

    def __lt__(self, other: "_Entry") -> bool:
        return (-self.priority, self.seq) < (-other.priority, other.seq)


class _Tenant:
    __slots__ = ("name", "weight", "virtual", "heap", "queued")

    def __init__(self, name: str, weight: float):
        self.name = name
        self.weight = weight
        self.virtual = 0.0  # accumulated service in virtual time
        self.heap: List[_Entry] = []
        self.queued = 0  # live (non-cancelled) entries in the heap


class FairScheduler:
    """Weighted fair dispatch of job ids to ``max_concurrent`` workers.

    ``runner(job_id)`` executes one job to completion; it must not
    raise (the service wraps job failures into job state).  Tenant
    weights default to 1.0; unknown tenants are created on first
    submission.
    """

    def __init__(
        self,
        runner: Callable[[str], None],
        max_concurrent: int = 1,
        queue_limit: int = 64,
        tenant_weights: Optional[Dict[str, float]] = None,
    ):
        if max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be at least 1 (got {max_concurrent})")
        if queue_limit < 1:
            raise ValueError(
                f"queue_limit must be at least 1 (got {queue_limit})")
        for name, weight in (tenant_weights or {}).items():
            if weight <= 0:
                raise ValueError(
                    f"tenant weight for {name!r} must be positive "
                    f"(got {weight})")
        self._runner = runner
        self.max_concurrent = max_concurrent
        self.queue_limit = queue_limit
        self._weights = dict(tenant_weights or {})
        self._tenants: Dict[str, _Tenant] = {}
        self._entries: Dict[str, _Entry] = {}  # queued job id -> entry
        self._cancel_events: Dict[str, threading.Event] = {}
        self._queued_total = 0
        self._running = 0
        self._draining = False
        self._drain_event = threading.Event()
        self._ewma_seconds: Optional[float] = None
        self._dispatch_seq = itertools.count(1)
        self._cv = threading.Condition()
        registry = get_registry()
        self._depth_gauges = {}
        self._registry = registry
        self._workers = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"talft-scheduler-{index}")
            for index in range(max_concurrent)
        ]
        for worker in self._workers:
            worker.start()

    # -- admission -------------------------------------------------------

    def submit(self, job_id: str, tenant: str = "default",
               priority: int = 0) -> None:
        """Queue one job, or raise :class:`QueueFull` /
        :class:`SchedulerDraining`."""
        with self._cv:
            if self._draining:
                raise SchedulerDraining(
                    "service is draining and no longer accepts jobs")
            if self._queued_total >= self.queue_limit:
                raise QueueFull(
                    f"job queue is full ({self.queue_limit} queued); "
                    "retry later", self._retry_after_locked())
            state = self._tenant(tenant)
            entry = _Entry(priority, next(self._dispatch_seq), job_id,
                           tenant)
            heapq.heappush(state.heap, entry)
            state.queued += 1
            self._entries[job_id] = entry
            self._cancel_events[job_id] = threading.Event()
            self._queued_total += 1
            self._depth_gauge(tenant).set(state.queued)
            self._cv.notify()

    def _tenant(self, name: str) -> _Tenant:
        state = self._tenants.get(name)
        if state is None:
            state = _Tenant(name, self._weights.get(name, 1.0))
            # A newcomer starts at the current virtual floor: it cannot
            # claim service for the time it did not exist.
            busy = [t.virtual for t in self._tenants.values() if t.queued]
            state.virtual = min(busy) if busy else 0.0
            self._tenants[name] = state
        return state

    def _retry_after_locked(self) -> int:
        per_job = self._ewma_seconds if self._ewma_seconds is not None \
            else float(_DEFAULT_RETRY_AFTER)
        backlog = self._queued_total + self._running
        estimate = per_job * max(1, backlog) / self.max_concurrent
        return max(1, min(300, int(estimate + 0.5)))

    # -- cancellation ----------------------------------------------------

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job.  Returns ``"queued"`` when it was dequeued
        before ever running, ``"running"`` when the cancel event was set
        (the runner aborts at its next step boundary), ``None`` when the
        scheduler does not know the job (already settled or never
        submitted)."""
        with self._cv:
            entry = self._entries.pop(job_id, None)
            if entry is not None:
                entry.cancelled = True
                state = self._tenants[entry.tenant]
                state.queued -= 1
                self._queued_total -= 1
                self._depth_gauge(state.name).set(state.queued)
                self._cancel_events.pop(job_id, None)
                return "queued"
            event = self._cancel_events.get(job_id)
            if event is not None:
                event.set()
                return "running"
            return None

    def cancel_event(self, job_id: str) -> Optional[threading.Event]:
        """The cancellation event a running job's runner polls."""
        with self._cv:
            return self._cancel_events.get(job_id)

    @property
    def drain_event(self) -> threading.Event:
        """Set when the scheduler is draining; runners treat it like a
        cancel that re-enqueues instead of settling."""
        return self._drain_event

    # -- introspection ---------------------------------------------------

    def depths(self) -> Dict[str, int]:
        with self._cv:
            return {name: state.queued
                    for name, state in self._tenants.items() if state.queued}

    def idle(self) -> bool:
        with self._cv:
            return self._queued_total == 0 and self._running == 0

    # -- dispatch --------------------------------------------------------

    def _next_locked(self) -> Optional[Tuple[_Tenant, _Entry]]:
        best: Optional[_Tenant] = None
        for state in self._tenants.values():
            # Skim lazily-cancelled entries off the heap top first.
            while state.heap and state.heap[0].cancelled:
                heapq.heappop(state.heap)
            if not state.heap:
                continue
            if best is None or state.virtual < best.virtual:
                best = state
        if best is None:
            return None
        entry = heapq.heappop(best.heap)
        best.queued -= 1
        best.virtual += 1.0 / best.weight
        self._queued_total -= 1
        self._entries.pop(entry.job_id, None)
        self._depth_gauge(best.name).set(best.queued)
        return best, entry

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while True:
                    if self._draining and self._queued_total == 0:
                        return
                    picked = self._next_locked()
                    if picked is not None:
                        break
                    self._cv.wait(timeout=0.5)
                self._running += 1
            _, entry = picked
            started = time.monotonic()
            try:
                try:
                    self._runner(entry.job_id)
                except Exception:
                    # The runner contract is "never raise" (the service
                    # folds job failures into job state); if it breaks,
                    # losing one worker thread forever is the worse
                    # failure mode, so log and keep serving.
                    import traceback
                    traceback.print_exc()
            finally:
                elapsed = time.monotonic() - started
                with self._cv:
                    self._running -= 1
                    self._cancel_events.pop(entry.job_id, None)
                    if self._ewma_seconds is None:
                        self._ewma_seconds = elapsed
                    else:
                        self._ewma_seconds += _EWMA_ALPHA * (
                            elapsed - self._ewma_seconds)
                    self._cv.notify_all()

    # -- shutdown --------------------------------------------------------

    def drain(self, timeout: float = 30.0, interrupt: bool = True) -> bool:
        """Stop admission and wind the workers down.

        With ``interrupt=True`` (the SIGTERM path) running jobs see the
        drain event at their next step boundary, checkpoint through
        their journals, and are journaled back to ``queued`` by the
        service for the next start to resume.  With ``interrupt=False``
        running and queued jobs finish first (test-friendly flush).
        Returns ``True`` when every worker exited within ``timeout``.
        """
        with self._cv:
            self._draining = True
            if interrupt:
                # Unqueue everything still waiting; the service keeps
                # those jobs journaled as queued for the next start.
                for entry in self._entries.values():
                    entry.cancelled = True
                    state = self._tenants[entry.tenant]
                    state.queued -= 1
                    self._depth_gauge(state.name).set(state.queued)
                self._entries.clear()
                self._queued_total = 0
                self._drain_event.set()
            self._cv.notify_all()
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        return not any(worker.is_alive() for worker in self._workers)

    def _depth_gauge(self, tenant: str):
        gauge = self._depth_gauges.get(tenant)
        if gauge is None:
            gauge = self._registry.gauge("service_queue_depth",
                                         tenant=tenant)
            self._depth_gauges[tenant] = gauge
        return gauge


def parse_tenant_weights(specs: List[str]) -> Dict[str, float]:
    """``["teamA=2", "teamB=1.5"]`` -> ``{"teamA": 2.0, "teamB": 1.5}``.

    Raises ``ValueError`` with a user-facing message for malformed specs
    (the CLI maps it to exit code 2).
    """
    weights: Dict[str, float] = {}
    for spec in specs:
        name, sep, text = spec.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"invalid tenant weight {spec!r} (expected NAME=WEIGHT)")
        try:
            weight = float(text)
        except ValueError:
            raise ValueError(
                f"invalid tenant weight {spec!r} (weight must be a "
                "number)") from None
        if weight <= 0:
            raise ValueError(
                f"invalid tenant weight {spec!r} (weight must be "
                "positive)")
        weights[name] = weight
    return weights
