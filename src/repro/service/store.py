"""Durable job store: the campaign service's crash-safe control plane.

``talft serve --state-dir DIR`` keeps every job's lifecycle in an
append-only, CRC-framed **job journal** (``DIR/jobs.journal``) in the
same write-ahead-log style as the campaign result journal
(:mod:`repro.injection.journal`) -- one framing codec
(:mod:`repro.core.framing`), one torn-tail discipline, one recovery
philosophy:

* **Append-only events.**  One line per state change: a ``job`` snapshot
  at submission, a ``state`` line per transition
  (``queued -> running -> done/error/cancelled``), a ``result`` line
  carrying the final summary.  Every line is ``{"crc": ..., "d": ...}``
  framed exactly like a campaign journal line, so torn tails and bit rot
  are detected and skipped, never fatal.
* **Replay on startup.**  :meth:`JobStore.open` folds the event log into
  the latest snapshot of every job, then rewrites the file compacted
  (header + one ``job`` snapshot per job) through a temp file + atomic
  rename -- the same crash-safe compaction the campaign journal performs
  on resume.  Job ids continue from the highest replayed id, so a
  restarted service never reuses an id.
* **Two-layer recovery.**  The job journal records *which* jobs exist
  and where they were; each job's actual campaign progress lives in its
  **per-job campaign journal**
  (:meth:`JobStore.campaign_journal_path`), appended step-by-step by the
  campaign engine itself.  A job that was ``running`` when the service
  was SIGKILLed is re-enqueued on startup and resumed through the
  PR-4 ``--resume`` machinery: completed steps replay from its campaign
  journal, only genuinely missing steps execute, and the final report is
  **bit-identical** -- fingerprint and latency buckets -- to what an
  uninterrupted run would have produced (the ``kill-service`` chaos
  scenario asserts exactly this).

The store is deliberately synchronous and fsync-per-event: job events
are rare (submissions and transitions, not injection steps), and a
``202 Accepted`` must mean *accepted durably* -- a crash one millisecond
after the response must not forget the job.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, TextIO

from repro.core.framing import frame, read_frames, rewrite

_MAGIC = "talft-job-journal"
_VERSION = 1

#: Terminal job statuses: nothing further will be journaled for these.
SETTLED_STATUSES = ("done", "error", "cancelled")

_JOB_ID = re.compile(r"^job-(\d+)$")


@dataclass
class JobStoreLoad:
    """The usable content of a job journal after replay."""

    #: Latest snapshot of every journaled job, keyed by id.
    jobs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Lines dropped for failed checksums / unparseable content.
    corrupt_lines: int = 0
    #: The next job ordinal a restarted service may hand out.
    next_id: int = 1


def _replay(path: str) -> JobStoreLoad:
    """Fold a job journal's event log into per-job snapshots.

    Corrupt lines (torn tails, bit rot) are skipped and counted exactly
    as the campaign journal loader does; events for unknown job ids
    (their ``job`` snapshot line was lost) are dropped as corrupt too --
    a job the service cannot reconstruct cannot be run.
    """
    load = JobStoreLoad()
    payloads, load.corrupt_lines = read_frames(path)
    saw_header = False
    for payload in payloads:
        if not saw_header:
            if not (isinstance(payload, dict) and
                    payload.get("magic") == _MAGIC and
                    payload.get("version") == _VERSION):
                load.corrupt_lines += 1
                continue
            saw_header = True
            continue
        if not isinstance(payload, dict):
            load.corrupt_lines += 1
            continue
        event = payload.get("event")
        if event == "job":
            job = payload.get("job")
            if not isinstance(job, dict) or "id" not in job:
                load.corrupt_lines += 1
                continue
            load.jobs[job["id"]] = job
        elif event == "state":
            job = load.jobs.get(payload.get("id"))
            if job is None or "status" not in payload:
                load.corrupt_lines += 1
                continue
            job["status"] = payload["status"]
            job["error"] = payload.get("error")
        elif event == "result":
            job = load.jobs.get(payload.get("id"))
            if job is None:
                load.corrupt_lines += 1
                continue
            job["result"] = payload.get("result")
        else:
            load.corrupt_lines += 1
    for job_id in load.jobs:
        match = _JOB_ID.match(job_id)
        if match:
            load.next_id = max(load.next_id, int(match.group(1)) + 1)
    if load.corrupt_lines:
        warnings.warn(
            f"job journal {path}: skipped {load.corrupt_lines} corrupt "
            "line(s) (failed checksum or truncated write)",
            UserWarning,
            stacklevel=3,
        )
    return load


class JobStore:
    """The service's durable job registry under one ``--state-dir``.

    Usage: construct, :meth:`open` (replay + compact + start appending),
    then :meth:`record_submit` / :meth:`record_state` /
    :meth:`record_result` as the job lifecycle advances, :meth:`close`
    on shutdown.  Every record is fsynced before returning: once a
    caller has been told about a job event, a crash cannot unhappen it.
    """

    JOURNAL_NAME = "jobs.journal"

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.path = os.path.join(state_dir, self.JOURNAL_NAME)
        self._handle: Optional[TextIO] = None

    # -- lifecycle -------------------------------------------------------

    def open(self) -> JobStoreLoad:
        """Replay the journal, rewrite it compacted, open for appending.

        The compaction (header + one snapshot per job, through a temp
        file + atomic rename) drops torn tails so they can never
        concatenate with the next append, and bounds the journal to one
        line per job regardless of how many transitions history held.
        """
        load = _replay(self.path)
        rewrite(self.path, [{"magic": _MAGIC, "version": _VERSION}] + [
            {"event": "job", "job": load.jobs[job_id]}
            for job_id in sorted(load.jobs, key=_job_sort_key)])
        self._handle = open(self.path, "a")
        return load

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recording -------------------------------------------------------

    def record_submit(self, job: Dict[str, Any]) -> None:
        """Durably record a newly submitted job's full snapshot."""
        self._append({"event": "job", "job": _persistable(job)})

    def record_state(self, job_id: str, status: str,
                     error: Optional[str] = None,
                     recovered: bool = False) -> None:
        """Durably record one state transition."""
        payload: Dict[str, Any] = {"event": "state", "id": job_id,
                                   "status": status}
        if error is not None:
            payload["error"] = error
        if recovered:
            payload["recovered"] = True
        self._append(payload)

    def record_result(self, job_id: str, result: Dict[str, Any]) -> None:
        """Durably record a settled job's result summary."""
        self._append({"event": "result", "id": job_id, "result": result})

    def _append(self, payload: Dict[str, Any]) -> None:
        if self._handle is None:
            raise RuntimeError("JobStore.open() must run before recording")
        self._handle.write(frame(payload))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- paths -----------------------------------------------------------

    def campaign_journal_path(self, job_id: str) -> str:
        """Where ``job_id``'s campaign engine journals its per-step
        results (the PR-4 result journal ``--resume`` replays)."""
        return os.path.join(self.state_dir, f"{job_id}.campaign.journal")


def _job_sort_key(job_id: str):
    match = _JOB_ID.match(job_id)
    return (0, int(match.group(1)), "") if match else (1, 0, job_id)


def _persistable(job: Dict[str, Any]) -> Dict[str, Any]:
    """The journaled subset of a job dict: everything needed to rebuild
    and re-run it, minus volatile scheduling fields."""
    persisted = dict(job)
    persisted.pop("run_seq", None)
    return persisted
