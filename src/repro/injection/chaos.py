"""Infrastructure chaos harness: fault-inject the campaign runtime itself.

TAL_FT injects faults into the *machine under test* and proves the report
is unaffected; this module does the same to the **campaign
infrastructure** -- the process pool, the scheduler, the journal file --
and asserts the final :class:`~repro.injection.campaign.CampaignReport`
still comes out bit-identical to an uninterrupted serial run.  The
harness treats the runtime as part of the threat model, mirroring the
infrastructure-fault framing of symbolic fault-attack work (PAPERS.md):
a fault-tolerance *claim* about the harness is only worth what the
harness survives.

Scenarios (CLI: ``talft chaos``):

* ``kill-worker`` -- a pool worker SIGKILLs itself at the start of a
  chunk (exactly once); the supervisor must detect the broken pool,
  harvest finished chunks, rebuild, and re-execute the remainder;
* ``delay-chunk`` -- a worker stalls one chunk past its deadline; the
  supervisor must time the chunk out, recycle the pool and retry;
* ``truncate-journal`` -- a completed journal loses its tail (including a
  torn half-line, as a crash mid-``write`` leaves); ``--resume`` must
  recompute exactly the missing steps;
* ``corrupt-journal`` -- a journal line's payload is flipped so its
  checksum fails; resume must skip it with a warning and recompute;
* ``kill-service`` -- SIGKILL a real ``talft serve --state-dir``
  process mid-job, restart it with the same state directory, and assert
  the resumed job's published fingerprint and latency buckets equal an
  uninterrupted in-process run -- and that queued and settled jobs
  survived the restart (the service is frozen first, and killed only if
  its job journal shows the victim unsettled);
* ``kill-remote-shard-worker`` -- SIGKILL a real TCP ``talft
  shard-worker`` subprocess mid-shard; the coordinator must reissue its
  tail over the wire;
* ``recovery`` -- the machine-level analog: the recovering executor
  (:mod:`repro.recovery`) must reproduce the fault-free output sequence
  under an injected SEU, tying the two recovery layers together.

Worker-side behaviors are one-shot: the first worker to reach the marked
chunk claims an ``O_CREAT | O_EXCL`` marker file and misbehaves; every
re-execution of that chunk (after the pool rebuild) sees the marker and
runs clean.  That makes scenarios deterministic without any cross-process
coordination beyond the filesystem.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.injection.campaign import (
    CampaignConfig,
    CampaignReport,
    run_campaign,
)
from repro.injection.resilience import ResilienceConfig, ResilienceStats
from repro.program import Program


@dataclass
class ChaosSpec:
    """Infrastructure faults to inject into pool workers.

    Picklable (it rides the pool initializer into every worker).  Marker
    files under ``marker_dir`` make each behavior one-shot across pool
    rebuilds.
    """

    #: Chunk index whose worker SIGKILLs itself (first execution only).
    kill_chunk: Optional[int] = None
    #: Chunk index whose worker stalls (first execution only).
    delay_chunk: Optional[int] = None
    #: Stall duration, seconds.
    delay_seconds: float = 0.0
    #: Directory for the one-shot marker files (required when any
    #: worker-side behavior is set).
    marker_dir: str = ""
    #: Sharded campaigns: fleet worker index that SIGKILLs itself
    #: mid-shard.  The coordinator embeds the directive in that worker's
    #: job message; the worker dies right after streaming its
    #: ``kill_shard_after_steps``-th step result.  One-shot by
    #: construction -- dead shard workers are never respawned, the
    #: coordinator reissues their unfinished steps elsewhere.
    kill_shard_worker: Optional[int] = None
    #: Step results the doomed shard worker sends before dying.
    kill_shard_after_steps: int = 1

    def apply_in_worker(self, chunk_index: int) -> None:
        """Called by the worker at the start of every chunk."""
        if self.kill_chunk == chunk_index and self._claim("kill"):
            os.kill(os.getpid(), signal.SIGKILL)
        if self.delay_chunk == chunk_index and self._claim("delay"):
            time.sleep(self.delay_seconds)

    def _claim(self, name: str) -> bool:
        path = os.path.join(self.marker_dir, f"chaos-{name}.marker")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True


# ---------------------------------------------------------------------------
# Journal tampering
# ---------------------------------------------------------------------------


def truncate_journal_tail(path: str, lines: int = 1,
                          torn_bytes: int = 0) -> int:
    """Drop the last ``lines`` journal lines; optionally leave the first
    ``torn_bytes`` bytes of the next-dropped line behind as a torn write
    (no trailing newline), exactly what a crash mid-append produces.
    Returns how many complete lines were removed."""
    with open(path) as handle:
        content = handle.readlines()
    kept = content[:-lines] if lines else list(content)
    removed = len(content) - len(kept)
    with open(path, "w") as handle:
        handle.writelines(kept)
        if torn_bytes and removed:
            handle.write(content[len(kept)][:torn_bytes])
    return removed


def corrupt_journal_line(path: str, line_index: int = -1) -> None:
    """Flip a digit inside one line's payload so its checksum fails."""
    with open(path) as handle:
        content = handle.readlines()
    line = content[line_index]
    for position, char in enumerate(line):
        if char.isdigit():
            flipped = "1" if char != "1" else "2"
            content[line_index] = (line[:position] + flipped
                                   + line[position + 1:])
            break
    with open(path, "w") as handle:
        handle.writelines(content)


# ---------------------------------------------------------------------------
# Parity checking
# ---------------------------------------------------------------------------


def report_fingerprint(report: CampaignReport) -> Tuple:
    """Everything the bit-identical contract covers: every record field,
    every classification, and the human-readable summary."""
    return (
        report.injections,
        tuple(sorted((key.value, value)
                     for key, value in report.counts.items())),
        tuple((r.step, r.fault, r.result, r.outputs, r.latency)
              for r in report.records),
        tuple((r.step, r.fault, r.result, r.outputs, r.latency)
              for r in report.violations),
        report.summary(),
    )


def fingerprint_digest(report: CampaignReport) -> str:
    """A transportable hash of :func:`report_fingerprint`.

    The campaign service publishes this in every job's result summary so
    clients -- and the ``kill-service`` scenario -- can compare reports
    across process boundaries without shipping the full record list.
    """
    import hashlib

    return hashlib.sha256(
        repr(report_fingerprint(report)).encode("utf-8")).hexdigest()[:16]


@dataclass
class ScenarioResult:
    """One chaos scenario's verdict."""

    scenario: str
    #: Did the chaotic run produce a bit-identical report?
    matches: bool
    #: What supervision/journaling reported doing.
    stats: Optional[ResilienceStats]
    #: Human-readable evidence ("retries: 1, ..." or a mismatch note).
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.matches


@dataclass
class _Scenario:
    name: str
    run: Callable[[Program, CampaignConfig, int, str], ScenarioResult]
    description: str = ""
    #: Scenario drives the campaign service by kernel name and needs the
    #: target to be one (``run_scenarios(kernel=...)``).
    needs_kernel: bool = False


def _compare(name: str, reference: CampaignReport, chaotic: CampaignReport,
             stats: Optional[ResilienceStats],
             expect: Callable[[Optional[ResilienceStats]], str] = None,
             ) -> ScenarioResult:
    matches = report_fingerprint(reference) == report_fingerprint(chaotic)
    detail = (stats.summary() if stats is not None else "")
    if not matches:
        detail = (f"MISMATCH: reference {reference.summary()!r} vs "
                  f"chaotic {chaotic.summary()!r}; " + detail)
    elif expect is not None:
        complaint = expect(stats)
        if complaint:
            matches = False
            detail = f"parity held but {complaint}; " + detail
    return ScenarioResult(name, matches, stats, detail)


def _scenario_kill_worker(program, config, jobs, workdir) -> ScenarioResult:
    reference = run_campaign(program, config, jobs=1)
    chaos = ChaosSpec(kill_chunk=1, marker_dir=workdir)
    chaotic = run_campaign(
        program, config, jobs=max(2, jobs),
        resilience=ResilienceConfig(max_retries=3, backoff_base=0.01),
        chaos=chaos,
    )
    return _compare(
        "kill-worker", reference, chaotic, chaotic.resilience,
        expect=lambda stats: (
            "" if stats.worker_crashes or stats.fallback_chunks
            else "no worker crash was observed"),
    )


def _scenario_delay_chunk(program, config, jobs, workdir) -> ScenarioResult:
    reference = run_campaign(program, config, jobs=1)
    chaos = ChaosSpec(delay_chunk=1, delay_seconds=2.0, marker_dir=workdir)
    chaotic = run_campaign(
        program, config, jobs=max(2, jobs),
        resilience=ResilienceConfig(chunk_timeout=0.5, max_retries=3,
                                    backoff_base=0.01),
        chaos=chaos,
    )
    return _compare(
        "delay-chunk", reference, chaotic, chaotic.resilience,
        expect=lambda stats: (
            "" if stats.timeouts or stats.fallback_chunks
            else "no chunk deadline expired"),
    )


def _scenario_truncate_journal(program, config, jobs, workdir
                               ) -> ScenarioResult:
    import warnings

    reference = run_campaign(program, config, jobs=1)
    journal_path = os.path.join(workdir, "truncate.journal")
    run_campaign(program, config, jobs=1, journal_path=journal_path)
    # Crash simulation: lose the last two records, leave a torn half-line.
    truncate_journal_tail(journal_path, lines=2, torn_bytes=25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the torn-tail skip is expected
        resumed = run_campaign(program, config, jobs=1,
                               journal_path=journal_path, resume=True)
    return _compare(
        "truncate-journal", reference, resumed, resumed.resilience,
        expect=lambda stats: (
            "" if stats.resumed_steps and stats.journaled_steps
            else "resume did not mix journaled and recomputed steps"),
    )


def _scenario_corrupt_journal(program, config, jobs, workdir
                              ) -> ScenarioResult:
    import warnings

    reference = run_campaign(program, config, jobs=1)
    journal_path = os.path.join(workdir, "corrupt.journal")
    run_campaign(program, config, jobs=1, journal_path=journal_path)
    corrupt_journal_line(journal_path, line_index=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the skip warning is the point
        resumed = run_campaign(program, config, jobs=1,
                               journal_path=journal_path, resume=True)
    return _compare(
        "corrupt-journal", reference, resumed, resumed.resilience,
        expect=lambda stats: (
            "" if stats.corrupt_journal_lines
            else "the corrupt line went undetected"),
    )


# ---------------------------------------------------------------------------
# Subprocess chaos: real processes, real signals
# ---------------------------------------------------------------------------


def _spawn_talft(cli_args: List[str], workdir: str):
    """Launch ``talft <cli_args>`` as a real subprocess with this tree's
    ``src`` on its path -- the service scenarios need genuine process
    boundaries, not threads, so SIGKILL means SIGKILL."""
    import subprocess
    import sys

    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *cli_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=workdir)


def _await_banner(proc, pattern, timeout: float = 30.0):
    """Wait for ``pattern`` on a subprocess's stdout; keeps draining the
    pipe afterwards (a full pipe would wedge the child).  Returns the
    regex match."""
    import threading

    state = {"lines": []}
    found = threading.Event()

    def _drain():
        for line in proc.stdout:
            state["lines"].append(line)
            if "match" not in state:
                match = pattern.search(line)
                if match:
                    state["match"] = match
                    found.set()

    threading.Thread(target=_drain, daemon=True).start()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if found.wait(timeout=0.05):
            return state["match"]
        if proc.poll() is not None and not found.is_set():
            break
    raise RuntimeError(
        f"subprocess did not announce itself within {timeout:.0f}s; "
        "output so far:\n" + "".join(state["lines"]))


def _http_json(method: str, url: str, payload=None, timeout: float = 10.0):
    """Tiny urllib JSON client; HTTP errors come back as (status, body)
    rather than exceptions -- scenarios assert on both."""
    import json
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


_SERVICE_KNOBS = ("max_injection_steps", "max_sites_per_step",
                  "max_values_per_site", "seed", "keep_records",
                  "max_steps")

#: Injection steps for the job the service is SIGKILLed under: big
#: enough that the kill usually lands mid-campaign.
_VICTIM_STEPS = 24
#: Victims ``kill-service`` submits before it gives up.
_VICTIM_ATTEMPTS = 3


def _scenario_kill_service(program, config, jobs, workdir,
                           kernel: str = "adpcm") -> ScenarioResult:
    """SIGKILL ``talft serve --state-dir`` mid-job; restart with the same
    state directory; the resumed job's published fingerprint and latency
    buckets must equal an uninterrupted in-process run, and the queued
    and settled jobs must survive the restart."""
    import re
    import signal as _signal
    import warnings

    from repro.service.store import JobStore, _replay
    from repro.workloads import compile_kernel

    state_dir = os.path.join(workdir, "state")
    base_knobs = {knob: getattr(config, knob) for knob in _SERVICE_KNOBS}
    small = dict(base_knobs, max_injection_steps=3)
    banner = re.compile(r"service on http://([0-9.]+):(\d+)")

    def _start():
        proc = _spawn_talft(["serve", "--serve-port", "0",
                             "--state-dir", state_dir], workdir)
        try:
            match = _await_banner(proc, banner)
        except RuntimeError:
            proc.kill()
            proc.wait()
            raise
        return proc, f"http://{match.group(1)}:{match.group(2)}"

    def _submit(base, knobs):
        status, body = _http_json("POST", base + "/jobs",
                                  {"kernel": kernel, "config": knobs})
        if status != 202:
            raise RuntimeError(f"submission refused: {status} {body}")
        return body["id"]

    def _poll(base, job_id, until, timeout=180.0, interval=0.02):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, job = _http_json("GET", f"{base}/jobs/{job_id}")
            if until(job):
                return job
            time.sleep(interval)
        raise RuntimeError(f"{job_id} did not reach the awaited state "
                           f"within {timeout:.0f}s (last: {job})")

    settled_states = ("done", "error", "cancelled")
    killed = False

    def _mid_flight(job):
        return job["status"] in settled_states or \
            (job["status"] == "running" and job["progress"]["done"] > 0)

    # Round one: a settled job, a long victim, a queued job -- then die.
    # The service is frozen before the kill and killed only if its job
    # journal shows the victim unsettled; a victim that settled first is
    # replaced by a fresh one (a new seed, so no memo replays).
    proc, base = _start()
    try:
        settled_id = _submit(base, small)
        settled_before = _poll(
            base, settled_id, lambda job: job["status"] in settled_states)
        for attempt in range(_VICTIM_ATTEMPTS):
            victim = dict(base_knobs, max_injection_steps=_VICTIM_STEPS)
            if config.seed is not None:
                victim["seed"] = config.seed + attempt
            victim_id = _submit(base, victim)
            queued_id = _submit(base, small)
            if _poll(base, victim_id, _mid_flight)["status"] != "running":
                continue
            proc.send_signal(_signal.SIGSTOP)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a torn tail is expected
                journaled = _replay(os.path.join(
                    state_dir, JobStore.JOURNAL_NAME)).jobs
            if journaled[victim_id]["status"] not in settled_states:
                killed = True
                break
            proc.send_signal(_signal.SIGCONT)
    finally:
        if proc.poll() is None:
            proc.kill()  # SIGKILL: the mid-job crash, or cleanup
        proc.wait(timeout=30)
    if not killed:
        return ScenarioResult(
            "kill-service", False, None,
            f"{_VICTIM_ATTEMPTS} victim jobs settled before the SIGKILL "
            "could land; no mid-job crash was exercised")

    # Round two: same state dir; everything must come back.
    proc, base = _start()
    try:
        resumed = _poll(base, victim_id,
                        lambda job: job["status"] in settled_states)
        queued_after = _poll(base, queued_id,
                             lambda job: job["status"] in settled_states)
        _, survivor = _http_json("GET", f"{base}/jobs/{settled_id}")
    finally:
        proc.send_signal(_signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except Exception:
            proc.kill()
            proc.wait()

    reference = run_campaign(compile_kernel(kernel, "ft").program,
                             CampaignConfig(**victim))
    expected_buckets = {str(bucket): count for bucket, count
                        in sorted(reference.latency_buckets.items())}
    complaints = []
    if resumed["status"] != "done":
        complaints.append(f"victim settled {resumed['status']} "
                          f"({resumed.get('error')})")
    else:
        if resumed["result"]["fingerprint"] != fingerprint_digest(reference):
            complaints.append("resumed fingerprint differs from the "
                              "uninterrupted run")
        if resumed["result"]["latency_buckets"] != expected_buckets:
            complaints.append("resumed latency buckets differ from the "
                              "uninterrupted run")
    if queued_after["status"] != "done":
        complaints.append(f"queued job settled {queued_after['status']} "
                          f"after the restart ({queued_after.get('error')})")
    if survivor.get("status") != "done" or \
            survivor.get("result") != settled_before["result"]:
        complaints.append("the pre-crash settled job did not survive the "
                          "restart intact")
    resumed_steps = ((resumed.get("result") or {}).get("resilience") or
                     {}).get("resumed_steps", 0)
    detail = (f"SIGKILLed victim {attempt + 1} of {_VICTIM_ATTEMPTS} "
              f"mid-job; restart replayed {resumed_steps}/{_VICTIM_STEPS} "
              "journaled step(s); queued and settled jobs survived")
    if complaints:
        detail = "MISMATCH: " + "; ".join(complaints)
    return ScenarioResult("kill-service", not complaints, None, detail)


def _scenario_kill_remote_shard_worker(program, config, jobs, workdir
                                       ) -> ScenarioResult:
    """SIGKILL a real TCP ``talft shard-worker`` subprocess mid-shard;
    it dies across a genuine process and socket boundary."""
    import re
    import signal as _signal

    from repro.service import run_campaign_sharded

    reference = run_campaign(program, config, jobs=1)
    banner = re.compile(r"shard-worker listening on ([0-9.]+):(\d+)")
    procs = []
    workers = []
    killed_rc = None
    try:
        for _ in range(2):
            proc = _spawn_talft(["shard-worker", "--listen", "127.0.0.1:0",
                                 "--once"], workdir)
            try:
                match = _await_banner(proc, banner)
            except RuntimeError:
                proc.kill()
                proc.wait()
                raise
            procs.append(proc)
            workers.append((match.group(1), int(match.group(2))))
        chaotic = run_campaign_sharded(
            program, config, shards=max(2, jobs), workers=workers,
            resilience=ResilienceConfig(max_retries=3, backoff_base=0.01),
            chaos=ChaosSpec(kill_shard_worker=0, kill_shard_after_steps=1),
        )
        killed_rc = procs[0].wait(timeout=30)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = _compare(
        "kill-remote-shard-worker", reference, chaotic, chaotic.resilience,
        expect=lambda stats: (
            "" if stats.shard_worker_deaths
            else "no shard worker death was observed"),
    )
    if result.matches and killed_rc != -_signal.SIGKILL:
        return ScenarioResult(
            result.scenario, False, result.stats,
            f"doomed worker exited with {killed_rc}, not SIGKILL; "
            + result.detail)
    result.detail = (f"remote worker died with SIGKILL mid-shard; "
                     + result.detail)
    return result


def _scenario_recovery(program, config, jobs, workdir) -> ScenarioResult:
    """Machine-level chaos: an SEU under the recovering executor."""
    from repro.core.faults import RegZap
    from repro.recovery import RecoveringMachine

    fault_free = RecoveringMachine(program, checkpoint_interval=16).run()
    faulted = RecoveringMachine(program, checkpoint_interval=16).run(
        fault=RegZap("r1", 0xBAD), fault_at_step=3)
    matches = (faulted.outputs == fault_free.outputs
               and faulted.outcome == fault_free.outcome)
    detail = (f"recoveries: {faulted.recoveries}, replayed steps: "
              f"{faulted.replayed_steps}")
    if not matches:
        detail = "MISMATCH: recovered outputs differ; " + detail
    return ScenarioResult("recovery", matches, None, detail)


SCENARIOS: Dict[str, _Scenario] = {
    scenario.name: scenario for scenario in (
        _Scenario("kill-worker", _scenario_kill_worker,
                  "SIGKILL a pool worker mid-chunk; supervisor rebuilds"),
        _Scenario("delay-chunk", _scenario_delay_chunk,
                  "stall a chunk past its deadline; supervisor retries"),
        _Scenario("truncate-journal", _scenario_truncate_journal,
                  "crash-truncate the journal tail; --resume recomputes"),
        _Scenario("corrupt-journal", _scenario_corrupt_journal,
                  "flip a journal checksum; resume skips and recomputes"),
        _Scenario("kill-remote-shard-worker",
                  _scenario_kill_remote_shard_worker,
                  "SIGKILL a real TCP shard-worker subprocess mid-shard"),
        _Scenario("kill-service", _scenario_kill_service,
                  "SIGKILL talft serve mid-job; restart resumes "
                  "bit-identically", needs_kernel=True),
        _Scenario("recovery", _scenario_recovery,
                  "SEU under the recovering executor; outputs identical"),
    )
}


def run_scenarios(
    program: Program,
    scenarios: List[str],
    config: Optional[CampaignConfig] = None,
    jobs: int = 2,
    workdir: Optional[str] = None,
    kernel: Optional[str] = None,
) -> List[ScenarioResult]:
    """Run the named chaos scenarios against ``program``.

    Each scenario gets a private subdirectory of ``workdir`` (a temporary
    directory when omitted) for journals and one-shot chaos markers.
    ``kernel`` names the target for scenarios that drive the campaign
    service (jobs are submitted by kernel name over HTTP); scenarios
    flagged ``needs_kernel`` refuse to run without it.
    """
    import tempfile

    config = config or CampaignConfig(
        max_injection_steps=12, max_sites_per_step=6,
        max_values_per_site=2, seed=20260806,
        max_steps=1_000_000,  # covers the longest kernel (gzip, ~312k)
    )
    results = []
    with tempfile.TemporaryDirectory() as fallback_dir:
        base = workdir or fallback_dir
        for name in scenarios:
            if name not in SCENARIOS:
                raise ValueError(
                    f"unknown chaos scenario {name!r}; known: "
                    f"{', '.join(sorted(SCENARIOS))}")
            scenario = SCENARIOS[name]
            scenario_dir = os.path.join(base, name.replace("-", "_"))
            os.makedirs(scenario_dir, exist_ok=True)
            if scenario.needs_kernel:
                if kernel is None:
                    raise ValueError(
                        f"chaos scenario {name!r} drives the campaign "
                        "service and needs a kernel-name target")
                results.append(scenario.run(program, config, jobs,
                                            scenario_dir, kernel=kernel))
            else:
                results.append(scenario.run(program, config, jobs,
                                            scenario_dir))
    return results
