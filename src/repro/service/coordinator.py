"""Sharded campaigns: the pool locally, the remote worker fleet over TCP.

:func:`run_campaign_sharded` is a thin wrapper over the campaign driver
(:func:`repro.injection.campaign.run_campaign`): same program, same
config, same report -- bit-identical, ``latency_buckets`` included.
Without ``workers`` it runs the supervised process pool with
``local_workers or shards`` processes.  With ``workers`` (addresses of
``talft shard-worker --listen`` processes) the driver pulls its steps
from :func:`_fleet_steps`, which speaks the :mod:`repro.service.protocol`
to the fleet.  Either way the driver journals, merges and reports.

Fleet scheduling model:

* the pending injection steps are split into ``shards`` contiguous
  parts (:func:`repro.core.pool.chunk`); a **shard is the unit of
  assignment**, a **step is the unit of completion** -- workers stream
  one ``step`` message per finished injection step, so the fleet always
  knows each shard's unfinished tail;
* an idle worker with no unassigned shard left **steals** the largest
  in-flight tail (the remaining steps of the most-loaded shard);
  duplicate results from steal races are dropped by step index;
* a worker death (socket EOF, crash, or a ``chunk_timeout`` expiry
  force-close) **reissues** the dead worker's unfinished tail with the
  same bounded backoff as the supervised pool
  (:func:`repro.injection.resilience._backoff_sleep`), degrading to
  in-process serial execution when retries exhaust or the fleet is gone
  -- the campaign *completes*, never aborts.

Steps arrive out of order; the driver journals each one as it arrives
and merges them in step order.

Concurrency model: one blocking reader thread per worker connection
pushes ``(worker, message | None)`` into a queue; the scheduler (the
thread iterating the step source) is the sole sender.
"""

from __future__ import annotations

import queue
import random
import socket
import threading
import time
from collections import deque
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.errors import ReproError
from repro.core.pool import chunk
from repro.injection.campaign import (
    CampaignConfig,
    CampaignReport,
    ReferenceRun,
    _drive,
    _reference_run,  # noqa: F401 - re-exported; callers bind it here
    _run_step,
    run_campaign,
)
from repro.injection.chaos import ChaosSpec
from repro.injection.journal import config_digest, decode_step, program_digest
from repro.injection.resilience import (
    ResilienceConfig,
    ResilienceStats,
    _backoff_sleep,
)
from repro.observe import emit, get_registry
from repro.program import Program
from repro.service.protocol import (
    Connection,
    ProtocolError,
    coordinator_mac,
    macs_equal,
    make_nonce,
    worker_mac,
)

#: Seconds the coordinator waits for a worker to answer the connect.
CONNECT_TIMEOUT = 30.0
#: Seconds to wait for ``bye`` messages at shutdown before giving up.
SHUTDOWN_TIMEOUT = 10.0
#: Scheduler tick (seconds): the queue-wait granularity at which worker
#: deadlines are checked.
_TICK = 0.25


class _Worker:
    """Coordinator-side state of one fleet connection."""

    def __init__(self, index: int, conn: Connection):
        self.index = index
        self.conn = conn
        self.alive = True
        self.host: Optional[str] = None
        self.shard: Optional[int] = None  # currently assigned shard index
        self.last_activity = time.monotonic()
        self.timed_out = False  # force-closed, death not yet delivered
        self.bye_metrics: Optional[dict] = None


class _Shard:
    """Scheduling state of one planned shard."""

    def __init__(self, index: int, steps: List[int]):
        self.index = index
        self.remaining: Set[int] = set(steps)
        self.owners: Set[int] = set()  # worker indices running this shard
        self.attempts = 0  # reissues after deaths/timeouts


def run_campaign_sharded(
    program: Program,
    config: Optional[CampaignConfig] = None,
    *,
    shards: int,
    workers: Optional[Sequence[Tuple[str, int]]] = None,
    local_workers: Optional[int] = None,
    backend: Optional[str] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    resilience: Optional[ResilienceConfig] = None,
    chaos: Optional[ChaosSpec] = None,
    progress: bool = False,
    on_step=None,
    authkey: Optional[bytes] = None,
) -> CampaignReport:
    """Run one campaign split ``shards`` ways; the report is
    bit-identical to the single-process run.

    Without ``workers`` this is ``run_campaign`` on the supervised
    process pool with ``local_workers or shards`` processes.  With
    ``workers`` (a list of ``(host, port)`` addresses of ``talft
    shard-worker --listen`` processes) the coordinator dials out and
    hands the fleet ``shards`` shards to run, steal and reissue.
    ``journal_path`` is the campaign's one journal and ``resume=True``
    skips every step it (or an older release's per-shard journals next
    to it) already holds.  All other knobs mirror
    :func:`~repro.injection.campaign.run_campaign`.

    ``authkey`` is the shared HMAC key the remote workers were started
    with (``None`` for a keyless loopback fleet).
    """
    if shards < 1:
        raise ValueError(f"shards must be at least 1 (got {shards})")
    if not workers:
        return run_campaign(program, config, jobs=local_workers or shards,
                            backend=backend, journal_path=journal_path,
                            resume=resume, resilience=resilience,
                            chaos=chaos, progress=progress, on_step=on_step)

    def fleet(config, reference, steps, stats):
        return _fleet_steps(program, config, reference, steps, stats,
                            shards=shards, workers=workers, authkey=authkey,
                            resilience=resilience or ResilienceConfig(),
                            chaos=chaos)

    return _drive(program, config, None, backend, journal_path, resume,
                  resilience, chaos, progress, on_step, source=fleet)


def _connect(workers: Sequence[Tuple[str, int]], fleet: List[_Worker],
             fleet_key: Optional[bytes]) -> None:
    """Dial every worker into ``fleet`` and handshake each connection.

    Handshakes run synchronously (no reader thread exists yet) before
    any job flows: read the hello, and with a fleet key
    exchange the HMAC challenge response.  A worker that fails is closed
    and dropped from scheduling -- the survivors (or the serial
    fallback) still complete the campaign.  An unreachable address is
    a configuration error and raises.
    """
    for index, address in enumerate(workers):
        try:
            sock = socket.create_connection(address, timeout=CONNECT_TIMEOUT)
        except OSError as exc:
            raise ProtocolError(
                f"cannot reach shard worker at "
                f"{address[0]}:{address[1]}: {exc}") from exc
        sock.settimeout(None)
        fleet.append(_Worker(index, Connection(sock)))
    for worker in fleet:
        try:
            worker.conn.settimeout(CONNECT_TIMEOUT)
            hello = worker.conn.recv()
            if hello is None or hello.get("type") != "hello":
                raise ProtocolError("worker did not say hello")
            worker.host = hello.get("host")
            if fleet_key is not None:
                nonce = make_nonce()
                worker.conn.send({
                    "type": "auth",
                    "mac": coordinator_mac(
                        fleet_key, str(hello.get("nonce", ""))),
                    "nonce": nonce,
                })
                reply = worker.conn.recv()
                if reply is None or reply.get("type") != "auth-ok" \
                        or not macs_equal(worker_mac(fleet_key, nonce),
                                          reply.get("mac")):
                    raise ProtocolError("worker failed fleet authentication")
            worker.conn.settimeout(None)
        except (ProtocolError, OSError):
            worker.alive = False
            worker.conn.close()


def _fleet_steps(
    program: Program,
    config: CampaignConfig,
    reference: ReferenceRun,
    steps: List[int],
    stats: ResilienceStats,
    *,
    shards: int,
    workers: Sequence[Tuple[str, int]],
    authkey: Optional[bytes],
    resilience: ResilienceConfig,
    chaos: Optional[ChaosSpec],
) -> Iterator[Tuple[int, list]]:
    """The remote fleet as a step source: yields ``(step, outcomes)``
    for every step of ``steps``, in arrival order."""
    from repro.asm import emit_tal  # only fleets need the assembler

    rng = random.Random()  # backoff jitter only; results never consult it
    budget = reference.trace.steps + config.step_slack
    registry = get_registry()
    instr_steals = registry.counter("shard_steals_total")
    instr_deaths = registry.counter("shard_worker_deaths_total")
    shard_states = [_Shard(index, part)
                    for index, part in enumerate(chunk(steps, shards))]
    pending = [state.index for state in shard_states]
    outstanding = len(steps)
    #: Completed steps not yet handed to the driver.
    ready: deque = deque()
    #: Shards degraded to in-process serial execution.
    fallback: List[_Shard] = []
    fleet: List[_Worker] = []
    readers: List[threading.Thread] = []
    inbox: "queue.Queue" = queue.Queue()
    shutting_down = False

    def _complete(state: _Shard, step_index: int, outcomes: list) -> None:
        nonlocal outstanding
        if step_index not in state.remaining:
            return  # duplicate from a steal race
        state.remaining.discard(step_index)
        outstanding -= 1
        ready.append((step_index, outcomes))

    def _assign(worker: _Worker) -> None:
        """Hand the idle ``worker`` its next work, stealing if needed."""
        if shutting_down or not worker.alive:
            return
        index = None
        if pending:
            index = pending.pop(0)
        else:
            # Steal the largest in-flight tail still worth splitting.
            best = None
            for state in shard_states:
                if state.remaining and len(state.owners) == 1 and \
                        len(state.remaining) >= 2:
                    if best is None or \
                            len(state.remaining) > len(best.remaining):
                        best = state
            if best is not None:
                index = best.index
                stats.shard_steals += 1
                instr_steals.inc()
                emit("shard-steal", shard=index,
                     steps=len(best.remaining), worker=worker.index)
        if index is None:
            worker.shard = None
            return
        state = shard_states[index]
        worker.shard = index
        state.owners.add(worker.index)
        worker.last_activity = time.monotonic()
        try:
            worker.conn.send({"type": "shard", "shard": index,
                              "steps": sorted(state.remaining)})
        except OSError:
            pass  # the reader thread will surface the death

    def _on_death(worker: _Worker) -> None:
        """EOF/timeout on a worker: reissue its unfinished tail."""
        if not worker.alive:
            return
        worker.alive = False
        worker.conn.close()
        if shutting_down:
            return
        stats.shard_worker_deaths += 1
        instr_deaths.inc()
        emit("shard-worker-death", worker=worker.index, shard=worker.shard)
        index = worker.shard
        worker.shard = None
        if index is None:
            return
        state = shard_states[index]
        state.owners.discard(worker.index)
        if not state.remaining or state.owners:
            return  # finished, or a steal partner is still on it
        state.attempts += 1
        stats.retries += 1
        if state.attempts > resilience.max_retries:
            if not resilience.serial_fallback:
                raise ReproError(
                    f"shard {index} exhausted {resilience.max_retries} "
                    "retries and serial fallback is disabled")
            fallback.append(state)
            return
        _backoff_sleep(resilience, state.attempts, rng)
        pending.append(index)
        for idle in fleet:
            if idle.alive and idle.shard is None:
                _assign(idle)
                break

    def _check_deadlines() -> None:
        """Force-close any worker past its chunk-timeout deadline.

        Runs on *every* scheduling iteration, not just idle ticks: a
        busy fleet can keep the inbox non-empty for arbitrarily long,
        which must not postpone a hung worker's force-close.  The close
        unblocks that worker's reader thread, which then delivers the
        death through the inbox like any other EOF.
        """
        deadline = resilience.chunk_timeout
        if deadline is None:
            return
        now = time.monotonic()
        for candidate in fleet:
            if candidate.alive and not candidate.timed_out \
                    and candidate.shard is not None \
                    and now - candidate.last_activity > deadline:
                stats.timeouts += 1
                candidate.timed_out = True
                candidate.conn.close()

    def _reader(worker: _Worker) -> None:
        while True:
            try:
                message = worker.conn.recv()
            except (ProtocolError, OSError):
                message = None
            inbox.put((worker, message))
            if message is None:
                return

    try:
        _connect(workers, fleet, authkey)
        job = {"type": "job", "program": emit_tal(program),
               "config": config.to_dict(),
               "program_digest": program_digest(program),
               "config_digest": config_digest(config)}
        for worker in fleet:
            if not worker.alive:
                continue
            die_after = None
            if chaos is not None and chaos.kill_shard_worker == worker.index:
                die_after = chaos.kill_shard_after_steps
            try:
                worker.conn.send(dict(job, die_after_steps=die_after))
            except OSError:
                worker.alive = False
                worker.conn.close()
        for worker in fleet:
            if worker.alive:
                reader = threading.Thread(target=_reader, args=(worker,),
                                          daemon=True)
                reader.start()
                readers.append(reader)
        # The hellos were consumed by the handshake, so hand every
        # surviving worker its first shard directly.
        for worker in fleet:
            _assign(worker)

        while outstanding or ready:
            while ready:
                yield ready.popleft()
            if fallback:
                state = fallback.pop(0)
                stats.fallback_chunks += 1
                for step_index in sorted(state.remaining):
                    _complete(state, step_index, _run_step(
                        program, config, reference, budget, step_index))
                    yield ready.popleft()
                continue
            if not outstanding:
                break
            if not any(worker.alive for worker in fleet):
                # Fleet gone (or never materialized): finish in-process.
                if not resilience.serial_fallback:
                    raise ReproError(
                        "shard worker fleet is gone and serial fallback "
                        "is disabled")
                fallback.extend(state for state in shard_states
                                if state.remaining)
                continue
            _check_deadlines()
            try:
                worker, message = inbox.get(timeout=_TICK)
            except queue.Empty:
                continue
            if message is None:
                _on_death(worker)
                continue
            worker.last_activity = time.monotonic()
            kind = message["type"]
            if kind == "step":
                step_index = message["step"]
                outcomes = decode_step(message["out"],
                                       reference.tail(step_index))
                _complete(shard_states[message["shard"]], step_index,
                          outcomes)
            elif kind == "shard-done":
                index = message["shard"]
                shard_states[index].owners.discard(worker.index)
                if worker.shard == index:
                    worker.shard = None
                _assign(worker)
            # Unknown message types from future workers are ignored.

        # --- shutdown: collect host-labelled worker telemetry ----------
        shutting_down = True
        awaiting = 0
        for worker in fleet:
            if worker.alive:
                try:
                    worker.conn.send({"type": "shutdown"})
                    awaiting += 1
                except OSError:
                    worker.alive = False
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT
        while awaiting and time.monotonic() < deadline:
            try:
                worker, message = inbox.get(
                    timeout=max(0.05, deadline - time.monotonic()))
            except queue.Empty:
                break
            if message is None:
                if worker.alive:
                    worker.alive = False
                    awaiting -= 1
            elif message["type"] == "bye":
                worker.bye_metrics = message.get("metrics")
                worker.host = message.get("host", worker.host)
                worker.alive = False
                awaiting -= 1
        for worker in fleet:
            if worker.bye_metrics:
                # Host-labelled fold: per-worker series stay distinct in
                # the coordinator's registry instead of colliding.
                registry.merge_dict(worker.bye_metrics,
                                    extra_labels={"host": worker.host or
                                                  f"worker-{worker.index}"})
    finally:
        for worker in fleet:
            worker.conn.close()
        # Closing unblocks every reader; joining them leaves the caller
        # single-threaded, so its next process pool can still fork.
        for reader in readers:
            reader.join(timeout=5.0)
