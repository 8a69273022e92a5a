"""Worker supervision for crash-safe campaign pools.

This module is the campaign driver's only process pool: ``run_campaign``
with ``jobs > 1`` (and ``run_campaign_sharded`` without remote workers)
runs its injection steps here, and no killed or hung worker can abort
the campaign.  It exploits the same determinism contract as everything
else in the engine -- per-step RNG seeded by ``(seed, step_index)``
makes every chunk of injection steps re-executable on any process at
any time with identical results -- so supervision is free to kill,
retry and re-place work without changing a single bit of the report:

* **per-chunk deadlines** (``ResilienceConfig.chunk_timeout``): a chunk
  that does not complete in time is presumed hung; the pool is torn down
  (SIGTERM/SIGKILL via :func:`repro.core.pool.terminate_pool`) and the
  unfinished chunks are re-executed on a fresh pool;
* **killed-worker detection**: a worker dying mid-chunk (OOM killer,
  SIGKILL, segfault) surfaces as ``BrokenProcessPool``; completed chunk
  results are harvested and only the unfinished remainder is resubmitted;
* **bounded retries with exponential backoff + jitter** per chunk
  (``max_retries``, ``backoff_base``/``backoff_cap``/``backoff_jitter``);
* **graceful degradation**: a chunk that exhausts its retries -- or a
  pool that cannot even be rebuilt -- falls back to in-process serial
  execution, so the campaign *completes* (slower) rather than aborts;
* every event is counted in a :class:`ResilienceStats` attached to the
  final :class:`~repro.injection.campaign.CampaignReport`.

Workers re-warm their compiled-program cache on (re)start: the pool
initializer calls :func:`repro.exec.cache.warm_program` before rebuilding
the reference run, so under ``fork`` the inherited parent cache is hit
and under ``spawn`` (or after a restart) the program is compiled exactly
once per fresh process.

The chaos harness (:mod:`repro.injection.chaos`) drives exactly these
paths by injecting infrastructure faults into the workers.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.pool import (
    CHUNKS_PER_WORKER as _CHUNKS_PER_WORKER,
    chunk as _chunk,
    default_jobs,
    mp_context as _mp_context,
    terminate_pool,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.injection.campaign import CampaignConfig, StepOutcome
    from repro.injection.chaos import ChaosSpec
    from repro.program import Program


@dataclass
class ResilienceConfig:
    """Supervision knobs for the campaign pool."""

    #: Seconds a chunk may run before it is presumed hung and its pool is
    #: recycled (``None`` disables deadlines).
    chunk_timeout: Optional[float] = None
    #: Re-executions allowed per chunk before falling back to in-process
    #: serial execution of that chunk.
    max_retries: int = 2
    #: First retry delay, seconds; doubles per attempt up to ``backoff_cap``.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Uniform random extra fraction added to each delay (decorrelates
    #: rebuild stampedes; affects timing only, never results).
    backoff_jitter: float = 0.5
    #: Allow degradation to in-process execution when the pool is
    #: irrecoverable.  Disabling it turns exhaustion into the underlying
    #: pool exception (tests use this to pin the retry accounting).
    serial_fallback: bool = True


@dataclass
class ResilienceStats:
    """What supervision actually did during a campaign."""

    #: Chunk re-executions (for any reason).
    retries: int = 0
    #: Chunks whose deadline expired.
    timeouts: int = 0
    #: Pool breakages attributed to dead workers.
    worker_crashes: int = 0
    #: Fresh pools built after the initial one.
    pool_rebuilds: int = 0
    #: Chunks that degraded to in-process serial execution.
    fallback_chunks: int = 0
    #: Injection steps skipped because a journal already held them.
    resumed_steps: int = 0
    #: Injection steps appended to the journal by this run.
    journaled_steps: int = 0
    #: Journal lines dropped at resume for failed checksums.
    corrupt_journal_lines: int = 0
    #: Sharded campaigns: shard tails handed to an idle worker while the
    #: original owner was still running (work stealing).
    shard_steals: int = 0
    #: Sharded campaigns: worker connections lost mid-campaign (process
    #: death, socket EOF, or a deadline expiry force-close).
    shard_worker_deaths: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def summary(self) -> str:
        active = {name: value for name, value in self.as_dict().items()
                  if value}
        if not active:
            return "resilience: clean run (no retries, no resume)"
        inner = ", ".join(f"{name}: {value}"
                          for name, value in active.items())
        return f"resilience: {inner}"


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: Per-process supervised-campaign context, set by the pool initializer.
_SUP_CONTEXT = None


def _sup_init_worker(
    program: "Program",
    config: "CampaignConfig",
    chaos: "Optional[ChaosSpec]",
    memo_entries=None,
) -> None:
    """Pool initializer: re-warm the exec cache, rebuild the reference.

    Runs once per worker process, including every process of every
    *rebuilt* pool -- a restarted worker warms its compiled-program cache
    (inherited for free under ``fork``, recompiled once under ``spawn``)
    before deriving the checkpointed reference run.
    """
    global _SUP_CONTEXT
    from repro.exec.cache import warm_program
    from repro.injection.campaign import _reference_run

    if config.prune:
        # Seed the worker's prune memo from the parent and track new
        # entries so chunk telemetry can drain them back.
        from repro.injection import prune as _prune

        _prune.absorb_entries(program, config, memo_entries)
        _prune.enable_tracking(program, config)
    if config.backend in ("compiled", "vector"):
        # The vector backend also leans on the compilation: its reference
        # run and its per-lane fallbacks execute compiled.
        warm_program(program.boot().code, config.oob_policy)
    reference = _reference_run(program, config)
    budget = reference.trace.steps + config.step_slack
    _SUP_CONTEXT = (program, config, reference, budget, chaos)


def _sup_run_chunk(
    chunk_index: int,
    step_indices: Sequence[int],
) -> Tuple[List[Tuple[int, "List[StepOutcome]"]], Dict[str, float]]:
    """Worker body: one chunk of injection steps, chaos applied first.

    Returns ``(pairs, telemetry)``: the per-step outcomes plus a small
    per-chunk telemetry delta (wall seconds, steps, injections) that the
    supervisor folds into the parent's metrics registry.  Shipping deltas
    -- not whole registry snapshots -- keeps retried chunks from
    double-counting: only the delta of the attempt whose result is kept
    is ever folded.
    """
    program, config, reference, budget, chaos = _SUP_CONTEXT
    if chaos is not None:
        chaos.apply_in_worker(chunk_index)
    pairs, telemetry = _timed_chunk(program, config, reference, budget,
                                    step_indices)
    if config.prune:
        from repro.injection.prune import drain_new_entries

        telemetry["memo_new"] = drain_new_entries(program, config)
    return pairs, telemetry


def _timed_chunk(program, config, reference, budget, step_indices):
    """Run a chunk's steps; returns ``(pairs, telemetry)``."""
    from repro.injection.campaign import _run_step

    started = time.perf_counter()
    pairs = [
        (step_index,
         _run_step(program, config, reference, budget, step_index))
        for step_index in step_indices
    ]
    return pairs, {
        "seconds": time.perf_counter() - started,
        "steps": len(pairs),
        "injections": sum(len(outcomes) for _, outcomes in pairs),
    }


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


def _backoff_sleep(resilience: ResilienceConfig, attempt: int,
                   rng: random.Random) -> None:
    delay = min(resilience.backoff_cap,
                resilience.backoff_base * (2 ** max(0, attempt - 1)))
    if delay <= 0:
        return
    delay *= 1.0 + resilience.backoff_jitter * rng.random()
    time.sleep(delay)


def run_steps_supervised(
    program: "Program",
    config: "CampaignConfig",
    steps: Sequence[int],
    jobs: Optional[int] = None,
    resilience: Optional[ResilienceConfig] = None,
    stats: Optional[ResilienceStats] = None,
    reference=None,
    chaos: "Optional[ChaosSpec]" = None,
) -> Iterator[Tuple[int, "List[StepOutcome]"]]:
    """Run injection steps across a *supervised* process pool.

    Yields ``(step_index, outcomes)`` in ascending step order, exactly
    like the serial loop, so the caller's merge (and journal) stay
    deterministic.  ``reference`` may pass in the parent's already-built
    :class:`~repro.injection.campaign.ReferenceRun` so serial fallback
    does not recompute it.

    Supervision never changes results: chunks are pure functions of their
    step indices (per-step RNG), so re-execution after a timeout, crash or
    fallback reproduces the lost outcomes bit-for-bit.
    """
    from repro.injection.campaign import _reference_run, _run_step
    from repro.observe import emit as _emit_event, get_registry

    resilience = resilience or ResilienceConfig()
    stats = stats if stats is not None else ResilienceStats()
    registry = get_registry()
    supervision_events = registry.counter  # resolved per event kind below
    chunk_seconds = registry.histogram("campaign_worker_chunk_seconds")
    worker_steps = registry.counter("campaign_worker_steps_total")
    worker_injections = registry.counter("campaign_worker_injections_total")

    def _count_event(kind: str) -> None:
        """Mirror a ResilienceStats bump into the registry, live."""
        supervision_events("campaign_supervision_events_total",
                           kind=kind).inc()
        _emit_event("supervision", kind=kind)

    def _fold_telemetry(telemetry: Dict[str, float]) -> None:
        chunk_seconds.observe(telemetry["seconds"])
        worker_steps.inc(int(telemetry["steps"]))
        worker_injections.inc(int(telemetry["injections"]))
        memo_new = telemetry.get("memo_new")
        if memo_new:
            from repro.injection.prune import absorb_entries

            absorb_entries(program, config, memo_new)
    if jobs is None or jobs <= 0:
        jobs = default_jobs()
    jobs = min(jobs, len(steps))

    def serial_context():
        nonlocal reference
        if reference is None:
            reference = _reference_run(program, config)
        return reference, reference.trace.steps + config.step_slack

    if jobs <= 1:
        ref, budget = serial_context()
        for step_index in steps:
            yield (step_index,
                   _run_step(program, config, ref, budget, step_index))
        return

    chunks = _chunk(steps, jobs * _CHUNKS_PER_WORKER)
    attempts = [0] * len(chunks)
    results: List[Optional[List]] = [None] * len(chunks)
    done = [False] * len(chunks)
    rng = random.Random(0x5EED)  # jitter only; results never consult it

    def run_chunk_inline(index: int) -> None:
        ref, budget = serial_context()
        results[index] = _timed_chunk(program, config, ref, budget,
                                      chunks[index])
        done[index] = True

    def make_pool() -> ProcessPoolExecutor:
        memo_entries = None
        if config.prune:
            from repro.injection.prune import export_entries

            # Rebuilt pools re-export: entries drained from earlier
            # chunks ride along to freshly started workers.
            memo_entries = export_entries(program, config)
        return ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=_mp_context(),
            initializer=_sup_init_worker,
            initargs=(program, config, chaos, memo_entries),
        )

    def submit_pending(pool) -> Dict[int, object]:
        return {
            index: pool.submit(_sup_run_chunk, index, chunks[index])
            for index in range(len(chunks)) if not done[index]
        }

    pool = None
    pool_is_serial = False  # the pool was declared irrecoverable
    try:
        try:
            pool = make_pool()
            futures = submit_pending(pool)
        except Exception:
            pool_is_serial = True
            futures = {}
        for index in range(len(chunks)):
            while not done[index]:
                if pool_is_serial:
                    stats.fallback_chunks += 1
                    _count_event("fallback_chunk")
                    run_chunk_inline(index)
                    break
                future = futures.get(index)
                if future is None:  # pragma: no cover - defensive
                    pool_is_serial = True
                    continue
                try:
                    results[index] = future.result(
                        timeout=resilience.chunk_timeout)
                    done[index] = True
                    break
                except FuturesTimeoutError as exc:
                    stats.timeouts += 1
                    _count_event("timeout")
                    failure = exc
                except BrokenProcessPool as exc:
                    stats.worker_crashes += 1
                    _count_event("worker_crash")
                    failure = exc
                # Failure: harvest whatever later chunks already finished
                # (their results survive a broken pool), recycle the pool,
                # and re-place the remainder.
                for other, other_future in futures.items():
                    if not done[other] and other_future.done() \
                            and other_future.exception() is None:
                        results[other] = other_future.result()
                        done[other] = True
                terminate_pool(pool)
                pool = None
                attempts[index] += 1
                if attempts[index] > resilience.max_retries:
                    if not resilience.serial_fallback:
                        raise failure
                    stats.fallback_chunks += 1
                    _count_event("fallback_chunk")
                    run_chunk_inline(index)
                else:
                    stats.retries += 1
                    _count_event("retry")
                    _backoff_sleep(resilience, attempts[index], rng)
                if all(done):
                    break
                try:
                    pool = make_pool()
                    futures = submit_pending(pool)
                    stats.pool_rebuilds += 1
                    _count_event("pool_rebuild")
                except Exception:
                    # The pool itself is irrecoverable (fd/process
                    # exhaustion): degrade every remaining chunk.
                    if not resilience.serial_fallback:
                        raise
                    pool_is_serial = True
            pairs, telemetry = results[index]
            _fold_telemetry(telemetry)
            yield from pairs
            results[index] = None  # free the chunk's outcome memory early
    finally:
        if pool is not None:
            terminate_pool(pool)
