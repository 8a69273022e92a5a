"""Shared process-pool plumbing for the parallel engines.

The campaign pool (:mod:`repro.injection.resilience`) partitions
independent work items into contiguous chunks, fans them out over a
process pool and merges results deterministically in submission order;
the shard coordinator and the service reuse its chunking and start-method
choice.  This module holds those pieces.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import List, Sequence, TypeVar

T = TypeVar("T")

#: Chunks handed out per worker; >1 smooths out uneven per-item cost.
CHUNKS_PER_WORKER = 4


def default_jobs() -> int:
    """The worker count ``jobs=0``/``jobs=None`` resolves to."""
    return os.cpu_count() or 1


def chunk(items: Sequence[T], chunks: int) -> List[List[T]]:
    """Split ``items`` into up to ``chunks`` contiguous, balanced parts."""
    chunks = max(1, min(chunks, len(items)))
    size, extra = divmod(len(items), chunks)
    parts: List[List[T]] = []
    start = 0
    for index in range(chunks):
        end = start + size + (1 if index < extra else 0)
        parts.append(list(items[start:end]))
        start = end
    return parts


def mp_context():
    """The start method a new pool should use, chosen from what the
    calling process looks like right now.

    ``fork`` is cheap (workers inherit the interpreter, imports and
    compiled-program caches) but copies only the calling thread: any lock
    another thread holds at that instant stays held forever in the child.
    So a process with one thread forks, and a process with more -- the
    HTTP service, or any embedding application -- spawns fresh
    interpreters instead.  Platforms without ``fork`` always spawn.
    """
    if threading.active_count() == 1:
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            pass
    return multiprocessing.get_context("spawn")


def terminate_pool(pool) -> None:
    """Tear a ``ProcessPoolExecutor`` down *now*, without waiting.

    ``Executor.shutdown(wait=True)`` -- what a ``with`` block runs on
    ``KeyboardInterrupt`` -- blocks until every queued chunk finishes,
    which against a hung worker means forever and against a long campaign
    means an unresponsive Ctrl-C.  This helper cancels queued work, sends
    SIGTERM to the workers, escalates to SIGKILL if any survive, and reaps
    them, so neither processes nor their pipes leak.  It also joins the
    executor's manager thread, so the caller is single-threaded again
    and its next pool can still fork (:func:`mp_context`).  Safe to call
    on a pool that is already broken or shut down.
    """
    # _processes and the manager thread may already be None after an
    # internal shutdown; shutdown() clears both, so read them first.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive: pool already broken
        pass
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except Exception:  # pragma: no cover - already reaped
            pass
    for process in processes:
        try:
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - stubborn worker
                process.kill()
                process.join(timeout=1.0)
        except Exception:  # pragma: no cover - already reaped
            pass
    if manager is not None:
        manager.join(timeout=5.0)
