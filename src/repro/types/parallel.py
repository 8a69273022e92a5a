"""Process-pool checking of basic blocks (``Psi |- C`` fan-out).

Every basic block of a TAL_FT program is checked from its *declared*
precondition (see :mod:`repro.types.code`), so blocks are mutually
independent given the label types: the work partitions arbitrarily
without changing any result.  This module fans the blocks out across
``jobs`` worker processes, following the same plumbing as the
fault-injection pool (:mod:`repro.injection.resilience`):

* the program tables (``psi``, code, label types, hints) are shipped once
  per worker through the pool initializer, not once per task;
* blocks are split into contiguous chunks, several per worker, since
  block lengths vary;
* the parent consumes the per-block results **in block order** and
  re-raises the error of the lowest-addressed failing block, so the
  outcome -- the :class:`~repro.types.code.CheckedProgram` or the first
  :class:`~repro.types.errors.TypeCheckError` -- is identical to the
  serial checker's.

Determinism of diagnostics falls out of the block structure: blocks are
contiguous address ranges, each block's check stops at its first error,
and the serial loop walks blocks in ascending address order -- hence the
serial first error *is* the first error of the lowest-addressed failing
block, which is exactly what the merge selects.

Hash-consed expressions re-intern on unpickling (``Expr.__reduce__``), so
the contexts coming back from workers keep the identity invariants the
statics layer relies on.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.pool import (
    CHUNKS_PER_WORKER as _CHUNKS_PER_WORKER,
    chunk as _chunk,
    default_jobs,
    mp_context as _mp_context,
)
from repro.types.errors import TypeCheckError

#: Per-process program tables, set up once by the pool initializer.
_WORKER_STATE = None

#: A worker's verdict on one block: ``(block_start, contexts, error)``
#: with exactly one of ``contexts``/``error`` set.
BlockResult = Tuple[int, Optional[Dict], Optional[Exception]]


def _init_worker(psi, code, label_types, hints) -> None:
    """Pool initializer: install the (immutable) program tables."""
    global _WORKER_STATE
    _WORKER_STATE = (psi, code, label_types, hints)


def _reset_state() -> None:
    global _WORKER_STATE
    _WORKER_STATE = None


def _run_chunk(blocks: Sequence[List[int]]) -> List[BlockResult]:
    """Worker body: check every block of a chunk, capturing failures."""
    from repro.types.code import _check_block

    psi, code, label_types, hints = _WORKER_STATE
    results: List[BlockResult] = []
    for block in blocks:
        try:
            contexts = _check_block(psi, code, label_types, hints, block)
        except Exception as exc:  # noqa: BLE001 -- serial parity: the parent
            # re-raises the lowest-addressed block's exception whatever its
            # type (the serial loop stops at the first raising block).
            results.append((block[0], None, exc))
        else:
            results.append((block[0], contexts, None))
    return results


def check_blocks_parallel(
    psi,
    code,
    label_types,
    hints: Mapping,
    blocks: Sequence[List[int]],
    jobs: Optional[int] = None,
) -> Iterator[Dict]:
    """Check the blocks across a process pool, yielding context dicts.

    Yields each block's ``{address: StaticContext}`` in ascending block
    order.  If any block fails, raises the error of the lowest-addressed
    failing block -- the same exception (message and ``.address``) the
    serial checker would raise first.
    """
    if jobs is None or jobs <= 0:
        jobs = default_jobs()
    jobs = min(jobs, len(blocks))
    if jobs <= 1:
        # Degenerate pool: run inline rather than paying for a process.
        _init_worker(psi, code, label_types, hints)
        try:
            results = _run_chunk(list(blocks))
        finally:
            _reset_state()
        yield from _merge(results)
        return
    from repro.observe import get_registry, phase_timer

    registry = get_registry()
    chunks = _chunk(list(blocks), jobs * _CHUNKS_PER_WORKER)
    with phase_timer("typecheck.pool", registry, jobs=jobs), \
            ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=_mp_context(),
        initializer=_init_worker,
        initargs=(psi, code, label_types, hints),
    ) as pool:
        # Executor.map preserves submission order and the chunks are
        # contiguous ascending slices, so concatenation walks the blocks
        # exactly as the serial loop does.
        results = [
            result
            for chunk_results in pool.map(_run_chunk, chunks)
            for result in chunk_results
        ]
    registry.counter("typecheck_parallel_blocks_total").inc(len(blocks))
    yield from _merge(results)


def _merge(results: Sequence[BlockResult]) -> Iterator[Dict]:
    """Surface the earliest failure, else the contexts in block order."""
    for start, contexts, error in sorted(results, key=lambda r: r[0]):
        if error is not None:
            raise error
        yield contexts
