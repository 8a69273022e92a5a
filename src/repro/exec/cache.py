"""The shared compiled-program cache.

Compilation is one pass over code memory: it translates every instruction
into a closure, while fused chains are planned and compiled on each
address's first dispatch (:mod:`repro.exec.fusion`).  That pass is cheap
but not free, and the same program is executed from many places: every
faulty run of a campaign, every worker process, the recovery executor's
replays and the Figure 10 simulator's functional runs.  This module keys
compilations by *program identity* -- a content fingerprint of code
memory plus the out-of-bounds policy baked into the closures -- in a
bounded LRU (:class:`repro.core.caching.LRUCache`), so each distinct
program is compiled once per process no matter how many subsystems
execute it.

Programs the compiler rejects are negatively cached (a sentinel, not
``None`` -- ``None`` is the LRU's miss marker), so an uncompilable program
costs one failed compile, not one per run.

A second, general-purpose table (:func:`get_aux`) caches artifacts
*derived* from a compiled program under caller-chosen keys; the timing
simulator uses it for per-block instruction lists and static schedules so
``simulate`` stops re-walking code memory on every call (one entry per
(program, config) pair instead of per scheduled block instance).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.core.caching import LRUCache
from repro.core.instructions import Instruction
from repro.core.semantics import OobPolicy
from repro.exec.compiler import CompilationUnsupported, CompiledExec, compile_program

#: Distinct programs kept compiled per process.  Campaigns, tests and the
#: benchmarks cycle through a few dozen programs at most.
_CACHE_SIZE = 128

#: Negative-cache marker for programs the compiler rejected.
_UNSUPPORTED = object()

_cache: LRUCache = LRUCache(_CACHE_SIZE)
_aux_cache: LRUCache = LRUCache(256)
_lock = threading.Lock()


def code_fingerprint(code: Dict[int, Instruction]) -> Tuple:
    """A hashable identity for code memory (instructions are frozen
    dataclasses, so the sorted item tuple is hashable and content-based)."""
    return tuple(sorted(code.items()))


def get_compiled(
    code: Dict[int, Instruction],
    oob_policy: OobPolicy = OobPolicy.TRAP,
) -> Optional[CompiledExec]:
    """The compiled form of ``code`` under ``oob_policy``, or ``None`` when
    the program cannot be compiled (callers fall back to ``step()``)."""
    from repro.observe import get_registry

    registry = get_registry()
    key = (code_fingerprint(code), oob_policy)
    with _lock:
        cached = _cache.get(key)
    if cached is not None:
        registry.counter("exec_cache_lookups_total", outcome="hit").inc()
        return None if cached is _UNSUPPORTED else cached
    registry.counter("exec_cache_lookups_total", outcome="miss").inc()
    try:
        compiled = compile_program(code, oob_policy)
    except CompilationUnsupported:
        with _lock:
            _cache.put(key, _UNSUPPORTED)
        return None
    with _lock:
        _cache.put(key, compiled)
    return compiled


def get_aux(key: Hashable, build: Callable[[], object]) -> object:
    """A derived artifact under ``key``, built once and cached.

    ``build`` runs outside the lock (it may be slow); concurrent builders
    for the same key are harmless -- last write wins with equal values.
    """
    with _lock:
        cached = _aux_cache.get(key)
    if cached is not None:
        return cached
    value = build()
    if value is not None:
        with _lock:
            _aux_cache.put(key, value)
    return value


def clear_exec_caches() -> None:
    """Drop every cached compilation and derived artifact (tests)."""
    with _lock:
        _cache.clear()
        _aux_cache.clear()


def exec_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters for both tables (benchmarks, tests)."""
    with _lock:
        return {
            "programs": len(_cache),
            "program_hits": _cache.hits,
            "program_misses": _cache.misses,
            "aux_entries": len(_aux_cache),
            "aux_hits": _aux_cache.hits,
            "aux_misses": _aux_cache.misses,
        }
