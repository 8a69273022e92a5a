"""Outside-in layer tracer.

The tracer wraps the public entry points of the program's layer modules
at the module (or class) attribute each caller resolves at call time,
records one span per call -- name, start, end, parent -- in memory, and
restores every wrapped attribute on exit.  Nothing under ``src/`` is
modified: the spans are taken from outside the program.

Self time of a span is its duration minus the time covered by its direct
children on the same thread.  A wrapped function that returns a
generator is traced per resumption, so a lazily consumed producer (the
supervised pool's step iterator) is charged for the time its consumer
actually waits on it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Dict, List, Tuple

#: (layer name, owner, attribute).  The owner is a module, or
#: ``module:Class`` for methods.  Names imported with ``from X import f``
#: are wrapped at the importing module; names imported inside functions
#: at call time are wrapped on their source module.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # Front end and static checks.
    ("compiler", "repro.compiler", "compile_source"),
    ("compiler", "repro.workloads", "compile_source"),
    ("lang.parser", "repro.compiler.pipeline", "parse_source"),
    ("lang.parser", "repro.lang", "parse_source"),
    ("lang.interp", "repro.lang", "interpret"),
    ("asm.parser", "repro.asm", "parse_program"),
    ("types", "repro.program:Program", "check"),
    # Execution backends.
    ("core.machine", "repro.core.machine:Machine", "run"),
    ("exec.compile", "repro.exec.cache", "compile_program"),
    ("exec.run_compiled", "repro.injection.campaign", "run_compiled"),
    ("exec.lane_fallback", "repro.injection.batch", "run_compiled"),
    ("exec.vector.schedule", "repro.injection.batch", "schedule_for"),
    ("injection.batch", "repro.injection.batch", "run_step_batch"),
    # The campaign engine and its helpers.
    ("injection.campaign", "repro.injection.campaign", "run_campaign"),
    ("injection.campaign", "repro.fuzz.oracle", "run_campaign"),
    ("injection.campaign", "repro.service.server", "run_campaign"),
    ("injection.reference", "repro.injection.campaign", "_reference_run"),
    ("injection.reference", "repro.service.coordinator", "_reference_run"),
    ("injection.replay", "repro.injection.campaign:ReferenceRun", "state_at"),
    ("injection.enumerate", "repro.injection.campaign",
     "_enumerate_step_faults"),
    ("injection.prune", "repro.injection.prune", "run_step_pruned"),
    ("injection.prune.analysis", "repro.injection.prune", "analysis_for"),
    ("injection.prune.memo_io", "repro.injection.prune", "load_memo"),
    ("injection.prune.memo_io", "repro.injection.prune", "save_memo"),
    ("injection.classify", "repro.injection.campaign", "classify_tail"),
    ("injection.merge", "repro.injection.campaign", "_merge_step"),
    ("injection.journal", "repro.injection.journal:CampaignJournal",
     "append_step"),
    ("injection.journal", "repro.injection.journal:CampaignJournal",
     "append_raw"),
    ("injection.journal", "repro.injection.journal:CampaignJournal", "close"),
    ("injection.resilience", "repro.injection.resilience",
     "run_steps_supervised"),
    # Fuzzing and verification.
    ("fuzz.generate", "repro.fuzz.runner", "generate_program"),
    ("fuzz.oracle", "repro.fuzz.runner", "check_program"),
    ("verify.theorems", "repro.verify.theorems", "check_no_false_positives"),
    # Timing simulator.
    ("simulator.simulate", "repro.simulator.runner", "simulate"),
    ("simulator.block_path", "repro.simulator.runner", "record_block_path"),
    ("simulator.schedules", "repro.simulator.runner", "build_schedules"),
    ("simulator.time_stream", "repro.simulator.runner", "time_stream"),
    # Distribution and the service.
    ("service.coordinator", "repro.service.coordinator",
     "run_campaign_sharded"),
    ("service.store", "repro.service.store:JobStore", "record_submit"),
    ("service.store", "repro.service.store:JobStore", "record_state"),
    ("service.store", "repro.service.store:JobStore", "record_result"),
    ("service.execute", "repro.service.server:CampaignService", "_execute"),
    ("service.http", "repro.service.server:_Handler", "do_GET"),
    ("service.http", "repro.service.server:_Handler", "do_POST"),
)

#: Every layer name, in report order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(name for name, _, _ in LAYER_TARGETS))


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


def _union_length(intervals, window) -> float:
    """Length of the union of ``intervals``, clipped to ``window``."""
    low, high = window
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, low), min(end, high)
        if end <= start:
            continue
        if run_end is not None and start <= run_end:
            run_end = max(run_end, end)
            continue
        if run_end is not None:
            total += run_end - run_start
        run_start, run_end = start, end
    if run_end is not None:
        total += run_end - run_start
    return total


class Tracer:
    """Installs the layer wrappers and collects spans per thread.

    Entering the context wraps every target; leaving restores the
    original attributes.  Spans stay in memory until read.
    """

    def __init__(self, targets=LAYER_TARGETS) -> None:
        self._targets = targets
        self._local = threading.local()
        self._lock = threading.Lock()
        #: One span list per thread; a span is [name, start, end, parent
        #: index in the same list or -1].
        self._threads: List[List[list]] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _thread_state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append(spans)
        return spans, local.stack

    def _wrap(self, name: str, fn):
        thread_state = self._thread_state
        clock = time.perf_counter

        def open_span():
            spans, stack = thread_state()
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            return span, stack

        def traced_generator(gen):
            try:
                while True:
                    span, stack = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span[2] = clock()
                    yield item
            finally:
                gen.close()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, stack = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if inspect.isgenerator(result):
                return traced_generator(result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for name, owner, attr in self._targets:
                obj = _resolve(owner)
                original = obj.__dict__[attr] if isinstance(obj, type) \
                    else getattr(obj, attr)
                setattr(obj, attr, self._wrap(name, original))
                self._saved.append((obj, attr, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def summary(self, window: Tuple[float, float]) -> Dict[str, object]:
        """Per-layer self time and calls, plus top-level coverage.

        ``window`` is the workload's timed interval; ``covered_s`` is the
        union of top-level span intervals (over all threads) clipped to
        it.
        """
        self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        roots: List[Tuple[float, float]] = []
        # A span still open when read counts as ending now.
        now = time.perf_counter()
        with self._lock:
            threads = [[(name, start, end or now, parent)
                        for name, start, end, parent in spans]
                       for spans in self._threads]
        for spans in threads:
            child_time = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_time[parent] += end - start
                else:
                    roots.append((start, end))
            for index, (name, start, end, _) in enumerate(spans):
                self_s[name] += (end - start) - child_time[index]
                calls[name] += 1
        return {"self_s": self_s, "calls": calls,
                "covered_s": _union_length(roots, window),
                # [thread, name, start, end, parent], times from the
                # window's start.
                "spans": [[thread, name, round(start - window[0], 6),
                           round(end - window[0], 6), parent]
                          for thread, spans in enumerate(threads)
                          for name, start, end, parent in spans]}
