"""Observability overhead: what full instrumentation costs the hot path.

PR 5 added the unified observability layer (``repro.observe``): every
engine -- type checker, compiled execution backend, campaign engine,
journal/supervision layer -- records counters and histograms into the
process-local :class:`MetricsRegistry`.  Instrumentation is only safe to
leave **always on** if the hot path barely pays for it, so this bench
times the same sampled ``vpr`` campaign as ``bench_campaign_throughput``
twice, back-to-back:

* recording **off**: ``repro.observe.disabled()`` installs a
  :class:`NullRegistry`, turning every instrument call into a no-op
  method call (the cheapest "not instrumented" build we can make without
  patching call sites out);
* recording **on**: the default live registry, counters and histograms
  actually accumulating.

The contract asserted here: **live recording costs <= 3%** over the
disabled baseline, best paired ratio (see ``_paired_overhead`` -- the
single-CPU container's clock-speed drift makes non-adjacent timings
incomparable).  What makes the contract hold is instrumentation
granularity: the campaign engine records per *step* and per *chunk*,
never per faulty run, so a campaign with thousands of injections touches
the registry a few hundred times.

Both reports must be bit-identical -- metrics are observational, and a
registry that changed a single record would be a correctness bug, not an
overhead question.
"""

from __future__ import annotations

import time
from typing import List

from repro import observe
from repro.injection import CampaignConfig, run_campaign
from repro.injection.chaos import report_fingerprint
from repro.injection.prune import _MEMO_TABLES
from repro.workloads import compile_kernel

from _bench_utils import emit_json, emit_table, format_row

#: Mirrors bench_campaign_throughput / bench_resilience so rows are
#: comparable across the benchmark suite.
_CONFIG = CampaignConfig(
    max_injection_steps=30,
    max_values_per_site=2,
    max_sites_per_step=8,
    seed=20260705,
)

_MAX_OVERHEAD = 0.03


def _paired_overhead(baseline_runner, treated_runner, reps: int):
    """Minimum of per-pair time ratios, measured back-to-back.

    Same idiom as bench_resilience: this single-CPU container drifts
    between fast and throttled regimes by ~1.7x over seconds, so
    best-of times taken in different windows are incomparable.  Adjacent
    pairs are regime-matched; an inherent cost above budget would show
    in *every* pair, so the minimum ratio isolates it from the drift.
    Every timed run starts from an empty outcome memo, so the pruned
    campaign executes its variants instead of replaying the previous
    run's memoized outcomes.
    """
    baseline_runner(), treated_runner()  # warm up
    best_ratio = float("inf")
    baseline_best = treated_best = float("inf")
    for _ in range(reps):
        _MEMO_TABLES.clear()
        start = time.perf_counter()
        baseline_report = baseline_runner()
        baseline_time = time.perf_counter() - start
        _MEMO_TABLES.clear()
        start = time.perf_counter()
        treated_report = treated_runner()
        treated_time = time.perf_counter() - start
        best_ratio = min(best_ratio, treated_time / baseline_time)
        baseline_best = min(baseline_best, baseline_time)
        treated_best = min(treated_best, treated_time)
    return (baseline_report, baseline_best, treated_report, treated_best,
            best_ratio)


def _run_disabled(program):
    with observe.disabled():
        return run_campaign(program, _CONFIG, jobs=1)


def _run_instrumented(program):
    # A fresh registry per run keeps accumulation realistic (dict growth,
    # label interning) instead of amortized across reps.
    previous = observe.set_registry(observe.MetricsRegistry())
    try:
        return run_campaign(program, _CONFIG, jobs=1)
    finally:
        observe.set_registry(previous)


def run_observability_table() -> List[str]:
    program = compile_kernel("vpr", "ft").program

    (plain_report, plain_time, metered_report, metered_time,
     ratio) = _paired_overhead(
        lambda: _run_disabled(program),
        lambda: _run_instrumented(program),
        reps=7)

    # Bit-identical first: overhead numbers are meaningless otherwise.
    if report_fingerprint(plain_report) != report_fingerprint(metered_report):
        raise AssertionError(
            "instrumented campaign diverged from the uninstrumented report")
    if plain_report.latency_buckets != metered_report.latency_buckets:
        raise AssertionError(
            "latency buckets diverged between instrumented/plain runs")

    plain_rate = plain_report.injections / plain_time
    metered_rate = metered_report.injections / metered_time
    overhead = ratio - 1.0

    # How much did instrumentation actually record?  (Sanity: a no-op
    # treatment would make the <=3% claim vacuous.)
    registry = observe.MetricsRegistry()
    previous = observe.set_registry(registry)
    _MEMO_TABLES.clear()
    try:
        run_campaign(program, _CONFIG, jobs=1)
    finally:
        observe.set_registry(previous)
    snapshot = registry.as_dict()
    counter_series = len(snapshot["counters"])
    histogram_series = len(snapshot["histograms"])
    recorded_events = sum(c["value"] for c in snapshot["counters"])
    if recorded_events == 0:
        raise AssertionError("instrumented run recorded nothing")

    widths = (26, 12, 10, 12, 10)
    lines = [
        format_row(("configuration", "injections", "time_s", "inj_per_s",
                    "vs_off"), widths),
        "-" * 76,
        format_row(("metrics off (null)", plain_report.injections,
                    plain_time, plain_rate, 1.0), widths),
        format_row(("metrics on (live)", metered_report.injections,
                    metered_time, metered_rate,
                    metered_rate / plain_rate), widths),
        "-" * 76,
        f"recorded: {counter_series} counter series, "
        f"{histogram_series} histogram series, "
        f"{recorded_events} counted events",
        f"contract: live recording overhead <= {_MAX_OVERHEAD:.0%} "
        f"(got {overhead:+.1%}, best paired ratio); reports bit-identical",
    ]
    if overhead > _MAX_OVERHEAD:
        raise AssertionError(
            f"observability overhead {overhead:.1%} exceeds the "
            f"{_MAX_OVERHEAD:.0%} budget "
            f"({plain_time * 1000:.1f}ms off vs "
            f"{metered_time * 1000:.1f}ms on, best-of times)")
    emit_json("observability", {
        "config": {
            "kernel": "vpr", "mode": "ft",
            "max_injection_steps": _CONFIG.max_injection_steps,
            "max_sites_per_step": _CONFIG.max_sites_per_step,
            "max_values_per_site": _CONFIG.max_values_per_site,
            "seed": _CONFIG.seed,
        },
        "injections": plain_report.injections,
        "throughput_inj_per_s": {
            "metrics_off": plain_rate,
            "metrics_on": metered_rate,
        },
        "recorded": {
            "counter_series": counter_series,
            "histogram_series": histogram_series,
            "counted_events": recorded_events,
        },
        "overhead_fraction": overhead,
        "overhead_budget": _MAX_OVERHEAD,
        "bit_identical": True,
    })
    return lines


def test_observability_overhead(benchmark):
    lines = benchmark.pedantic(run_observability_table, rounds=1,
                               iterations=1)
    emit_table("observability", lines)
