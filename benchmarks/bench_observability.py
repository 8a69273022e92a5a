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
disabled baseline, as the median of per-pair time ratios over 41 pairs
that alternate which side runs first (see ``_paired_overhead`` -- host
clock-speed drift makes non-adjacent timings incomparable).  What makes the contract hold is instrumentation
granularity: the campaign engine records per *step* and per *chunk*,
never per faulty run, so a campaign with thousands of injections touches
the registry a few hundred times.

Both reports must be bit-identical -- metrics are observational, and a
registry that changed a single record would be a correctness bug, not an
overhead question.
"""

from __future__ import annotations

import statistics
import time
from typing import List

from repro import observe
from repro.injection import CampaignConfig, run_campaign
from repro.injection.chaos import report_fingerprint
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

#: Timed pairs.  The gate reads their median ratio, so a real overhead
#: must show in most pairs, not in the luckiest one.
_PAIRS = 41


def _paired_overhead(baseline_runner, treated_runner, pairs: int):
    """Median of per-pair time ratios (treated over baseline), measured
    back-to-back, with the side that runs first alternating per pair.

    The host drifts between fast and throttled regimes over seconds, so
    times taken in different windows are incomparable; adjacent runs are
    regime-matched.  Gating on the minimum ratio would pass whatever the
    luckiest pair gives (it read -31% on a 7-pair run), and always
    running the baseline first would charge the treated side any warm-up
    the first run of a pair leaves behind.  Also returns each side's
    median time and the ratios' range.
    """
    baseline_runner(), treated_runner()  # warm up
    ratios: List[float] = []
    baseline_times: List[float] = []
    treated_times: List[float] = []
    for index in range(pairs):
        times = {}
        order = (("baseline", baseline_runner), ("treated", treated_runner))
        for side, runner in order if index % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            report = runner()
            times[side] = (time.perf_counter() - start, report)
        baseline_time, baseline_report = times["baseline"]
        treated_time, treated_report = times["treated"]
        ratios.append(treated_time / baseline_time)
        baseline_times.append(baseline_time)
        treated_times.append(treated_time)
    return (baseline_report, statistics.median(baseline_times),
            treated_report, statistics.median(treated_times),
            statistics.median(ratios), min(ratios), max(ratios))


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
     ratio, lowest, highest) = _paired_overhead(
        lambda: _run_disabled(program),
        lambda: _run_instrumented(program),
        pairs=_PAIRS)

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
        f"(got {overhead:+.1%}, median of {_PAIRS} alternating pair "
        f"ratios {lowest:.3f}..{highest:.3f}); reports bit-identical",
    ]
    if overhead > _MAX_OVERHEAD:
        raise AssertionError(
            f"observability overhead {overhead:.1%} exceeds the "
            f"{_MAX_OVERHEAD:.0%} budget "
            f"({plain_time * 1000:.1f}ms off vs "
            f"{metered_time * 1000:.1f}ms on, median times)")
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
        "overhead_pairs": _PAIRS,
        "pair_ratio_range": [lowest, highest],
        "overhead_budget": _MAX_OVERHEAD,
        "bit_identical": True,
    })
    return lines


def test_observability_overhead(benchmark):
    lines = benchmark.pedantic(run_observability_table, rounds=1,
                               iterations=1)
    emit_table("observability", lines)
