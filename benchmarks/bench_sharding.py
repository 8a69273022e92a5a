"""Local sharded-campaign scaling: the process pool vs the single process.

``run_campaign_sharded`` without remote workers (``talft campaign
--shards N``) runs the campaign driver on the supervised process pool
with ``local_workers or shards`` workers -- the same engine as
``--jobs N``; the socket fleet serves only remote ``--workers``.  This
bench runs the same exhaustive ``vpr`` SEU sweep as
``bench_campaign_throughput`` (every site, every representative value --
the regime campaigns run at scale) on:

* the single-process engine (the merge-parity baseline),
* ``shards=4`` with pools of 1, 2 and 4 workers (``local_workers``).

Every row must be fingerprint-equal to the single-process report --
scaling numbers are meaningless if the distribution changed a bit.

The contract: **4 local workers deliver >= 3x the 1-worker pool's
throughput** on this sweep.  The assertion is gated on
``os.cpu_count() >= 4``: the pool multiplies real cores, and below four
cores the workers time-slice and the matrix is informational.
"""

from __future__ import annotations

import os
import time
from typing import List

from repro.injection import CampaignConfig, run_campaign
from repro.injection.chaos import report_fingerprint
from repro.service import run_campaign_sharded
from repro.workloads import compile_kernel

from _bench_utils import emit_json, emit_table, format_row

#: Mirrors bench_campaign_throughput's exhaustive sweep: every fault
#: site, every representative value at 10 sampled steps.  ``prune=False``
#: keeps every row measuring raw pool execution, not the pruner.
_SWEEP_CONFIG = CampaignConfig(
    max_injection_steps=10,
    max_values_per_site=None,
    max_sites_per_step=None,
    seed=20260705,
    prune=False,
)

_SHARDS = 4
_POOL_SIZES = (1, 2, 4)
_MIN_SPEEDUP_4_WORKERS = 3.0


def _timed(runner):
    start = time.perf_counter()
    report = runner()
    return report, time.perf_counter() - start


def run_sharding_table() -> List[str]:
    program = compile_kernel("vpr", "ft").program
    # Warm the compile/exec caches so the first timed row isn't charged
    # for one-time work the others inherit.
    single_report, single_time = _timed(
        lambda: run_campaign(program, _SWEEP_CONFIG, jobs=1))
    baseline = report_fingerprint(single_report)

    rows = []
    for pool in _POOL_SIZES:
        report, seconds = _timed(
            lambda pool=pool: run_campaign_sharded(
                program, _SWEEP_CONFIG, shards=_SHARDS,
                local_workers=pool))
        if report_fingerprint(report) != baseline:
            raise AssertionError(
                f"sharded pool of {pool} diverged from the "
                "single-process report")
        if report.latency_buckets != single_report.latency_buckets:
            raise AssertionError(
                f"sharded pool of {pool} changed latency_buckets")
        rows.append((pool, report, seconds))

    single_rate = single_report.injections / single_time
    rates = {pool: report.injections / seconds
             for pool, report, seconds in rows}
    speedup_vs_one = rates[4] / rates[1]
    cores = os.cpu_count() or 1
    contract_asserted = cores >= 4

    widths = (24, 12, 10, 12, 12)
    lines = [
        format_row(("configuration", "injections", "time_s", "inj_per_s",
                    "vs_single"), widths),
        "-" * 76,
        format_row(("single process", single_report.injections,
                    single_time, single_rate, 1.0), widths),
    ]
    for pool, report, seconds in rows:
        lines.append(format_row(
            (f"shards=4, pool of {pool}", report.injections, seconds,
             rates[pool], rates[pool] / single_rate), widths))
    lines.append("-" * 76)
    lines.append(
        f"4-worker pool vs 1-worker pool: {speedup_vs_one:.2f}x "
        f"(contract >= {_MIN_SPEEDUP_4_WORKERS:.0f}x "
        + (f"asserted on this {cores}-core host)" if contract_asserted
           else f"informational: host exposes {cores} core(s))"))
    lines.append("all reports bit-identical to the single process, "
                 "latency_buckets included")
    if contract_asserted and speedup_vs_one < _MIN_SPEEDUP_4_WORKERS:
        raise AssertionError(
            f"4 local workers delivered {speedup_vs_one:.2f}x the "
            f"1-worker pool on a {cores}-core host; the sharding "
            f"contract requires >= {_MIN_SPEEDUP_4_WORKERS:.0f}x")

    emit_json("sharding", {
        "config": {
            "kernel": "vpr", "mode": "ft",
            "max_injection_steps": _SWEEP_CONFIG.max_injection_steps,
            "max_sites_per_step": None,
            "max_values_per_site": None,
            "seed": _SWEEP_CONFIG.seed,
            "prune": False,
            "shards": _SHARDS,
        },
        "injections": single_report.injections,
        "throughput_inj_per_s": {
            "single_process": single_rate,
            **{f"pool_{pool}_workers": rates[pool]
               for pool in _POOL_SIZES},
        },
        "speedup_4_workers_vs_1": speedup_vs_one,
        "speedup_contract": _MIN_SPEEDUP_4_WORKERS,
        "contract_asserted": contract_asserted,
        "contract_gate_reason": (
            "asserted: host has >= 4 cores" if contract_asserted
            else f"informational: host exposes {cores} core(s); "
                 "4 workers time-slice fewer cores"),
        "bit_identical": True,
    })
    return lines


def test_sharding_scaling(benchmark):
    lines = benchmark.pedantic(run_sharding_table, rounds=1, iterations=1)
    emit_table("sharding", lines)
