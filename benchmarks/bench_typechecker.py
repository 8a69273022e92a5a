"""Type-checker cost: throughput of ``Psi |- C`` on generated code.

Not a paper figure (the paper reports no checker timings), but the
compiler-debugging story of Section 1 only works if checking compiled
binaries is cheap; this bench records instructions checked per second for
every kernel, plus a summary comparing cold vs warm memo caches (see
docs/TYPECHECKER.md).
"""

from __future__ import annotations

import time
from typing import List

from repro.statics import clear_normalization_caches
from repro.workloads import ALL_KERNELS, compile_kernel

from _bench_utils import emit_json, emit_table, format_row

#: The seed-era serial cold-cache total, for the before/after comparison.
BASELINE_INSTRS_PER_SEC = 8_864

#: Repetitions per timing; the minimum is reported.  The caches are
#: cleared before every cold repetition, so min-of-N only filters
#: scheduler/frequency noise -- it never lets a warm run masquerade as
#: cold.
REPEATS = 3


def _check_once(program, cold: bool) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        if cold:
            clear_normalization_caches()
        start = time.perf_counter()
        program.check()
        best = min(best, time.perf_counter() - start)
    return best


def _check_all(programs, cold: bool) -> float:
    """Total seconds to check every kernel under one cache regime."""
    return sum(_check_once(program, cold) for program in programs)


def run_table() -> List[str]:
    widths = (10, 8, 12, 14)
    lines = [
        format_row(("kernel", "instrs", "check (ms)", "instrs/sec"), widths),
        "-" * 50,
    ]
    programs = [compile_kernel(name, "ft").program for name in ALL_KERNELS]
    total_instructions = sum(program.size for program in programs)
    total_seconds = 0.0
    for name, program in zip(ALL_KERNELS, programs):
        elapsed = _check_once(program, cold=True)
        total_seconds += elapsed
        lines.append(format_row(
            (name, program.size, elapsed * 1e3,
             int(program.size / elapsed)), widths,
        ))
    lines.append("-" * 50)
    lines.append(format_row(
        ("total", total_instructions, total_seconds * 1e3,
         int(total_instructions / total_seconds)), widths,
    ))

    # Cache-regime summary.  The warm row reuses whatever the cold row
    # left in the memo tables.
    summary_widths = (26, 12, 14)
    lines.append("")
    lines.append(format_row(("configuration", "total (ms)", "instrs/sec"),
                            summary_widths))
    lines.append("-" * 56)
    regimes = {}
    for label, cold in (("cold cache", True), ("warm cache", False)):
        seconds = _check_all(programs, cold)
        regimes[label] = int(total_instructions / seconds)
        lines.append(format_row(
            (label, seconds * 1e3, int(total_instructions / seconds)),
            summary_widths,
        ))
    lines.append("-" * 56)
    lines.append(format_row(
        ("seed baseline (cold, serial)", "", BASELINE_INSTRS_PER_SEC),
        summary_widths,
    ))
    emit_json("typechecker", {
        "total_instructions": total_instructions,
        "throughput_instrs_per_sec": regimes,
        "seed_baseline_instrs_per_sec": BASELINE_INSTRS_PER_SEC,
        "speedup_cold_serial_vs_seed":
            regimes["cold cache"] / BASELINE_INSTRS_PER_SEC,
    })
    return lines


def test_typechecker_throughput(benchmark):
    # Time one representative check with proper statistics, then print the
    # whole-suite table.
    program = compile_kernel("gcc", "ft").program
    benchmark(program.check)
    emit_table("typechecker", run_table())
