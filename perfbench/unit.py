"""One cold measured unit of a workload, in a fresh interpreter.

Usage (the runner spawns this; it is not meant to be typed):

    python3 perfbench/unit.py WORKLOAD VARIANT TRACE SPAWNED_AT TMPDIR

``SPAWNED_AT`` is the parent's ``time.time()`` just before the spawn, so
``setup_s`` covers interpreter start, imports and the workload's set-up
up to the first timed operation.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _probe_vm(rounds: int = 400) -> int:
    """Fixed benchmark-owned work shaped like the program's closure
    engine: 256 small closures over a register dict and a list memory."""
    regs = {f"r{i}": i for i in range(16)}
    mem = [0] * 4096

    def make(i):
        a, b, c = f"r{i % 16}", f"r{i * 7 % 16}", f"r{i * 11 % 16}"
        kind = i % 4
        if kind == 0:
            def op():
                regs[a] = (regs[b] + regs[c]) & 0xFFFFFFFF
        elif kind == 1:
            def op():
                mem[regs[b] & 4095] = regs[c]
        elif kind == 2:
            def op():
                regs[a] = mem[regs[c] & 4095] ^ regs[b]
        else:
            def op():
                regs[a] = (regs[b] * 3 + 1) & 0xFFFF
        return op

    program = [make(i) for i in range(256)]
    for _ in range(rounds):
        for op in program:
            op()
    return regs["r0"]


def probe() -> float:
    """Seconds the calibration work takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        _probe_vm()
        best = min(best, time.perf_counter() - started)
    return best


def main(argv) -> int:
    name, variant, trace, spawned_at, tmp = argv
    os.makedirs(tmp, exist_ok=True)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.inputs(int(variant))
    ctx = workload.setup(inputs, tmp)

    from repro.exec import exec_cache_stats
    from repro.injection import prune
    from repro.observe import snapshot

    # Cold-start discipline: nothing compiled or memoized before timing.
    stats = exec_cache_stats()
    if stats["programs"] or stats["aux_entries"] or prune._MEMO_TABLES:
        raise RuntimeError(f"warm caches at start: {stats}, "
                           f"{len(prune._MEMO_TABLES)} memo tables")

    setup_done = time.time()
    probe_before = probe()
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer().__enter__()
    try:
        started = time.perf_counter()
        result = workload.run(inputs, ctx)
        ended = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.__exit__()
        workload.teardown(ctx)

    probe_after = probe()
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "setup_s": setup_done - float(spawned_at),
        "wall_s": ended - started,
        "probe_s": [probe_before, probe_after],
        "peak_rss_mb": max(usage_self, usage_children) / 1024.0,
        "ops": result.ops,
        "latencies": result.latencies,
        "checks": result.checks,
        "extra": result.extra,
        "metrics": snapshot()["metrics"],
    }
    if tracer is not None:
        out["trace"] = tracer.summary((started, ended))
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
