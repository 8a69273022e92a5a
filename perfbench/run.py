"""The repo benchmark: cold-start workloads over the user paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

Each measured unit runs in a fresh interpreter (``unit.py``) with no
warm-up.  Units repeat until ``--seconds`` have passed; the run reports
medians over them.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced units and prints the
per-layer metrics from the traced ones.  Times are in reference-speed
seconds (scaled by a calibration probe run around each unit).  Every
unit's outputs are checked against ``goldens.json``; the last stdout
line is the JSON result.  See README.md for the metric definitions.

Maintenance modes:

* ``--record-goldens`` runs one unit per variant and rewrites the
  workload's goldens (do this only on a commit whose results are
  trusted);
* ``--self-check`` runs one unit, checks it against the goldens and
  against a deliberately wrong golden, and exits 0 only when the first
  check passes and the second fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import (  # noqa: E402
    POLL_S,
    VARIANTS,
    WORKLOADS,
    parallel_workers,
    service_clients,
)

#: A run never starts a unit after this many seconds, and kills one
#: still running at the hard deadline.
RUN_DEADLINE_S = 170.0
#: Fewest units per run: untraced, and alternating untraced/traced.
MIN_UNITS = {0: 3, 1: 4}

#: The calibration probe's best time on the reference host (2 vCPUs of
#: an Intel Xeon at 2.1 GHz, Python 3.11) in its fast regime.  Times are
#: reported in reference-speed seconds: measured seconds scaled by how
#: much faster than this the probe ran around the unit (see README.md).
PROBE_REF_S = 0.0125

UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
         "latency_p50_s": "s", "latency_p90_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics that are not a layer's self time or call count.
EXTRA_PER_LAYER = (
    ("prune.replicated_ratio", "ratio"),
    ("prune.memo_hit_ratio", "ratio"),
    ("vector.fallback_ratio", "ratio"),
    ("exec.cache_hit_ratio", "ratio"),
    ("journal.fsyncs", "count"),
    ("types.instructions", "count"),
    ("service.accept_pct", "%"),
    ("service.queue_wait_pct", "%"),
    ("service.run_pct", "%"),
    ("parallel.spinup_pct", "%"),
    ("parallel.worker_busy_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
)


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
        units[f"{layer}.calls"] = "count"
    units.update(EXTRA_PER_LAYER)
    return units


# -- running units ----------------------------------------------------------


def run_unit(workload: str, variant: int, trace: bool, tmp: str,
             deadline: float) -> Optional[dict]:
    """Spawn one cold unit; returns its result, or None if it failed."""
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, os.path.join(HERE, "unit.py"), workload,
               str(variant), "1" if trace else "0", repr(time.time()), tmp]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"unit timed out: {workload} variant {variant}",
              file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if process.returncode != 0:
        sys.stderr.write(stderr[-4000:])
        print(f"unit failed with exit code {process.returncode}",
              file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def check_unit(unit: Optional[dict], golden: Dict[str, object],
               twin: Optional[dict] = None) -> Tuple[int, int]:
    """(attempted, failed) for one unit's checks against the goldens.

    A missing unit fails every golden check.  ``twin`` is the untraced
    unit a traced one must reproduce exactly.
    """
    if unit is None:
        return len(golden), len(golden)
    seen = {}
    failed = 0
    for key, value, valid in unit["checks"]:
        seen[key] = value
        if not valid or key not in golden \
                or _canonical(golden[key]) != _canonical(value):
            failed += 1
    missing = [key for key in golden if key not in seen]
    failed += len(missing)
    if twin is not None:
        twin_values = {key: value for key, value, _ in twin["checks"]}
        failed += sum(1 for key, value in seen.items()
                      if _canonical(twin_values.get(key)) != _canonical(value))
    return len(seen) + len(missing), failed


# -- metrics ----------------------------------------------------------------


def _counter(metrics: dict, name: str, **labels) -> float:
    return sum(entry["value"] for entry in metrics["counters"]
               if entry["name"] == name
               and all(entry["labels"].get(k) == v
                       for k, v in labels.items()))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(metrics: dict) -> Dict[str, float]:
    """Ratios and counts derived from one registry snapshot."""
    replicated = _counter(metrics, "prune_pruned_variants_total")
    memo_hits = _counter(metrics, "prune_memo_hits_total")
    variants = replicated + memo_hits + _counter(metrics,
                                                 "prune_executed_total")
    hits = _counter(metrics, "exec_cache_lookups_total", outcome="hit")
    lookups = _counter(metrics, "exec_cache_lookups_total")
    return {
        "prune.replicated_ratio": _ratio(replicated, variants),
        "prune.memo_hit_ratio": _ratio(memo_hits, variants),
        "vector.fallback_ratio": _ratio(
            _counter(metrics, "vector_fallback_lanes_total"),
            _counter(metrics, "vector_lanes_total")),
        "exec.cache_hit_ratio": _ratio(hits, lookups),
        "journal.fsyncs": _counter(metrics, "journal_fsyncs_total"),
        "types.instructions": _counter(metrics,
                                       "typecheck_instructions_total"),
    }


def speed(unit: dict, which=slice(None)) -> float:
    """How much faster the host ran than the reference during the unit:
    the reference probe time over the unit's probe times."""
    probes = unit["probe_s"][which]
    return PROBE_REF_S / (sum(probes) / len(probes))


def end_to_end(units: List[dict]) -> Dict[str, float]:
    """Medians over units, times in reference-speed seconds."""
    walls = [unit["wall_s"] * speed(unit) for unit in units]
    latencies = [value * speed(unit)
                 for unit in units for value in unit["latencies"]]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": statistics.median(unit["setup_s"] * speed(unit, slice(1))
                                     for unit in units),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(unit["ops"] / wall
                                       for unit, wall in zip(units, walls)),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": deciles[8],
        "peak_rss_mb": statistics.median(unit["peak_rss_mb"]
                                         for unit in units),
    }


def per_layer(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    rows: List[Dict[str, float]] = []
    for unit in traced:
        trace, wall = unit["trace"], unit["wall_s"]
        row = {}
        for layer in LAYERS:
            row[f"{layer}.self_pct"] = 100 * trace["self_s"][layer] / wall
            row[f"{layer}.calls"] = trace["calls"][layer]
        row.update(counter_metrics(unit["metrics"]))
        row.update(unit["extra"])
        row["trace.coverage_pct"] = 100 * trace["covered_s"] / wall
        rows.append(row)
    values = {}
    for name in per_layer_units():
        samples = [row.get(name, 0.0) for row in rows]
        values[name] = statistics.median(samples) if samples else 0.0
    traced_wall = statistics.median(unit["wall_s"] * speed(unit)
                                    for unit in traced)
    untraced_wall = statistics.median(unit["wall_s"] * speed(unit)
                                      for unit in untraced)
    values["trace.overhead_pct"] = 100 * (traced_wall / untraced_wall - 1)
    return values


def host_notes() -> Dict[str, object]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "service_clients": service_clients(),
            "service_poll_s": POLL_S, "parallel_workers": parallel_workers()}


def write_trace_report(workload: str, seed: int, traced: List[dict],
                       values: Dict[str, float]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "host": host_notes(),
                   "per_layer": values,
                   "units": [{"wall_s": unit["wall_s"],
                              "self_s": unit["trace"]["self_s"],
                              "calls": unit["trace"]["calls"],
                              "covered_s": unit["trace"]["covered_s"]}
                             for unit in traced],
                   "last_unit_spans": traced[-1]["trace"]["spans"]},
                  handle, indent=1, sort_keys=True)
    return path


# -- modes ------------------------------------------------------------------


def load_goldens() -> dict:
    with open(GOLDENS) as handle:
        return json.load(handle)


def measure(args, golden: Dict[str, object]) -> int:
    variant = args.seed % VARIANTS
    started = time.monotonic()
    hard_deadline = started + RUN_DEADLINE_S
    tmp_base = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    untraced: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    count = 0
    while True:
        elapsed = time.monotonic() - started
        if count >= MIN_UNITS[args.trace] and elapsed >= args.seconds:
            break
        if elapsed >= RUN_DEADLINE_S - 60:
            break
        trace = args.trace == 1 and count % 2 == 1
        unit = run_unit(args.workload, variant, trace,
                        os.path.join(tmp_base, str(count)), hard_deadline)
        twin = untraced[-1] if trace and untraced else None
        unit_attempted, unit_failed = check_unit(unit, golden, twin)
        attempted += unit_attempted
        failed += unit_failed
        if unit is not None:
            (traced if trace else untraced).append(unit)
        count += 1
    shutil.rmtree(tmp_base, ignore_errors=True)

    if args.trace == 1:
        if not traced or not untraced:
            print("no complete traced/untraced unit pair", file=sys.stderr)
            return 1
        values = per_layer(traced, untraced)
        units = per_layer_units()
        path = write_trace_report(args.workload, args.seed, traced, values)
        print(f"# per-layer seconds and spans: {path}")
    else:
        if not untraced:
            print("no unit completed", file=sys.stderr)
            return 1
        values = end_to_end(untraced)
        units = UNITS
    workload = WORKLOADS[args.workload]
    notes = {
        "workload": args.workload, "seed": args.seed, "variant": variant,
        "units": len(untraced) + len(traced),
        "ops": f"{untraced[-1]['ops']} {workload.op}(s) per unit",
        "latency_samples": sum(len(unit["latencies"]) for unit in untraced),
        "request": workload.request,
        "error_rate": failed / attempted if attempted else 0.0,
        "measured_wall_s": statistics.median(unit["wall_s"]
                                             for unit in untraced),
        "host_speed": statistics.median(speed(unit) for unit in untraced),
        **host_notes(),
    }
    print("# " + json.dumps(notes, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def record_goldens(args) -> int:
    goldens = load_goldens() if os.path.exists(GOLDENS) else {}
    table = {}
    for variant in range(VARIANTS):
        unit = run_unit(args.workload, variant, False,
                        os.path.join(OUT_DIR, f"tmp-{os.getpid()}"),
                        time.monotonic() + 600)
        if unit is None:
            return 1
        invalid = [key for key, _, valid in unit["checks"] if not valid]
        if invalid:
            print(f"variant {variant}: invalid results {invalid}",
                  file=sys.stderr)
            return 1
        table[str(variant)] = {key: value
                               for key, value, _ in unit["checks"]}
        print(f"variant {variant}: wall {unit['wall_s']:.3f} s", flush=True)
    goldens[args.workload] = table
    with open(GOLDENS, "w") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def self_check(args, golden: Dict[str, object]) -> int:
    unit = run_unit(args.workload, args.seed % VARIANTS, False,
                    os.path.join(OUT_DIR, f"tmp-{os.getpid()}"),
                    time.monotonic() + RUN_DEADLINE_S)
    attempted, failed = check_unit(unit, golden)
    wrong = dict(golden)
    key = next(iter(sorted(wrong)))
    wrong[key] = {"tampered": wrong[key]}
    _, failed_wrong = check_unit(unit, wrong)
    print(f"true goldens: {failed}/{attempted} failed; golden {key!r} "
          f"tampered: {failed_wrong}/{attempted} failed")
    return 0 if failed == 0 and failed_wrong > 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record-goldens", action="store_true")
    mode.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: run from a checkout of the repository (src/repro "
              "not found next to perfbench/)", file=sys.stderr)
        return 2
    if args.record_goldens:
        return record_goldens(args)
    golden = load_goldens().get(args.workload, {}).get(
        str(args.seed % VARIANTS))
    if not golden:
        print(f"error: no goldens for {args.workload} variant "
              f"{args.seed % VARIANTS}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args, golden)
    return measure(args, golden)


if __name__ == "__main__":
    sys.exit(main())
