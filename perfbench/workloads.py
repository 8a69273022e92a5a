"""The six benchmark workloads, each a user path of the system.

A workload turns a variant number (derived from the benchmark seed) into
inputs, sets up what a user would have set up before the first timed
operation, and then runs a sequence of *requests* -- one user-visible
operation each (one kernel's campaign, one fuzz program, one service
job, ...).  Every request yields checks ``(key, value, valid)``: ``value``
is compared with the golden recorded for that key, and ``valid`` is the
program's own verdict (no theorem violation, oracle stage ``ok``, job
``done``).

Every call into the program goes through a module attribute resolved at
call time, so the outside-in tracer sees the benchmark's own calls too.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: Golden tables hold one entry per variant; ``seed % VARIANTS`` picks it.
VARIANTS = 16

#: CLI defaults of ``talft campaign`` (see ``cmd_campaign``).
CLI_SAMPLES = 30
CLI_SITES = 10
CLI_VALUES = 3

#: Service client poll interval (seconds), fixed and reported.
POLL_S = 0.005


def host_cpus() -> int:
    return max(1, os.cpu_count() or 1)


@dataclass
class Result:
    #: (key, value, valid) per check, in request order.
    checks: List[Tuple[str, object, bool]] = field(default_factory=list)
    #: Per-request latency in seconds.
    latencies: List[float] = field(default_factory=list)
    #: Work items completed (injections, programs, jobs or kernels).
    ops: int = 0
    #: Workload-specific observations for the per-layer report.
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    #: What one work item is, for ``ops_per_s``.
    op: str
    #: What one request is, for the latency percentiles.
    request: str
    inputs: Callable[[int], dict]
    setup: Callable[[dict, str], object]
    run: Callable[[dict, object], Result]
    teardown: Callable[[object], None] = lambda ctx: None


def _campaign_check(key: str, report) -> Tuple[str, object, bool]:
    from repro.injection import chaos

    value = {
        "fingerprint": chaos.fingerprint_digest(report),
        "latency_buckets": {str(bucket): count for bucket, count
                            in sorted(report.latency_buckets.items())},
    }
    return key, value, not report.violations


# -- campaign ---------------------------------------------------------------

#: Short kernels (exec compilation and fusion dominate) and one long one
#: (compiled tails dominate).  All 17 kernels at the CLI defaults take
#: ~22 s in one process, more than one measured run can hold.
CAMPAIGN_KERNELS = ("vpr", "gcc", "epic", "jpeg", "pegwit", "mcf")


def _campaign_inputs(variant: int) -> dict:
    return {"kernels": list(CAMPAIGN_KERNELS), "seed": 1000 + variant}


def _campaign_setup(inputs: dict, tmp: str):
    import repro.compiler  # noqa: F401
    import repro.injection.campaign  # noqa: F401
    import repro.injection.chaos  # noqa: F401
    import repro.injection.prune  # noqa: F401
    from repro.workloads import KERNELS

    return {name: KERNELS[name].source for name in inputs["kernels"]}


def _campaign_run(inputs: dict, sources) -> Result:
    """``talft campaign KERNEL.mwl --seed S`` per kernel: FT compile,
    type check, then the sampled campaign at the CLI defaults."""
    from repro import compiler
    from repro.injection import campaign

    result = Result()
    for name in inputs["kernels"]:
        started = time.perf_counter()
        compiled = compiler.compile_source(sources[name], mode="ft")
        compiled.program.check()
        config = campaign.CampaignConfig(
            max_injection_steps=CLI_SAMPLES, max_values_per_site=CLI_VALUES,
            max_sites_per_step=CLI_SITES, seed=inputs["seed"])
        report = campaign.run_campaign(compiled.program, config)
        result.latencies.append(time.perf_counter() - started)
        result.ops += report.injections
        result.checks.append(_campaign_check(name, report))
    return result


# -- sweep ------------------------------------------------------------------

SWEEP_KERNELS = ("vpr", "gcc", "epic", "jpeg", "twolf", "pegwit")
SWEEP_STEPS = 6


def _sweep_inputs(variant: int) -> dict:
    return {"kernels": list(SWEEP_KERNELS), "steps": SWEEP_STEPS,
            "seed": 2000 + variant}


def _sweep_setup(inputs: dict, tmp: str):
    import repro.injection.batch  # noqa: F401  (imports numpy)
    import repro.injection.campaign  # noqa: F401
    import repro.injection.chaos  # noqa: F401
    import repro.injection.prune  # noqa: F401
    import repro.workloads  # noqa: F401
    from repro.exec.vector import vector_available

    if not vector_available():
        raise RuntimeError("the sweep workload needs numpy")
    return tmp


def _sweep_run(inputs: dict, ctx) -> Result:
    """Exhaustive SEU sweeps (every site, every representative value) at
    evenly sampled steps, vector backend, pruning on, serial."""
    from repro import workloads
    from repro.injection import campaign

    result = Result()
    for name in inputs["kernels"]:
        started = time.perf_counter()
        program = workloads.compile_kernel(name, "ft").program
        config = campaign.CampaignConfig(
            max_injection_steps=inputs["steps"], max_values_per_site=None,
            max_sites_per_step=None, seed=inputs["seed"], backend="vector")
        report = campaign.run_campaign(program, config)
        result.latencies.append(time.perf_counter() - started)
        result.ops += report.injections
        result.checks.append(_campaign_check(name, report))
    return result


# -- fuzz -------------------------------------------------------------------

#: The programs are fixed -- generator seed 1 (the fuzzer's acceptance
#: run), indices 0..19 -- and the variant only orders them: 20-program
#: batches of different generator seeds cost 1.2-6.7 s, so varying the
#: programs would swamp any change in the code under test.
FUZZ_SEED = 1
FUZZ_PROGRAMS = 20


def _fuzz_inputs(variant: int) -> dict:
    order = list(range(FUZZ_PROGRAMS))
    random.Random(f"fuzz:{variant}").shuffle(order)
    return {"seed": FUZZ_SEED, "programs": FUZZ_PROGRAMS, "order": order}


def _fuzz_setup(inputs: dict, tmp: str):
    from repro.fuzz import runner

    return runner.FuzzConfig(programs=inputs["programs"],
                             seed=inputs["seed"])


def _fuzz_run(inputs: dict, config) -> Result:
    """``run_fuzz``'s per-program loop: generate program ``(seed, i)``
    with the default profile rotation and 25% TAL programs, then the
    nine-stage oracle.  Each program is one request."""
    from repro.fuzz import runner

    result = Result()
    injections = 0
    for index in inputs["order"]:
        started = time.perf_counter()
        program = runner.generate_program(
            config.seed, index, profile=config.profile, kind=config.kind,
            tal_fraction=config.tal_fraction)
        verdict = runner.check_program(program, config.oracle)
        result.latencies.append(time.perf_counter() - started)
        injections += verdict.injections
        result.ops += 1
        result.checks.append((f"program-{index}", verdict.stage,
                              verdict.ok))
    result.checks.append(("injections", injections, True))
    return result


# -- figure10 ---------------------------------------------------------------

#: The 17-kernel figure takes ~11 s cold; gzip and go alone are 6 s.
FIGURE10_KERNELS = ("vpr", "gcc", "twolf", "epic", "pegwit", "mpeg2",
                    "gsm", "parser", "jpeg", "crafty")


def _figure10_inputs(variant: int) -> dict:
    order = list(FIGURE10_KERNELS)
    random.Random(f"figure10:{variant}").shuffle(order)
    return {"kernels": order}


def _figure10_setup(inputs: dict, tmp: str):
    import repro.compiler  # noqa: F401
    import repro.simulator.runner  # noqa: F401
    from repro.workloads import KERNELS

    return {name: KERNELS[name].source for name in inputs["kernels"]}


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def _figure10_run(inputs: dict, sources) -> Result:
    """Figure 10 per kernel: baseline and FT builds, the functional block
    path, and three timing simulations (baseline, ordered, relaxed)."""
    from repro import compiler
    from repro.simulator import config as machine_configs
    from repro.simulator import runner

    result = Result()
    ordered, relaxed = [], []
    for name in inputs["kernels"]:
        started = time.perf_counter()
        baseline = compiler.compile_source(sources[name], mode="baseline")
        protected = compiler.compile_source(sources[name], mode="ft")
        path = runner.record_block_path(protected)
        base_cycles = runner.simulate(baseline).cycles
        ft_cycles = runner.simulate(
            protected, machine_configs.DEFAULT_CONFIG, path=path).cycles
        relaxed_cycles = runner.simulate(
            protected, machine_configs.RELAXED_CONFIG, path=path).cycles
        result.latencies.append(time.perf_counter() - started)
        result.ops += 1
        ordered.append(ft_cycles / base_cycles)
        relaxed.append(relaxed_cycles / base_cycles)
        result.checks.append((name, [base_cycles, ft_cycles, relaxed_cycles],
                              True))
    # Rounded so the check does not depend on summation order.
    result.checks.append(("geomeans", [round(_geomean(ordered), 9),
                                       round(_geomean(relaxed), 9)], True))
    return result


# -- service ----------------------------------------------------------------

SERVICE_KERNELS = ("vpr", "gcc", "epic", "jpeg", "pegwit", "twolf")
SERVICE_JOBS = 30
SERVICE_SAMPLES = 4


def service_clients() -> int:
    return min(2, host_cpus())


def _service_inputs(variant: int) -> dict:
    jobs = []
    for index in range(SERVICE_JOBS):
        jobs.append({
            "kernel": SERVICE_KERNELS[index % len(SERVICE_KERNELS)],
            "tenant": "tenant-a" if index % 2 == 0 else "tenant-b",
            "config": {"max_injection_steps": SERVICE_SAMPLES,
                       "max_sites_per_step": CLI_SITES,
                       "max_values_per_site": CLI_VALUES,
                       "seed": 3000 + 100 * variant + index},
        })
    return {"jobs": jobs}


def _service_setup(inputs: dict, tmp: str):
    """Start the durable service behind its HTTP server."""
    import repro.injection.campaign  # noqa: F401
    import repro.injection.chaos  # noqa: F401
    import repro.injection.journal  # noqa: F401
    import repro.injection.prune  # noqa: F401
    from repro.service import server as service_server

    service = service_server.CampaignService(
        state_dir=os.path.join(tmp, "state"))
    http, _ = service_server.http_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=http.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return {"service": service, "http": http, "thread": thread}


def _request(port: int, method: str, path: str, body=None) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        data = json.loads(response.read())
        if response.status >= 300:
            raise RuntimeError(f"{method} {path}: {response.status} {data}")
        return data
    finally:
        connection.close()


def _service_run(inputs: dict, ctx) -> Result:
    """Closed-loop clients: each submits its next job only after the last
    one settled, polling ``GET /jobs/<id>`` every ``POLL_S`` seconds.
    A job is timed from the moment its POST is sent."""
    port = ctx["http"].server_address[1]
    jobs = inputs["jobs"]
    lock = threading.Lock()
    cursor = iter(range(len(jobs)))
    records: Dict[int, dict] = {}
    errors: List[BaseException] = []

    def client() -> None:
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                sent = time.perf_counter()
                job_id = _request(port, "POST", "/jobs", jobs[index])["id"]
                accepted = time.perf_counter()
                started = None
                while True:
                    time.sleep(POLL_S)
                    job = _request(port, "GET", f"/jobs/{job_id}")
                    now = time.perf_counter()
                    if started is None and job["status"] != "queued":
                        started = now
                    if job["status"] in ("done", "error", "cancelled"):
                        break
                records[index] = {"job": job, "sent": sent,
                                  "accepted": accepted, "started": started,
                                  "settled": now}
        except BaseException as error:  # reported by the unit
            errors.append(error)

    threads = [threading.Thread(target=client)
               for _ in range(service_clients())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    result = Result()
    accept = wait = run = 0.0
    for index in range(len(jobs)):
        record = records[index]
        job = record["job"]
        summary = job.get("result") or {}
        value = {"fingerprint": summary.get("fingerprint"),
                 "latency_buckets": summary.get("latency_buckets")}
        valid = job["status"] == "done" and not summary.get("violations")
        result.checks.append((f"job-{index}", value, valid))
        result.latencies.append(record["settled"] - record["sent"])
        result.ops += 1
        accept += record["accepted"] - record["sent"]
        wait += record["started"] - record["accepted"]
        run += record["settled"] - record["started"]
    total = sum(result.latencies)
    result.extra.update({"service.accept_pct": 100 * accept / total,
                         "service.queue_wait_pct": 100 * wait / total,
                         "service.run_pct": 100 * run / total})
    return result


def _service_teardown(ctx) -> None:
    ctx["http"].shutdown()
    ctx["http"].server_close()
    ctx["thread"].join(timeout=30)
    ctx["service"].close(timeout=60)


# -- parallel ---------------------------------------------------------------

PARALLEL_KERNELS = ("twolf", "mcf")


def parallel_workers() -> int:
    return min(2, host_cpus())


def _parallel_inputs(variant: int) -> dict:
    return {"kernels": list(PARALLEL_KERNELS), "seed": 4000 + variant}


def _parallel_setup(inputs: dict, tmp: str):
    import repro.injection.campaign  # noqa: F401
    import repro.injection.chaos  # noqa: F401
    import repro.injection.journal  # noqa: F401
    import repro.injection.prune  # noqa: F401
    import repro.injection.resilience  # noqa: F401
    import repro.service.coordinator  # noqa: F401
    import repro.service.worker  # noqa: F401
    import repro.workloads  # noqa: F401

    return tmp


def _parallel_run(inputs: dict, tmp: str) -> Result:
    """One campaign per kernel through the supervised pool
    (``run_campaign(jobs=N)``) and through the local shard fleet
    (``run_campaign_sharded(shards=N)``), each with a journal."""
    from repro import workloads
    from repro.injection import campaign
    from repro.observe import get_registry
    from repro.service import coordinator

    workers = parallel_workers()
    result = Result()
    spinup = []
    pool_wall = 0.0
    for name in inputs["kernels"]:
        program = workloads.compile_kernel(name, "ft").program
        config = campaign.CampaignConfig(
            max_injection_steps=CLI_SAMPLES, max_values_per_site=CLI_VALUES,
            max_sites_per_step=CLI_SITES, seed=inputs["seed"])
        for engine in ("pool", "fleet"):
            journal = os.path.join(tmp, f"{name}-{engine}.jnl")
            first_step: List[float] = []

            def on_step(done: int, total: int) -> None:
                if not first_step:
                    first_step.append(time.perf_counter())

            started = time.perf_counter()
            if engine == "pool":
                report = campaign.run_campaign(
                    program, config, jobs=workers, journal_path=journal,
                    on_step=on_step)
            else:
                report = coordinator.run_campaign_sharded(
                    program, config, shards=workers, local_workers=workers,
                    journal_path=journal, on_step=on_step)
            elapsed = time.perf_counter() - started
            if engine == "pool":
                pool_wall += elapsed
            spinup.append(100 * (first_step[0] - started) / elapsed)
            result.latencies.append(elapsed)
            result.ops += report.injections
            result.checks.append(_campaign_check(f"{engine}:{name}", report))
    chunk_s = sum(entry["sum"] for entry
                  in get_registry().as_dict()["histograms"]
                  if entry["name"] == "campaign_worker_chunk_seconds")
    result.extra.update({
        "parallel.spinup_pct": sorted(spinup)[len(spinup) // 2],
        "parallel.worker_busy_pct": 100 * chunk_s / (pool_wall * workers),
    })
    return result


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("campaign", "injection", "one kernel's campaign",
                 _campaign_inputs, _campaign_setup, _campaign_run),
        Workload("sweep", "injection", "one kernel's sweep",
                 _sweep_inputs, _sweep_setup, _sweep_run),
        Workload("fuzz", "program", "one program through the oracle",
                 _fuzz_inputs, _fuzz_setup, _fuzz_run),
        Workload("figure10", "kernel", "one kernel's Figure-10 row",
                 _figure10_inputs, _figure10_setup, _figure10_run),
        Workload("service", "job", "one job, POST to settled",
                 _service_inputs, _service_setup, _service_run,
                 _service_teardown),
        Workload("parallel", "injection", "one engine call",
                 _parallel_inputs, _parallel_setup, _parallel_run),
    )
}
