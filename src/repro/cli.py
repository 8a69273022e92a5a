"""Command-line interface: assemble, check, run, compile, and time programs.

Installed as the ``talft`` console script (also runnable as
``python -m repro.cli``)::

    talft check  program.tal              # assemble + type-check
    talft run    program.tal [--fault r1=42@6] [--max-steps N]
    talft compile program.mwl [--mode ft|baseline|swift] [--emit-tal F]
    talft trace  program.tal [--steps N] [--fault r1=42@6]
    talft time   program.mwl              # Figure 10-style ratios
    talft campaign program.mwl [--samples N]
    talft campaign program.mwl --shards 4 [--workers HOST:PORT,...]
    talft shard-worker --listen 7070      # join a remote worker fleet
    talft serve [--serve-port 8321]       # the campaign HTTP service

``.tal`` files hold textual TAL_FT assembly; ``.mwl`` files hold MWL
source for the compiler.

``run``, ``time`` and ``campaign`` accept ``--backend`` (default
``compiled``); choices derive from the ``repro.exec.BACKENDS`` registry.
``run``/``time`` offer ``{step,compiled}``; ``campaign`` additionally
offers ``vector``, the batch-vectorized lane engine for SEU sweeps.  Every
backend is observationally identical to the ``step()`` interpreter; see
``docs/EXECUTION.md``.  ``trace`` always runs the interpreter, the
specification it helps debug.

``check``, ``run``, ``time``, ``campaign`` and ``chaos`` accept the
observability flags (see ``docs/OBSERVABILITY.md``):

* ``--metrics PATH`` -- write the unified metrics snapshot on exit
  (JSON at ``PATH`` plus a Prometheus text exposition at ``PATH.prom``);
* ``--progress`` -- live heartbeats/phase timings on stderr;
* ``--events PATH`` -- stream structured JSONL events as they happen.

All three are observational: reports, traces and exit codes are
bit-identical with or without them.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.asm import emit_tal, parse_program
from repro.compiler import compile_source
from repro.core import Machine, Outcome, RegZap
from repro.core.errors import ReproError
from repro.injection import (
    CampaignConfig, ReferenceDidNotHalt, ResilienceConfig, run_campaign,
)
from repro.simulator import DEFAULT_CONFIG, RELAXED_CONFIG, simulate
from repro.types import TypeCheckError


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _load_tal(path: str):
    return parse_program(_read(path))


def _parse_fault(spec: str):
    """``r1=42@6`` -> (RegZap('r1', 42), step 6)."""
    try:
        location, at_step = spec.rsplit("@", 1)
        register, value = location.split("=", 1)
        return RegZap(register.strip(), int(value)), int(at_step)
    except ValueError:
        raise SystemExit(
            f"bad --fault spec {spec!r}; expected REG=VALUE@STEP"
        ) from None


def cmd_check(args: argparse.Namespace) -> int:
    program = _load_tal(args.file)
    try:
        checked = program.check()
    except TypeCheckError as error:
        print(f"type error: {error}")
        return 1
    print(f"OK: {program.size} instructions, {len(checked.labels)} blocks, "
          f"{len(program.data_psi)} data words -- provably fault tolerant")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    program = _load_tal(args.file)
    machine = Machine(program.boot(), backend=args.backend)
    if args.fault:
        fault, at_step = _parse_fault(args.fault)
        trace = machine.run(max_steps=args.max_steps, fault=fault,
                            fault_at_step=at_step)
    else:
        trace = machine.run(max_steps=args.max_steps)
    print(f"outcome: {trace.outcome.value} after {trace.steps} steps")
    for address, value in trace.outputs:
        print(f"  output: M[{address}] <- {value}")
    return 0 if trace.outcome in (Outcome.HALTED, Outcome.FAULT_DETECTED) else 1


def cmd_compile(args: argparse.Namespace) -> int:
    compiled = compile_source(_read(args.file), mode=args.mode)
    program = compiled.program
    print(f"{args.mode} build: {program.size} instructions, "
          f"{len(compiled.block_order)} blocks")
    if args.mode == "ft":
        program.check()
        print("type check: OK")
    if args.listing:
        print(emit_tal(program), end="")
    if args.emit_tal:
        with open(args.emit_tal, "w") as handle:
            handle.write(emit_tal(program))
        print(f"wrote {args.emit_tal} (re-parseable .tal)")
    return 0


def cmd_time(args: argparse.Namespace) -> int:
    from repro.observe import phase_timer

    source = _read(args.file)
    with phase_timer("compile", mode="baseline"):
        baseline = compile_source(source, mode="baseline")
    with phase_timer("compile", mode="ft"):
        protected = compile_source(source, mode="ft")
    with phase_timer("simulate", config="baseline"):
        base = simulate(baseline, backend=args.backend).cycles
    with phase_timer("simulate", config="ft"):
        ft = simulate(protected, DEFAULT_CONFIG,
                      backend=args.backend).cycles
    with phase_timer("simulate", config="relaxed"):
        relaxed = simulate(protected, RELAXED_CONFIG,
                           backend=args.backend).cycles
    print(f"baseline            {base:8d} cycles")
    print(f"TAL-FT              {ft:8d} cycles  ({ft / base:.3f}x)")
    print(f"TAL-FT w/o ordering {relaxed:8d} cycles  ({relaxed / base:.3f}x)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.faults import apply_fault
    from repro.core.tracing import format_trace, trace_execution

    program = _load_tal(args.file)
    state = program.boot()
    if args.fault:
        fault, at_step = _parse_fault(args.fault)
        # Trace up to the injection point, inject, continue.
        events = trace_execution(state, max_steps=at_step)
        print(format_trace(events))
        apply_fault(state, fault)
        print(f"    *** FAULT INJECTED: {fault.describe()} ***")
        tail = trace_execution(state, max_steps=args.steps - at_step)
        for event in tail:
            print(event.format())
    else:
        print(format_trace(trace_execution(state, max_steps=args.steps)))
    print(f"status: {state.status.value}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.resume and not args.journal:
        print("error: --resume requires --journal PATH", file=sys.stderr)
        return 2
    if args.workers and args.shards is None:
        print("error: --workers requires --shards N (the worker fleet "
              "executes a sharded campaign)", file=sys.stderr)
        return 2
    workers = None
    if args.workers:
        from repro.service.protocol import parse_address

        try:
            workers = [parse_address(spec)
                       for spec in args.workers.split(",") if spec.strip()]
        except ValueError as error:
            print(f"error: --workers {error}", file=sys.stderr)
            return 2
        if not workers:
            print("error: --workers must list at least one HOST:PORT "
                  "address", file=sys.stderr)
            return 2
    authkey = None
    if getattr(args, "authkey_file", None) and not workers:
        print("error: --authkey-file only applies with --workers (local "
              "shards run on the process pool, which needs no key)",
              file=sys.stderr)
        return 2
    if workers:
        from repro.service.protocol import load_authkey

        try:
            authkey = load_authkey(args.authkey_file)
        except (OSError, ValueError) as error:
            print(f"error: --authkey-file {error}", file=sys.stderr)
            return 2
    compiled = compile_source(_read(args.file), mode="ft")
    compiled.program.check()
    config = CampaignConfig(
        max_injection_steps=args.samples,
        max_values_per_site=3,
        max_sites_per_step=10,
        seed=args.seed,
        step_stride=args.stride,
        checkpoint_interval=args.checkpoint_interval,
        jobs=args.jobs,
        prune=not args.no_prune,
        prune_audit=args.prune_audit,
        max_steps=args.max_steps,
    )
    resilience = None
    if args.chunk_timeout is not None or args.max_retries is not None:
        kwargs = {}
        if args.chunk_timeout is not None:
            kwargs["chunk_timeout"] = args.chunk_timeout
        if args.max_retries is not None:
            kwargs["max_retries"] = args.max_retries
        resilience = ResilienceConfig(**kwargs)
    try:
        if args.shards is not None:
            from repro.service import run_campaign_sharded

            report = run_campaign_sharded(
                compiled.program, config, shards=args.shards,
                workers=workers, backend=args.backend,
                journal_path=args.journal, resume=args.resume,
                resilience=resilience,
                progress=getattr(args, "progress", False), authkey=authkey)
        else:
            report = run_campaign(
                compiled.program, config, backend=args.backend,
                journal_path=args.journal, resume=args.resume,
                resilience=resilience,
                progress=getattr(args, "progress", False))
    except ReferenceDidNotHalt as error:
        if error.trace.outcome is Outcome.RUNNING:
            print(f"error: the fault-free run did not halt within "
                  f"--max-steps {args.max_steps}; raise --max-steps",
                  file=sys.stderr)
        else:
            print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    if report.resilience is not None \
            and any(report.resilience.as_dict().values()):
        # Only when supervision/journaling actually did something --
        # keeping clean --jobs N output identical to --jobs 1.
        print(report.resilience.summary())
    if report.violations:
        for record in report.violations[:10]:
            print(f"  VIOLATION: step {record.step}, "
                  f"{record.fault.describe()} -> {record.result.value}")
        return 1
    return 0


def _chaos_programs(target: str):
    """Resolve a chaos target: a kernel name, ``all``, or a ``.mwl`` path."""
    from repro.workloads import ALL_KERNELS, KERNELS, compile_kernel

    if target == "all":
        names = list(ALL_KERNELS)
    elif target in KERNELS:
        names = [target]
    else:
        compiled = compile_source(_read(target), mode="ft")
        return [(target, compiled.program)]
    return [(name, compile_kernel(name, "ft").program) for name in names]


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.injection.chaos import SCENARIOS, run_scenarios

    if args.scenarios == "all":
        names = sorted(SCENARIOS)
    else:
        names = [name.strip() for name in args.scenarios.split(",")
                 if name.strip()]
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            raise SystemExit(
                f"unknown chaos scenario(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(SCENARIOS))}")
    config = CampaignConfig(
        max_injection_steps=args.samples,
        max_values_per_site=2,
        max_sites_per_step=6,
        seed=args.seed,
        keep_records=True,
        # The longest kernel (gzip) runs ~312k reference steps.
        max_steps=1_000_000,
    )
    from repro.workloads import KERNELS

    failures = 0
    for label, program in _chaos_programs(args.target):
        kernel = label if label in KERNELS else None
        run_names = names
        if kernel is None:
            # Service scenarios submit jobs by kernel name; for .mwl
            # targets they cannot run.  Skip them quietly when the user
            # asked for "all", loudly when they asked by name.
            service_only = [name for name in run_names
                            if SCENARIOS[name].needs_kernel]
            if service_only and args.scenarios == "all":
                run_names = [name for name in run_names
                             if not SCENARIOS[name].needs_kernel]
                print(f"{label:>10s}  skipping "
                      f"{', '.join(service_only)} (service scenarios "
                      "need a kernel-name target)")
        program.check()
        for result in run_scenarios(program, run_names, config,
                                    jobs=args.jobs, kernel=kernel):
            verdict = "PASS" if result.passed else "FAIL"
            print(f"{label:>10s}  {result.scenario:<18s} {verdict}  "
                  f"{result.detail}")
            failures += 0 if result.passed else 1
    if failures:
        print(f"chaos: {failures} scenario run(s) FAILED -- the campaign "
              "runtime lost report parity under infrastructure faults")
        return 1
    print("chaos: all scenario runs passed (reports bit-identical under "
          "infrastructure faults)")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzConfig, run_fuzz

    config = FuzzConfig(
        programs=args.programs,
        seed=args.seed,
        profile=args.profile,
        kind=args.kind,
        tal_fraction=args.tal_fraction,
        corpus_dir=args.corpus,
        minimize=not args.no_minimize,
        max_failures=args.max_failures,
        progress=args.progress,
    )
    report = run_fuzz(config)
    stage_parts = ", ".join(
        f"{stage}: {count}"
        for stage, count in sorted(report.by_stage.items()))
    print(f"fuzz: seed {config.seed}, {report.programs} program(s) "
          f"({stage_parts}), {report.injections} faulty run(s) classified, "
          f"{report.elapsed:.1f}s")
    for failure in report.failures:
        print(f"  FAILURE #{failure.index} {failure.program.name} "
              f"[{failure.stage}] {failure.detail}")
        if failure.minimized_source is not None:
            print("  minimized reproducer "
                  f"({failure.minimize_checks} oracle calls):")
            for line in failure.minimized_source.rstrip("\n").splitlines():
                print(f"    {line}")
    if report.stopped_early:
        print(f"fuzz: stopped early after {report.failed} failure(s) "
              f"(--max-failures {config.max_failures})")
    if report.failures:
        if args.corpus:
            print(f"fuzz: failures persisted under {args.corpus}")
        return 1
    return 0


def cmd_shard_worker(args: argparse.Namespace) -> int:
    from repro.service import worker
    from repro.service.protocol import load_authkey, parse_address

    try:
        authkey = load_authkey(args.authkey_file)
    except (OSError, ValueError) as error:
        print(f"error: --authkey-file {error}", file=sys.stderr)
        return 2
    try:
        host, port = parse_address(args.listen, allow_zero=True)
    except ValueError as error:
        print(f"error: --listen {error}", file=sys.stderr)
        return 2
    worker.run_listen(host, port, once=args.once, authkey=authkey)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve_http
    from repro.service.scheduler import parse_tenant_weights

    try:
        weights = parse_tenant_weights(args.tenant_weight)
    except ValueError as error:
        print(f"error: --tenant-weight {error}", file=sys.stderr)
        return 2
    serve_http(args.host, args.serve_port,
               state_dir=args.state_dir,
               max_concurrent_jobs=args.max_concurrent_jobs,
               queue_limit=args.queue_limit,
               job_retention=args.job_retention,
               tenant_weights=weights or None)
    return 0


def _int_at_least(minimum: int, what: str):
    """An argparse ``type`` that rejects out-of-range integers with a
    friendly error (argparse exits with code 2) instead of letting a bad
    knob traceback deep inside the campaign engine."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer (got {text!r})") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be at least {minimum} (got {value})")
        return value
    return parse


def _positive_float(what: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be a number (got {text!r})") from None
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"{what} must be positive (got {value})")
        return value
    return parse


def _fraction(what: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be a number (got {text!r})") from None
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(
                f"{what} must be between 0.0 and 1.0 (got {value})")
        return value
    return parse


def _fuzz_profiles() -> tuple:
    from repro.fuzz.generator import PROFILES

    return tuple(sorted(PROFILES))


def _port_number(what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer (got {text!r})") from None
        if not 0 <= value <= 65535:
            raise argparse.ArgumentTypeError(
                f"{what} must be a port number between 0 and 65535 "
                f"(got {value}; 0 binds an ephemeral port)")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talft",
        description="TAL_FT: fault-tolerant typed assembly language tools",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_backend(subparser: argparse.ArgumentParser,
                    campaign: bool = False) -> None:
        # Choices and help derive from the one backend registry; commands
        # that drive a single machine only offer the machine-capable
        # subset, campaigns offer everything (including "vector").
        from repro.exec import BACKENDS, MACHINE_BACKENDS

        choices = tuple(BACKENDS) if campaign else MACHINE_BACKENDS
        described = "; ".join(
            f"'{name}': {BACKENDS[name]}" for name in choices)
        subparser.add_argument(
            "--backend", choices=choices, default="compiled",
            help=f"execution backend -- {described}. All backends are "
                 "observationally identical and fall back automatically "
                 "when one cannot run a program")

    def add_observability(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--metrics", metavar="PATH",
            help="write the unified metrics snapshot on exit: JSON at PATH "
                 "plus a Prometheus text exposition at PATH.prom "
                 "(observational only -- results are unchanged)")
        subparser.add_argument(
            "--progress", action="store_true",
            help="print live progress heartbeats (rate, ETA) and phase "
                 "timings to stderr")
        subparser.add_argument(
            "--events", metavar="PATH",
            help="stream structured JSONL events (phases, compilations, "
                 "supervision, journal commits) to PATH as they happen")

    check = commands.add_parser("check", help="assemble and type-check a .tal file")
    check.add_argument("file")
    add_observability(check)
    check.set_defaults(handler=cmd_check)

    run = commands.add_parser("run", help="execute a .tal file")
    run.add_argument("file")
    run.add_argument("--fault", help="inject REG=VALUE@STEP")
    run.add_argument("--max-steps", type=int, default=1_000_000)
    add_backend(run)
    add_observability(run)
    run.set_defaults(handler=cmd_run)

    compile_cmd = commands.add_parser("compile", help="compile a .mwl file")
    compile_cmd.add_argument("file")
    compile_cmd.add_argument("--mode", choices=("ft", "baseline", "swift"),
                             default="ft")
    compile_cmd.add_argument("--listing", action="store_true",
                             help="print the build as .tal, each "
                                  "instruction commented with its address")
    compile_cmd.add_argument("--emit-tal", metavar="FILE",
                             help="write the build as re-parseable .tal")
    compile_cmd.set_defaults(handler=cmd_compile)

    time_cmd = commands.add_parser(
        "time", help="Figure 10-style timing of a .mwl file"
    )
    time_cmd.add_argument("file")
    add_backend(time_cmd)
    add_observability(time_cmd)
    time_cmd.set_defaults(handler=cmd_time)

    trace_cmd = commands.add_parser(
        "trace", help="step-by-step execution trace of a .tal file"
    )
    trace_cmd.add_argument("file")
    trace_cmd.add_argument("--steps", type=int, default=100)
    trace_cmd.add_argument("--fault", help="inject REG=VALUE@STEP")
    trace_cmd.set_defaults(handler=cmd_trace)

    campaign = commands.add_parser(
        "campaign", help="fault-injection campaign over a .mwl file"
    )
    campaign.add_argument("file")
    campaign.add_argument("--samples",
                          type=_int_at_least(1, "--samples"), default=30,
                          help="number of injection steps sampled (>= 1)")
    campaign.add_argument("--seed", type=int, default=1)
    campaign.add_argument("--jobs",
                          type=_int_at_least(1, "--jobs"), default=1,
                          help="worker processes (>1 fans the campaign out "
                               "across a supervised process pool; results "
                               "are identical to --jobs 1 for the same "
                               "seed)")
    campaign.add_argument("--checkpoint-interval",
                          type=_int_at_least(1, "--checkpoint-interval"),
                          default=32,
                          help="reference-run steps between state "
                               "checkpoints; injection points in between "
                               "are rebuilt by deterministic replay")
    campaign.add_argument("--stride",
                          type=_int_at_least(1, "--stride"), default=1,
                          help="inject at every k-th dynamic step before "
                               "sampling (1 = every step)")
    campaign.add_argument("--max-steps",
                          type=_int_at_least(1, "--max-steps"),
                          default=CampaignConfig.max_steps,
                          help="cap on the fault-free reference run; a "
                               "program that has not halted by then is "
                               "refused (default %(default)s)")
    campaign.add_argument("--journal", metavar="PATH",
                          help="append every completed injection step to a "
                               "durable (fsync'd, checksummed) JSONL "
                               "journal at PATH")
    campaign.add_argument("--resume", action="store_true",
                          help="skip steps already recorded in --journal "
                               "(rejected if the journal belongs to a "
                               "different program or config); the final "
                               "report is bit-identical to an "
                               "uninterrupted run")
    campaign.add_argument("--chunk-timeout", metavar="SECONDS",
                          type=_positive_float("--chunk-timeout"),
                          help="deadline per worker chunk; a hung chunk "
                               "gets its pool recycled and is re-executed")
    campaign.add_argument("--max-retries",
                          type=_int_at_least(0, "--max-retries"),
                          help="chunk re-executions before degrading that "
                               "chunk to in-process serial execution "
                               "(default 2)")
    campaign.add_argument("--no-prune", action="store_true",
                          help="disable masked-fault equivalence pruning "
                               "and execute every fault variant, each to "
                               "its end (pruning also stops a run where "
                               "it rejoins the fault-free run); the "
                               "report is bit-identical either way, "
                               "pruning only changes speed")
    campaign.add_argument("--prune-audit", metavar="P",
                          type=_fraction("--prune-audit"), default=0.0,
                          help="re-execute a random fraction P (0..1) of "
                               "all variants unpruned, each to its end, "
                               "and hard-fail if any pruned outcome "
                               "differs from the real run (a self-check "
                               "for the pruning analysis and the early "
                               "stop; 0 disables)")
    campaign.add_argument("--shards",
                          type=_int_at_least(1, "--shards"), default=None,
                          help="split the campaign N ways: N process-pool "
                               "workers, or N shards for the --workers "
                               "fleet; the report is bit-identical to a "
                               "single-process run")
    campaign.add_argument("--workers", metavar="HOST:PORT,...",
                          help="comma-separated addresses of 'talft "
                               "shard-worker --listen' processes to run "
                               "the shards on (requires --shards)")
    campaign.add_argument("--authkey-file", metavar="PATH",
                          help="file holding the shared fleet auth key "
                               "the remote workers were started with "
                               "(default: the TALFT_SHARD_AUTHKEY "
                               "environment variable; requires --workers)")
    add_backend(campaign, campaign=True)
    add_observability(campaign)
    campaign.set_defaults(handler=cmd_campaign)

    fuzz = commands.add_parser(
        "fuzz",
        help="generate random well-typed programs and differentially "
             "verify every backend against the reference semantics",
    )
    fuzz.add_argument("--programs",
                      type=_int_at_least(1, "--programs"), default=100,
                      help="programs to generate and verify (default 100)")
    fuzz.add_argument("--seed", type=int, default=1,
                      help="run seed; program N of a run derives from "
                           "(seed, N), so any finding replays exactly")
    fuzz.add_argument("--profile", choices=_fuzz_profiles(), default=None,
                      help="force one generator profile (default: rotate "
                           "through all of them pseudo-randomly)")
    fuzz.add_argument("--kind", choices=("mwl", "tal"), default=None,
                      help="force source-language (mwl) or direct typed "
                           "assembly (tal) generation (default: mix)")
    fuzz.add_argument("--tal-fraction",
                      type=_fraction("--tal-fraction"), default=0.25,
                      help="fraction of programs generated as direct "
                           "TAL_FT when --kind is not forced "
                           "(default 0.25)")
    fuzz.add_argument("--corpus", metavar="DIR", default=None,
                      help="persist failures and minimized reproducers "
                           "(plus a run manifest) under DIR")
    fuzz.add_argument("--no-minimize", action="store_true",
                      help="skip delta-debugging failures down to minimal "
                           "reproducers")
    fuzz.add_argument("--max-failures",
                      type=_int_at_least(0, "--max-failures"), default=10,
                      help="stop after this many failing programs "
                           "(0 = keep going; default 10)")
    add_observability(fuzz)
    fuzz.set_defaults(handler=cmd_fuzz)

    shard_worker = commands.add_parser(
        "shard-worker",
        help="run one shard-campaign worker process (see 'campaign "
             "--shards')",
    )
    shard_worker.add_argument("--listen", metavar="[HOST:]PORT",
                              required=True,
                              help="accept coordinators on this address "
                                   "(port 0 binds an ephemeral port and "
                                   "prints it)")
    shard_worker.add_argument("--once", action="store_true",
                              help="exit after serving the first "
                                   "coordinator connection")
    shard_worker.add_argument("--authkey-file", metavar="PATH",
                              help="file holding the shared fleet auth key "
                                   "(default: the TALFT_SHARD_AUTHKEY "
                                   "environment variable); with a key, "
                                   "only coordinators that hold it may "
                                   "send jobs")
    shard_worker.set_defaults(handler=cmd_shard_worker)

    serve = commands.add_parser(
        "serve",
        help="run the campaign HTTP service (submit jobs, poll progress, "
             "scrape metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--serve-port",
                       type=_port_number("--serve-port"), default=8321,
                       help="TCP port for the HTTP endpoint (default 8321; "
                            "0 binds an ephemeral port)")
    serve.add_argument("--state-dir", metavar="DIR", default=None,
                       help="durable state directory: job journal + "
                            "per-job campaign journals; restarting with "
                            "the same DIR restores settled jobs, "
                            "re-enqueues queued ones and resumes "
                            "interrupted ones (default: in-memory only)")
    serve.add_argument("--max-concurrent-jobs",
                       type=_int_at_least(1, "--max-concurrent-jobs"),
                       default=1, metavar="N",
                       help="campaign jobs run in parallel (default 1)")
    serve.add_argument("--queue-limit",
                       type=_int_at_least(1, "--queue-limit"), default=64,
                       metavar="N",
                       help="queued jobs before submissions get 429 + "
                            "Retry-After (default 64)")
    serve.add_argument("--job-retention",
                       type=_int_at_least(1, "--job-retention"),
                       default=256, metavar="N",
                       help="settled jobs kept in the live registry; the "
                            "job journal keeps the full history "
                            "(default 256)")
    serve.add_argument("--tenant-weight", action="append", default=[],
                       metavar="NAME=WEIGHT",
                       help="fair-share weight for a tenant (repeatable; "
                            "unlisted tenants weigh 1.0)")
    serve.set_defaults(handler=cmd_serve)

    chaos = commands.add_parser(
        "chaos",
        help="fault-inject the campaign infrastructure itself and assert "
             "report parity",
    )
    chaos.add_argument("target",
                       help="a workload kernel name (e.g. vpr), 'all', or "
                            "a .mwl file path")
    chaos.add_argument("--scenarios", default="all",
                       help="comma-separated scenario names (kill-worker, "
                            "delay-chunk, truncate-journal, "
                            "corrupt-journal, kill-remote-shard-worker, "
                            "kill-service, recovery) or 'all'")
    chaos.add_argument("--jobs", type=_int_at_least(2, "--jobs"), default=2,
                       help="pool size for the worker-fault scenarios")
    chaos.add_argument("--samples",
                       type=_int_at_least(1, "--samples"), default=12,
                       help="injection steps sampled per campaign")
    chaos.add_argument("--seed", type=int, default=20260806)
    add_observability(chaos)
    chaos.set_defaults(handler=cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro import observe

    # Observability wiring (subcommands without the flags parse to the
    # getattr defaults).  Everything here is observational; the handler's
    # stdout and exit code are identical with or without it.
    metrics_path = getattr(args, "metrics", None)
    if getattr(args, "progress", False):
        observe.announce_phases(True)
    if getattr(args, "events", None):
        observe.configure_events(args.events)
    try:
        return args.handler(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if metrics_path is not None:
            json_path, prom_path = observe.write_metrics(
                metrics_path, extra={"command": args.command})
            print(f"[talft] metrics written to {json_path} and {prom_path}",
                  file=sys.stderr)
        observe.announce_phases(False)
        observe.close_events()


if __name__ == "__main__":
    raise SystemExit(main())
