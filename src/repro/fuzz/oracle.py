"""The differential oracle: everything one program must satisfy.

For an MWL program the oracle asserts, in order:

1. **front end** -- it parses and passes the semantic checks;
2. **reference semantics** -- the MWL interpreter runs it to completion
   within budget;
3. **compilation** -- the baseline and FT builds compile, and the FT
   build type-checks (the paper's static guarantee);
4. **differential execution** -- on both machine backends (``step`` and
   ``compiled``), both builds produce exactly the interpreter's write
   sequence, and the two backends' traces are bit-identical (outcome,
   outputs *and* step counts);
5. **metatheory** -- the :mod:`repro.verify` theorem checkers pass on a
   fault-free run (Progress + Preservation + Corollary 3);
6. **campaign parity** -- a seeded SEU campaign per execution backend x
   prune mode produces one fingerprint (and one latency histogram), with
   zero Theorem-4 violations on the FT build.

Direct TAL_FT programs skip the interpreter/compiler stages (there is no
MWL reference) and run 3..6 against the assembled program.

A verdict is a :class:`OracleVerdict`; ``ok`` means every stage passed,
otherwise ``stage`` names the first failing property -- the oracle stops
at the first failure so the minimizer has a stable predicate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ReproError, SourceError
from repro.core.machine import Machine, Outcome, Trace
from repro.exec.vector import vector_available
from repro.injection.campaign import CampaignConfig, run_campaign
from repro.injection.chaos import report_fingerprint
from repro.injection.prune import drop_memo
from repro.types.errors import TypeCheckError


@dataclass(frozen=True)
class OracleConfig:
    """Budgets and campaign knobs for one oracle pass."""

    #: Interpreter step budget (generated programs are cost-capped far
    #: below this; exhausting it is itself a finding).
    interp_max_steps: int = 500_000
    #: Machine step budget for differential runs.
    machine_max_steps: int = 200_000
    #: ``|- S`` re-derivation stride for the theorem checkers (1 checks
    #: every small step; generated programs are small enough that a
    #: modest stride keeps the fuzzer fast without losing the property).
    check_stride: int = 4
    #: Theorem-checker step budget.
    theorem_max_steps: int = 60_000
    #: Campaign sampling knobs (small but non-trivial: every backend
    #: executes the same faults, so parity is meaningful at any size).
    injection_steps: int = 3
    sites_per_step: int = 4
    values_per_site: int = 2
    campaign_seed: int = 20260808
    #: Also run the campaign matrix on the unprotected baseline build
    #: (fingerprint parity only -- baseline violations are expected).
    campaign_baseline: bool = True
    #: Execution backends to compare (``None`` = every available one).
    backends: Optional[Tuple[str, ...]] = None
    prune_modes: Tuple[bool, ...] = (True, False)

    def resolved_backends(self) -> Tuple[str, ...]:
        if self.backends is not None:
            return self.backends
        backends = ["step", "compiled"]
        if vector_available():
            backends.append("vector")
        return tuple(backends)


@dataclass
class OracleVerdict:
    """What the oracle concluded about one program."""

    ok: bool
    #: ``"ok"`` or the first failing stage: ``parse``, ``check-source``,
    #: ``interp``, ``compile``, ``typecheck``, ``differential``,
    #: ``trace-parity``, ``theorems``, ``campaign-violation``,
    #: ``fingerprint``, ``crash``.
    stage: str
    detail: str = ""
    #: Total faulty runs classified across the campaign matrix.
    injections: int = 0
    #: ``(build, backend, prune) -> fingerprint digest`` for diagnosis.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    elapsed: float = 0.0


def _fingerprint_digest(report) -> str:
    import hashlib

    return hashlib.sha256(
        repr(report_fingerprint(report)).encode("utf-8")).hexdigest()[:16]


def _trace_key(trace: Trace) -> Tuple:
    return (trace.outcome, tuple(trace.outputs), trace.steps)


def _campaign_matrix(
    program,
    config: OracleConfig,
    verdict: OracleVerdict,
    build: str,
    require_tolerant: bool,
) -> Optional[OracleVerdict]:
    """Run the backend x prune matrix; fill ``verdict``; return a failed
    verdict on divergence, ``None`` when the matrix agrees.  Each cell
    starts from a cold outcome memo, which is shared across backends."""
    baseline_key = None
    baseline_fp = None
    baseline_buckets = None
    for backend in config.resolved_backends():
        for prune in config.prune_modes:
            campaign_config = CampaignConfig(
                max_injection_steps=config.injection_steps,
                max_sites_per_step=config.sites_per_step,
                max_values_per_site=config.values_per_site,
                seed=config.campaign_seed,
                max_steps=config.machine_max_steps,
                backend=backend,
                prune=prune,
            )
            drop_memo(program, campaign_config)
            report = run_campaign(program, campaign_config)
            key = f"{build}/{backend}/{'prune' if prune else 'noprune'}"
            digest = _fingerprint_digest(report)
            verdict.fingerprints[key] = digest
            verdict.injections += report.injections
            if require_tolerant and report.violations:
                record = report.violations[0]
                verdict.ok = False
                verdict.stage = "campaign-violation"
                verdict.detail = (
                    f"{key}: step {record.step}, "
                    f"{record.fault.describe()} -> {record.result.value}")
                return verdict
            if baseline_key is None:
                baseline_key = key
                baseline_fp = digest
                baseline_buckets = report.latency_buckets
            elif digest != baseline_fp \
                    or report.latency_buckets != baseline_buckets:
                verdict.ok = False
                verdict.stage = "fingerprint"
                verdict.detail = (f"{key} diverges from {baseline_key} "
                                  f"({digest} != {baseline_fp})")
                return verdict
    return None


def _check_machine_stages(
    program,
    config: OracleConfig,
    verdict: OracleVerdict,
    build: str,
    expected_outputs: Optional[List[Tuple[int, int]]],
    require_tolerant: bool,
) -> Optional[OracleVerdict]:
    """Stages 4..6 on one assembled machine program."""
    traces = {}
    for backend in ("step", "compiled"):
        trace = Machine(program.boot(), backend=backend).run(
            max_steps=config.machine_max_steps)
        traces[backend] = trace
    if _trace_key(traces["step"]) != _trace_key(traces["compiled"]):
        verdict.ok = False
        verdict.stage = "trace-parity"
        verdict.detail = (
            f"{build}: step {_trace_key(traces['step'])!r} != compiled "
            f"{_trace_key(traces['compiled'])!r}")
        return verdict
    trace = traces["step"]
    if trace.outcome is not Outcome.HALTED:
        verdict.ok = False
        verdict.stage = "differential"
        verdict.detail = f"{build}: machine run ended {trace.outcome.value}"
        return verdict
    if expected_outputs is not None \
            and list(trace.outputs) != expected_outputs:
        verdict.ok = False
        verdict.stage = "differential"
        verdict.detail = (
            f"{build}: machine outputs {list(trace.outputs)[:8]!r}... != "
            f"interpreter writes {expected_outputs[:8]!r}...")
        return verdict
    if require_tolerant:
        from repro.verify.typed_execution import TheoremViolation
        from repro.verify.theorems import check_no_false_positives

        try:
            check_no_false_positives(
                program, max_steps=config.theorem_max_steps,
                check_stride=config.check_stride)
        except TheoremViolation as error:
            verdict.ok = False
            verdict.stage = "theorems"
            verdict.detail = f"{build}: {error}"
            return verdict
    return _campaign_matrix(program, config, verdict, build,
                            require_tolerant)


def _check_mwl(source: str, config: OracleConfig,
               verdict: OracleVerdict) -> OracleVerdict:
    from repro.compiler import compile_source
    from repro.lang import check_source, interpret, parse_source
    from repro.lang.interp import InterpLimit

    try:
        ast = parse_source(source)
    except SourceError as error:
        verdict.ok = False
        verdict.stage = "parse"
        verdict.detail = str(error)
        return verdict
    try:
        check_source(ast)
    except SourceError as error:
        verdict.ok = False
        verdict.stage = "check-source"
        verdict.detail = str(error)
        return verdict
    try:
        reference = interpret(ast, max_steps=config.interp_max_steps)
    except InterpLimit as error:
        verdict.ok = False
        verdict.stage = "interp"
        verdict.detail = str(error)
        return verdict
    builds = {}
    for mode in ("baseline", "ft"):
        try:
            builds[mode] = compile_source(source, mode=mode)
        except (SourceError, ReproError) as error:
            verdict.ok = False
            verdict.stage = "compile"
            verdict.detail = f"{mode}: {error}"
            return verdict
    try:
        builds["ft"].program.check()
    except TypeCheckError as error:
        verdict.ok = False
        verdict.stage = "typecheck"
        verdict.detail = str(error)
        return verdict
    expected = [(array, index, value)
                for array, index, value in reference.writes]
    for mode in ("baseline", "ft") if config.campaign_baseline \
            else ("ft",):
        compiled = builds[mode]
        layout = compiled.lowered.layout
        trace = Machine(compiled.program.boot(), backend="step").run(
            max_steps=config.machine_max_steps)
        if trace.outcome is not Outcome.HALTED:
            verdict.ok = False
            verdict.stage = "differential"
            verdict.detail = f"{mode}: run ended {trace.outcome.value}"
            return verdict
        observed = [layout.describe(address) + (value,)
                    for address, value in trace.outputs]
        if observed != expected:
            verdict.ok = False
            verdict.stage = "differential"
            verdict.detail = (
                f"{mode}: writes {observed[:8]!r}... != interpreter "
                f"{expected[:8]!r}...")
            return verdict
        failed = _check_machine_stages(
            compiled.program, config, verdict, mode,
            expected_outputs=list(trace.outputs),
            require_tolerant=(mode == "ft"))
        if failed is not None:
            return failed
    return verdict


def _check_tal(source: str, config: OracleConfig,
               verdict: OracleVerdict) -> OracleVerdict:
    from repro.asm import parse_program

    try:
        program = parse_program(source)
    except (SourceError, ReproError) as error:
        verdict.ok = False
        verdict.stage = "parse"
        verdict.detail = str(error)
        return verdict
    try:
        program.check()
    except TypeCheckError as error:
        verdict.ok = False
        verdict.stage = "typecheck"
        verdict.detail = str(error)
        return verdict
    failed = _check_machine_stages(program, config, verdict, "tal",
                                   expected_outputs=None,
                                   require_tolerant=True)
    if failed is not None:
        return failed
    return verdict


def check_program(program, config: Optional[OracleConfig] = None
                  ) -> OracleVerdict:
    """Run the full differential oracle over one :class:`FuzzProgram`
    (anything with ``kind`` and ``source`` attributes works)."""
    config = config or OracleConfig()
    verdict = OracleVerdict(ok=True, stage="ok")
    started = time.perf_counter()
    try:
        if program.kind == "tal":
            verdict = _check_tal(program.source, config, verdict)
        elif program.kind == "mwl":
            verdict = _check_mwl(program.source, config, verdict)
        else:
            raise ValueError(f"unknown program kind {program.kind!r}")
    except Exception as error:  # noqa: BLE001 -- crashes are findings
        verdict.ok = False
        verdict.stage = "crash"
        verdict.detail = f"{type(error).__name__}: {error}"
    verdict.elapsed = time.perf_counter() - started
    return verdict
