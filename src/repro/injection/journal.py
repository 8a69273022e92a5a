"""Durable result journaling for crash-safe campaigns.

A campaign journal is an append-only JSONL file recording every completed
injection step's outcomes, so a campaign interrupted by a crash, an OOM
kill, or Ctrl-C can be resumed with ``run_campaign(..., journal_path=...,
resume=True)`` (CLI: ``talft campaign --journal PATH --resume``) without
redoing finished work.  The design follows write-ahead-log discipline:

* **Append-only JSONL.**  One line per completed injection step, written
  and flushed *before* the step is merged into the report.  Durability
  uses group commit: ``fsync`` runs at most every
  ``GROUP_COMMIT_SECONDS`` (and always on close), so a hard crash loses
  at most the last commit window of completed steps -- which a resume
  simply recomputes.  Per-step fsync would cost ~25% of campaign
  throughput for no correctness benefit.
* **Per-line checksums.**  Every line is ``{"crc": <hex>, "d": <payload>}``
  with the CRC-32 of the canonical payload encoding
  (:mod:`repro.core.framing`); torn writes (a truncated tail after a
  crash) and bit-rot are detected line-by-line and skipped with a
  warning instead of poisoning the resume.
* **Delta-encoded output tails.**  A faulty run's recorded outputs are
  the tail it produced after the injection point; for MASKED runs -- the
  overwhelming majority on well-typed code -- that tail is byte-identical
  to the fault-free reference's.  Those encode as the one-character
  sentinel ``"="`` and are re-expanded against the reference at decode
  time, keeping journal lines (and their CRC/encode cost) small.
* **Identity header.**  The first line carries a digest of the program
  (its whole boot image plus the typing surfaces the value strategies
  consult) and a digest of the :class:`CampaignConfig` codec output.  A
  journal written for a different program or config is *rejected*
  (:class:`JournalMismatch`) rather than silently blended into the wrong
  campaign.  The engine-only fields are excluded, so a journal written
  by ``--jobs 8 --backend step`` resumes under ``--jobs 1 --backend
  compiled`` -- and a pruned journal resumes under ``--no-prune`` -- and
  vice versa.

Because per-step outcomes are deterministic given ``(seed, step_index)``
(see :mod:`repro.injection.campaign`), a report reconstructed from
journaled steps plus freshly computed remaining steps is **bit-identical**
to an uninterrupted run -- the property the chaos harness
(:mod:`repro.injection.chaos`) asserts under infrastructure faults.
"""

from __future__ import annotations

import os
import time
import warnings
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TextIO, Tuple

from repro.core.colors import Color
from repro.core.errors import ReproError
from repro.core.faults import Fault, QueueZapAddress, QueueZapValue, RegZap
from repro.core.framing import frame, read_frames, rewrite
from repro.injection.campaign import (
    ENGINE_ONLY_FIELDS,
    CampaignConfig,
    FaultResult,
    StepOutcome,
)
from repro.program import Program

_MAGIC = "talft-campaign-journal"
_VERSION = 2

#: Group-commit window: appends are flushed immediately but ``fsync`` runs
#: at most this often (plus on close), bounding both the durability gap
#: and the syscall overhead.  A crash forfeits at most this much completed
#: work; resume recomputes it.
GROUP_COMMIT_SECONDS = 0.1


class JournalMismatch(ReproError):
    """The journal on disk belongs to a different program or campaign
    config and must not seed a resume."""


# ---------------------------------------------------------------------------
# Identity digests
# ---------------------------------------------------------------------------


#: ``program_digest`` memo: hashing a kernel's full boot image costs
#: 0.4-1.1 ms on the perfbench ``service`` kernels (4-6 ms as a
#: process's first digest), and the service runs many jobs on the same
#: cached kernel Program.  Programs are treated as immutable once built,
#: so identity caching is sound; keyed by ``id()`` (Program is an
#: unhashable dataclass) with a weakref finalizer evicting dead entries
#: so a recycled id can never alias a stale digest.
_PROGRAM_DIGESTS: Dict[int, str] = {}


def program_digest(program: Program) -> str:
    """A content digest of everything injection outcomes depend on.

    The boot image drives execution: code memory, initial data memory,
    entry, register count, the registers that boot blue and the first
    observable address.  The label-type and data-segment *addresses*
    feed :func:`repro.injection.values.representative_values`
    (code/data replacement targets).  Instructions are frozen
    dataclasses with deterministic reprs, so hashing the sorted item
    reprs is stable across processes and interpreter runs.
    """
    import hashlib

    key = id(program)
    cached = _PROGRAM_DIGESTS.get(key)
    if cached is not None:
        return cached
    payload = repr((
        sorted(program.code.items(), key=lambda item: item[0]),
        sorted(program.initial_memory.items()),
        program.entry,
        program.num_gprs,
        sorted(name for name, color in program.gpr_colors.items()
               if color is Color.BLUE),
        program.observable_min,
        sorted(program.data_psi),
        sorted(program.label_types),
    ))
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    _PROGRAM_DIGESTS[key] = digest
    weakref.finalize(program, _PROGRAM_DIGESTS.pop, key, None)
    return digest


def config_digest(config: CampaignConfig) -> str:
    """A digest of :meth:`CampaignConfig.to_dict` minus
    :data:`~repro.injection.campaign.ENGINE_ONLY_FIELDS`."""
    import hashlib

    payload = repr([item for item in config.to_dict().items()
                    if item[0] not in ENGINE_ONLY_FIELDS])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Outcome codec (lossless: decoded tuples compare equal to fresh ones)
# ---------------------------------------------------------------------------

_FAULT_TAGS = {"R": RegZap, "QA": QueueZapAddress, "QV": QueueZapValue}


def _fault_to_json(fault: Fault) -> List:
    if isinstance(fault, RegZap):
        return ["R", fault.reg, fault.new_value]
    if isinstance(fault, QueueZapAddress):
        return ["QA", fault.index, fault.new_value]
    if isinstance(fault, QueueZapValue):
        return ["QV", fault.index, fault.new_value]
    raise ValueError(f"unknown fault descriptor {fault!r}")


def _fault_from_json(data: List) -> Fault:
    tag, first, second = data
    return _FAULT_TAGS[tag](first, second)


def _outcome_to_json(outcome: StepOutcome,
                     ref_tail: Optional[Tuple[Tuple[int, int], ...]] = None,
                     ) -> List:
    """Encode one outcome; a tail equal to ``ref_tail`` (the fault-free
    reference's outputs after the injection point, i.e. every MASKED run)
    collapses to the ``"="`` sentinel."""
    fault, result, outputs, latency = outcome
    if ref_tail is not None and outputs == ref_tail:
        encoded_outputs: object = "="
    else:
        encoded_outputs = [[address, value] for address, value in outputs]
    return [_fault_to_json(fault), result.value, encoded_outputs, latency]


def _outcome_from_json(data: List,
                       ref_tail: Optional[Tuple[Tuple[int, int], ...]] = None,
                       ) -> StepOutcome:
    fault, result, outputs, latency = data
    if outputs == "=":
        if ref_tail is None:
            raise ValueError(
                "journal outcome uses the reference-tail sentinel but no "
                "reference tail was supplied")
        decoded = ref_tail
    else:
        decoded = tuple((address, value) for address, value in outputs)
    return (_fault_from_json(fault), FaultResult(result), decoded,
            int(latency))


def decode_step(raw_outcomes: List,
                ref_tail: Tuple[Tuple[int, int], ...]) -> List[StepOutcome]:
    """Decode one journaled step's raw ``out`` payload into the exact
    tuples the campaign engine produces."""
    return [_outcome_from_json(data, ref_tail) for data in raw_outcomes]


def encode_step(outcomes: List[StepOutcome],
                ref_tail: Optional[Tuple[Tuple[int, int], ...]] = None,
                ) -> List:
    """Encode one step's outcomes as the raw ``out`` payload
    :func:`decode_step` accepts -- the journal line format doubling as
    the shard worker protocol's wire format, so streamed shard results
    and journaled steps share one codec (``"="`` tail sentinel included).
    """
    return [_outcome_to_json(outcome, ref_tail) for outcome in outcomes]


def _header_payload(prog_digest: str, conf_digest: str) -> Dict:
    return {"magic": _MAGIC, "version": _VERSION,
            "program": prog_digest, "config": conf_digest}


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class CampaignJournal:
    """Append-only writer for a campaign's per-step outcome journal.

    Use :meth:`fresh` to start (or overwrite) a journal and
    :func:`resume_journal` to continue one.  With ``fsync=True`` (the
    default) appended steps become durable within
    :data:`GROUP_COMMIT_SECONDS` (group commit) and unconditionally on
    :meth:`close`; the crash-safety contract is "at most one commit
    window of merged steps can need recomputing".
    """

    def __init__(self, path: str, handle: TextIO, fsync: bool = True):
        from repro.observe import get_registry

        self.path = path
        self._handle = handle
        self._fsync = fsync
        self._synced_at = float("-inf")
        self.appended_steps = 0
        registry = get_registry()
        self._appends_counter = registry.counter("journal_appends_total")
        self._fsyncs_counter = registry.counter("journal_fsyncs_total")
        self._fsync_seconds = registry.histogram("journal_fsync_seconds")

    @classmethod
    def fresh(cls, path: str, prog_digest: str, conf_digest: str,
              fsync: bool = True) -> "CampaignJournal":
        """A new journal at ``path`` (truncating any existing file)."""
        handle = open(path, "w")
        journal = cls(path, handle, fsync)
        journal._write_line(frame(_header_payload(prog_digest, conf_digest)))
        return journal

    def append_step(self, step_index: int, outcomes: List[StepOutcome],
                    ref_tail: Optional[Tuple[Tuple[int, int], ...]] = None,
                    ) -> None:
        """Durably record one completed injection step.  ``ref_tail`` (the
        reference outputs after this step) enables the ``"="`` tail
        compression; the reader must supply the same tail to
        :func:`decode_step`."""
        payload = {"step": step_index,
                   "out": [_outcome_to_json(o, ref_tail) for o in outcomes]}
        self._write_line(frame(payload))
        self.appended_steps += 1
        self._appends_counter.inc()

    def append_raw(self, step_index: int, raw_outcomes: List) -> None:
        """Durably record one step from its already-encoded ``out`` payload
        (:func:`encode_step`'s output), with no decode/re-encode round
        trip."""
        self._write_line(frame({"step": step_index, "out": raw_outcomes}))
        self.appended_steps += 1
        self._appends_counter.inc()

    def _timed_fsync(self) -> None:
        started = time.perf_counter()
        os.fsync(self._handle.fileno())
        self._fsync_seconds.observe(time.perf_counter() - started)
        self._fsyncs_counter.inc()

    def _write_line(self, line: str) -> None:
        self._handle.write(line)
        self._handle.flush()
        if self._fsync:
            now = time.monotonic()
            if now - self._synced_at >= GROUP_COMMIT_SECONDS:
                self._timed_fsync()
                self._synced_at = now

    def flush(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._timed_fsync()

    def close(self) -> None:
        if not self._handle.closed:
            self.flush()
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Loader / resume
# ---------------------------------------------------------------------------


@dataclass
class JournalLoad:
    """The usable content of a journal file."""

    #: Completed steps as *raw* ``out`` payloads; decode with
    #: :func:`decode_step` once the reference tail for the step is known
    #: (the ``"="`` sentinel needs it).
    steps: Dict[int, List] = field(default_factory=dict)
    #: Lines dropped for failed checksums / unparseable content.
    corrupt_lines: int = 0
    #: Whether a valid header was found at all.
    has_header: bool = False


def load_journal(path: str, prog_digest: str, conf_digest: str) -> JournalLoad:
    """Read every valid step from a journal, verifying its identity.

    Raises :class:`JournalMismatch` when the header identifies a different
    program or campaign config.  Corrupt lines -- including the torn tail
    line a crash mid-append leaves behind -- are skipped with a
    :class:`UserWarning` and counted, never fatal.  A missing file loads
    as empty.
    """
    load = JournalLoad()
    payloads, load.corrupt_lines = read_frames(path)
    for payload in payloads:
        if not load.has_header:
            # The first valid line must be the header.
            if not (isinstance(payload, dict) and
                    payload.get("magic") == _MAGIC):
                load.corrupt_lines += 1
                continue
            if payload.get("version") != _VERSION:
                raise JournalMismatch(
                    f"journal {path} has version {payload.get('version')}, "
                    f"expected {_VERSION}")
            if payload.get("program") != prog_digest:
                raise JournalMismatch(
                    f"journal {path} was written for a different program "
                    f"(digest {payload.get('program')}, expected "
                    f"{prog_digest})")
            if payload.get("config") != conf_digest:
                raise JournalMismatch(
                    f"journal {path} was written under a different campaign "
                    f"config (digest {payload.get('config')}, expected "
                    f"{conf_digest}); pass a matching config or start a "
                    "fresh journal")
            load.has_header = True
            continue
        try:
            step_index = int(payload["step"])
            raw_outcomes = payload["out"]
            if not isinstance(raw_outcomes, list):
                raise TypeError("out must be a list")
        except (KeyError, TypeError, ValueError):
            load.corrupt_lines += 1
            continue
        load.steps[step_index] = raw_outcomes
    if load.corrupt_lines:
        warnings.warn(
            f"campaign journal {path}: skipped {load.corrupt_lines} corrupt "
            "line(s) (failed checksum or truncated write); the affected "
            "steps will be recomputed",
            UserWarning,
            stacklevel=2,
        )
    return load


def resume_journal(
    path: str,
    prog_digest: str,
    conf_digest: str,
    fsync: bool = True,
) -> Tuple[CampaignJournal, JournalLoad]:
    """Open ``path`` for resuming: load its valid steps, then rewrite it
    compacted (header + valid step lines only) and return an open
    append-mode writer.

    The rewrite matters after a crash: a torn half-line at the tail would
    otherwise concatenate with the next append and corrupt *that* record
    too.  Rewriting through a temp file + atomic rename keeps the journal
    crash-safe even if this resume is itself interrupted.  A missing file
    resumes as a fresh journal.
    """
    load = load_journal(path, prog_digest, conf_digest)
    # Raw payloads rewrite verbatim; "=" sentinels stay symbolic.
    rewrite(path, [_header_payload(prog_digest, conf_digest)] + [
        {"step": step_index, "out": load.steps[step_index]}
        for step_index in sorted(load.steps)])
    handle = open(path, "a")
    return CampaignJournal(path, handle, fsync), load
