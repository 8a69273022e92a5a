"""The shard worker: executes injection steps, streams results.

A worker is one process holding one coordinator connection.  It is
deliberately stateless across campaigns: everything it needs arrives in
the ``job`` message (the program as ``.tal`` text, the config as a JSON
object, identity digests), and everything it produces leaves as
``step`` messages encoded with the campaign journal's own codec
(:func:`repro.injection.journal.encode_step`).  A job whose program or
config does not parse, or whose digests do not match, closes the
connection before anything runs.

Determinism contract: a worker executes
:func:`repro.injection.campaign._run_step` exactly as the serial engine
would -- per-step RNG seeded by ``(seed, step_index)`` -- so *which*
worker runs a step never matters.  On every job the worker warms the
compiled-program cache and rebuilds the checkpointed reference run,
mirroring the supervised pool's initializer.

The entry point is :func:`run_listen`: bind and accept coordinators
(``talft shard-worker --listen [HOST:]PORT``), serving one connection at
a time; ``--once`` exits after the first (how tests manage fleets).  The
coordinator always dials its workers.
"""

from __future__ import annotations

import os
import signal
import socket
from typing import Any, Dict, Optional

from repro.observe import MetricsRegistry, emit, host_label, set_registry
from repro.service.protocol import (
    AUTHKEY_ENV,
    Connection,
    ProtocolError,
    coordinator_mac,
    macs_equal,
    make_nonce,
    worker_mac,
)


class _WorkerState:
    """One loaded campaign: program, config, reference run, fault budget."""

    def __init__(self, message: Dict[str, Any]):
        from repro.asm import parse_program
        from repro.core.errors import ReproError
        from repro.exec.cache import warm_program
        from repro.injection.campaign import CampaignConfig, _reference_run
        from repro.injection.journal import config_digest, program_digest

        try:
            self.program = parse_program(message["program"])
            self.config = CampaignConfig.from_dict(message["config"])
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"unreadable job: {exc}") from exc
        prog_digest = program_digest(self.program)
        conf_digest = config_digest(self.config)
        if prog_digest != message.get("program_digest") or \
                conf_digest != message.get("config_digest"):
            raise ProtocolError(
                "job payload does not match its identity digests "
                f"(program {prog_digest} vs {message.get('program_digest')}"
                f", config {conf_digest} vs {message.get('config_digest')})")
        if self.config.backend in ("compiled", "vector"):
            warm_program(self.program.boot().code, self.config.oob_policy)
        self.reference = _reference_run(self.program, self.config)
        self.budget = self.reference.trace.steps + self.config.step_slack
        #: Chaos directive: SIGKILL self after sending this many step
        #: results (``None`` = healthy worker).
        self.die_after_steps: Optional[int] = message.get("die_after_steps")
        self.steps_sent = 0


def serve_connection(sock: socket.socket,
                     authkey: Optional[bytes] = None) -> None:
    """Serve one coordinator over ``sock`` until shutdown or EOF.

    With an ``authkey``, the coordinator must answer the hello nonce
    with a valid HMAC ``auth`` challenge response *before* the worker
    accepts a job -- an unauthenticated peer never gets past the
    handshake.  Without a key, a coordinator that *demands*
    authentication is refused instead (mismatched fleet configuration
    fails loudly rather than silently downgrading).

    Starts from a fresh metrics registry, so the final ``bye`` metrics
    carry this connection's work only.
    """
    from repro.injection.campaign import _run_step
    from repro.injection.journal import encode_step

    registry = MetricsRegistry()
    set_registry(registry)
    steps_counter = registry.counter("shard_worker_steps_total")
    shards_counter = registry.counter("shard_worker_shards_total")
    conn = Connection(sock)
    state: Optional[_WorkerState] = None
    host = host_label()
    nonce = make_nonce()
    try:
        conn.send({"type": "hello", "host": host, "pid": os.getpid(),
                   "nonce": nonce})
        if authkey is not None:
            challenge = conn.recv()
            if challenge is None:
                return
            if challenge.get("type") != "auth":
                raise ProtocolError(
                    "coordinator did not authenticate before sending "
                    f"{challenge.get('type')!r} (this worker has a fleet "
                    "auth key; start the coordinator with the same key)")
            if not macs_equal(coordinator_mac(authkey, nonce),
                              challenge.get("mac")):
                raise ProtocolError(
                    "coordinator failed fleet authentication "
                    "(auth key mismatch)")
            conn.send({"type": "auth-ok",
                       "mac": worker_mac(authkey,
                                         str(challenge.get("nonce", "")))})
        while True:
            message = conn.recv()
            if message is None:
                return  # coordinator vanished; nothing to clean up
            kind = message["type"]
            if kind == "job":
                state = _WorkerState(message)
                emit("shard-worker-job", host=host,
                     backend=state.config.backend)
            elif kind == "shard":
                if state is None:
                    raise ProtocolError("shard assignment before job")
                shard_index = message.get("shard")
                steps = message.get("steps")
                if not isinstance(shard_index, int) or \
                        not isinstance(steps, list) or \
                        not all(isinstance(step, int) and 0 <= step <
                                state.reference.num_steps for step in steps):
                    raise ProtocolError("malformed shard assignment")
                for step_index in steps:
                    outcomes = _run_step(state.program, state.config,
                                         state.reference, state.budget,
                                         step_index)
                    tail = state.reference.tail(step_index)
                    conn.send({"type": "step", "shard": shard_index,
                               "step": step_index,
                               "out": encode_step(outcomes, tail)})
                    steps_counter.inc()
                    state.steps_sent += 1
                    if state.die_after_steps is not None and \
                            state.steps_sent >= state.die_after_steps:
                        # Chaos harness: die mid-shard, after the result
                        # is on the wire -- the hardest reissue case (the
                        # coordinator must keep the sent steps and re-place
                        # only the tail).
                        os.kill(os.getpid(), signal.SIGKILL)
                conn.send({"type": "shard-done", "shard": shard_index})
                shards_counter.inc()
            elif kind == "shutdown":
                conn.send({"type": "bye", "host": host,
                           "metrics": registry.as_dict()})
                return
            elif kind == "auth":
                raise ProtocolError(
                    "coordinator requires fleet authentication but this "
                    f"worker has no auth key (set {AUTHKEY_ENV} or pass "
                    "--authkey-file)")
            else:
                raise ProtocolError(f"unknown message type {kind!r}")
    except (ProtocolError, OSError):
        # A broken coordinator connection is the coordinator's problem to
        # supervise; the worker just winds down.
        return
    finally:
        conn.close()


def run_listen(host: str, port: int, once: bool = False,
               authkey: Optional[bytes] = None) -> None:
    """Accept coordinators on ``host:port``, one connection at a time.

    Prints the bound address (resolving an ephemeral port 0) so callers
    scripting a fleet can discover where the worker landed.
    """
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    listener = socket.socket(family, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(1)
    bound = listener.getsockname()
    print(f"shard-worker listening on {bound[0]}:{bound[1]}", flush=True)
    try:
        while True:
            sock, _ = listener.accept()
            serve_connection(sock, authkey=authkey)
            if once:
                return
    finally:
        listener.close()

