"""Length-prefixed JSON framing for the shard worker protocol.

One frame = a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  Every message is a JSON object with a ``"type"``
key; the step-outcome payloads reuse the campaign journal's codec
(:func:`repro.injection.journal.encode_step`), so a streamed shard
result and a journaled step are byte-for-byte the same encoding --
one codec, one set of round-trip tests.

Message flow (worker side initiates nothing; it answers):

* worker -> coordinator: ``hello`` (host label, pid, auth nonce) on
  connect;
* with a fleet key: coordinator -> worker ``auth`` (HMAC challenge
  response), worker -> coordinator ``auth-ok`` -- before any job is
  sent or accepted (see *Fleet authentication* below);
* coordinator -> worker: ``job`` (the program as ``.tal`` text, the
  config as :meth:`~repro.injection.campaign.CampaignConfig.to_dict`,
  identity digests, chaos directives), then any number of ``shard``
  assignments, then ``shutdown``;
* worker -> coordinator: a ``step`` per completed injection step, a
  ``shard-done`` per finished assignment, and a final ``bye`` carrying
  the worker's metrics registry for host-labelled merging.

Nothing on the wire is executable: the worker parses the program with
:func:`repro.asm.parse_program` and the config with
:meth:`~repro.injection.campaign.CampaignConfig.from_dict`, and checks
both identity digests before it runs anything.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import secrets
import socket
import struct
from typing import Any, Dict, Optional

from repro.core.errors import ReproError

#: Frames above this are a protocol violation, not a campaign -- guards
#: against garbage on the port being interpreted as a gigabyte read.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct("!I")


class ProtocolError(ReproError):
    """A malformed or oversized frame on a shard worker connection."""


# ---------------------------------------------------------------------------
# Fleet authentication
# ---------------------------------------------------------------------------
#
# With a fleet key, only a peer that knows it may send or run jobs: both
# sides prove knowledge of the shared key before any job flows.  The
# worker's ``hello`` carries a nonce, the coordinator answers with
# ``auth`` (an HMAC over that nonce plus its own nonce), and the worker
# replies ``auth-ok`` (an HMAC over the coordinator's nonce).  The key
# guards integrity and access, not code execution: jobs carry no
# executable payload.  The fleet shares the key via ``--authkey-file`` or
# the environment variable below.

AUTHKEY_ENV = "TALFT_SHARD_AUTHKEY"


def load_authkey(path: Optional[str] = None) -> Optional[bytes]:
    """The shared fleet key: a key file beats ``TALFT_SHARD_AUTHKEY``.

    Returns ``None`` when neither is configured.  Raises ``ValueError``
    for an empty key file (almost certainly a mistake, and an empty HMAC
    key is barely a key).
    """
    if path is not None:
        with open(path, "rb") as handle:
            key = handle.read().strip()
        if not key:
            raise ValueError(f"authkey file {path!r} is empty")
        return key
    value = os.environ.get(AUTHKEY_ENV, "")
    return value.encode("utf-8") if value else None


def make_nonce() -> str:
    return secrets.token_hex(16)


def _mac(key: bytes, role: bytes, nonce: str) -> str:
    return hmac.new(key, role + b":" + nonce.encode("utf-8"),
                    hashlib.sha256).hexdigest()


def coordinator_mac(key: bytes, nonce: str) -> str:
    """The MAC a coordinator sends to answer a worker's hello nonce."""
    return _mac(key, b"talft-coordinator", nonce)


def worker_mac(key: bytes, nonce: str) -> str:
    """The MAC a worker sends to answer the coordinator's auth nonce."""
    return _mac(key, b"talft-worker", nonce)


def macs_equal(expected: str, received: Any) -> bool:
    return isinstance(received, str) and \
        hmac.compare_digest(expected, received)


class Connection:
    """One framed JSON connection (either side of the protocol).

    Thread contract: at most one sender thread and one receiver thread
    may use a connection concurrently (the coordinator reads from a
    per-worker thread and writes from the scheduler thread); ``send`` and
    ``recv`` each perform a single locked socket operation sequence.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def send(self, message: Dict[str, Any]) -> None:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
        if len(payload) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"refusing to send a {len(payload)}-byte frame "
                f"(limit {MAX_FRAME_BYTES})")
        self._sock.sendall(_LENGTH.pack(len(payload)) + payload)

    def recv(self) -> Optional[Dict[str, Any]]:
        """The next message, or ``None`` on clean EOF (peer closed)."""
        header = self._rfile.read(_LENGTH.size)
        if not header:
            return None
        if len(header) < _LENGTH.size:
            raise ProtocolError("connection closed mid-frame header")
        (length,) = _LENGTH.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"peer announced a {length}-byte frame "
                f"(limit {MAX_FRAME_BYTES})")
        payload = self._rfile.read(length)
        if len(payload) < length:
            raise ProtocolError("connection closed mid-frame payload")
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"undecodable frame: {exc}") from exc
        if not isinstance(message, dict) or "type" not in message:
            raise ProtocolError("frame is not a typed message object")
        return message

    def settimeout(self, timeout: Optional[float]) -> None:
        self._sock.settimeout(timeout)

    def close(self) -> None:
        # Shutdown strictly first: it unblocks a reader thread parked in
        # ``_rfile.read``.  Closing the BufferedReader before that would
        # block on its internal lock until the read returns -- for a
        # stalled peer, never -- deadlocking whoever called close() (the
        # coordinator's chunk-timeout force-close relies on this order).
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._rfile.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parse_address(spec: str, allow_zero: bool = False) -> tuple:
    """``HOST:PORT`` (or bare ``PORT`` -> localhost) to ``(host, port)``.

    IPv6 literals must be bracketed (``[::1]:7070``); a bare multi-colon
    address is rejected rather than silently mis-split.  ``allow_zero``
    admits port 0 -- meaningful for a listener (bind an ephemeral port)
    but never for a dial-out address.
    """
    text = spec.strip()
    if text.startswith("["):
        host, bracket, port_text = text[1:].partition("]")
        if not bracket or not port_text.startswith(":") or not host:
            raise ValueError(f"invalid worker address {spec!r} "
                             "(expected [IPV6]:PORT)")
        port_text = port_text[1:]
    elif text.count(":") > 1:
        raise ValueError(f"invalid worker address {spec!r} "
                         "(IPv6 literals need brackets: [::1]:PORT)")
    elif ":" in text:
        host, _, port_text = text.partition(":")
    else:
        host, port_text = "127.0.0.1", text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid worker address {spec!r} "
                         "(expected HOST:PORT)") from None
    if not ((0 if allow_zero else 1) <= port < 65536):
        raise ValueError(f"invalid port in worker address {spec!r}")
    return (host or "127.0.0.1", port)
