"""CRC-framed line logs: one on-disk format for every durable log.

The campaign result journal (:mod:`repro.injection.journal`) and the
service's job journal (:mod:`repro.service.store`) both store one JSON
payload per line as ``{"crc":"<8 hex digits>","d":<payload>}``.  The
CRC-32 covers the payload's canonical encoding (sorted keys, no
whitespace), so a torn tail left by a crash mid-write, or a flipped
bit, fails its line alone: readers drop and count it instead of failing
the whole file.

Each log keeps its own header and record semantics; this module owns
only the framing, the line reader, and the crash-safe whole-file
rewrite (temp file, ``fsync``, atomic ``os.replace``) that compaction
and snapshots use.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Iterable, List, Optional, Tuple


def _encode(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def frame(payload: object) -> str:
    """One log line (newline included) carrying ``payload``."""
    encoded = _encode(payload)
    crc = zlib.crc32(encoded.encode()) & 0xFFFFFFFF
    return f'{{"crc":"{crc:08x}","d":{encoded}}}\n'


def unframe(line: str) -> Optional[object]:
    """The payload of one log line, or ``None`` when the line fails to
    parse or its checksum fails (torn tail writes, bit flips)."""
    line = line.strip()
    if not line:
        return None
    try:
        wrapper = json.loads(line)
        crc = int(wrapper["crc"], 16)
        payload = wrapper["d"]
    except (ValueError, KeyError, TypeError):
        return None
    if zlib.crc32(_encode(payload).encode()) & 0xFFFFFFFF != crc:
        return None
    return payload


def read_frames(path: str) -> Tuple[List[object], int]:
    """Every valid payload of the log at ``path``, in file order, and the
    number of non-blank lines dropped as corrupt.  A missing file reads
    as empty.  Bytes that are not UTF-8 (bit rot in an ASCII log) decode
    to replacement characters, so their line fails its checksum alone."""
    if not os.path.exists(path):
        return [], 0
    with open(path, errors="replace") as handle:
        lines = handle.readlines()
    payloads: List[object] = []
    corrupt = 0
    for line in lines:
        payload = unframe(line)
        if payload is not None:
            payloads.append(payload)
        elif line.strip():
            corrupt += 1
    return payloads, corrupt


def rewrite(path: str, payloads: Iterable[object]) -> None:
    """Replace the log at ``path`` with ``payloads``, one frame each.

    Writes a temp file, ``fsync``\\ s it and renames it over ``path``, so
    a crash at any point leaves either the old file or the new one --
    never a mix, and never a torn tail an append could extend.
    """
    temp_path = path + ".tmp"
    with open(temp_path, "w") as handle:
        for payload in payloads:
            handle.write(frame(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)
