"""Simulated binary formats.

Real container images hold ELF executables and shared objects; this
substrate represents them as small self-describing payloads:

* **program markers** — ``#!sim\\n{json}`` — an executable whose behaviour
  is provided by a registered simulated program (``gcc``, ``cp``, ``apt-get``,
  the coMtainer entry points, the command-line hijacker, ...).  The JSON
  carries the program name plus arbitrary metadata (e.g. which toolchain a
  compiler driver belongs to).

* **artifact payloads** — ``\\x7fSIM\\n{json}`` — build products (.o/.a/.so/
  executables) carrying their full build provenance: source inputs, flags,
  toolchain, target ISA, LTO/PGO state.  The system-side backend reads this
  provenance the way a real backend would read ELF sections and build IDs.

Both formats are plain bytes, so they round-trip through layers, diffs and
tar export like any other file content.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence

PROGRAM_MAGIC = b"#!sim\n"
ARTIFACT_MAGIC = b"\x7fSIM\n"


def program_marker(program: str, **meta: Any) -> bytes:
    """Encode an executable file that dispatches to simulated *program*."""
    payload: Dict[str, Any] = {"program": program}
    payload.update(meta)
    return PROGRAM_MAGIC + json.dumps(payload, sort_keys=True).encode("utf-8")


def read_program_marker(data: bytes) -> Optional[Dict[str, Any]]:
    """Decode a program marker, or None when *data* is not one."""
    if not data.startswith(PROGRAM_MAGIC):
        return None
    try:
        obj = json.loads(data[len(PROGRAM_MAGIC):].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(obj, dict) and "program" in obj:
        return obj
    return None


def is_program(data: bytes) -> bool:
    return read_program_marker(data) is not None


#: ``json.dumps(..., sort_keys=True)`` without building an encoder per call.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def artifact_payload(
    kind: str,
    body: Dict[str, Any],
    spliced: Optional[Dict[str, Sequence[Optional[bytes]]]] = None,
) -> bytes:
    """Encode a build artifact of *kind* (object/archive/shared/executable).

    *spliced* maps a list in *body* to the JSON text of each of its items
    (None for an item to encode here).  A text goes into the payload as it
    is, so the payload is the plain encoding's bytes as long as each text
    is its item's sort-keys encoding."""
    payload = {"kind": kind}
    payload.update(body)
    if not spliced:
        return ARTIFACT_MAGIC + _ENCODE(payload).encode("utf-8")
    # The plain encoding is "{" + the sorted "key": value items joined by
    # ", " + "}": encode the runs of other keys as dicts, join the rest.
    parts, run = [], {}
    for key in sorted(payload):
        if key not in spliced:
            run[key] = payload[key]
            continue
        if run:
            parts.append(_ENCODE(run)[1:-1].encode())
            run = {}
        items = b", ".join(
            _ENCODE(item).encode() if text is None else text
            for item, text in zip(payload[key], spliced[key], strict=True))
        parts.append(b"%s: [%s]" % (_ENCODE(key).encode(), items))
    if run:
        parts.append(_ENCODE(run)[1:-1].encode())
    return ARTIFACT_MAGIC + b"{" + b", ".join(parts) + b"}"


def read_artifact_payload(data: bytes) -> Optional[Dict[str, Any]]:
    """Decode an artifact payload, or None when *data* is not one."""
    if not data.startswith(ARTIFACT_MAGIC):
        return None
    try:
        obj = json.loads(data[len(ARTIFACT_MAGIC):].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(obj, dict) and "kind" in obj:
        return obj
    return None


def is_artifact(data: bytes) -> bool:
    return read_artifact_payload(data) is not None
