"""The one durable-log format: a header line plus sealed JSONL records.

Four logs keep the system side crash-consistent: the rebuild journal
(:mod:`repro.resilience.journal`), the mirror transfer ledger
(:mod:`repro.federation.ledger`), the service write-ahead log
(:mod:`repro.service.wal`) and the rebuild artifact cache
(:mod:`repro.core.cache.artifacts`).  They share this format and this
salvage; each one only names its ``kind`` and supplies a structural
validator for its records::

    {"kind": "service-wal", "seed": 7, "version": 1}
    {"line_digest": "sha256:...", "rec": "admit", "t": 12.5, ...}
    ...

:func:`seal` adds ``line_digest``, the SHA-256 of the record's
sorted-key JSON body without that field.  A flipped bit inside a field
value survives the JSON parse, so a line is only trusted when it
re-hashes to its digest: every mutation looks like a tear.

One dump makes both the digest and the line (:func:`_dump`): the record
is dumped with ``"line_digest": null`` at its sorted place, the body is
that text without the entry, and the line is that text with the digest
spliced in.  Only a record that holds another ``"line_digest": null``
entry deeper down, where the splice could not tell the two apart, is
dumped twice, as a body and then as a line.

:func:`salvage` never raises, and a damaged write costs lines, never
the whole log:

* empty or blank bytes are an empty log with nothing dropped;
* a header that does not parse, or names another ``kind``, counts as
  one dropped line, and the records after it are still read;
* a record line is kept only if it decodes, parses to a dict, re-hashes
  to its ``line_digest`` and passes the validator (a validator that
  raises rejects the line); every other non-blank line counts as
  dropped.

A sealed record is a :class:`Sealed` dict: read-only at the top level
and rendered at most once, because it keeps its line on it.
:func:`salvage` hands out sealed records too, each rendered by the dump
that re-hashed it, so a flush of a log whose records were sealed or
salvaged earlier joins bytes it already has.

Every journal, ledger and WAL flush passes through the
``journal.append`` corruption site (:func:`through_site`), keyed per
log, so scripted corruptions can target any one of them.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional, Tuple

from repro.oci.digest import digest_bytes

#: The fault-injection corruption site every log flush passes through.
APPEND_SITE = "journal.append"

_BLANK = b" \t\r\n\x00"


class Sealed(dict):
    """A sealed log record: refuses top-level writes, so the line
    :func:`line` renders for it once stays its line."""

    __slots__ = ("_line",)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a sealed log record is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return Sealed, (dict(self),)


def _body_digest(record: dict) -> str:
    body = {k: v for k, v in record.items() if k != "line_digest"}
    return digest_bytes(json.dumps(body, sort_keys=True).encode("utf-8"))


#: The entry :func:`_dump` renders in the digest's place.
_SLOT = '"line_digest": null'


def _dump(record: dict) -> Optional[Tuple[str, bytes]]:
    """``(body digest, line)`` of *record* from one dump, or None when
    *record* holds a nested ``"line_digest": null`` entry.

    The sorted-key dump with ``line_digest`` set to None holds the slot
    entry once, at the top level, where the field sorts; without it (and
    one separator) it is the body's dump, and with the digest in its place
    it is the sealed record's line.
    """
    text = json.dumps({**record, "line_digest": None}, sort_keys=True)
    at = text.find(_SLOT)
    if text.find(_SLOT, at + 1) >= 0:
        return None
    before, after = text[:at], text[at + len(_SLOT):]
    if after.startswith(", "):
        body = before + after[2:]
    elif before.endswith(", "):
        body = before[:-2] + after
    else:
        body = before + after
    digest = digest_bytes(body.encode("utf-8"))
    return digest, f'{before}"line_digest": "{digest}"{after}\n'.encode("utf-8")


def _with_line(record: Sealed, rendered: Optional[bytes]) -> Sealed:
    if rendered is not None:
        record._line = rendered
    return record


def seal(record: dict) -> Sealed:
    """A read-only copy of *record* carrying its ``line_digest`` and the
    line the same dump rendered."""
    dumped = _dump(record)
    if dumped is None:
        return Sealed(record, line_digest=_body_digest(record))
    digest, rendered = dumped
    return _with_line(Sealed(record, line_digest=digest), rendered)


def _render(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def line(record: dict) -> bytes:
    """One serialized log line: sorted-key JSON plus a newline.  A
    :class:`Sealed` record is rendered at most once and keeps its bytes
    (:func:`seal` and :func:`salvage` render them already)."""
    if not isinstance(record, Sealed):
        return _render(record)
    try:
        return record._line
    except AttributeError:
        record._line = rendered = _render(record)
        return rendered


def header(kind: str, version: int, **fields) -> bytes:
    """The header line of a log of *kind* (headers are not sealed)."""
    return line({"kind": kind, "version": version, **fields})


def through_site(injector, key: str, data: bytes) -> bytes:
    """*data* as it lands on disk: mutated by the ``journal.append``
    corruption site when *injector* has one armed for *key*."""
    if injector is not None and injector.corrupting(APPEND_SITE):
        return injector.corrupt(APPEND_SITE, key, data)
    return data


def _parse(raw: bytes) -> object:
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):  # undecodable, unparseable, too deep
        return None


def _salvaged(record: object, valid: Callable[[dict], bool]) -> Optional[Sealed]:
    """A :class:`Sealed` copy of *record*, rendered by the dump that
    re-hashed it, if it re-hashes to its ``line_digest`` and passes
    *valid*; else None."""
    try:
        if not isinstance(record, dict):
            return None
        dumped = _dump(record)
        digest, rendered = dumped or (_body_digest(record), None)
        if record.get("line_digest") != digest or not valid(record):
            return None
    except Exception:
        # Salvage must stay total so a resume can always proceed: a
        # validator that raises rejects the line, and it is counted.
        return None
    return _with_line(Sealed(record), rendered)


def salvage(
    data: bytes, kind: str, valid: Callable[[dict], bool]
) -> Tuple[dict, List[dict], int]:
    """``(header, records, dropped)`` from a log's flushed bytes.

    *header* is ``{}`` when the header line is missing or damaged;
    *records* keeps log order, each a :class:`Sealed` copy made only
    after it re-hashed and passed *valid*.  Never raises.
    """
    if not data.strip(_BLANK):
        return {}, [], 0
    lines = data.split(b"\n")
    head = _parse(lines[0])
    dropped = 0
    if not (isinstance(head, dict) and head.get("kind") == kind):
        head, dropped = {}, 1
    records = []
    for raw in lines[1:]:
        if not raw.strip(_BLANK):
            continue
        record = _salvaged(_parse(raw), valid)
        if record is not None:
            records.append(record)
        else:
            dropped += 1
    return head, records, dropped


__all__ = ["APPEND_SITE", "Sealed", "header", "line", "salvage", "seal",
           "through_site"]
