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
and rendered at most once, because :func:`line` keeps its bytes on it.
:func:`salvage` hands out sealed records too, so a flush of a log whose
records were sealed or salvaged earlier joins bytes it already has and
renders only the records added since.

Every journal, ledger and WAL flush passes through the
``journal.append`` corruption site (:func:`through_site`), keyed per
log, so scripted corruptions can target any one of them.
"""

from __future__ import annotations

import json
from typing import Callable, List, Tuple

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


def seal(record: dict) -> Sealed:
    """A read-only copy of *record* carrying its ``line_digest``."""
    return Sealed(record, line_digest=_body_digest(record))


def _render(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def line(record: dict) -> bytes:
    """One serialized log line: sorted-key JSON plus a newline.  A
    :class:`Sealed` record is rendered once and keeps its bytes."""
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


def _sealed(record: object, valid: Callable[[dict], bool]) -> bool:
    try:
        return (isinstance(record, dict)
                and record.get("line_digest") == _body_digest(record)
                and bool(valid(record)))
    except Exception:
        # Salvage must stay total so a resume can always proceed: a
        # validator that raises rejects the line, and it is counted.
        return False


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
        record = _parse(raw)
        if _sealed(record, valid):
            records.append(Sealed(record))
        else:
            dropped += 1
    return head, records, dropped


__all__ = ["APPEND_SITE", "Sealed", "header", "line", "salvage", "seal",
           "through_site"]
