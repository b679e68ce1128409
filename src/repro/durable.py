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


def _body_digest(record: dict) -> str:
    body = {k: v for k, v in record.items() if k != "line_digest"}
    return digest_bytes(json.dumps(body, sort_keys=True).encode("utf-8"))


def seal(record: dict) -> dict:
    """A copy of *record* carrying its ``line_digest``."""
    sealed = dict(record)
    sealed["line_digest"] = _body_digest(record)
    return sealed


def line(record: dict) -> bytes:
    """One serialized log line: sorted-key JSON plus a newline."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


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
    *records* keeps log order.  Never raises.
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
            records.append(record)
        else:
            dropped += 1
    return head, records, dropped


__all__ = ["APPEND_SITE", "header", "line", "salvage", "seal", "through_site"]
