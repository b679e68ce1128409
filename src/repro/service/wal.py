"""The service write-ahead log: crash-consistent request accounting.

The :class:`~repro.service.service.AdaptationService` is a long-lived
server, and a long-lived server must survive its own death.  The WAL is
the durability mechanism: every service-level state transition — a
tenant registration, an arrival, an admission (with the shed level it
was granted), a displacement, a dispatch, a circuit-breaker transition,
a shared-cache absorb, a mirror sync, and above all every **terminal
status** — is appended as one self-contained JSONL line *before* the
in-memory state is trusted.  A restart replays the salvaged log against
the durable stores (the origin registry, the mounted tenant layouts)
and reconstructs queue order, token buckets, breaker states and the set
of in-flight requests; in-flight rebuilds then resume through their
per-request rebuild journals, so nothing checkpointed re-executes.

The log format, its line digests and its salvage are
:mod:`repro.durable`'s; this module supplies the header ``kind``
(``service-wal``, version 1, carrying the service seed), the record
kinds below and their structural check::

    {"kind": "service-wal", "seed": 7, "version": 1}
    {"line_digest": "sha256:...", "rec": "admit", "request_id": "acme/r3",
     "t": 12.5, ...}
    ...

:meth:`ServiceWAL.from_bytes` keeps every record line that re-hashes
and validates and counts the rest in
:attr:`ServiceWAL.torn_records_dropped`.  A record that was mid-append
at the crash is simply a torn last line; a dropped terminal record
leaves its request non-terminal, so the restart re-runs it — and
because the request's durable effects (the rebuild journal and
``+coMre`` manifest in the mounted layout) landed before the terminal
record, the re-run executes zero checkpointed nodes and produces the
same bytes.  That is how the service holds its core invariant: **every
admitted request ends in exactly one typed terminal status across any
number of crashes**.  WAL appends pass the ``journal.append``
corruption site keyed ``service-wal``.

Crash simulation: a :class:`ServiceCrash` is raised from inside a
configured append (``crash_after_records``) or timeline advance
(``crash_at``), optionally tearing the record being appended.  It
derives from ``BaseException`` on purpose — a simulated process death
must not be absorbed by the service's own ``except Exception``
degradation paths (a real ``kill -9`` does not negotiate with error
handlers).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import durable

WAL_KIND = "service-wal"
WAL_VERSION = 1

#: Record kinds the salvage accepts.
RECORD_KINDS = frozenset({
    "tenant", "mirror", "submit", "admit", "park", "dispatch",
    "breaker", "absorb", "sync", "terminal", "restart", "failover",
})

#: The ``journal.append`` corruption-site key WAL flushes ride.
WAL_SITE_KEY = "service-wal"


class ServiceCrash(BaseException):
    """Simulated hard process death of the adaptation service.

    Deliberately *not* an ``Exception``: the crash must propagate
    through every ``except Exception`` degradation path in the service
    (breaker fallbacks, ladder rungs) exactly as a SIGKILL would.  Only
    the WAL's flushed bytes and the durable stores survive it.
    """

    def __init__(self, records_flushed: int, torn: bool) -> None:
        self.records_flushed = records_flushed
        self.torn = torn
        super().__init__(
            f"simulated service crash after {records_flushed} WAL record(s)"
            + (" (last record torn)" if torn else "")
        )


def _valid_record(record: dict) -> bool:
    """Structural check for one WAL line before trusting it."""
    t = record.get("t")
    return (record.get("rec") in RECORD_KINDS
            and isinstance(t, (int, float)) and t >= 0)


class ServiceWAL:
    """Append-only JSONL log of service state transitions.

    The in-memory :attr:`records` list and the flushed byte buffer move
    in lockstep: :meth:`append` serializes, (optionally) passes the line
    through the ``journal.append`` corruption site, extends the buffer,
    and only then returns — the buffer *is* the durable artifact a
    crash leaves behind.
    """

    def __init__(
        self,
        seed: int = 0,
        injector=None,
        crash_after_records: Optional[int] = None,
        crash_torn: bool = True,
    ) -> None:
        self.seed = seed
        self.injector = injector
        #: Crash simulation: raise :class:`ServiceCrash` while appending
        #: the N-th record from now (1-based); ``crash_torn`` flushes
        #: only a prefix of that record's line, as a real torn write
        #: would.
        self.crash_after_records = crash_after_records
        self.crash_torn = crash_torn
        self.records: List[dict] = []
        #: Lines dropped by the last :meth:`from_bytes` salvage.
        self.torn_records_dropped = 0
        #: Restart records seen (how many crashes this log has survived).
        self.restarts = 0
        self._buf = bytearray()
        self._appended = 0
        self._write_header()

    # -- writing -----------------------------------------------------------

    def _write_header(self) -> None:
        self._buf.extend(durable.header(WAL_KIND, WAL_VERSION, seed=self.seed))

    def _flush_line(self, line: bytes) -> None:
        self._buf.extend(durable.through_site(self.injector, WAL_SITE_KEY, line))

    def append(self, record: dict) -> dict:
        """Durably append one record (adds ``line_digest``); honours the
        crash trigger — the configured append flushes a (possibly torn)
        line and then raises :class:`ServiceCrash`."""
        record = durable.seal(record)
        line = durable.line(record)
        self._appended += 1
        if (self.crash_after_records is not None
                and self._appended >= self.crash_after_records):
            if self.crash_torn:
                # A torn write: a prefix of the line reaches the log.
                self._flush_line(line[: max(1, len(line) // 2)])
            else:
                self._flush_line(line)
                self.records.append(record)
            raise ServiceCrash(len(self.records), torn=self.crash_torn)
        self._flush_line(line)
        self.records.append(record)
        return record

    @property
    def flushed_bytes(self) -> bytes:
        """What would be on disk right now (survives a crash)."""
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self.records)

    # -- queries -----------------------------------------------------------

    def by_kind(self, kind: str) -> List[dict]:
        return [r for r in self.records if r.get("rec") == kind]

    def terminal_counts(self) -> Dict[str, int]:
        """request_id -> number of terminal records (the invariant says
        this is exactly 1 for every admitted request, eventually)."""
        counts: Dict[str, int] = {}
        for record in self.by_kind("terminal"):
            rid = record.get("request_id", "")
            counts[rid] = counts.get(rid, 0) + 1
        return counts

    def open_request_ids(self) -> List[str]:
        """Admitted (or dispatched) requests with no terminal record yet
        — the service's recovery exposure ("WAL lag")."""
        terminal = set(self.terminal_counts())
        seen: List[str] = []
        for record in self.records:
            if record.get("rec") not in ("admit", "dispatch"):
                continue
            rid = record.get("request_id", "")
            if rid and rid not in terminal and rid not in seen:
                seen.append(rid)
        return seen

    def open_request_count(self) -> int:
        return len(self.open_request_ids())

    def stats(self) -> dict:
        kinds: Dict[str, int] = {}
        for record in self.records:
            kind = record.get("rec", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "records": len(self.records),
            "bytes": len(self._buf),
            "torn_records_dropped": self.torn_records_dropped,
            "restarts": self.restarts,
            "open_requests": self.open_request_count(),
            "by_kind": kinds,
        }

    # -- salvage -----------------------------------------------------------

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        injector=None,
        crash_after_records: Optional[int] = None,
        crash_torn: bool = True,
    ) -> "ServiceWAL":
        """Salvage a WAL from its flushed bytes (:func:`repro.durable.salvage`).

        Never raises: a damaged header yields seed 0, and a torn,
        flipped or invalid record line is dropped and counted, never
        resurrected with altered fields.
        """
        header, records, dropped = durable.salvage(data, WAL_KIND, _valid_record)
        seed = header.get("seed")
        wal = cls(seed=seed if isinstance(seed, int) else 0,
                  injector=injector,
                  crash_after_records=crash_after_records,
                  crash_torn=crash_torn)
        wal.torn_records_dropped = dropped
        wal.records = records
        wal._buf.extend(b"".join(durable.line(record) for record in records))
        wal.restarts = len(wal.by_kind("restart"))
        wal._appended = len(records)
        return wal


__all__ = [
    "RECORD_KINDS",
    "WAL_SITE_KEY",
    "WAL_VERSION",
    "ServiceCrash",
    "ServiceWAL",
]
