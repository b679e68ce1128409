"""The service write-ahead log: crash-consistent request accounting.

The :class:`~repro.service.service.AdaptationService` is a long-lived
server, and a long-lived server must survive its own death.  The WAL is
the durability mechanism: every service-level state transition — a
tenant registration, an arrival, an admission (with the shed level it
was granted), a displacement, a dispatch, a circuit-breaker transition,
a shared-cache absorb, a federation mirror sync, an origin failover,
and above all every **terminal status** — is appended as one
self-contained JSONL line *before* the in-memory state is trusted.  A
restart replays the salvaged log against the durable stores (the origin
registry, the mounted tenant layouts) and reconstructs queue order,
token buckets, breaker states and the set of in-flight requests;
in-flight rebuilds then resume through their per-request rebuild
journals, so nothing checkpointed re-executes.

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

Crash simulation: a :class:`ServiceCrash` is raised from inside an
append whose ``service.crash`` fault probe fires — keyed
``wal/<n>/torn`` (half the line lands, the record is lost) and then
``wal/<n>/clean`` (the record lands), where ``n`` is the record's
1-based index in the whole log, salvaged records included — or from a
timeline advance past ``AdaptationService.run(crash_at=T)``.  It
derives from ``BaseException`` on purpose — a simulated process death
must not be absorbed by the service's own ``except Exception``
degradation paths (a real ``kill -9`` does not negotiate with error
handlers).
"""

from __future__ import annotations

from typing import Dict, List

from repro import durable

WAL_KIND = "service-wal"
WAL_VERSION = 1

#: Record kinds the salvage accepts.
RECORD_KINDS = frozenset({
    "tenant", "submit", "admit", "park", "dispatch",
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
            and isinstance(t, (int, float)) and t >= 0
            and isinstance(record.get("request_id", ""), str))


class ServiceWAL:
    """Append-only JSONL log of service state transitions.

    The in-memory :attr:`records` list and the flushed lines move in
    lockstep: :meth:`append` seals and renders the record, (optionally)
    passes the line through the ``journal.append`` corruption site,
    keeps the line that landed, and only then returns — those lines
    *are* the durable artifact a crash leaves behind.  A record's
    rendered line and the landed line are one ``bytes`` object unless
    the corruption site changed it.

    Every kept record is folded into per-kind counts, per-request
    terminal counts and the open-request set as it lands
    (:meth:`_note`), so :meth:`stats`, :meth:`terminal_counts` and
    :meth:`open_request_ids` cost what they return, not the log's
    length.
    """

    def __init__(self, seed: int = 0, injector=None) -> None:
        self.seed = seed
        self.injector = injector
        self.records: List[dict] = []
        #: Lines dropped by the last :meth:`from_bytes` salvage.
        self.torn_records_dropped = 0
        #: Restart records seen (how many crashes this log has survived).
        self.restarts = 0
        self._lines: List[bytes] = []
        self._size = 0
        self._kinds: Dict[str, int] = {}
        self._terminals: Dict[str, int] = {}
        #: Admitted or dispatched request ids with no terminal record, in
        #: first-seen order (a dict as an ordered set).
        self._open: Dict[str, None] = {}
        self._land(durable.header(WAL_KIND, WAL_VERSION, seed=self.seed))

    # -- writing -----------------------------------------------------------

    def _land(self, line: bytes) -> None:
        self._lines.append(line)
        self._size += len(line)

    def _note(self, record: dict) -> None:
        """Keep *record* and fold it into the counts the queries read."""
        self.records.append(record)
        kind = record.get("rec", "?")
        self._kinds[kind] = self._kinds.get(kind, 0) + 1
        rid = record.get("request_id", "")
        if kind == "terminal":
            # A terminal closes its request for good.
            self._terminals[rid] = self._terminals.get(rid, 0) + 1
            self._open.pop(rid, None)
        elif kind in ("admit", "dispatch") and rid and rid not in self._terminals:
            self._open[rid] = None

    def append(self, record: dict) -> dict:
        """Durably append one record (adds ``line_digest``).  A fired
        ``service.crash`` probe flushes a torn or whole line and then
        raises :class:`ServiceCrash`."""
        record = durable.seal(record)
        line = durable.line(record)
        torn = clean = False
        if self.injector is not None:
            n = len(self.records) + 1
            torn = self.injector.probe("service.crash", f"wal/{n}/torn")
            clean = not torn and self.injector.probe(
                "service.crash", f"wal/{n}/clean")
        if torn:
            # A torn write: a prefix of the line reaches the log.
            line = line[: max(1, len(line) // 2)]
        self._land(durable.through_site(self.injector, WAL_SITE_KEY, line))
        if not torn:
            self._note(record)
        if torn or clean:
            raise ServiceCrash(len(self.records), torn=torn)
        return record

    @property
    def flushed_bytes(self) -> bytes:
        """What would be on disk right now (survives a crash)."""
        return b"".join(self._lines)

    def __len__(self) -> int:
        return len(self.records)

    # -- queries -----------------------------------------------------------

    def terminal_counts(self) -> Dict[str, int]:
        """request_id -> number of terminal records (the invariant says
        this is exactly 1 for every admitted request, eventually)."""
        return dict(self._terminals)

    def open_request_ids(self) -> List[str]:
        """Admitted (or dispatched) requests with no terminal record yet
        — the service's recovery exposure ("WAL lag")."""
        return list(self._open)

    def open_request_count(self) -> int:
        return len(self._open)

    def stats(self) -> dict:
        return {
            "records": len(self.records),
            "bytes": self._size,
            "torn_records_dropped": self.torn_records_dropped,
            "restarts": self.restarts,
            "open_requests": len(self._open),
            "by_kind": dict(self._kinds),
        }

    # -- salvage -----------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes, injector=None) -> "ServiceWAL":
        """Salvage a WAL from its flushed bytes (:func:`repro.durable.salvage`).

        Never raises: a damaged header yields seed 0, and a torn,
        flipped or invalid record line is dropped and counted, never
        resurrected with altered fields.
        """
        header, records, dropped = durable.salvage(data, WAL_KIND, _valid_record)
        seed = header.get("seed")
        wal = cls(seed=seed if isinstance(seed, int) else 0, injector=injector)
        wal.torn_records_dropped = dropped
        for record in records:
            wal._land(durable.line(record))
            wal._note(record)
        wal.restarts = wal._kinds.get("restart", 0)
        return wal


__all__ = [
    "RECORD_KINDS",
    "WAL_SITE_KEY",
    "WAL_VERSION",
    "ServiceCrash",
    "ServiceWAL",
]
