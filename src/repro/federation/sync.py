"""Manifest-first incremental mirror sync with verify-then-promote.

One :class:`SyncEngine` serves one origin registry and syncs any number
of :class:`~repro.federation.registry.Mirror` replicas.  The protocol,
per sync attempt:

1. **Diff** — compare the origin's ``name:tag -> manifest digest`` map
   (a fault-transparent metadata read) with the mirror's; only changed
   references proceed.  The blob want-list is the referenced closure of
   the changed manifests (:func:`~repro.oci.blobs.manifest_closure`)
   minus whatever the mirror already stores *intact*
   (:meth:`~repro.oci.blobs.BlobStore.intact`) — a blob present but
   rotten counts as missing, so sync also heals replicas.
2. **Stage** — fetch each wanted blob from the origin in fixed-size
   chunks into the mirror's shadow staging area.  Every chunk arms the
   ``transfer.chunk`` fault site (a transient fault aborts the sync
   mid-blob) and may be silently corrupted in flight; each completed
   chunk is recorded in the mirror's :class:`TransferLedger` and the
   ledger flushed, so a resumed sync re-transfers only unfinished or
   unverifiable chunks.
3. **Verify** — re-hash every staged blob against its declared digest.
   A mismatch is localized by re-hashing chunks against the origin's
   chunk plan; only the damaged chunks are discarded from the ledger and
   re-fetched (bounded attempts).  Staged bytes become typed blobs through
   :meth:`~repro.oci.blobs.Blob.decode`.  Changed references are then
   Merkle-verified end to end (manifest → config → layers) against the
   staged + stored blobs (:func:`~repro.oci.layout.resolve_manifest`).
4. **Promote** — write the verified blobs into the mirror's registry
   (post-write re-verified) and only then flip tags.  A torn, crashed,
   or corrupted sync therefore can never make a mirror serve bad bytes:
   until the final metadata flip the mirror keeps serving its previous
   content.

Transfer time is charged to a :class:`SimulatedClock` at a configurable
bandwidth, so chaos sweeps and the federation bench measure sync time
without sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import durable
from repro.federation.ledger import TransferLedger
from repro.integrity import (
    KIND_DIGEST_MISMATCH,
    KIND_UNPARSEABLE,
    IntegrityError,
    IntegrityFinding,
)
from repro.oci.blobs import Blob, check_blob, manifest_closure
from repro.oci.digest import digest_bytes
from repro.oci.layout import resolve_manifest
from repro.resilience.retry import SimulatedClock
from repro.telemetry import NULL_TELEMETRY

#: Default transfer chunk size (bytes).  Small enough that typical layer
#: blobs span several chunks (so mid-blob resume is observable), large
#: enough that ledger flushes stay cheap.
DEFAULT_CHUNK_SIZE = 1 << 16

#: Simulated replication bandwidth (bytes per simulated second).
DEFAULT_BANDWIDTH = 100e6

#: How many times one blob is re-staged when chunks keep arriving (or
#: resting) corrupt before the sync gives up with a typed error.
STAGE_ATTEMPTS = 6


def chunk_spans(size: int, chunk_size: int) -> List[Tuple[int, int, int]]:
    """``(index, offset, length)`` spans covering *size* bytes."""
    if size <= 0:
        return []
    return [
        (index, offset, min(chunk_size, size - offset))
        for index, offset in enumerate(range(0, size, chunk_size))
    ]


@dataclass
class SyncReport:
    """What one sync attempt checked, moved, and promoted."""

    mirror: str
    references_checked: int = 0
    #: Changed references promoted by this attempt (sorted).
    references_promoted: List[str] = field(default_factory=list)
    blobs_needed: int = 0
    blobs_fetched: int = 0
    chunks_total: int = 0
    chunks_fetched: int = 0
    #: Chunks skipped because the ledger + staged bytes already verified.
    chunks_resumed: int = 0
    #: Chunks discarded (in-flight or at-rest corruption) and re-fetched.
    chunks_corrupted: int = 0
    bytes_on_wire: int = 0
    artifact_caches_synced: int = 0
    #: Ledger lines dropped by a salvaged reload before this attempt.
    ledger_lines_dropped: int = 0
    simulated_seconds: float = 0.0
    up_to_date: bool = False

    def to_json(self) -> dict:
        return {
            "mirror": self.mirror,
            "references_checked": self.references_checked,
            "references_promoted": list(self.references_promoted),
            "blobs_needed": self.blobs_needed,
            "blobs_fetched": self.blobs_fetched,
            "chunks_total": self.chunks_total,
            "chunks_fetched": self.chunks_fetched,
            "chunks_resumed": self.chunks_resumed,
            "chunks_corrupted": self.chunks_corrupted,
            "bytes_on_wire": self.bytes_on_wire,
            "artifact_caches_synced": self.artifact_caches_synced,
            "ledger_lines_dropped": self.ledger_lines_dropped,
            "simulated_seconds": self.simulated_seconds,
            "up_to_date": self.up_to_date,
        }


class SyncEngine:
    """Incremental, resumable, verify-then-promote replication engine."""

    def __init__(
        self,
        origin,
        injector=None,
        telemetry=NULL_TELEMETRY,
        clock: Optional[SimulatedClock] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        bandwidth: float = DEFAULT_BANDWIDTH,
    ) -> None:
        self.origin = origin
        self.injector = injector
        self.telemetry = telemetry
        self.clock = clock or SimulatedClock()
        self.chunk_size = max(1, int(chunk_size))
        self.bandwidth = bandwidth

    # ------------------------------------------------------------------

    def _arm(self, site: str, key: str) -> None:
        if self.injector is not None:
            self.injector.arm(site, key)

    def _charge(self, nbytes: int) -> None:
        if self.bandwidth > 0:
            seconds = nbytes / self.bandwidth
            self.clock.sleep(seconds)
            controlplane = self.telemetry.controlplane
            if controlplane is not None:
                # Each chunk's transfer time advances the sampler, so a
                # long sync is observable while it runs, not just after.
                controlplane.advance(seconds)

    # ------------------------------------------------------------------
    # diff
    # ------------------------------------------------------------------

    def plan(self, mirror) -> Tuple[Dict[str, str], Dict[str, str], List[str]]:
        """(changed references, changed artifact caches, wanted blobs).

        Metadata-only: uses the fault-transparent ``manifest_map`` probes
        plus origin blob reads for the changed manifests, so an in-sync
        mirror costs one catalogue diff and zero transfers.
        """
        origin_map = self.origin.manifest_map()
        mirror_map = mirror.registry.manifest_map()
        stored = mirror.registry.blobs
        changed: Dict[str, str] = {}
        for ref, digest in origin_map.items():
            if mirror_map.get(ref) != digest:
                changed[ref] = digest
                continue
            # Tag already current: a purely local health check of the
            # replica's referenced closure (no origin reads, no transfer)
            # re-opens the reference when its manifest is absent, rotten
            # or unparseable, or a closure blob is not intact, so an
            # incremental sync also heals rotten replicas.
            closure = manifest_closure(stored.intact(digest))
            if closure is None or stored.missing_of(closure):
                changed[ref] = digest
        caches: Dict[str, str] = {}
        for repo in self.origin.repositories():
            blob = self.origin.get_artifact_cache(repo)
            if blob is None:
                continue
            ours = mirror.registry.get_artifact_cache(repo)
            if (ours is None or ours.digest != blob.digest
                    or stored.intact(blob.digest) is None):
                caches[repo] = blob.digest
        wanted: set = set(caches.values())
        for digest in changed.values():
            closure = manifest_closure(self.origin.blobs.get(digest))
            if closure is None:
                raise IntegrityError(site="mirror.sync", finding=IntegrityFinding(
                    digest=digest, kind=KIND_UNPARSEABLE,
                    detail="origin manifest does not parse"))
            wanted.update(closure)
        return changed, caches, stored.missing_of(wanted)

    # ------------------------------------------------------------------
    # stage (chunked + resumable)
    # ------------------------------------------------------------------

    def _flush_ledger(self, mirror) -> None:
        """Persist the ledger (``journal.append`` faults model a torn
        flush; damage costs dropped lines, not restarts)."""
        mirror.ledger_bytes = durable.through_site(
            self.injector, f"transfer-ledger:{mirror.name}",
            mirror.ledger.to_bytes())

    def _stage_blob(self, mirror, digest: str, report: SyncReport) -> bytes:
        """Bring one blob fully into the mirror's staging area, verified.

        Returns the verified staged bytes.  Chunks already recorded in
        the ledger whose staged bytes still re-hash clean are skipped
        (resume); everything else is fetched, with corruption localized
        to chunks and bounded re-fetch attempts.
        """
        ledger: TransferLedger = mirror.ledger
        origin_blob = self.origin.blobs.get(digest)
        media_type = origin_blob.media_type
        data = origin_blob.as_bytes()
        size = len(data)
        spans = chunk_spans(size, self.chunk_size)
        report.chunks_total += len(spans)
        buf = mirror.staging.get(digest)
        if buf is None or len(buf) != size:
            buf = bytearray(size)
            mirror.staging[digest] = buf
            ledger.discard_blob(digest)

        resumed_counted = False
        for attempt in range(STAGE_ATTEMPTS):
            recorded = ledger.chunks(digest)
            for index, offset, length in spans:
                entry = recorded.get(index)
                staged = bytes(buf[offset:offset + length])
                if (
                    entry is not None
                    and entry["length"] == length
                    and entry["offset"] == offset
                    and digest_bytes(staged) == entry["digest"]
                ):
                    if not resumed_counted:
                        report.chunks_resumed += 1
                    continue
                key = f"{mirror.name}/{digest}#{index}"
                self._arm("transfer.chunk", key)
                chunk = data[offset:offset + length]
                inj = self.injector
                if inj is not None and inj.corrupting("transfer.chunk"):
                    chunk = inj.corrupt("transfer.chunk", key, chunk)
                buf[offset:offset + length] = chunk
                ledger.record_chunk(
                    digest, index, digest_bytes(chunk),
                    offset=offset, length=length, size=size,
                    chunk_size=self.chunk_size,
                )
                self._flush_ledger(mirror)
                report.chunks_fetched += 1
                report.bytes_on_wire += length
                self._charge(length)
            resumed_counted = True
            staged = bytes(buf)
            try:
                blob = Blob.decode(media_type, digest, staged)
            except Exception:
                blob = None   # unparseable staging == corrupt
            if blob is not None and check_blob(blob) is None:
                return staged
            # Localize the damage: only chunks whose staged bytes differ
            # from the origin's chunk plan re-transfer.
            bad = 0
            for index, offset, length in spans:
                if bytes(buf[offset:offset + length]) != data[offset:offset + length]:
                    ledger.discard_chunk(digest, index)
                    bad += 1
            if bad == 0:   # whole-blob mismatch with no bad chunk: restart blob
                ledger.discard_blob(digest)
                bad = len(spans)
            report.chunks_corrupted += bad
            self._flush_ledger(mirror)
        raise IntegrityError(
            site="mirror.stage",
            finding=IntegrityFinding(
                digest=digest,
                kind=KIND_DIGEST_MISMATCH,
                detail=(
                    f"staged blob kept failing verification after "
                    f"{STAGE_ATTEMPTS} attempts"
                ),
            ),
        )

    # ------------------------------------------------------------------
    # sync = diff + stage + verify + promote
    # ------------------------------------------------------------------

    def sync(self, mirror) -> SyncReport:
        tele = self.telemetry
        if not tele.enabled:
            return self._sync_inner(mirror)
        with tele.span("mirror.sync", mirror=mirror.name) as span:
            try:
                report = self._sync_inner(mirror)
            except Exception:
                tele.metrics.counter("federation_sync_failures_total").inc()
                raise
            span.set("references_promoted", len(report.references_promoted))
            span.set("blobs_fetched", report.blobs_fetched)
            span.set("bytes_on_wire", report.bytes_on_wire)
            m = tele.metrics
            m.counter("federation_syncs_total").inc()
            m.counter("federation_blobs_synced_total").inc(report.blobs_fetched)
            m.counter("federation_chunks_fetched_total").inc(report.chunks_fetched)
            m.counter("federation_chunks_resumed_total").inc(report.chunks_resumed)
            m.counter("federation_chunks_corrupted_total").inc(
                report.chunks_corrupted)
            m.counter("federation_bytes_on_wire_total").inc(report.bytes_on_wire)
            return report

    def _sync_inner(self, mirror) -> SyncReport:
        report = SyncReport(mirror=mirror.name)
        started = self.clock.now
        report.ledger_lines_dropped = mirror.ledger.torn_entries_dropped
        self._arm("mirror.sync", mirror.name)
        changed, caches, wanted = self.plan(mirror)
        report.references_checked = len(self.origin.manifest_map())
        report.blobs_needed = len(wanted)
        if not changed and not caches:
            report.up_to_date = True
            report.simulated_seconds = self.clock.now - started
            return report

        # Stage + verify every wanted blob before touching the registry.
        staged: Dict[str, Blob] = {}
        for digest in wanted:
            data = self._stage_blob(mirror, digest, report)
            media_type = self.origin.blobs.get(digest).media_type
            blob = Blob.decode(media_type, digest, data)
            finding = check_blob(blob)
            if finding is not None:   # defense in depth; staging verified
                raise IntegrityError(site="mirror.stage", finding=finding)
            staged[digest] = blob

        # Merkle-verify each changed reference across staged + stored blobs.
        def blob_of(digest: str) -> Blob:
            if digest in staged:
                return staged[digest]
            return mirror.registry.blobs.get(digest)

        for ref in sorted(changed):
            resolve_manifest(blob_of, changed[ref]).check("mirror.promote")

        # Promote: verified blobs first, then the metadata flips.
        for digest in sorted(staged):
            mirror.registry.blobs.put_verified(staged[digest])
            report.blobs_fetched += 1
        for ref in sorted(changed):
            mirror.registry.tag_manifest(ref, changed[ref])
            report.references_promoted.append(ref)
        for repo in sorted(caches):
            blob = staged[caches[repo]]
            mirror.registry.put_artifact_cache(repo, blob)
            if mirror.registry.blobs.intact(blob.digest) is None:
                # put_artifact_cache's transfer path can be corrupted by
                # the injector; the promotion contract re-verifies.
                mirror.registry.blobs.put_verified(blob)
            report.artifact_caches_synced += 1

        # Staging bookkeeping for promoted blobs is done with.
        for digest in staged:
            mirror.staging.pop(digest, None)
            mirror.ledger.discard_blob(digest)
        self._flush_ledger(mirror)
        mirror.syncs += 1
        mirror.last_sync_seconds = self.clock.now
        report.simulated_seconds = self.clock.now - started
        return report


__all__ = [
    "DEFAULT_BANDWIDTH",
    "DEFAULT_CHUNK_SIZE",
    "STAGE_ATTEMPTS",
    "SyncEngine",
    "SyncReport",
    "chunk_spans",
]
