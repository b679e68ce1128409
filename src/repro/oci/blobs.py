"""Content-addressed blob storage.

A blob is either raw JSON bytes (configs, manifests) or a :class:`Layer`
object (the simulated tarball).  Both expose digest/size/media-type, so the
store behaves like an OCI blob directory.

Reads are **verified**: :meth:`BlobStore.get` re-hashes content against
its declared digest (memoized per digest, invalidated on every write) and
raises a typed :class:`repro.integrity.IntegrityError` instead of ever
returning silently wrong bytes.  Corrupt blobs can be quarantined — kept
for forensics and repair, but unreachable through normal reads — by the
integrity layer (:mod:`repro.integrity.repair`).

This module owns the blob-level integrity rules every store shares:
:meth:`Blob.decode` turns stored bytes into a typed blob,
:meth:`BlobStore.intact` is the one "stored and re-hashes clean" lookup,
:func:`manifest_closure` the one parser from a manifest blob to the
digests it references, :meth:`BlobStore.closure_of` the referenced set
of a store's root manifests, and :meth:`BlobStore.audit` the one store
audit.  Layouts, registries, mirror sync, repair and fsck all go through
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.integrity import (
    KIND_DIGEST_MISMATCH,
    KIND_QUARANTINED,
    KIND_SIZE_MISMATCH,
    IntegrityError,
    IntegrityFinding,
)
from repro.oci import mediatypes
from repro.oci.digest import digest_bytes
from repro.oci.image import Descriptor, Manifest
from repro.oci.layer import Layer
from repro.telemetry import NULL_TELEMETRY

#: Process-wide default for :attr:`BlobStore.verify_reads`; the integrity
#: overhead benchmark flips this to time the unverified baseline.
VERIFY_READS_DEFAULT = True


@dataclass(frozen=True)
class Blob:
    """A stored payload plus its descriptor identity."""

    media_type: str
    digest: str
    size: int
    payload: Union[bytes, Layer]

    @staticmethod
    def from_bytes(data: bytes, media_type: str) -> "Blob":
        return Blob(media_type=media_type, digest=digest_bytes(data), size=len(data), payload=data)

    @staticmethod
    def from_layer(layer: Layer) -> "Blob":
        return Blob(
            media_type=mediatypes.SIM_LAYER,
            digest=layer.digest,
            size=layer.size,
            payload=layer,
        )

    @staticmethod
    def decode(media_type: str, digest: str, data: bytes) -> "Blob":
        """The typed blob that stored *data* declares to be *digest*.

        Simulated layer blobs parse into a :class:`Layer` (and raise
        whatever an unparseable serialization raises); any other media
        type keeps the raw bytes.  Nothing is verified here: the caller
        re-hashes with :func:`check_blob` when it must.
        """
        if media_type == mediatypes.SIM_LAYER:
            layer = Layer.from_bytes(data)
            return Blob(media_type=media_type, digest=digest,
                        size=layer.size, payload=layer)
        return Blob(media_type=media_type, digest=digest,
                    size=len(data), payload=data)

    def descriptor(self) -> Descriptor:
        return Descriptor(self.media_type, self.digest, self.size)

    def as_layer(self) -> Layer:
        if isinstance(self.payload, Layer):
            return self.payload
        return Layer.from_bytes(self.payload)

    def as_bytes(self) -> bytes:
        if isinstance(self.payload, bytes):
            return self.payload
        return self.payload.to_bytes()

    def as_json(self) -> dict:
        return json.loads(self.as_bytes().decode("utf-8"))


def check_blob(blob: Blob) -> Optional[IntegrityFinding]:
    """Recompute *blob*'s content identity against its descriptor.

    Layer digests cover entry identities; content types with declared
    digests (e.g. PaddedContent) are not recomputable from serialized
    bytes, so for Layer payloads the stored object itself is verified.
    Returns ``None`` when the blob is intact.
    """
    if isinstance(blob.payload, Layer):
        actual = blob.payload.digest
        if actual != blob.digest:
            return IntegrityFinding(
                digest=blob.digest, kind=KIND_DIGEST_MISMATCH,
                detail=f"content hashes to {actual}",
            )
        return None
    actual = digest_bytes(blob.payload)
    if actual != blob.digest:
        return IntegrityFinding(
            digest=blob.digest, kind=KIND_DIGEST_MISMATCH,
            detail=f"content hashes to {actual}",
        )
    if len(blob.payload) != blob.size:
        return IntegrityFinding(
            digest=blob.digest, kind=KIND_SIZE_MISMATCH,
            detail=f"declared {blob.size} bytes, stored {len(blob.payload)}",
        )
    return None


def manifest_closure(blob: Optional[Blob]) -> Optional[Tuple[str, ...]]:
    """The digests a manifest blob references: itself, its config and its
    layers (:meth:`Manifest.closure`).

    ``None`` when there is no blob or its bytes do not parse as a
    manifest.  The bytes are read as stored, never re-hashed: callers
    that must trust them pass a :meth:`BlobStore.intact` copy.
    """
    if blob is None:
        return None
    try:
        manifest = Manifest.from_json(blob.as_json())
    except (ValueError, KeyError, TypeError):
        return None
    return manifest.closure(blob.digest)


class BlobStore:
    """Digest-keyed blob map with descriptor-checked retrieval."""

    def __init__(self) -> None:
        self._blobs: Dict[str, Blob] = {}
        #: Optional :class:`repro.resilience.faults.FaultInjector`; armed
        #: *before* any mutation so an injected fault can never leave a
        #: truncated or half-written blob behind.  Corruption faults are
        #: the exception by design: they mutate the payload *during* the
        #: put, modelling silent at-rest corruption.
        self.fault_injector = None
        #: Telemetry sink; counts bytes in/out and content-address cache
        #: hits (a put whose digest is already stored moved zero bytes).
        self.telemetry = NULL_TELEMETRY
        #: Re-hash content on :meth:`get` (memoized per digest).
        self.verify_reads = VERIFY_READS_DEFAULT
        self._verified: set = set()
        self._quarantine: Dict[str, Tuple[Blob, IntegrityFinding]] = {}

    def _arm(self, site: str, key: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.arm(site, key)

    def __len__(self) -> int:
        return len(self._blobs)

    def __contains__(self, digest: str) -> bool:
        return digest in self._blobs

    def digests(self) -> Iterator[str]:
        return iter(sorted(self._blobs))

    def put(self, blob: Blob) -> Descriptor:
        self._arm("blob.write", blob.digest)
        inj = self.fault_injector
        if inj is not None and inj.corrupting("blob.store"):
            data = blob.as_bytes()
            mutated = inj.corrupt("blob.store", blob.digest, data)
            if mutated is not data:
                # Silent at-rest corruption: the descriptor keeps claiming
                # the original digest/size; only the payload is wrong.
                blob = Blob(
                    media_type=blob.media_type,
                    digest=blob.digest,
                    size=blob.size,
                    payload=mutated,
                )
        if self.telemetry.enabled:
            m = self.telemetry.metrics
            m.counter("oci_blob_writes_total").inc()
            if blob.digest in self._blobs:
                m.counter("oci_blob_cache_hits_total").inc()
            else:
                m.counter("oci_blob_cache_misses_total").inc()
                m.counter("oci_blob_bytes_written_total").inc(blob.size)
                m.histogram("oci_blob_size_bytes").observe(blob.size)
        self._blobs[blob.digest] = blob
        self._verified.discard(blob.digest)
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge("oci_blob_store_blobs").set(len(self._blobs))
        return blob.descriptor()

    def put_verified(self, blob: Blob, attempts: int = 3) -> Descriptor:
        """Store *blob* and prove the stored copy re-hashes clean.

        A hostile injector can corrupt the write itself (``blob.store``),
        so promotion paths that must never leave bad bytes behind —
        mirror sync, repair — re-read and re-hash after the put, retrying
        up to *attempts* times before raising a typed
        :class:`IntegrityError` with the surviving finding.
        """
        finding = None
        for _ in range(max(1, attempts)):
            desc = self.put(blob)
            stored = self._blobs.get(blob.digest)
            finding = check_blob(stored) if stored is not None else IntegrityFinding(
                digest=blob.digest, kind=KIND_DIGEST_MISMATCH,
                detail="blob vanished during verified put",
            )
            if finding is None:
                self._verified.add(blob.digest)
                return desc
            self._verified.discard(blob.digest)
        raise IntegrityError(site="blob.write", finding=finding)

    def intact(self, digest: str) -> Optional[Blob]:
        """The stored copy of *digest* when it re-hashes clean, else None
        (absent, quarantined or corrupt).

        Unlike :meth:`get` it neither arms ``blob.read`` nor consults or
        updates the verified-read memo: every call re-hashes.
        """
        blob = self._blobs.get(digest)
        if blob is None or check_blob(blob) is not None:
            return None
        return blob

    def missing_of(self, digests) -> List[str]:
        """The subset of *digests* not stored :meth:`intact`, sorted.

        The mirror-sync diff uses this to fetch only what a replica
        actually lacks; a blob present but corrupt counts as missing so
        an incremental sync also heals rotten replicas.
        """
        return sorted([d for d in digests if self.intact(d) is None])

    def closure_of(self, manifests: Iterable[str]) -> Set[str]:
        """Every digest the *manifests* reference, read as stored.

        Each manifest digest counts itself; a stored manifest that parses
        adds its :func:`manifest_closure`.  Nothing is re-hashed, so a
        rotten manifest's closure is read as it stands, and an absent or
        unparseable one keeps only its own digest: fsck and repair still
        target it, and its closure is reachable again once it is restored.
        """
        refs: Set[str] = set()
        for digest in manifests:
            refs.add(digest)
            refs.update(manifest_closure(self._blobs.get(digest)) or ())
        return refs

    def audit(self, referenced: Set[str]) -> List[str]:
        """Store invariants against the *referenced* digests: no corrupt,
        missing (a quarantined blob counts as missing) or orphaned blobs.

        Returns human-readable problems, empty when healthy.
        """
        problems = [str(f) for f in self.verify_integrity()]
        problems += [f"missing referenced blob {d}"
                     for d in referenced if d not in self._blobs]
        problems += [f"orphaned blob {d}"
                     for d in self.digests() if d not in referenced]
        return problems

    def put_bytes(self, data: bytes, media_type: str) -> Descriptor:
        return self.put(Blob.from_bytes(data, media_type))

    def put_layer(self, layer: Layer) -> Descriptor:
        return self.put(Blob.from_layer(layer))

    def get(self, digest: str, verify: Optional[bool] = None) -> Blob:
        self._arm("blob.read", digest)
        if digest in self._quarantine:
            finding = self._quarantine[digest][1]
            raise IntegrityError(
                site="blob.read",
                digest=digest,
                detail=f"blob is quarantined ({finding.kind}: {finding.detail})",
                finding=finding,
            )
        try:
            blob = self._blobs[digest]
        except KeyError:
            raise KeyError(f"blob not found: {digest}") from None
        if verify is None:
            verify = self.verify_reads
        if verify and digest not in self._verified:
            finding = check_blob(blob)
            if finding is not None:
                if self.telemetry.enabled:
                    self.telemetry.metrics.counter(
                        "integrity_corruptions_detected_total").inc()
                    self.telemetry.event(
                        "integrity.violation", site="blob.read",
                        digest=digest, kind=finding.kind)
                raise IntegrityError(site="blob.read", finding=finding)
            self._verified.add(digest)
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("integrity_verifications_total").inc()
        if self.telemetry.enabled:
            m = self.telemetry.metrics
            m.counter("oci_blob_reads_total").inc()
            m.counter("oci_blob_bytes_read_total").inc(blob.size)
        return blob

    def try_get(self, digest: str) -> Optional[Blob]:
        return self._blobs.get(digest)

    def is_verified(self, digest: str) -> bool:
        """Whether *digest*'s content verified clean since it last changed.

        ``put``/``remove``/``quarantine`` all discard the digest from the
        verified set, so a True here means no re-hash is needed — the basis
        for memoized Merkle re-verification higher up the stack.
        """
        return digest in self._verified

    def get_layer(self, digest: str) -> Layer:
        return self.get(digest).as_layer()

    def remove(self, digest: str) -> bool:
        """Drop a blob (garbage collection); True if it was present."""
        self._verified.discard(digest)
        return self._blobs.pop(digest, None) is not None

    def total_size(self) -> int:
        return sum(blob.size for blob in self._blobs.values())

    # ------------------------------------------------------------------
    # quarantine (corrupt blobs kept for forensics/repair, unreadable)
    # ------------------------------------------------------------------

    def quarantine(self, digest: str, finding: Optional[IntegrityFinding] = None) -> bool:
        """Move a blob out of the readable map into quarantine.

        Quarantined blobs raise :class:`IntegrityError` on :meth:`get`
        but remain inspectable via :meth:`quarantined_blob` so a repair
        engine can diff them against a good replica.  Returns True if
        the blob was present and is now quarantined.
        """
        blob = self._blobs.pop(digest, None)
        if blob is None:
            return digest in self._quarantine
        if finding is None:
            finding = check_blob(blob) or IntegrityFinding(
                digest=digest, kind=KIND_QUARANTINED, detail="quarantined by caller")
        self._verified.discard(digest)
        self._quarantine[digest] = (blob, finding)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("integrity_quarantined_total").inc()
            self.telemetry.event("integrity.quarantined", digest=digest, kind=finding.kind)
        return True

    def quarantined(self) -> List[IntegrityFinding]:
        """Findings for every quarantined blob, sorted by digest."""
        return [self._quarantine[d][1] for d in sorted(self._quarantine)]

    def quarantined_blob(self, digest: str) -> Optional[Blob]:
        """The corrupt payload itself, for forensics; None if not held."""
        entry = self._quarantine.get(digest)
        return entry[0] if entry else None

    def release_quarantine(self, digest: str) -> bool:
        """Drop a quarantine entry (after a successful repair replaced it)."""
        return self._quarantine.pop(digest, None) is not None

    def verify_integrity(self) -> List[IntegrityFinding]:
        """Recompute every active blob's identity; returns typed findings.

        Bypasses the read-verification memo so a sweep always re-hashes.
        Quarantined blobs are not re-reported here — they already carry
        their finding (see :meth:`quarantined`).
        """
        problems: List[IntegrityFinding] = []
        for digest in sorted(self._blobs):
            finding = check_blob(self._blobs[digest])
            if finding is not None:
                problems.append(finding)
        return problems

    def copy_into(self, other: "BlobStore") -> int:
        """Copy all blobs into *other*; returns the number newly added."""
        added = 0
        for digest, blob in self._blobs.items():
            if digest not in other._blobs:
                other._blobs[digest] = blob
                added += 1
        return added
