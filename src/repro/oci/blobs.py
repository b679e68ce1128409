"""Content-addressed blob storage.

A blob is either raw JSON bytes (configs, manifests) or a :class:`Layer`
object (the simulated tarball).  Both expose digest/size/media-type, so the
store behaves like an OCI blob directory.  A :class:`Blob` is a value: it
takes no other payload (``TypeError``) and freezes the layer it takes
(:meth:`Layer.freeze`), so no holder of a stored blob, a reader of a
resolved image included, can change it in place.

Reads are **verified**: :meth:`BlobStore.get` checks the stored object
against its declared digest with :func:`check_blob` and raises a typed
:class:`repro.integrity.IntegrityError` instead of ever returning
silently wrong bytes.  Corrupt blobs can be quarantined — kept
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

Every :class:`Blob` remembers its :func:`check_blob` verdict and its
:func:`manifest_closure` the first time either is asked for, so each
stored object is hashed and parsed once however often it is checked.
The memo lives on the object, in fixed slots beside the fields (no
per-object dict): a frozen dataclass over immutable bytes or a frozen
layer cannot go stale, and every way a stored blob rots (a corrupting
put or transfer, a repair write, a layout loaded from disk, a direct
replacement) stores a new object, which is hashed afresh.  A copy
(``dataclasses.replace``, :mod:`copy`, a pickle round trip) is a new
object too and carries no memo.  It is the only record that a stored
blob verified: no store, registry or cache keeps a table of verified
digests or objects beside it.  A fact about a stored blob is remembered
on the blob object (:func:`_remembered`; the artifact cache keeps its
salvaged entries there too) or not at all.
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


class _Memos:
    """The slots :func:`_remembered` fills on a :class:`Blob`.

    They are no dataclass fields, so fields, equality, hash, repr and
    copies leave them out; an unset slot is a fact not yet asked for.
    """

    __slots__ = ("_finding", "_closure", "_entries")


@dataclass(frozen=True, slots=True)
class Blob(_Memos):
    """A stored ``bytes`` or frozen :class:`Layer` payload plus its
    descriptor identity.

    It also carries, once asked, the memo of :func:`check_blob`,
    :func:`manifest_closure` and, for an artifact cache, its salvaged
    entries (see the module docstring): a changed payload is always a
    new object.
    """

    media_type: str
    digest: str
    size: int
    payload: Union[bytes, Layer]

    def __post_init__(self) -> None:
        if isinstance(self.payload, Layer):
            self.payload.freeze()
        elif not isinstance(self.payload, bytes):
            raise TypeError(
                f"blob payload must be bytes or a Layer, "
                f"not {type(self.payload).__name__}"
            )

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


def _remembered(blob: Blob, name: str, compute):
    """``compute(blob)``, remembered on *blob* in its slot *name*.

    A blob's payload cannot change under the memo (immutable bytes or a
    frozen layer).  The memo is written past the frozen ``__setattr__``
    into one of the :class:`_Memos` slots, so the dataclass's fields,
    equality and hash are untouched.
    """
    value = getattr(blob, name, _UNSET)
    if value is _UNSET:
        value = compute(blob)
        object.__setattr__(blob, name, value)
    return value


#: What reading a :class:`_Memos` slot that was never written gives.
_UNSET = object()


def check_blob(blob: Blob) -> Optional[IntegrityFinding]:
    """Recompute *blob*'s content identity against its descriptor.

    Layer digests cover entry identities; content types with declared
    digests (e.g. PaddedContent) are not recomputable from serialized
    bytes, so for Layer payloads the stored object itself is verified,
    through :attr:`Layer.digest`.  The first check of a blob object
    computes its verdict (:func:`_rehash`) and remembers it on the
    object; a repeat check reads the blob's ``_finding`` slot, touches
    nothing but the blob object and calls no other function.  Returns
    ``None`` when the blob is intact.
    """
    finding = getattr(blob, "_finding", _UNSET)
    if finding is _UNSET:
        finding = _remembered(blob, "_finding", _rehash)
    return finding


def _rehash(blob: Blob) -> Optional[IntegrityFinding]:
    """*blob*'s verdict: its payload's digest (a layer's entry digest, a
    hash of bytes) and a byte payload's length against the descriptor."""
    payload = blob.payload
    if isinstance(payload, Layer):
        actual = payload.digest
    else:
        actual = digest_bytes(payload)
    if actual != blob.digest:
        return IntegrityFinding(
            digest=blob.digest, kind=KIND_DIGEST_MISMATCH,
            detail=f"content hashes to {actual}",
        )
    if isinstance(payload, bytes) and len(payload) != blob.size:
        return IntegrityFinding(
            digest=blob.digest, kind=KIND_SIZE_MISMATCH,
            detail=f"declared {blob.size} bytes, stored {len(payload)}",
        )
    return None


def manifest_closure(blob: Optional[Blob]) -> Optional[Tuple[str, ...]]:
    """The digests a manifest blob references: itself, its config and its
    layers (:meth:`Manifest.closure`).

    ``None`` when there is no blob or its bytes do not parse as a
    manifest.  The bytes are read as stored, never re-hashed: callers
    that must trust them pass a :meth:`BlobStore.intact` copy.  Each
    blob object is parsed once and the answer remembered on it, as
    :func:`check_blob` remembers its verdict.
    """
    if blob is None:
        return None
    closure = getattr(blob, "_closure", _UNSET)
    if closure is _UNSET:
        closure = _remembered(blob, "_closure", _parse_closure)
    return closure


def _parse_closure(blob: Blob) -> Optional[Tuple[str, ...]]:
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
        #: Check every :meth:`get` with :func:`check_blob`; the integrity
        #: overhead benchmark turns it off on the store its baseline reads.
        self.verify_reads = True
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
        m = self.telemetry.metrics
        m.counter("oci_blob_writes_total").inc()
        if blob.digest in self._blobs:
            m.counter("oci_blob_cache_hits_total").inc()
        else:
            m.counter("oci_blob_cache_misses_total").inc()
            m.counter("oci_blob_bytes_written_total").inc(blob.size)
            m.histogram("oci_blob_size_bytes").observe(blob.size)
        self._blobs[blob.digest] = blob
        m.gauge("oci_blob_store_blobs").set(len(self._blobs))
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
                return desc
        raise IntegrityError(site="blob.write", finding=finding)

    def intact(self, digest: str) -> Optional[Blob]:
        """The stored copy of *digest* when it re-hashes clean, else None
        (absent, quarantined or corrupt).

        Unlike :meth:`get` it arms no ``blob.read`` fault and counts no
        read.  Like it, it runs :func:`check_blob` on the object stored
        now, so an object replaced since the last call is hashed afresh,
        while one already checked answers from its own memo.
        """
        blob = self._blobs.get(digest)
        if blob is None or check_blob(blob) is not None:
            return None
        return blob

    def missing_of(self, digests) -> List[str]:
        """The subset of *digests* not stored :meth:`intact`, sorted.

        The mirror-sync diff uses this to fetch only what a replica
        actually lacks; a blob present but corrupt counts as missing so
        an incremental sync also heals rotten replicas.  Each digest
        costs one map lookup and one :func:`check_blob` of the object
        stored now.
        """
        blobs = self._blobs
        return sorted([d for d in digests
                       if (blob := blobs.get(d)) is None
                       or check_blob(blob) is not None])

    def intact_closures(self, manifests: Iterable[Tuple[str, str]]
                        ) -> Dict[str, Tuple[str, ...]]:
        """``name -> closure`` for each ``(name, manifest digest)`` of
        *manifests* whose manifest is stored :meth:`intact` and parses.

        The mirror-sync health check reads its current references through
        this: a name left out re-opens, as a manifest that is absent,
        quarantined, rotten or unparseable must.  Each manifest costs one
        map lookup, one :func:`check_blob` and one
        :func:`manifest_closure` of the object stored now.
        """
        blobs = self._blobs
        closures: Dict[str, Tuple[str, ...]] = {}
        for name, digest in manifests:
            blob = blobs.get(digest)
            if blob is not None and check_blob(blob) is None:
                closure = manifest_closure(blob)
                if closure is not None:
                    closures[name] = closure
        return closures

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

    def get(self, digest: str) -> Blob:
        """The blob stored as *digest*, checked with :func:`check_blob`
        while :attr:`verify_reads` is on.

        A repeat read of the same object answers from the object's memo;
        a replaced object is checked afresh.  Raises :class:`KeyError`
        when absent and :class:`IntegrityError` when quarantined or
        corrupt.
        """
        self._arm("blob.read", digest)
        finding = self._quarantine_finding(digest)
        if finding is not None:
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
        if self.verify_reads:
            finding = check_blob(blob)
            if finding is not None:
                self.telemetry.metrics.counter(
                    "integrity_corruptions_detected_total").inc()
                self.telemetry.event(
                    "integrity.violation", site="blob.read",
                    digest=digest, kind=finding.kind)
                raise IntegrityError(site="blob.read", finding=finding)
        m = self.telemetry.metrics
        m.counter("oci_blob_reads_total").inc()
        m.counter("oci_blob_bytes_read_total").inc(blob.size)
        return blob

    def try_get(self, digest: str) -> Optional[Blob]:
        """The stored object as it stands, unchecked and unarmed (the
        forensic read; None when absent)."""
        return self._blobs.get(digest)

    def get_layer(self, digest: str) -> Layer:
        return self.get(digest).as_layer()

    def remove(self, digest: str) -> bool:
        """Drop a blob (garbage collection); True if it was present."""
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
        engine can diff them against a good replica.  The entry stands
        until an intact copy of the digest is stored again (a repair, a
        sync's promotion, a re-push); see :meth:`_quarantine_finding`.
        Returns True if the blob was present and is now quarantined.
        """
        blob = self._blobs.pop(digest, None)
        if blob is None:
            return digest in self._quarantine
        if finding is None:
            finding = check_blob(blob) or IntegrityFinding(
                digest=digest, kind=KIND_QUARANTINED, detail="quarantined by caller")
        self._quarantine[digest] = (blob, finding)
        self.telemetry.metrics.counter("integrity_quarantined_total").inc()
        self.telemetry.event("integrity.quarantined", digest=digest, kind=finding.kind)
        return True

    def _quarantine_finding(self, digest: str) -> Optional[IntegrityFinding]:
        """The finding that keeps *digest* quarantined, or None.

        None when it was never quarantined, and when an intact copy has
        been stored since: whatever path healed the digest, :meth:`get`
        serves the intact copy and :meth:`quarantined` no longer lists
        it.  A copy that does not re-hash clean heals nothing.  The
        corrupt copy itself stays in :meth:`quarantined_blob` until
        :meth:`release_quarantine`.
        """
        entry = self._quarantine.get(digest)
        if entry is None or self.intact(digest) is not None:
            return None
        return entry[1]

    def quarantined(self) -> List[IntegrityFinding]:
        """Findings for every digest still quarantined, sorted by digest."""
        findings = map(self._quarantine_finding, sorted(self._quarantine))
        return [finding for finding in findings if finding is not None]

    def quarantined_blob(self, digest: str) -> Optional[Blob]:
        """The corrupt payload itself, for forensics; None if not held."""
        entry = self._quarantine.get(digest)
        return entry[0] if entry else None

    def release_quarantine(self, digest: str) -> bool:
        """Drop a quarantine entry (after a successful repair replaced it)."""
        return self._quarantine.pop(digest, None) is not None

    def verify_integrity(self) -> List[IntegrityFinding]:
        """Check every active blob's identity; returns typed findings.

        Every stored object goes through :func:`check_blob`: one never
        checked is hashed, one already checked answers from its own
        memo.  Quarantined blobs are not re-reported here — they already
        carry their finding (see :meth:`quarantined`).
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
