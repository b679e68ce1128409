"""A name:tag image registry (the "repository" box of Figure 1).

Stores manifests by repository name and tag, sharing one blob store, so
user-side push and system-side pull of extended images can be simulated
end to end.

The integrity rules are the ones layouts use: a pull resolves through
:func:`~repro.oci.layout.resolve_manifest` and Merkle-checks the result,
and the referenced set and the audit come from
:meth:`~repro.oci.blobs.BlobStore.closure_of` and
:meth:`~repro.oci.blobs.BlobStore.audit`.  Only the roots differ: a
registry's are its tagged manifests plus its published artifact caches.
"""

from __future__ import annotations

import difflib
from typing import Dict, List, Optional, Tuple

from repro.oci import mediatypes
from repro.oci.blobs import Blob, BlobStore
from repro.oci.image import ImageConfig, Manifest
from repro.oci.layer import Layer
from repro.oci.layout import OCILayout, ResolvedImage, resolve_manifest
from repro.telemetry import NULL_TELEMETRY


class RegistryError(Exception):
    """Base class for registry transfer failures."""


class ImageNotFound(RegistryError, KeyError):
    """The requested reference has no manifest in this registry.

    Subclasses :class:`KeyError` for backwards compatibility with callers
    that guarded ``pull`` with ``except KeyError``.  When the repository
    exists but the tag doesn't, ``suggestion`` holds the nearest existing
    reference (``name:tag``) and the message says so.
    """

    def __init__(self, message: str, suggestion: Optional[str] = None) -> None:
        if suggestion:
            message += f" (did you mean {suggestion!r}?)"
        super().__init__(message)
        self.suggestion = suggestion

    def __str__(self) -> str:   # KeyError would repr() the message
        return Exception.__str__(self)


class TransientTransferError(RegistryError):
    """A transfer failed in a way that is expected to succeed on retry.

    The ``transient`` class attribute is the typed classification signal
    the resilience layer keys on (no string matching).
    """

    transient = True


def parse_reference(reference: str) -> Tuple[str, str]:
    """Split ``repo/name:tag`` into (name, tag); tag defaults to ``latest``."""
    if ":" in reference.rsplit("/", 1)[-1]:
        name, _, tag = reference.rpartition(":")
        return name, tag
    return reference, "latest"


class ImageRegistry:
    """In-memory OCI distribution endpoint."""

    def __init__(self) -> None:
        self.blobs = BlobStore()
        self._manifests: Dict[Tuple[str, str], str] = {}  # (name, tag) -> digest
        #: Shared rebuild artifact caches, one per repository: name -> blob
        #: digest (``application/vnd.comtainer.rebuild-artifacts.v1+json``).
        self._artifact_caches: Dict[str, str] = {}
        #: Optional :class:`repro.resilience.faults.FaultInjector`; armed on
        #: push/pull so chaos tests can exercise transfer failures.
        self.fault_injector = None
        #: Telemetry sink; spans each push/pull and counts transfer bytes.
        self.telemetry = NULL_TELEMETRY
        #: Merkle-walk memo: manifest digest -> every member digest the walk
        #: chained over (manifest, config, layers).  A repeat pull skips the
        #: re-verification only while all members are still verified in the
        #: blob store — put/remove/quarantine invalidate per digest.
        self._merkle_verified: Dict[str, Tuple[str, ...]] = {}

    def _arm(self, site: str, key: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.arm(site, key)

    def repositories(self) -> List[str]:
        return sorted({name for name, _ in self._manifests})

    def tags(self, name: str) -> List[str]:
        return sorted(tag for (n, tag) in self._manifests if n == name)

    def manifest_map(self) -> Dict[str, str]:
        """``name:tag -> manifest digest`` for every tagged manifest.

        A metadata read, not a transfer: like :meth:`exists` it never
        arms the fault injector, so mirror-sync diffing and federation
        audits can enumerate the catalogue without consuming scripted
        faults intended for real pulls.
        """
        return {
            f"{name}:{tag}": digest
            for (name, tag), digest in self._manifests.items()
        }

    def manifest_digest(self, reference: str) -> Optional[str]:
        """Digest the reference's tag points at; None when absent.

        Fault-transparent (see :meth:`exists`).
        """
        return self._manifests.get(parse_reference(reference))

    def tag_manifest(self, reference: str, digest: str) -> None:
        """Point *reference* at an already-stored manifest blob.

        The verify-then-promote step of a mirror sync stages and verifies
        every blob first, then flips tags with this metadata-only write —
        so a torn sync can never leave a tag pointing at bytes the mirror
        does not hold intact.
        """
        if digest not in self.blobs:
            raise RegistryError(
                f"cannot tag {reference!r}: manifest blob {digest} not stored"
            )
        self._manifests[parse_reference(reference)] = digest

    def delete_reference(self, reference: str) -> bool:
        """Untag *reference* (metadata-only; blobs stay for GC/repair).

        Returns True when the tag existed.  Reconciling a demoted origin
        back into a federation as a mirror uses this to drop references
        the fenced epoch never accepted.
        """
        return self._manifests.pop(parse_reference(reference), None) is not None

    def push(
        self,
        reference: str,
        manifest: Manifest,
        config: ImageConfig,
        layers: List[Layer],
    ) -> str:
        name, tag = parse_reference(reference)
        tele = self.telemetry
        if not tele.enabled:
            self._arm("registry.push", reference)
            self._transfer(reference, "config",
                           Blob.from_bytes(config.to_bytes(), mediatypes.IMAGE_CONFIG))
            for layer in layers:
                self._transfer(reference, f"layer/{layer.digest}", Blob.from_layer(layer))
            self._transfer(reference, "manifest",
                           Blob.from_bytes(manifest.to_bytes(), mediatypes.IMAGE_MANIFEST))
            digest = manifest.digest
            self._manifests[(name, tag)] = digest
            return digest
        with tele.span("registry.push", reference=reference) as span:
            self._arm("registry.push", reference)
            config_bytes = config.to_bytes()
            manifest_bytes = manifest.to_bytes()
            self._transfer(reference, "config",
                           Blob.from_bytes(config_bytes, mediatypes.IMAGE_CONFIG))
            for layer in layers:
                self._transfer(reference, f"layer/{layer.digest}", Blob.from_layer(layer))
            self._transfer(reference, "manifest",
                           Blob.from_bytes(manifest_bytes, mediatypes.IMAGE_MANIFEST))
            digest = manifest.digest
            self._manifests[(name, tag)] = digest
            pushed = (len(config_bytes) + len(manifest_bytes)
                      + sum(layer.size for layer in layers))
            span.set("bytes", pushed)
            span.set("layers", len(layers))
            m = tele.metrics
            m.counter("registry_pushes_total").inc()
            m.counter("registry_push_bytes_total").inc(pushed)
            m.gauge("registry_manifests").set(len(self._manifests))
            return digest

    def push_layout(self, reference: str, layout: OCILayout, tag: Optional[str] = None) -> str:
        """Push one tag (default: the reference's tag) from a layout."""
        name, ref_tag = parse_reference(reference)
        source_tag = tag if tag is not None else ref_tag
        resolved = layout.resolve(source_tag)
        return self.push(f"{name}:{ref_tag}", resolved.manifest, resolved.config, resolved.layers)

    def pull(self, reference: str) -> ResolvedImage:
        name, tag = parse_reference(reference)
        tele = self.telemetry
        if not tele.enabled:
            return self._pull_inner(name, tag, reference)
        with tele.span("registry.pull", reference=reference) as span:
            resolved = self._pull_inner(name, tag, reference)
            pulled = (resolved.config.descriptor().size
                      + resolved.manifest.descriptor().size
                      + sum(layer.size for layer in resolved.layers))
            span.set("bytes", pulled)
            span.set("layers", len(resolved.layers))
            m = tele.metrics
            m.counter("registry_pulls_total").inc()
            m.counter("registry_pull_bytes_total").inc(pulled)
            return resolved

    def _transfer(self, reference: str, label: str, blob: Blob) -> None:
        """Store one blob of a push, subject to transfer-corruption faults.

        A fired ``registry.transfer`` corruption keeps the *declared*
        digest/size (that is what the wire protocol claims) but mutates
        the payload, modelling a transfer that went bad undetected.
        """
        inj = self.fault_injector
        if inj is not None and inj.corrupting("registry.transfer"):
            data = blob.as_bytes()
            mutated = inj.corrupt("registry.transfer", f"{reference}#{label}", data)
            if mutated is not data:
                blob = Blob(
                    media_type=blob.media_type,
                    digest=blob.digest,
                    size=blob.size,
                    payload=mutated,
                )
        self.blobs.put(blob)

    def _nearest_tag(self, name: str, tag: str) -> Optional[str]:
        """Nearest existing ``name:tag`` when the repo exists; else None."""
        tags = self.tags(name)
        if not tags:
            return None
        matches = difflib.get_close_matches(tag, tags, n=1, cutoff=0.0)
        return f"{name}:{matches[0]}" if matches else None

    def _pull_inner(self, name: str, tag: str, reference: str) -> ResolvedImage:
        self._arm("registry.pull", reference)
        try:
            digest = self._manifests[(name, tag)]
        except KeyError:
            raise ImageNotFound(
                f"image not found in registry: {reference!r}",
                suggestion=self._nearest_tag(name, tag),
            ) from None
        resolved = resolve_manifest(self.blobs.get, digest)
        if self.blobs.verify_reads:
            # Merkle walk: even content that individually hashed clean must
            # chain manifest -> config -> layers before a pull returns it.
            # Memoized per manifest digest: a repeat pull whose members all
            # still sit verified in the blob store skips the re-hash.
            members = self._merkle_verified.get(digest)
            if members is None or not all(self.blobs.is_verified(d) for d in members):
                resolved.check("registry.pull")
                self._merkle_verified[digest] = resolved.manifest.closure(digest)
                if self.telemetry.enabled:
                    self.telemetry.metrics.counter(
                        "registry_merkle_walks_total").inc()
            elif self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "registry_merkle_memo_hits_total").inc()
        return resolved

    def pull_to_layout(self, reference: str) -> OCILayout:
        _, tag = parse_reference(reference)
        resolved = self.pull(reference)
        layout = OCILayout()
        layout.add_manifest(resolved.manifest, resolved.config, resolved.layers, tag=tag)
        return layout

    def exists(self, reference: str) -> bool:
        """True when the reference's tag is present.

        **Fault-transparent by contract**: an existence probe must never
        arm ``registry.pull`` (or any other injector site).  A probe that
        consumed a scripted fault would skew chaos sweeps — the fault a
        test aimed at the real pull would be eaten by the probe and the
        sweep would silently stop exercising the retry path.  Guarded by
        a regression test; keep any future probe helpers on this side of
        the line.
        """
        return parse_reference(reference) in self._manifests

    # -- shared artifact caches --------------------------------------------

    def put_artifact_cache(self, repository: str, blob: Blob) -> str:
        """Publish a rebuild artifact cache for *repository* (replacing
        any previous one), so other sessions and cluster nodes can warm
        their rebuilds from it."""
        old = self._artifact_caches.get(repository)
        self._transfer(repository, "artifact-cache", blob)
        self._artifact_caches[repository] = blob.digest
        if old is not None and old != blob.digest:
            if old not in self.referenced_digests() and old in self.blobs:
                self.blobs.remove(old)
        m = self.telemetry.metrics
        m.counter("registry_artifact_cache_publishes_total").inc()
        return blob.digest

    def get_artifact_cache(self, repository: str) -> Optional[Blob]:
        digest = self._artifact_caches.get(repository)
        if digest is None:
            return None
        return self.blobs.try_get(digest)

    # -- invariants --------------------------------------------------------

    def referenced_digests(self) -> set:
        """Every blob digest reachable from a tagged manifest or a
        published artifact cache."""
        return set(self._artifact_caches.values()) | self.blobs.closure_of(
            self._manifests.values())

    def audit(self) -> List[str]:
        """Store invariants (:meth:`BlobStore.audit`): no corrupt, missing
        or orphaned blobs.

        Chaos tests assert this stays empty no matter where transfers were
        interrupted — a retried push must never strand partial state.
        """
        return self.blobs.audit(self.referenced_digests())
