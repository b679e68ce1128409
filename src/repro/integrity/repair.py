"""Self-healing for corrupt blobs: quarantine, then restore from a replica.

A corrupt blob is never deleted — it is *quarantined* (kept for
forensics, unreadable through normal paths) and the
:class:`RepairEngine` tries to restore a verified copy from the best
available source, in registration order:

1. a registry replica (the repository still holds the pushed bytes),
2. another layout (e.g. the user-side layout the image was built into),
3. regeneration — re-running the process-model build path to
   reproduce the content from scratch.

Every candidate is re-hashed before it is trusted, and the store's copy
is re-verified after the put (a hostile injector can corrupt the repair
write too; the engine retries a bounded number of times and then gives
up honestly).  Both checks are :meth:`repro.oci.blobs.BlobStore.intact`,
and a replica of either kind (layout or registry) is one
:class:`StoreSource` over its blob store.  When a
:class:`repro.resilience.degrade.ResilienceContext` is supplied, source
fetches and store writes flow through its :class:`RetryPolicy`, so
transient faults during repair are absorbed the same way they are during
transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.telemetry import NULL_TELEMETRY

#: How many times a repair re-writes the store copy when verification of
#: the written blob keeps failing (an injector corrupting every put).
REWRITE_ATTEMPTS = 3


@dataclass
class RepairOutcome:
    """What happened to one digest during a repair pass."""

    digest: str
    repaired: bool
    source: Optional[str] = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "digest": self.digest,
            "repaired": self.repaired,
            "source": self.source,
            "detail": self.detail,
        }


class StoreSource:
    """Repair source backed by a replica's blob store (a layout's or a
    registry's): it supplies only copies that are stored intact."""

    def __init__(self, blobs, label: str) -> None:
        self.blobs = blobs
        self.label = label

    def lookup(self, digest: str):
        return self.blobs.intact(digest)


class RegenerationSource:
    """Repair source that rebuilds content through the process-model path.

    The factory (e.g. a closure over ``build_extended_image``) runs at
    most once, on the first lookup, and must return an ``OCILayout``
    whose blob store holds regenerated content.  Regeneration is the
    slowest and last-resort source, so register it after the replicas.
    """

    def __init__(self, factory: Callable[[], object], label: str = "regenerate") -> None:
        self.factory = factory
        self.label = label
        self._layout = None
        self._failed = False

    def lookup(self, digest: str):
        if self._failed:
            return None
        if self._layout is None:
            try:
                self._layout = self.factory()
            except Exception:
                self._failed = True
                return None
        return self._layout.blobs.intact(digest)


@dataclass
class RepairEngine:
    """Quarantine corrupt blobs and restore verified copies from sources."""

    sources: List[object] = field(default_factory=list)
    telemetry: object = NULL_TELEMETRY

    def add_layout(self, layout, label: str = "layout") -> "RepairEngine":
        self.sources.append(StoreSource(layout.blobs, label=label))
        return self

    def add_registry(self, registry, label: str = "registry") -> "RepairEngine":
        self.sources.append(StoreSource(registry.blobs, label=label))
        return self

    def add_regenerator(self, factory, label: str = "regenerate") -> "RepairEngine":
        self.sources.append(RegenerationSource(factory, label=label))
        return self

    def add_federation(self, federation) -> "RepairEngine":
        """Register every mirror of a
        :class:`~repro.federation.registry.FederatedRegistry` as a repair
        source, freshest replica first — a corrupted origin blob then
        self-heals from whichever mirror still holds a verified copy."""
        self.sources.extend(federation.repair_sources())
        return self

    # ------------------------------------------------------------------

    def repair_blob(self, store, digest: str, ctx=None) -> RepairOutcome:
        """Restore one digest in *store* to a verified state.

        A corrupt copy is quarantined first, then each source is asked
        for a verified candidate; the first candidate that survives a
        post-write re-verification wins.  Healthy blobs are a no-op.
        """
        from repro.oci.blobs import check_blob

        blob = store.try_get(digest)
        if blob is not None:
            finding = check_blob(blob)
            if finding is None:
                return RepairOutcome(digest, repaired=True, detail="already intact")
            store.quarantine(digest, finding)
        for source in self.sources:
            if ctx is not None:
                candidate = ctx.retry(
                    lambda s=source: s.lookup(digest), site="integrity.repair"
                )
            else:
                candidate = source.lookup(digest)
            if candidate is None:
                continue
            for _ in range(REWRITE_ATTEMPTS):
                if ctx is not None:
                    ctx.retry(lambda c=candidate: store.put(c), site="integrity.repair")
                else:
                    store.put(candidate)
                if store.intact(digest) is not None:
                    store.release_quarantine(digest)
                    if self.telemetry.enabled:
                        self.telemetry.metrics.counter("integrity_repairs_total").inc()
                        self.telemetry.event(
                            "integrity.repaired", digest=digest, source=source.label
                        )
                    return RepairOutcome(digest, repaired=True, source=source.label)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("integrity_repair_failures_total").inc()
            self.telemetry.event("integrity.repair_failed", digest=digest)
        return RepairOutcome(
            digest,
            repaired=False,
            detail="no source could supply a verified copy",
        )

    def repair_layout(self, layout, ctx=None) -> List[RepairOutcome]:
        """Repair every corrupt, quarantined-but-referenced, or missing
        referenced blob of *layout*; returns one outcome per target."""
        targets = {f.digest for f in layout.blobs.verify_integrity()}
        referenced = layout.referenced_digests()
        targets.update(
            f.digest for f in layout.blobs.quarantined() if f.digest in referenced
        )
        targets.update(
            d
            for d in referenced
            if d not in layout.blobs and layout.blobs.quarantined_blob(d) is None
        )
        return [
            self.repair_blob(layout.blobs, digest, ctx=ctx)
            for digest in sorted(targets)
        ]


__all__ = [
    "REWRITE_ATTEMPTS",
    "RegenerationSource",
    "RepairEngine",
    "RepairOutcome",
    "StoreSource",
]
