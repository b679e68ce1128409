"""Federated registry tier: one origin, N edge mirrors.

The :class:`FederatedRegistry` wraps the existing in-memory
:class:`~repro.oci.registry.ImageRegistry` with a replication topology:

* the **origin** is authoritative — every push lands there and bumps a
  monotonic *generation* counter;
* each :class:`Mirror` is a full :class:`ImageRegistry` of its own with
  a chunk-level :class:`TransferLedger` and a shadow staging area, kept
  convergent by the :class:`~repro.federation.sync.SyncEngine`'s
  manifest-first incremental sync;
* **pulls fail over**: origin first, then mirrors nearest-fresh-first.
  A mirror whose content lags the origin (or whose ``mirror.stale``
  probe fires) is skipped for references it would serve stale;
* **mirrors are repair sources**: every mirror's blob store registers as
  a :class:`~repro.integrity.repair.StoreSource`, so a corrupted origin
  blob self-heals from any replica holding a verified copy.

Staleness is tracked as *generations behind*: the origin's generation at
the mirror's last successful sync versus the origin's generation now.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.federation.failover import FencedWriter, Promotion
from repro.federation.ledger import TransferLedger
from repro.federation.sync import (
    DEFAULT_BANDWIDTH,
    DEFAULT_CHUNK_SIZE,
    SyncEngine,
    SyncReport,
)
from repro.integrity import IntegrityError
from repro.oci.layout import ResolvedImage, replica_divergences
from repro.oci.registry import ImageNotFound, ImageRegistry, RegistryError
from repro.resilience.faults import InjectedFault
from repro.resilience.retry import SimulatedClock
from repro.telemetry import NULL_TELEMETRY


class FederationError(RegistryError):
    """No member of the federation could serve the request."""


class Mirror:
    """One edge replica: registry + transfer ledger + staging shadow area."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.registry = ImageRegistry()
        self.ledger = TransferLedger(mirror=name)
        #: Last flushed serialization of the ledger (what would be on
        #: disk); :meth:`reload_ledger` re-parses it, as a crash would.
        self.ledger_bytes: bytes = self.ledger.to_bytes()
        #: Shadow staging area: blob digest -> partially received bytes.
        #: Nothing here is ever served; promotion copies verified bytes
        #: into :attr:`registry`.
        self.staging: Dict[str, bytearray] = {}
        #: Origin generation captured at the last successful sync;
        #: -1 means never synced.
        self.synced_generation = -1
        self.syncs = 0
        self.last_sync_seconds: Optional[float] = None

    def reload_ledger(self) -> int:
        """Simulate a restart: drop in-memory ledger state and salvage
        the last flushed bytes.  Returns the number of torn/invalid
        lines dropped (those chunks will simply re-transfer)."""
        self.ledger = TransferLedger.from_bytes(self.ledger_bytes, mirror=self.name)
        return self.ledger.torn_entries_dropped

    def crash(self) -> int:
        """Simulate a hard crash mid-sync: staging survives (it is the
        on-disk shadow area) but all volatile state resets and the
        ledger reloads from its last flush."""
        return self.reload_ledger()


@dataclass
class MirrorStatus:
    """One row of ``coMtainer mirror status``."""

    name: str
    generations_behind: int
    references: int
    blobs: int
    ledger_chunks: int
    in_flight_blobs: int
    syncs: int

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "generations_behind": self.generations_behind,
            "references": self.references,
            "blobs": self.blobs,
            "ledger_chunks": self.ledger_chunks,
            "in_flight_blobs": self.in_flight_blobs,
            "syncs": self.syncs,
        }


class FederatedRegistry:
    """Origin + mirrors with incremental sync, failover, and repair."""

    def __init__(
        self,
        origin: Optional[ImageRegistry] = None,
        injector=None,
        telemetry=NULL_TELEMETRY,
        clock: Optional[SimulatedClock] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        bandwidth: float = DEFAULT_BANDWIDTH,
    ) -> None:
        self.origin = origin if origin is not None else ImageRegistry()
        self.injector = injector
        self.telemetry = telemetry
        self.mirrors: Dict[str, Mirror] = {}
        #: Bumped on every origin mutation; mirrors record the generation
        #: they last converged to, giving a staleness measure that does
        #: not depend on wall-clock time.
        self.generation = 0
        #: Fence epoch: bumped on every origin promotion.  Writers hold
        #: :class:`~repro.federation.failover.FencedWriter` handles that
        #: captured this token; a stale handle's writes are rejected —
        #: the split-brain guard against a resurrected old origin.
        self.fence_token = 0
        #: The origin is down (``fail_origin``); pulls skip it and a
        #: failover can promote a mirror in its place.
        self.origin_offline = False
        #: Stale-fence writes rejected since construction.
        self.fenced_rejections = 0
        #: Completed origin promotions.
        self.failovers = 0
        self._demoted: Optional[ImageRegistry] = None
        self._demoted_name: Optional[str] = None
        self.engine = SyncEngine(
            self.origin,
            injector=injector,
            telemetry=telemetry,
            clock=clock,
            chunk_size=chunk_size,
            bandwidth=bandwidth,
        )

    @property
    def clock(self) -> SimulatedClock:
        return self.engine.clock

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def add_mirror(self, name: str) -> Mirror:
        if name in self.mirrors:
            raise FederationError(f"mirror already registered: {name!r}")
        mirror = Mirror(name)
        self.mirrors[name] = mirror
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge("federation_mirrors").set(len(self.mirrors))
        return mirror

    def mirror(self, name: str) -> Mirror:
        try:
            return self.mirrors[name]
        except KeyError:
            raise FederationError(f"no such mirror: {name!r}") from None

    def generations_behind(self, mirror: Mirror) -> int:
        if mirror.synced_generation < 0:
            return self.generation + 1
        return max(0, self.generation - mirror.synced_generation)

    def _freshest_first(self) -> List[Mirror]:
        return sorted(
            self.mirrors.values(),
            key=lambda m: (self.generations_behind(m), m.name),
        )

    # ------------------------------------------------------------------
    # origin writes (bump the generation)
    # ------------------------------------------------------------------

    def push(self, reference, manifest, config, layers) -> str:
        digest = self.origin.push(reference, manifest, config, layers)
        self.generation += 1
        return digest

    def push_layout(self, reference, layout, tag=None) -> str:
        digest = self.origin.push_layout(reference, layout, tag=tag)
        self.generation += 1
        return digest

    def put_artifact_cache(self, repository: str, blob) -> str:
        digest = self.origin.put_artifact_cache(repository, blob)
        self.generation += 1
        return digest

    def record_origin_write(self) -> None:
        """Bump the generation for a write that went to the origin
        registry directly (e.g. the service's resilient transfer, which
        pushes to the origin's :class:`ImageRegistry` without going
        through the federation's wrappers)."""
        self.generation += 1

    # ------------------------------------------------------------------
    # origin failover: fencing, election, promotion
    # ------------------------------------------------------------------

    def fenced_writer(self) -> FencedWriter:
        """Acquire a write handle bound to the current fence epoch."""
        return FencedWriter(self)

    def reject_fenced_write(self, stale_token: int) -> None:
        """Account one stale-fence write (called by the fence check)."""
        self.fenced_rejections += 1
        if self.telemetry.enabled:
            self.telemetry.event(
                "federation.fenced_write_rejected",
                stale_token=stale_token, current_token=self.fence_token,
            )
            self.telemetry.metrics.counter(
                "federation_fenced_writes_rejected_total").inc()

    def fail_origin(self) -> None:
        """Mark the origin down: pulls skip it, a failover may promote."""
        if self.origin_offline:
            return
        self.origin_offline = True
        if self.telemetry.enabled:
            self.telemetry.event("federation.origin_failed",
                                 generation=self.generation)

    def electable(self) -> List[Mirror]:
        """Mirrors eligible to become origin, deterministically ordered:
        locally intact (clean registry audit), no in-flight sync (empty
        ledger and staging — staged-but-unverified bytes must never be
        served as origin truth), freshest ``synced_generation`` first,
        ties broken by name."""
        candidates = [
            m for m in self.mirrors.values()
            if not m.registry.audit() and not len(m.ledger) and not m.staging
            and m.synced_generation >= 0
        ]
        return sorted(candidates, key=lambda m: (-m.synced_generation, m.name))

    def promote(self, name: Optional[str] = None) -> Promotion:
        """Promote a mirror to origin under a new fence epoch.

        With no *name* the freshest electable mirror wins.  The old
        origin is kept aside (see :meth:`rejoin_demoted`); its unsynced
        generations are gone — by definition no surviving replica holds
        them.  Every pre-failover :class:`FencedWriter` handle is now
        stale and will be rejected on first write.
        """
        notes: List[str] = []
        if name is None:
            ranked = self.electable()
            if not ranked:
                raise FederationError(
                    "no electable mirror: need a converged, intact replica "
                    "with no in-flight sync"
                )
            winner = ranked[0]
            notes.extend(
                f"runner-up {m.name} at generation {m.synced_generation}"
                for m in ranked[1:]
            )
        else:
            winner = self.mirror(name)
            if winner.registry.audit():
                raise FederationError(
                    f"mirror {name!r} fails its local audit; refusing to "
                    f"promote damaged bytes to origin"
                )
            if len(winner.ledger) or winner.staging:
                raise FederationError(
                    f"mirror {name!r} has an in-flight sync; refusing to "
                    f"promote unverified staged bytes to origin"
                )
        del self.mirrors[winner.name]
        self._demoted = self.origin
        self._demoted_name = f"demoted-origin-{self.fence_token}"
        self.origin = winner.registry
        self.engine.origin = winner.registry
        self.fence_token += 1
        self.origin_offline = False
        self.failovers += 1
        # The promoted origin's truth starts at what it had converged to;
        # peers at most that fresh re-sync against it.
        self.generation = max(0, winner.synced_generation)
        for mirror in self.mirrors.values():
            mirror.synced_generation = min(
                mirror.synced_generation, self.generation)
        promotion = Promotion(
            elected=winner.name, fence_token=self.fence_token,
            generation=self.generation, demoted=self._demoted_name,
            notes=notes,
        )
        if self.telemetry.enabled:
            self.telemetry.event(
                "federation.promoted", elected=winner.name,
                fence_token=self.fence_token, generation=self.generation,
            )
            self.telemetry.metrics.counter("federation_failovers_total").inc()
            self.telemetry.metrics.gauge("federation_fence_token").set(
                float(self.fence_token))
            self.telemetry.metrics.gauge("federation_mirrors").set(
                len(self.mirrors))
        return promotion

    def fail_over(self, name: Optional[str] = None) -> Promotion:
        """Origin-down path in one step: fence + elect + promote."""
        self.fail_origin()
        return self.promote(name)

    def rejoin_demoted(self, ctx=None) -> Optional[SyncReport]:
        """Reconcile the demoted origin back in as a mirror.

        References the fenced epoch never accepted (writes that only the
        old origin saw) are untagged first, then the regular
        :class:`SyncEngine` converges it like any other replica.  Returns
        the sync report, or None when there is nothing to rejoin.
        """
        if self._demoted is None or self._demoted_name is None:
            return None
        registry, name = self._demoted, self._demoted_name
        self._demoted = None
        self._demoted_name = None
        current = set(self.origin.manifest_map())
        for ref in sorted(set(registry.manifest_map()) - current):
            registry.delete_reference(ref)
        mirror = self.add_mirror(name)
        mirror.registry = registry
        report = self.sync_mirror(name, ctx=ctx)
        if self.telemetry.enabled:
            self.telemetry.event("federation.demoted_rejoined", mirror=name)
        return report

    # ------------------------------------------------------------------
    # sync
    # ------------------------------------------------------------------

    def sync_mirror(self, name: str, ctx=None) -> SyncReport:
        """Sync one mirror; with a :class:`ResilienceContext` the whole
        attempt retries under the ``mirror.sync`` site (the ledger makes
        retried attempts cheap — only unfinished chunks re-transfer)."""
        mirror = self.mirror(name)
        target_generation = self.generation
        if ctx is not None:
            report = ctx.retry(
                lambda: self.engine.sync(mirror), site="mirror.sync"
            )
        else:
            report = self.engine.sync(mirror)
        mirror.synced_generation = max(mirror.synced_generation, target_generation)
        if self.telemetry.enabled:
            self.telemetry.metrics.gauge(
                "federation_max_generations_behind"
            ).set(max(
                (self.generations_behind(m) for m in self.mirrors.values()),
                default=0,
            ))
        return report

    def sync_all(self, ctx=None) -> Dict[str, SyncReport]:
        return {
            name: self.sync_mirror(name, ctx=ctx)
            for name in sorted(self.mirrors)
        }

    # ------------------------------------------------------------------
    # reads: origin -> nearest-fresh-mirror failover
    # ------------------------------------------------------------------

    def pull(self, reference: str) -> ResolvedImage:
        """Pull with failover.

        The origin is authoritative: an :class:`ImageNotFound` from it is
        final (a mirror serving the tag would be serving a deleted or
        never-pushed reference).  Transfer and integrity failures fail
        over to mirrors, freshest first; a mirror is skipped when it does
        not hold the tag at the origin's digest (stale) or when its
        ``mirror.stale`` probe fires (simulating a replica whose
        metadata view lags its own content).
        """
        tele = self.telemetry
        errors: List[str] = []
        if self.origin_offline:
            # A failed, not-yet-promoted origin serves nothing and its
            # metadata cannot be trusted as the freshness bar; mirrors
            # serve by existence until a promotion restores authority.
            expected = None
            errors.append("origin: offline")
        else:
            expected = self.origin.manifest_digest(reference)
            try:
                return self.origin.pull(reference)
            except ImageNotFound:
                raise
            except (RegistryError, IntegrityError, InjectedFault) as exc:
                errors.append(f"origin: {exc}")
        for mirror in self._freshest_first():
            if expected is not None:
                if mirror.registry.manifest_digest(reference) != expected:
                    errors.append(f"{mirror.name}: stale or missing reference")
                    continue
            elif not mirror.registry.exists(reference):
                errors.append(f"{mirror.name}: reference not replicated")
                continue
            inj = self.injector
            if inj is not None and inj.probe(
                "mirror.stale", f"{mirror.name}/{reference}"
            ):
                errors.append(f"{mirror.name}: stale probe fired")
                if tele.enabled:
                    tele.metrics.counter("federation_stale_skips_total").inc()
                continue
            try:
                resolved = mirror.registry.pull(reference)
            except (RegistryError, IntegrityError, InjectedFault) as exc:
                errors.append(f"{mirror.name}: {exc}")
                continue
            if tele.enabled:
                tele.metrics.counter("federation_failover_pulls_total").inc()
                tele.event(
                    "federation.failover", reference=reference,
                    served_by=mirror.name,
                )
            return resolved
        raise FederationError(
            f"no federation member could serve {reference!r}: "
            + "; ".join(errors)
        )

    # ------------------------------------------------------------------
    # repair integration
    # ------------------------------------------------------------------

    def repair_sources(self) -> List:
        """Mirrors' blob stores as :class:`StoreSource`s, freshest first,
        so the repair engine restores corrupted origin blobs from the
        nearest-fresh replica holding a verified copy."""
        from repro.integrity.repair import StoreSource

        return [
            StoreSource(m.registry.blobs, label=f"mirror:{m.name}")
            for m in self._freshest_first()
        ]

    def repair_engine(self, telemetry=None):
        from repro.integrity.repair import RepairEngine

        engine = RepairEngine(
            telemetry=telemetry if telemetry is not None else self.telemetry
        )
        engine.sources.extend(self.repair_sources())
        return engine

    # ------------------------------------------------------------------
    # convergence / audit
    # ------------------------------------------------------------------

    def converged(self, mirror: Mirror) -> bool:
        """True when *mirror* is digest-identical to the origin: same
        catalogue, same artifact caches, every referenced blob stored
        byte-equal."""
        return not self.divergences(mirror)

    def divergences(self, mirror: Mirror) -> List[str]:
        """Human-readable divergences of one mirror from the origin: the
        shared :func:`~repro.oci.layout.replica_divergences` report, with
        the artifact-cache check between its reference and blob lines."""
        refs, blobs = replica_divergences(self.origin, mirror.registry, "mirror")
        for repo in self.origin.repositories():
            blob = self.origin.get_artifact_cache(repo)
            if blob is None:
                continue
            theirs = mirror.registry.get_artifact_cache(repo)
            if theirs is None or theirs.digest != blob.digest:
                refs.append(f"divergent artifact cache for {repo}")
        return refs + blobs

    def audit(self) -> Dict[str, List[str]]:
        """Replica-divergence audit: mirror name -> problems (the
        federation half of ``coMtainer fsck --federation``)."""
        return {
            name: self.divergences(self.mirrors[name])
            for name in sorted(self.mirrors)
        }

    def status_rows(self) -> List[MirrorStatus]:
        rows = []
        for name in sorted(self.mirrors):
            mirror = self.mirrors[name]
            rows.append(
                MirrorStatus(
                    name=name,
                    generations_behind=self.generations_behind(mirror),
                    references=len(mirror.registry.manifest_map()),
                    blobs=len(mirror.registry.blobs),
                    ledger_chunks=len(mirror.ledger),
                    in_flight_blobs=len(mirror.staging),
                    syncs=mirror.syncs,
                )
            )
        return rows


__all__ = [
    "FederatedRegistry",
    "FederationError",
    "Mirror",
    "MirrorStatus",
]
