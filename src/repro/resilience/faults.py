"""Deterministic fault injection for the system-side pipeline.

A :class:`FaultInjector` is consulted ("armed") at well-known sites of the
rebuild pipeline:

====================  =====================================================
site                  armed by
====================  =====================================================
``registry.push``     :meth:`repro.oci.registry.ImageRegistry.push`
``registry.pull``     :meth:`repro.oci.registry.ImageRegistry.pull`
``blob.read``         :meth:`repro.oci.blobs.BlobStore.get`
``blob.write``        :meth:`repro.oci.blobs.BlobStore.put`
``container.run``     :meth:`repro.containers.engine.ContainerEngine.run`
``rebuild.node``      each compile-node execution in ``coMtainer-rebuild``
``mirror.sync``       :meth:`repro.federation.sync.SyncEngine.sync` (per
                      mirror-sync attempt)
``transfer.chunk``    each chunk of a resumable mirror blob transfer
====================  =====================================================

Faults come in two kinds.  **Transient** faults model network hiccups and
scheduler blips: a key faults for a bounded burst (at most ``max_burst``
consecutive arms) and then succeeds, so any retry policy with more than
``max_burst`` attempts is guaranteed to make progress.  **Persistent**
faults model a genuinely broken compile node or container entrypoint: once
a key turns persistent it fails on every subsequent arm, and recovery must
come from the degradation ladder, not from retrying.

Transfer sites (``registry.*``/``blob.*``) only ever produce transient
faults — a registry that has permanently lost the extended image leaves no
image at all to degrade to, which is outside the paper's fault model (the
extended image *by construction* carries a runnable generic dist image).

A third family models *data* faults rather than operation failures:
**corruption** faults mutate payload bytes flowing through a persistence
site instead of raising.  They are consulted through
:meth:`FaultInjector.corrupt` at four sites —

====================  =====================================================
site                  consulted by
====================  =====================================================
``blob.store``        :meth:`repro.oci.blobs.BlobStore.put`
``registry.transfer`` :meth:`repro.oci.registry.ImageRegistry.push`
``layout.save``       :meth:`repro.oci.layout.OCILayout.save` (per file)
``journal.append``    :func:`repro.durable.through_site` (journal, ledger
                      and WAL flushes)
====================  =====================================================

— in three modes: ``bitflip`` (one flipped bit), ``truncate`` (content
strictly shorter than declared) and ``torn`` (an interrupted write: the
prefix lands, the tail is garbage of the original length).  Corruption is
silent by design; detection is the job of the verified-read layer
(:mod:`repro.integrity`), which re-hashes content against its declared
digest and raises a typed ``IntegrityError``.

A fourth family models *worker* faults: the simulated rebuild fleet
(:mod:`repro.resilience.fleet`) consults :meth:`FaultInjector.worker_event`
once per (worker, group, attempt) at three sites —

====================  =====================================================
site                  meaning
====================  =====================================================
``worker.crash``      the worker dies mid-group; its lease expires
``worker.straggle``   the attempt runs ``STRAGGLE_FACTOR`` times too long
``worker.flaky``      the attempt burns its cost, then fails (a strike)
====================  =====================================================

— with keys like ``w3/<group digest>#<attempt>``.  Worker events never
raise: the fleet owns the recovery semantics (reassignment, speculation,
blacklisting), so the injector only answers "does this attempt misbehave?".
Scripted :class:`FaultSpec` entries are checked first (``kind`` is ignored
for worker sites; ``times < 0`` fires forever), then the seeded per-site
rates (``worker_crash_rate`` etc.).  When every worker rate is zero and no
worker specs exist, a consultation costs no random draw — so existing
seeded sweeps replay identically with the fleet in place.

A fifth family is *probes*: :meth:`FaultInjector.probe` answers
boolean questions that never raise, at two sites —

====================  =====================================================
site                  meaning
====================  =====================================================
``mirror.stale``      this federation failover candidate must be treated
                      as stale (:mod:`repro.federation`)
``service.crash``     the adaptation service dies at this WAL append
                      (keys ``wal/<n>/torn`` then ``wal/<n>/clean``)
====================  =====================================================

Scripted specs fire first (``kind`` ignored, ``times < 0`` forever);
``mirror.stale`` then falls back to the seeded ``mirror_stale_rate``,
while ``service.crash`` fires only from a scripted spec.  An inert site
consumes no random draw.

Everything is derived from a single integer seed through one private
``random.Random`` stream, so a chaos sweep replays identically run to run
as long as the (single-threaded, simulated) pipeline arms the same sites
in the same order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.oci.registry import TransientTransferError
from repro.telemetry import NULL_TELEMETRY

#: Sites that model data transfer; faults here are always transient.
#: ``mirror.sync`` is armed once per mirror-sync attempt and
#: ``transfer.chunk`` once per chunk of a resumable blob transfer
#: (:mod:`repro.federation.sync`), so a fault there models a replication
#: link dropping mid-stream.
TRANSFER_SITES = frozenset({
    "registry.push", "registry.pull", "blob.read", "blob.write",
    "mirror.sync", "transfer.chunk",
})

#: Sites that model execution; faults here may be persistent.
EXEC_SITES = frozenset({"container.run", "rebuild.node"})

ALL_SITES = TRANSFER_SITES | EXEC_SITES

#: Sites where payload bytes can be silently corrupted in flight/at rest.
#: ``transfer.chunk`` corruption mutates one chunk of a resumable mirror
#: sync in flight — the verify-then-promote pass catches it in staging.
CORRUPTION_SITES = frozenset(
    {"blob.store", "registry.transfer", "layout.save", "journal.append",
     "transfer.chunk"}
)

#: The corruption fault family, in seeded-pick order.
CORRUPTION_MODES = ("bitflip", "truncate", "torn")

#: Worker fault family, consulted by the rebuild fleet (never raises).
WORKER_SITES = frozenset({"worker.crash", "worker.straggle", "worker.flaky"})

#: Probe fault family: boolean consultations that never raise.  The
#: federated pull ladder asks ``mirror.stale`` per (mirror, reference)
#: when considering a failover candidate; a fired probe means the mirror
#: must be treated as stale and skipped.  The service WAL asks
#: ``service.crash`` per append; a fired probe is a simulated process
#: death at that record.
PROBE_SITES = frozenset({"mirror.stale", "service.crash"})


class InjectedFault(Exception):
    """Base class for all injector-raised faults."""

    transient = False

    def __init__(self, site: str, key: str, kind: str) -> None:
        super().__init__(f"injected {kind} fault at {site} ({key or '<any>'})")
        self.site = site
        self.key = key
        self.kind = kind


class TransientFault(InjectedFault):
    """A fault that goes away if the operation is retried."""

    transient = True

    def __init__(self, site: str, key: str) -> None:
        super().__init__(site, key, "transient")


class PersistentFault(InjectedFault):
    """A fault that will recur on every retry of the same operation."""

    def __init__(self, site: str, key: str) -> None:
        super().__init__(site, key, "persistent")


class InjectedTransferFault(TransientFault, TransientTransferError):
    """A transient fault at a transfer site, typed so the retry layer can
    classify it through the :class:`RegistryError` hierarchy."""


@dataclass
class FaultSpec:
    """A scripted fault: fire at *site* whenever *match* occurs in the key.

    ``times`` bounds how often a transient spec fires; persistent specs
    fire forever.  Scripted specs are checked before the seeded random
    stream, so tests can target one specific node or reference.
    """

    site: str
    kind: str = "transient"
    match: str = ""
    times: int = 1


@dataclass
class CorruptionSpec:
    """A scripted corruption: mutate bytes at *site* whenever *match*
    occurs in the key.

    ``mode`` is one of :data:`CORRUPTION_MODES`; ``times`` bounds how
    often the spec fires (negative means forever).  Scripted corruptions
    are checked before the seeded random stream, so tests can target one
    specific blob digest or file path.
    """

    site: str
    mode: str = "bitflip"
    match: str = ""
    times: int = 1


@dataclass
class FaultRecord:
    """One fired fault, for post-hoc inspection."""

    site: str
    key: str
    kind: str


def corrupt_payload(data: bytes, mode: str, rng: random.Random) -> bytes:
    """Apply one corruption *mode* to *data*; always returns different bytes.

    ``bitflip`` flips a single seeded bit, ``truncate`` drops a seeded
    number of trailing bytes (strictly shorter, possibly empty), and
    ``torn`` models an interrupted write: the seeded prefix survives, the
    tail of the original length is filler (so declared sizes still match
    but content does not).
    """
    if not data:
        return data
    if mode == "bitflip":
        i = rng.randrange(len(data))
        return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]
    if mode == "truncate":
        return data[: rng.randrange(len(data))]
    if mode == "torn":
        cut = rng.randrange(1, len(data)) if len(data) > 1 else 0
        mutated = data[:cut] + b"\x00" * (len(data) - cut)
        if mutated == data:   # the original tail was already zeros
            mutated = data[:cut] + b"\xff" * (len(data) - cut)
        return mutated
    raise ValueError(f"unknown corruption mode {mode!r}")


class FaultInjector:
    """Seedable, deterministic fault source for the arm sites above."""

    def __init__(
        self,
        seed: int = 0,
        rate: float = 0.0,
        persistent_rate: float = 0.25,
        sites: frozenset = ALL_SITES,
        max_burst: int = 2,
        specs: Optional[List[FaultSpec]] = None,
        corruption_rate: float = 0.0,
        corruption_sites: frozenset = CORRUPTION_SITES,
        corruptions: Optional[List[CorruptionSpec]] = None,
        worker_crash_rate: float = 0.0,
        worker_straggle_rate: float = 0.0,
        worker_flaky_rate: float = 0.0,
        mirror_stale_rate: float = 0.0,
    ) -> None:
        self.seed = seed
        self.rate = rate
        self.persistent_rate = persistent_rate
        self.sites = frozenset(sites)
        self.max_burst = max_burst
        self.specs: List[FaultSpec] = list(specs or [])
        self.corruption_rate = corruption_rate
        self.corruption_sites = frozenset(corruption_sites)
        self.corruptions: List[CorruptionSpec] = list(corruptions or [])
        self.worker_crash_rate = worker_crash_rate
        self.worker_straggle_rate = worker_straggle_rate
        self.worker_flaky_rate = worker_flaky_rate
        self.mirror_stale_rate = mirror_stale_rate
        self.enabled = True
        self.log: List[FaultRecord] = []
        #: Telemetry recorder; fired faults land a ``fault.fired`` event
        #: on whatever span armed the site.
        self.telemetry = NULL_TELEMETRY
        self._rng = random.Random(f"comtainer-faults:{seed}")
        #: (site, key) -> remaining transient failures; 0 means immune.
        self._bursts: Dict[Tuple[str, str], int] = {}
        self._persistent: Set[Tuple[str, str]] = set()
        self._disarmed: Set[str] = set()
        # Snapshots so reset() can restore scripted specs whose remaining
        # `times` counters were consumed by a previous sweep iteration,
        # and the constructed rates for any reset() argument left unset.
        self._initial_specs = [replace(s) for s in self.specs]
        self._initial_corruptions = [replace(c) for c in self.corruptions]
        self._initial_rates = {
            "seed": seed,
            "rate": rate,
            "persistent_rate": persistent_rate,
            "corruption_rate": corruption_rate,
            "worker_crash_rate": worker_crash_rate,
            "worker_straggle_rate": worker_straggle_rate,
            "worker_flaky_rate": worker_flaky_rate,
            "mirror_stale_rate": mirror_stale_rate,
        }

    # ------------------------------------------------------------------

    def _worker_rate(self, site: str) -> float:
        if site == "worker.crash":
            return self.worker_crash_rate
        if site == "worker.straggle":
            return self.worker_straggle_rate
        return self.worker_flaky_rate

    def _fire(self, site: str, key: str, kind: str) -> None:
        self.log.append(FaultRecord(site=site, key=key, kind=kind))
        self.telemetry.event("fault.fired", site=site, key=key, kind=kind)
        self.telemetry.metrics.counter("resilience_faults_fired_total").inc()
        if kind == "persistent":
            raise PersistentFault(site, key)
        if site in TRANSFER_SITES:
            raise InjectedTransferFault(site, key)
        raise TransientFault(site, key)

    def arm(self, site: str, key: str = "") -> None:
        """Raise an :class:`InjectedFault` if this operation should fail."""
        if not self.enabled or site in self._disarmed:
            return
        self.telemetry.event("fault.armed", site=site, key=key)
        for spec in self.specs:
            if spec.site != site or spec.match not in key:
                continue
            if spec.kind == "persistent":
                self._fire(site, key, "persistent")
            if spec.times > 0:
                spec.times -= 1
                self._fire(site, key, "transient")

        ident = (site, key)
        if ident in self._persistent:
            self._fire(site, key, "persistent")
        if ident in self._bursts:
            left = self._bursts[ident]
            if left <= 0:
                return   # burst exhausted: this key is now immune
            self._bursts[ident] = left - 1
            self._fire(site, key, "transient")
        if site not in self.sites or self.rate <= 0.0:
            return
        if self._rng.random() >= self.rate:
            # Sticky: a key that passed its roll stays healthy forever.
            # This bounds the total transient failures of any composite
            # operation (a push touches many blobs) by max_burst * keys,
            # so a sufficiently-provisioned retry policy always finishes.
            self._bursts[ident] = 0
            return
        if site in EXEC_SITES and self._rng.random() < self.persistent_rate:
            self._persistent.add(ident)
            self._fire(site, key, "persistent")
        # Total consecutive transient failures for a key never exceeds
        # max_burst, so retry policies with max_attempts > max_burst always
        # get through eventually.
        self._bursts[ident] = self._rng.randint(1, self.max_burst) - 1
        self._fire(site, key, "transient")

    # ------------------------------------------------------------------
    # worker faults (consulted by the rebuild fleet; never raise)
    # ------------------------------------------------------------------

    def worker_event(self, site: str, key: str = "") -> bool:
        """Should this (worker, group, attempt) misbehave at *site*?

        Unlike :meth:`arm` this never raises — the fleet owns recovery
        (reassignment, speculation, blacklisting); the injector only
        decides.  Scripted specs fire first (their ``kind`` is ignored;
        negative ``times`` fires forever), then the seeded per-site rate.
        An inert site (zero rate, no matching specs) consumes no random
        draw, so pre-fleet seeded sweeps replay identically.
        """
        if site not in WORKER_SITES:
            raise ValueError(f"not a worker fault site: {site!r}")
        if not self.enabled or site in self._disarmed:
            return False
        fired = False
        for spec in self.specs:
            if spec.site != site or spec.match not in key or spec.times == 0:
                continue
            if spec.times > 0:
                spec.times -= 1
            fired = True
            break
        if not fired:
            rate = self._worker_rate(site)
            if rate <= 0.0 or self._rng.random() >= rate:
                return False
        self.log.append(FaultRecord(site=site, key=key, kind="worker"))
        self.telemetry.event("fault.worker", site=site, key=key)
        self.telemetry.metrics.counter("resilience_worker_faults_total").inc()
        return True

    # ------------------------------------------------------------------
    # probe faults (boolean consultations; never raise)
    # ------------------------------------------------------------------

    def probe(self, site: str, key: str = "") -> bool:
        """Should this consultation at *site* report a degraded answer?

        Used by the federated pull ladder (``mirror.stale``): a fired
        probe marks the keyed failover candidate stale, so the pull
        skips it instead of serving outdated bytes; and by the service
        WAL (``service.crash``): a fired probe kills the service at that
        append.  Never raises — the caller owns the consequence.
        Scripted specs fire first (``kind`` ignored; negative ``times``
        fires forever), then, at ``mirror.stale`` only, the seeded
        ``mirror_stale_rate``.  An inert site (zero rate, no matching
        specs) consumes no random draw.
        """
        if site not in PROBE_SITES:
            raise ValueError(f"not a probe fault site: {site!r}")
        if not self.enabled or site in self._disarmed:
            return False
        fired = False
        for spec in self.specs:
            if spec.site != site or spec.match not in key or spec.times == 0:
                continue
            if spec.times > 0:
                spec.times -= 1
            fired = True
            break
        if not fired:
            if site != "mirror.stale" or self.mirror_stale_rate <= 0.0:
                return False
            if self._rng.random() >= self.mirror_stale_rate:
                return False
        self.log.append(FaultRecord(site=site, key=key, kind="probe"))
        self.telemetry.event("fault.probe", site=site, key=key)
        self.telemetry.metrics.counter("resilience_probe_faults_total").inc()
        return True

    # ------------------------------------------------------------------
    # corruption faults (silent data mutation; see repro.integrity)
    # ------------------------------------------------------------------

    def corrupting(self, site: str) -> bool:
        """Cheap precheck: could :meth:`corrupt` ever mutate at *site*?

        Persistence paths call this before serializing payloads, so an
        injector armed only for operation faults costs nothing extra.
        """
        if not self.enabled or site in self._disarmed:
            return False
        if any(spec.site == site and spec.times != 0 for spec in self.corruptions):
            return True
        return self.corruption_rate > 0.0 and site in self.corruption_sites

    def corrupt(self, site: str, key: str, data: bytes) -> bytes:
        """Maybe corrupt payload bytes flowing through *site*.

        Returns *data* itself (same object) when nothing fires, so callers
        can use an identity check to skip re-wrapping.  Fired corruptions
        are recorded in the log as ``corrupt-<mode>`` and never raise —
        silent wrongness is the whole point of the fault family.
        """
        if not self.enabled or not data or site in self._disarmed:
            return data
        mode: Optional[str] = None
        for spec in self.corruptions:
            if spec.site != site or spec.match not in key or spec.times == 0:
                continue
            if spec.times > 0:
                spec.times -= 1
            mode = spec.mode
            break
        if mode is None:
            if (site in self.corruption_sites and self.corruption_rate > 0.0
                    and self._rng.random() < self.corruption_rate):
                mode = CORRUPTION_MODES[self._rng.randrange(len(CORRUPTION_MODES))]
            else:
                return data
        mutated = corrupt_payload(data, mode, self._rng)
        self.log.append(FaultRecord(site=site, key=key, kind=f"corrupt-{mode}"))
        self.telemetry.event("fault.corrupted", site=site, key=key, mode=mode)
        self.telemetry.metrics.counter("resilience_corruptions_injected_total").inc()
        return mutated

    # ------------------------------------------------------------------
    # sweep controls
    # ------------------------------------------------------------------

    def disarm(self, site: str) -> None:
        """Make *site* inert: neither scripted nor seeded faults fire there.

        Chaos sweeps use this to silence one site mid-scenario (e.g. the
        final workload check after a faulty rebuild) without rebuilding
        the injector and without disturbing the seeded stream consumed by
        the still-armed sites.
        """
        self._disarmed.add(site)

    def rearm(self, site: str) -> None:
        """Undo a previous :meth:`disarm`."""
        self._disarmed.discard(site)

    def reset(
        self,
        seed: Optional[int] = None,
        rate: Optional[float] = None,
        persistent_rate: Optional[float] = None,
        corruption_rate: Optional[float] = None,
        worker_crash_rate: Optional[float] = None,
        worker_straggle_rate: Optional[float] = None,
        worker_flaky_rate: Optional[float] = None,
        mirror_stale_rate: Optional[float] = None,
    ) -> "FaultInjector":
        """Return the injector to its constructed state, optionally with
        new rates or a new seed.

        Any rate (or the seed) left unset reverts to its constructed
        value — a shared sweep injector cannot leak one iteration's rates
        into the next.  Restores the scripted spec snapshots (including
        consumed ``times`` counters), reseeds the random stream, and
        clears burst/persistent memory, the fired-fault log, and every
        :meth:`disarm`.  Chaos sweeps call this between iterations
        instead of constructing a fresh injector per (seed, rate) point.
        Returns ``self`` so sweep loops can write
        ``run(injector.reset(seed=s, rate=r))``.
        """
        initial = self._initial_rates
        self.seed = initial["seed"] if seed is None else seed
        self.rate = initial["rate"] if rate is None else rate
        self.persistent_rate = (
            initial["persistent_rate"] if persistent_rate is None
            else persistent_rate
        )
        self.corruption_rate = (
            initial["corruption_rate"] if corruption_rate is None
            else corruption_rate
        )
        self.worker_crash_rate = (
            initial["worker_crash_rate"] if worker_crash_rate is None
            else worker_crash_rate
        )
        self.worker_straggle_rate = (
            initial["worker_straggle_rate"] if worker_straggle_rate is None
            else worker_straggle_rate
        )
        self.worker_flaky_rate = (
            initial["worker_flaky_rate"] if worker_flaky_rate is None
            else worker_flaky_rate
        )
        self.mirror_stale_rate = (
            initial["mirror_stale_rate"] if mirror_stale_rate is None
            else mirror_stale_rate
        )
        self.specs = [replace(s) for s in self._initial_specs]
        self.corruptions = [replace(c) for c in self._initial_corruptions]
        self.enabled = True
        self.log = []
        self._rng = random.Random(f"comtainer-faults:{self.seed}")
        self._bursts = {}
        self._persistent = set()
        self._disarmed = set()
        return self

    # ------------------------------------------------------------------

    def fired(self, site: Optional[str] = None) -> List[FaultRecord]:
        if site is None:
            return list(self.log)
        return [r for r in self.log if r.site == site]

    def summary(self) -> Dict[str, int]:
        """Fired-fault counts per ``site/kind``."""
        out: Dict[str, int] = {}
        for record in self.log:
            label = f"{record.site}/{record.kind}"
            out[label] = out.get(label, 0) + 1
        return out
