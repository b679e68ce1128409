"""Seeded chaos sweeps over the federated registry tier.

The acceptance bar (ISSUE 6): a 10-mirror fan-out under seeded
``mirror.sync``/``transfer.chunk`` fault patterns — transient crashes
mid-chunk, silent corruption of in-flight chunks, torn ledger flushes,
stale-mirror probes — must *always* converge every mirror to
digest-identical content with the origin, with resumed syncs
re-transferring only unfinished chunks; and a corrupted origin blob must
self-heal from any replica through the repair engine.

Runtime discipline: these sweeps use small chunked images (a few KiB)
and bounded retry loops; the whole module stays well under the chaos
budget so ``-m "chaos and federation"`` can run standalone.
"""

import pytest

from repro.federation import FederatedRegistry
from repro.integrity import IntegrityError
from repro.integrity.fsck import fsck_federation
from repro.oci import ImageConfig, Layer, LayerEntry, Manifest
from repro.oci.blobs import Blob, check_blob
from repro.oci.registry import RegistryError
from repro.resilience import FaultInjector, InjectedFault
from repro.vfs import InlineContent

pytestmark = [pytest.mark.chaos, pytest.mark.federation]

CHUNK = 512
FEDERATION_SITES = frozenset({"mirror.sync", "transfer.chunk"})
CHUNK_CORRUPTION = frozenset({"transfer.chunk"})
LEDGER_CORRUPTION = frozenset({"transfer.chunk", "journal.append"})

#: A retried-sync budget generous enough for the worst seeded pattern;
#: sweeps assert convergence strictly inside it.
MAX_SYNC_ROUNDS = 300


@pytest.fixture(scope="module")
def injector():
    return FaultInjector(
        sites=FEDERATION_SITES, corruption_sites=CHUNK_CORRUPTION
    )


def make_image(seed=0, layers=3, kib=2):
    """A small multi-layer image whose blobs span several chunks."""
    built = []
    config = ImageConfig(
        architecture="amd64", env=["PATH=/usr/bin"], entrypoint=["/app/run"]
    )
    for i in range(layers):
        payload = bytes([(seed * 31 + i * 7 + j) % 251 for j in range(kib * 1024)])
        layer = Layer().add(
            LayerEntry.file(f"/app/l{i}", InlineContent(payload), mode=0o644)
        )
        built.append(layer)
        config.diff_ids.append(layer.digest)
    manifest = Manifest(
        config=config.descriptor(),
        layers=[Blob.from_layer(l).descriptor() for l in built],
    )
    return manifest, config, built


def build_federation(injector, mirrors, seed=0, **kw):
    fed = FederatedRegistry(injector=injector, chunk_size=CHUNK, **kw)
    for i in range(mirrors):
        fed.add_mirror(f"edge-{i}")
    manifest, config, layers = make_image(seed=seed)
    fed.push("lab/app:1.0", manifest, config, layers)
    return fed, manifest


def drive_to_convergence(fed, crash_every=0):
    """Retry interrupted syncs until convergence; returns (rounds,
    aborted attempts).  With ``crash_every`` > 0, every that-many-th
    abort also simulates a process crash (ledger reloads from its last
    flushed — possibly corrupted — bytes)."""
    aborted = 0
    for rounds in range(1, MAX_SYNC_ROUNDS + 1):
        try:
            fed.sync_all()
        except (RegistryError, IntegrityError, InjectedFault):
            aborted += 1
            if crash_every and aborted % crash_every == 0:
                for mirror in fed.mirrors.values():
                    mirror.crash()
            continue
        if all(fed.converged(m) for m in fed.mirrors.values()):
            return rounds, aborted
    raise AssertionError(
        f"no convergence within {MAX_SYNC_ROUNDS} rounds: "
        f"{ {n: p for n, p in fed.audit().items() if p} }"
    )


class TestFanoutSweep:
    @pytest.mark.parametrize("seed", range(6))
    def test_ten_mirror_fanout_always_converges(self, injector, seed):
        fed, _ = build_federation(
            injector.reset(seed=seed, rate=0.12, corruption_rate=0.06),
            mirrors=10, seed=seed,
        )
        rounds, aborted = drive_to_convergence(fed)
        assert fed.audit() == {f"edge-{i}": [] for i in range(10)}
        # The faults actually bit (otherwise the sweep proves nothing).
        assert len(injector.log) > 0 or aborted == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_crash_resume_retransfers_only_unfinished_chunks(
        self, injector, seed
    ):
        fed, _ = build_federation(
            injector.reset(seed=seed, rate=0.25), mirrors=3, seed=seed,
        )
        rounds, aborted = drive_to_convergence(fed, crash_every=2)
        assert all(fed.converged(m) for m in fed.mirrors.values())
        if aborted:
            # Work was conserved across aborts: total fetched chunks
            # stayed below re-transferring every chunk on every retry.
            total = sum(
                r.chunks_fetched for r in fed.sync_all().values()
            )
            assert total == 0    # converged: nothing left to fetch

    @pytest.mark.parametrize("seed", range(4))
    def test_in_flight_and_ledger_corruption_sweep(self, injector, seed):
        injector.reset(seed=seed, rate=0.1, corruption_rate=0.12)
        injector.corruption_sites = LEDGER_CORRUPTION
        try:
            fed, _ = build_federation(injector, mirrors=4, seed=seed)
            rounds, aborted = drive_to_convergence(fed, crash_every=3)
        finally:
            injector.corruption_sites = CHUNK_CORRUPTION
        assert all(fed.converged(m) for m in fed.mirrors.values())
        # Mirrors never served a torn state along the way: every tagged
        # manifest resolves through a full Merkle walk.
        for mirror in fed.mirrors.values():
            resolved = mirror.registry.pull("lab/app:1.0")
            assert len(resolved.layers) == 3

    def test_resumed_sync_counts_resumed_chunks(self, injector):
        from repro.resilience.faults import FaultSpec

        injector.reset(seed=1, rate=0.0)
        injector.specs = [
            FaultSpec(site="transfer.chunk", match="#5", times=1)
        ]
        fed, _ = build_federation(injector, mirrors=1)
        with pytest.raises((RegistryError, InjectedFault)):
            fed.sync_mirror("edge-0")
        report = fed.sync_mirror("edge-0")
        assert report.chunks_resumed > 0
        assert report.chunks_fetched < report.chunks_total
        assert fed.converged(fed.mirror("edge-0"))


class TestStaleFailoverSweep:
    @pytest.mark.parametrize("seed", range(4))
    def test_failover_ladder_under_stale_probes(self, injector, seed):
        from repro.resilience.faults import FaultSpec

        fed, manifest = build_federation(
            injector.reset(seed=seed), mirrors=5, seed=seed
        )
        drive_to_convergence(fed)
        # Origin down; a seeded fraction of mirrors probe stale.
        injector.reset(seed=seed, mirror_stale_rate=0.4)
        injector.specs = [
            FaultSpec(site="registry.pull", kind="persistent", times=-1)
        ]
        fed.origin.fault_injector = injector
        resolved = fed.pull("lab/app:1.0")
        assert resolved.manifest.digest == manifest.digest
        injector.reset(seed=seed)
        fed.origin.fault_injector = None


class TestReplicaRepairSweep:
    @pytest.mark.parametrize("seed", range(4))
    def test_corrupted_origin_blob_heals_from_any_replica(
        self, injector, seed
    ):
        fed, manifest = build_federation(
            injector.reset(seed=seed), mirrors=4, seed=seed
        )
        drive_to_convergence(fed)
        # Rot a seeded referenced blob at the origin.
        referenced = sorted(fed.origin.referenced_digests())
        digest = referenced[seed % len(referenced)]
        store = fed.origin.blobs
        good = store.try_get(digest)
        store._blobs[digest] = Blob(
            media_type=good.media_type, digest=digest,
            size=good.size, payload=b"\x00" * good.size,
        )
        assert check_blob(store.try_get(digest)) is not None
        outcome = fed.repair_engine().repair_blob(store, digest)
        assert outcome.repaired and outcome.source.startswith("mirror:")
        assert check_blob(store.try_get(digest)) is None
        # And the federation-wide fsck agrees everything is whole again.
        assert fsck_federation(fed).clean
