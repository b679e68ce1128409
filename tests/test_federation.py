"""Federated registry tier: ledger, sync engine, failover, fsck.

Deterministic unit tests (scripted faults only); the seeded chaos
sweeps live in ``test_federation_chaos.py``.
"""

import pytest

from repro import durable
from repro.federation import (
    DEFAULT_CHUNK_SIZE,
    FederatedRegistry,
    FederationError,
    SyncEngine,
    TransferLedger,
    chunk_spans,
)
from repro.integrity import IntegrityError
from repro.integrity.fsck import fsck_federation
from repro.integrity.repair import RepairEngine
from repro.oci import (
    ImageConfig,
    ImageRegistry,
    Layer,
    LayerEntry,
    Manifest,
)
from repro.oci.blobs import Blob, check_blob
from repro.oci.registry import ImageNotFound, RegistryError
from repro.resilience import CorruptionSpec, FaultInjector, FaultSpec
from repro.vfs import InlineContent

pytestmark = pytest.mark.federation

CHUNK = 1024


def make_image(data=b"payload-", reps=600, path="/app/bin"):
    layer = Layer().add(
        LayerEntry.file(path, InlineContent(data * reps), mode=0o755)
    )
    config = ImageConfig(
        architecture="amd64", env=["PATH=/usr/bin"], entrypoint=[path]
    )
    config.diff_ids.append(layer.digest)
    manifest = Manifest(
        config=config.descriptor(),
        layers=[Blob.from_layer(layer).descriptor()],
    )
    return manifest, config, layer


def make_federation(mirrors=2, injector=None, chunk_size=CHUNK, **kw):
    fed = FederatedRegistry(injector=injector, chunk_size=chunk_size, **kw)
    for i in range(mirrors):
        fed.add_mirror(f"edge-{i}")
    return fed


def sync_until_converged(fed, attempts=200):
    """Retry interrupted syncs (transient faults abort an attempt) until
    every mirror converges; fails the test if the budget runs out."""
    failures = 0
    for _ in range(attempts):
        try:
            fed.sync_all()
        except (RegistryError, IntegrityError, Exception):
            failures += 1
            continue
        if all(fed.converged(m) for m in fed.mirrors.values()):
            return failures
    raise AssertionError(
        f"not converged after {attempts} attempts: {fed.audit()}"
    )


# ---------------------------------------------------------------------------
# chunk plans
# ---------------------------------------------------------------------------

class TestChunkSpans:
    def test_empty(self):
        assert chunk_spans(0, 1024) == []

    def test_exact_multiple(self):
        assert chunk_spans(2048, 1024) == [(0, 0, 1024), (1, 1024, 1024)]

    def test_tail_chunk_short(self):
        spans = chunk_spans(2500, 1024)
        assert spans[-1] == (2, 2048, 452)
        assert sum(length for _, _, length in spans) == 2500

    def test_single_chunk(self):
        assert chunk_spans(10, 1024) == [(0, 0, 10)]


# ---------------------------------------------------------------------------
# transfer ledger
# ---------------------------------------------------------------------------

class TestTransferLedger:
    def _entry(self, ledger, blob="sha256:aa", index=0):
        ledger.record_chunk(
            blob, index, f"sha256:chunk{index}",
            offset=index * 64, length=64, size=640, chunk_size=64,
        )

    def test_record_and_query(self):
        ledger = TransferLedger(mirror="edge-0")
        self._entry(ledger, index=0)
        self._entry(ledger, index=3)
        assert len(ledger) == 2
        assert ledger.blobs() == ["sha256:aa"]
        assert ledger.chunk_digest("sha256:aa", 3) == "sha256:chunk3"
        assert ledger.chunk_digest("sha256:aa", 1) is None

    def test_discard_chunk_and_blob(self):
        ledger = TransferLedger()
        self._entry(ledger, index=0)
        self._entry(ledger, index=1)
        ledger.discard_chunk("sha256:aa", 0)
        assert len(ledger) == 1
        ledger.discard_blob("sha256:aa")
        assert len(ledger) == 0
        assert ledger.blobs() == []

    def test_roundtrip(self):
        ledger = TransferLedger(mirror="edge-7")
        for i in range(5):
            self._entry(ledger, index=i)
        restored = TransferLedger.from_bytes(ledger.to_bytes())
        assert restored.mirror == "edge-7"
        assert restored.torn_entries_dropped == 0
        assert len(restored) == 5
        assert restored.chunks("sha256:aa") == ledger.chunks("sha256:aa")

    def test_torn_line_salvage(self):
        ledger = TransferLedger(mirror="edge-0")
        for i in range(4):
            self._entry(ledger, index=i)
        data = ledger.to_bytes()
        # Tear the serialized form mid-way: the tail lines are lost, the
        # head lines must survive.
        torn = data[: len(data) // 2] + b"\x00" * (len(data) - len(data) // 2)
        restored = TransferLedger.from_bytes(torn)
        assert restored.torn_entries_dropped >= 1
        assert 0 < len(restored) < 4
        for index, entry in restored.chunks("sha256:aa").items():
            assert entry == ledger.chunks("sha256:aa")[index]

    def test_bitflip_costs_one_line(self):
        ledger = TransferLedger(mirror="edge-0")
        for i in range(4):
            self._entry(ledger, index=i)
        data = bytearray(ledger.to_bytes())
        # Flip a bit inside the third chunk line.
        lines = bytes(data).split(b"\n")
        target = lines[3]
        offset = bytes(data).find(target) + len(target) // 2
        data[offset] ^= 0x20
        restored = TransferLedger.from_bytes(bytes(data))
        assert len(restored) >= 3 or restored.torn_entries_dropped >= 1

    def test_invalid_entries_dropped(self):
        # Sealed lines, so each is dropped by the structural check alone.
        bad = b"".join([
            durable.header("transfer-ledger", 2, mirror="m"),
            durable.line(durable.seal(
                {"blob": "sha256:aa", "index": -1, "digest": "d", "offset": 0,
                 "length": 1, "size": 1, "chunk_size": 1})),
            durable.line(durable.seal(
                {"blob": "sha256:aa", "index": 0, "digest": "d", "offset": 9,
                 "length": 4, "size": 8, "chunk_size": 4})),
            b"not json at all\n",
        ])
        restored = TransferLedger.from_bytes(bad)
        assert len(restored) == 0
        assert restored.torn_entries_dropped == 3

    def test_garbage_header(self):
        restored = TransferLedger.from_bytes(b"\xff\xfe garbage")
        assert len(restored) == 0
        assert restored.torn_entries_dropped >= 1


# ---------------------------------------------------------------------------
# sync engine
# ---------------------------------------------------------------------------

class TestSync:
    def test_initial_fanout_converges(self):
        fed = make_federation(mirrors=3)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        reports = fed.sync_all()
        assert all(fed.converged(m) for m in fed.mirrors.values())
        assert fed.audit() == {"edge-0": [], "edge-1": [], "edge-2": []}
        for report in reports.values():
            assert report.references_promoted == ["lab/app:1.0"]
            assert report.blobs_fetched == 3
            assert report.bytes_on_wire > 0

    def test_second_sync_is_free(self):
        fed = make_federation(mirrors=1)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        fed.sync_all()
        report = fed.sync_mirror("edge-0")
        assert report.up_to_date
        assert report.bytes_on_wire == 0
        assert report.chunks_fetched == 0

    def test_incremental_sync_moves_only_the_diff(self):
        fed = make_federation(mirrors=1)
        manifest, config, layer = make_image(reps=3000)
        fed.push("lab/app:1.0", manifest, config, [layer])
        first = fed.sync_mirror("edge-0")
        # One added layer under the same tag: only the new layer, config
        # and manifest move; the bulk of the image (the shared base
        # layer) does not re-transfer.
        _, _, layer2 = make_image(data=b"extra-", reps=20, path="/app/extra")
        config2 = ImageConfig(
            architecture="amd64", env=["PATH=/usr/bin"], entrypoint=["/app/bin"]
        )
        config2.diff_ids.extend([layer.digest, layer2.digest])
        manifest2 = Manifest(
            config=config2.descriptor(),
            layers=[
                Blob.from_layer(layer).descriptor(),
                Blob.from_layer(layer2).descriptor(),
            ],
        )
        fed.push("lab/app:1.0", manifest2, config2, [layer, layer2])
        second = fed.sync_mirror("edge-0")
        assert fed.converged(fed.mirror("edge-0"))
        assert second.bytes_on_wire < first.bytes_on_wire / 5
        assert "lab/app:1.0" in second.references_promoted

    def test_sync_heals_rotten_mirror_blob(self):
        fed = make_federation(mirrors=1)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        fed.sync_all()
        mirror = fed.mirror("edge-0")
        # Rot a replica blob in place, then re-push the same tag on the
        # origin: the diff treats the rotten blob as missing.
        store = mirror.registry.blobs
        digest = manifest.config.digest
        good = store.try_get(digest)
        store._blobs[digest] = Blob(
            media_type=good.media_type, digest=digest,
            size=good.size, payload=b"{}",
        )
        assert not fed.converged(mirror)
        fed.push("lab/app:1.0", manifest, config, [layer])
        fed.sync_mirror("edge-0")
        assert fed.converged(mirror)

    def test_artifact_cache_replicates(self):
        fed = make_federation(mirrors=1)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        cache = Blob.from_bytes(b'{"artifacts": []}', "application/json")
        fed.put_artifact_cache("lab/app", cache)
        report = fed.sync_mirror("edge-0")
        assert report.artifact_caches_synced == 1
        mirror = fed.mirror("edge-0")
        assert mirror.registry.get_artifact_cache("lab/app").digest == cache.digest
        assert fed.converged(mirror)

    def test_generation_tracking(self):
        fed = make_federation(mirrors=2)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        assert fed.generation == 1
        mirror = fed.mirror("edge-0")
        assert fed.generations_behind(mirror) == fed.generation + 1
        fed.sync_mirror("edge-0")
        assert fed.generations_behind(mirror) == 0
        manifest2, config2, layer2 = make_image(data=b"v2-")
        fed.push("lab/app:2.0", manifest2, config2, [layer2])
        assert fed.generations_behind(mirror) == 1

    def test_sim_clock_charges_bandwidth(self):
        fed = make_federation(mirrors=1, bandwidth=1000.0)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        report = fed.sync_mirror("edge-0")
        assert report.simulated_seconds == pytest.approx(
            report.bytes_on_wire / 1000.0
        )

    def test_duplicate_mirror_rejected(self):
        fed = make_federation(mirrors=1)
        with pytest.raises(FederationError):
            fed.add_mirror("edge-0")
        with pytest.raises(FederationError):
            fed.mirror("nope")


class TestResume:
    def _fed_with_crash(self, times=1):
        inj = FaultInjector(
            specs=[FaultSpec(site="transfer.chunk", match="#4", times=times)]
        )
        fed = make_federation(mirrors=1, injector=inj)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        return fed, inj

    def test_resumed_sync_refetches_only_unfinished_chunks(self):
        fed, inj = self._fed_with_crash()
        with pytest.raises(RegistryError):
            fed.sync_mirror("edge-0")
        mirror = fed.mirror("edge-0")
        assert len(mirror.ledger) > 0          # progress survived the abort
        assert mirror.staging                  # staged bytes retained
        report = fed.sync_mirror("edge-0")
        assert fed.converged(mirror)
        assert report.chunks_resumed > 0
        # Resumed chunks were not re-fetched.
        assert report.chunks_fetched == report.chunks_total - report.chunks_resumed

    def test_resume_after_process_crash(self):
        fed, inj = self._fed_with_crash()
        with pytest.raises(RegistryError):
            fed.sync_mirror("edge-0")
        mirror = fed.mirror("edge-0")
        # Hard crash: volatile ledger is lost, the flushed bytes salvage.
        dropped = mirror.crash()
        assert dropped == 0
        assert len(mirror.ledger) > 0
        report = fed.sync_mirror("edge-0")
        assert fed.converged(mirror)
        assert report.chunks_resumed > 0

    def test_resume_with_torn_ledger_still_converges(self):
        fed, inj = self._fed_with_crash()
        with pytest.raises(RegistryError):
            fed.sync_mirror("edge-0")
        mirror = fed.mirror("edge-0")
        data = mirror.ledger_bytes
        mirror.ledger_bytes = data[: len(data) * 2 // 3] + b"\x00" * 8
        mirror.crash()
        report = fed.sync_mirror("edge-0")
        assert fed.converged(mirror)
        assert report.ledger_lines_dropped >= 1

    def test_staged_corruption_refetches_only_bad_chunks(self):
        inj = FaultInjector(
            corruptions=[
                CorruptionSpec(site="transfer.chunk", mode="bitflip", times=2)
            ]
        )
        fed = make_federation(mirrors=1, injector=inj)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        report = fed.sync_mirror("edge-0")
        assert fed.converged(fed.mirror("edge-0"))
        assert report.chunks_corrupted == 2
        # Only the corrupted chunks were re-fetched on the repair pass.
        assert report.chunks_fetched == report.chunks_total + 2


class TestFaultsReachTelemetry:
    def test_every_fault_the_sync_fires_is_recorded(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        inj = FaultInjector(
            seed=1, rate=0.3, corruption_rate=0.15,
            sites=frozenset({"mirror.sync", "transfer.chunk"}),
            corruption_sites=frozenset({"transfer.chunk"}),
        )
        fed = make_federation(mirrors=2, injector=inj, telemetry=telemetry)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        sync_until_converged(fed)
        raised = [r for r in inj.log if r.kind in ("transient", "persistent")]
        corrupted = [r for r in inj.log if r.kind.startswith("corrupt-")]
        assert raised and corrupted
        metrics = telemetry.metrics
        assert metrics.counter("resilience_faults_fired_total").value == len(raised)
        assert (metrics.counter("resilience_corruptions_injected_total").value
                == len(corrupted))
        names = [e.name for e in telemetry.events]
        assert names.count("fault.fired") == len(raised)
        assert names.count("fault.corrupted") == len(corrupted)
        # A federation without a recorder leaves the live one in place.
        make_federation(injector=inj)
        assert inj.telemetry is telemetry


# ---------------------------------------------------------------------------
# failover pulls
# ---------------------------------------------------------------------------

class TestFailover:
    def _synced_fed(self, mirrors=2):
        fed = make_federation(mirrors=mirrors)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        fed.sync_all()
        return fed

    def test_origin_serves_when_healthy(self):
        fed = self._synced_fed()
        resolved = fed.pull("lab/app:1.0")
        assert len(resolved.layers) == 1

    def test_failover_to_mirror_on_origin_fault(self):
        fed = self._synced_fed()
        inj = FaultInjector(
            specs=[FaultSpec(site="registry.pull", kind="persistent")]
        )
        fed.origin.fault_injector = inj
        resolved = fed.pull("lab/app:1.0")
        assert len(resolved.layers) == 1

    def test_not_found_is_authoritative(self):
        fed = self._synced_fed()
        # Even with every mirror healthy, an origin 404 must not fail
        # over: a mirror serving it would serve a stale catalogue.
        with pytest.raises(ImageNotFound):
            fed.pull("lab/app:9.9")

    def test_stale_mirror_skipped(self):
        fed = self._synced_fed(mirrors=2)
        # Push v2 and sync only edge-1: edge-0 is stale for the new tag.
        manifest2, config2, layer2 = make_image(data=b"v2-")
        fed.push("lab/app:2.0", manifest2, config2, [layer2])
        fed.sync_mirror("edge-1")
        inj = FaultInjector(
            specs=[FaultSpec(site="registry.pull", kind="persistent")]
        )
        fed.origin.fault_injector = inj
        resolved = fed.pull("lab/app:2.0")
        assert resolved.manifest.digest == manifest2.digest

    def test_stale_probe_skips_mirror(self):
        fed = self._synced_fed(mirrors=2)
        origin_inj = FaultInjector(
            specs=[FaultSpec(site="registry.pull", kind="persistent")]
        )
        fed.origin.fault_injector = origin_inj
        # The federation-level probe marks edge-0 stale; edge-1 serves.
        fed.injector = FaultInjector(
            specs=[FaultSpec(site="mirror.stale", match="edge-0", times=-1)]
        )
        resolved = fed.pull("lab/app:1.0")
        assert len(resolved.layers) == 1

    def test_all_members_down_raises_federation_error(self):
        fed = self._synced_fed(mirrors=1)
        inj = FaultInjector(
            specs=[FaultSpec(site="registry.pull", kind="persistent", times=-1)]
        )
        fed.origin.fault_injector = inj
        fed.mirror("edge-0").registry.fault_injector = FaultInjector(
            specs=[FaultSpec(site="registry.pull", kind="persistent", times=-1)]
        )
        with pytest.raises(FederationError):
            fed.pull("lab/app:1.0")


# ---------------------------------------------------------------------------
# replica-backed repair + federation fsck
# ---------------------------------------------------------------------------

class TestFederationRepair:
    def _corrupt_origin_layer(self, fed, manifest):
        digest = manifest.layers[0].digest
        store = fed.origin.blobs
        good = store.try_get(digest)
        store._blobs[digest] = Blob(
            media_type=good.media_type, digest=digest,
            size=good.size, payload=b"rotten bytes",
        )
        return digest

    def test_origin_blob_self_heals_from_replica(self):
        fed = make_federation(mirrors=2)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        fed.sync_all()
        digest = self._corrupt_origin_layer(fed, manifest)
        assert check_blob(fed.origin.blobs.try_get(digest)) is not None
        engine = fed.repair_engine()
        outcome = engine.repair_blob(fed.origin.blobs, digest)
        assert outcome.repaired
        assert outcome.source.startswith("mirror:")
        assert check_blob(fed.origin.blobs.try_get(digest)) is None

    def test_add_federation_registers_mirror_sources(self):
        fed = make_federation(mirrors=2)
        engine = RepairEngine().add_federation(fed)
        assert len(engine.sources) == 2
        assert {s.label for s in engine.sources} == {
            "mirror:edge-0", "mirror:edge-1",
        }

    def test_fsck_federation_clean(self):
        fed = make_federation(mirrors=2)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        fed.sync_all()
        report = fsck_federation(fed)
        assert report.clean
        assert report.exit_code == 0
        assert set(report.replicas) == {"edge-0", "edge-1"}

    def test_fsck_federation_flags_divergence(self):
        fed = make_federation(mirrors=2)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        fed.sync_mirror("edge-0")    # edge-1 left behind
        report = fsck_federation(fed)
        assert not report.clean
        assert report.divergences["edge-0"] == []
        assert any(
            "missing reference" in p for p in report.divergences["edge-1"]
        )

    def test_fsck_federation_repairs_origin_from_replicas(self):
        fed = make_federation(mirrors=2)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        fed.sync_all()
        self._corrupt_origin_layer(fed, manifest)
        scan = fsck_federation(fed)
        assert not scan.clean                      # scan-only reports it
        report = fsck_federation(fed, repair=True)
        assert report.clean
        assert any(
            o.source.startswith("mirror:") for o in report.origin.repaired
        )

    def test_fsck_federation_repairs_replica_from_origin(self):
        fed = make_federation(mirrors=1)
        manifest, config, layer = make_image()
        fed.push("lab/app:1.0", manifest, config, [layer])
        fed.sync_all()
        mirror = fed.mirror("edge-0")
        digest = manifest.config.digest
        good = mirror.registry.blobs.try_get(digest)
        mirror.registry.blobs._blobs[digest] = Blob(
            media_type=good.media_type, digest=digest,
            size=good.size, payload=b"{}",
        )
        report = fsck_federation(fed, repair=True)
        assert report.clean
        assert any(
            o.source == "origin" for o in report.replicas["edge-0"].repaired
        )


# ---------------------------------------------------------------------------
# satellite regressions: fault-transparent probes
# ---------------------------------------------------------------------------

class TestFaultTransparentProbes:
    def test_exists_does_not_consume_scripted_pull_fault(self):
        registry = ImageRegistry()
        manifest, config, layer = make_image()
        registry.push("lab/app:1.0", manifest, config, [layer])
        registry.fault_injector = FaultInjector(
            specs=[FaultSpec(site="registry.pull", times=1)]
        )
        # Any number of probes must leave the scripted fault untouched...
        for _ in range(5):
            assert registry.exists("lab/app:1.0")
            assert not registry.exists("lab/app:9.9")
            assert registry.manifest_digest("lab/app:1.0") == manifest.digest
            assert registry.manifest_map() == {"lab/app:1.0": manifest.digest}
        # ...so the real pull still hits it.
        with pytest.raises(RegistryError):
            registry.pull("lab/app:1.0")
        registry.pull("lab/app:1.0")   # transient: gone on retry

    def test_probe_site_validated(self):
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.probe("registry.pull")

    def test_probe_seeded_rate_and_reset(self):
        inj = FaultInjector(seed=7, mirror_stale_rate=1.0)
        assert inj.probe("mirror.stale", "edge-0/ref")
        inj.reset(mirror_stale_rate=0.0)
        assert not inj.probe("mirror.stale", "edge-0/ref")
        inj.reset()   # reverts to the constructed rate
        assert inj.probe("mirror.stale", "edge-0/ref")

    def test_service_crash_fires_once_at_its_key(self):
        inj = FaultInjector(specs=[
            FaultSpec(site="service.crash", match="wal/3/clean")])
        assert not inj.probe("service.crash", "wal/2/clean")
        assert not inj.probe("service.crash", "wal/3/torn")
        assert inj.probe("service.crash", "wal/3/clean")
        assert not inj.probe("service.crash", "wal/3/clean")   # consumed

    def test_service_crash_key_matches_whole_index(self):
        inj = FaultInjector(specs=[
            FaultSpec(site="service.crash", match="wal/1/")])
        assert not inj.probe("service.crash", "wal/12/torn")
        assert not inj.probe("service.crash", "wal/12/clean")
        assert inj.probe("service.crash", "wal/1/torn")

    def test_service_crash_is_never_seeded(self):
        inj = FaultInjector(seed=7, mirror_stale_rate=1.0)
        assert not any(inj.probe("service.crash", f"wal/{n}/torn")
                       for n in range(1, 40))
        assert inj.fired() == []
        assert inj.probe("mirror.stale", "edge-0/ref")

    def test_fired_service_crash_is_observable(self):
        from repro.telemetry import Telemetry

        inj = FaultInjector(specs=[
            FaultSpec(site="service.crash", match="wal/2/torn")])
        inj.telemetry = Telemetry()
        assert inj.probe("service.crash", "wal/2/torn")
        assert inj.summary() == {"service.crash/probe": 1}
        events = [e for e in inj.telemetry.events if e.name == "fault.probe"]
        assert [(e.attributes["site"], e.attributes["key"])
                for e in events] == [("service.crash", "wal/2/torn")]


class TestTagManifest:
    def test_tag_requires_stored_manifest(self):
        registry = ImageRegistry()
        with pytest.raises(RegistryError):
            registry.tag_manifest("lab/app:1.0", "sha256:absent")

    def test_tag_flip(self):
        registry = ImageRegistry()
        manifest, config, layer = make_image()
        registry.push("lab/app:1.0", manifest, config, [layer])
        registry.tag_manifest("lab/app:2.0", manifest.digest)
        assert registry.manifest_digest("lab/app:2.0") == manifest.digest
