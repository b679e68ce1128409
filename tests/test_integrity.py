"""Unit tests for the integrity layer: corruption faults, verified reads,
quarantine + repair, crash-consistent persistence, and fsck."""

import base64
import dataclasses
import hashlib
import json
import os
import random

import pytest

from repro import durable
from repro.integrity import (
    KIND_CHECKSUM_MISMATCH,
    KIND_DIGEST_MISMATCH,
    KIND_UNPARSEABLE,
    IntegrityError,
    IntegrityFinding,
    find_integrity_error,
)
from repro.integrity.fsck import fsck_directory, fsck_layout
from repro.integrity.repair import RepairEngine
from repro.oci import (
    ImageConfig,
    ImageRegistry,
    Layer,
    LayerEntry,
    Manifest,
    OCILayout,
    mediatypes,
)
from repro.oci.blobs import Blob, BlobStore, check_blob
from repro.oci.digest import digest_bytes
from repro.oci.layout import CHECKSUM_MANIFEST
from repro.oci.registry import ImageNotFound
from repro.resilience import (
    CORRUPTION_MODES,
    CorruptionSpec,
    FaultInjector,
    RebuildJournal,
    corrupt_payload,
)
from repro.resilience.journal import _parse_journal
from repro.toolchain.artifacts import PaddedContent
from repro.vfs import InlineContent


def _make_image(tag_data=b"payload"):
    layer = Layer().add(LayerEntry.file("/app/bin", InlineContent(tag_data), mode=0o755))
    config = ImageConfig(architecture="amd64", env=["PATH=/usr/bin"], entrypoint=["/app/bin"])
    config.diff_ids.append(layer.digest)
    manifest = Manifest(config=config.descriptor(), layers=[Blob.from_layer(layer).descriptor()])
    return manifest, config, layer


def _spy_rehash(monkeypatch):
    """Record the digest of every stored-bytes hash (``blobs._rehash``
    runs once per object whose verdict is not yet remembered)."""
    from repro.oci import blobs as blobs_mod

    hashed = []
    real = blobs_mod._rehash
    monkeypatch.setattr(blobs_mod, "_rehash",
                        lambda blob: (hashed.append(blob.digest), real(blob))[1])
    return hashed


def _make_layout(tag="app:latest", tag_data=b"payload"):
    layout = OCILayout()
    manifest, config, layer = _make_image(tag_data)
    layout.add_manifest(manifest, config, [layer], tag=tag)
    return layout, manifest, config, layer


class TestCorruptPayload:
    def test_deterministic_per_seed(self):
        data = bytes(range(256)) * 4
        for mode in CORRUPTION_MODES:
            a = corrupt_payload(data, mode, random.Random(7))
            b = corrupt_payload(data, mode, random.Random(7))
            assert a == b
            assert a != data

    def test_bitflip_changes_exactly_one_bit(self):
        data = b"\x00" * 64
        mutated = corrupt_payload(data, "bitflip", random.Random(1))
        assert len(mutated) == len(data)
        diff = [a ^ b for a, b in zip(data, mutated) if a != b]
        assert len(diff) == 1
        assert bin(diff[0]).count("1") == 1

    def test_truncate_is_strictly_shorter(self):
        data = b"x" * 100
        for seed in range(20):
            mutated = corrupt_payload(data, "truncate", random.Random(seed))
            assert len(mutated) < len(data)

    def test_torn_keeps_length_but_not_content(self):
        data = bytes(range(1, 101))
        for seed in range(20):
            mutated = corrupt_payload(data, "torn", random.Random(seed))
            assert len(mutated) == len(data)
            assert mutated != data

    def test_torn_differs_even_on_zero_tail(self):
        data = b"ab" + b"\x00" * 50
        mutated = corrupt_payload(data, "torn", random.Random(0))
        assert mutated != data

    def test_empty_payload_untouched(self):
        assert corrupt_payload(b"", "bitflip", random.Random(0)) == b""

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            corrupt_payload(b"x", "gamma-ray", random.Random(0))


class TestVerifiedReads:
    def test_corrupted_put_detected_on_get(self):
        store = BlobStore()
        store.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="blob.store", mode="bitflip")]
        )
        desc = store.put_bytes(b'{"k": "v"}', mediatypes.IMAGE_CONFIG)
        with pytest.raises(IntegrityError) as exc_info:
            store.get(desc.digest)
        err = exc_info.value
        assert err.site == "blob.read"
        assert err.digest == desc.digest
        assert err.finding.kind == KIND_DIGEST_MISMATCH
        assert not err.transient

    def test_truncation_detected(self):
        store = BlobStore()
        store.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="blob.store", mode="truncate")]
        )
        desc = store.put_bytes(b"payload-bytes", mediatypes.IMAGE_CONFIG)
        with pytest.raises(IntegrityError):
            store.get(desc.digest)

    def test_verify_false_returns_corrupt_bytes(self):
        """The forensic read returns whatever landed — the escape hatch
        the repair/forensics paths rely on — while ``get`` refuses it."""
        store = BlobStore()
        store.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="blob.store", mode="bitflip")]
        )
        desc = store.put_bytes(b"payload-bytes", mediatypes.IMAGE_CONFIG)
        blob = store.try_get(desc.digest)
        assert blob.as_bytes() != b"payload-bytes"
        with pytest.raises(IntegrityError):
            store.get(desc.digest)

    def test_verification_memoized_until_rewrite(self, monkeypatch):
        hashed = _spy_rehash(monkeypatch)
        store = BlobStore()
        desc = store.put_bytes(b"clean", mediatypes.IMAGE_CONFIG)
        for _ in range(3):
            store.get(desc.digest)
        assert hashed == [desc.digest]      # one object, hashed once
        store.put_bytes(b"clean", mediatypes.IMAGE_CONFIG)
        for _ in range(3):
            store.get(desc.digest)
        assert hashed == [desc.digest] * 2  # the rewrite is a new object

    def test_an_object_replaced_after_a_clean_read_fails_the_next_read(self):
        store = BlobStore()
        desc = store.put_bytes(b"clean", mediatypes.IMAGE_CONFIG)
        good = store.get(desc.digest)
        store._blobs[desc.digest] = dataclasses.replace(good, payload=b"rotten")
        with pytest.raises(IntegrityError) as exc_info:
            store.get(desc.digest)
        assert exc_info.value.finding.kind == KIND_DIGEST_MISMATCH
        store._blobs[desc.digest] = good
        assert store.get(desc.digest) is good

    def test_layer_blob_verification(self):
        store = BlobStore()
        _, _, layer = _make_image()
        desc = store.put_layer(layer)
        store.get(desc.digest)   # clean layer verifies
        bogus = dataclasses.replace(Blob.from_layer(layer), digest="sha256:" + "0" * 64)
        assert check_blob(bogus).kind == KIND_DIGEST_MISMATCH

    def test_missing_blob_still_keyerror(self):
        with pytest.raises(KeyError):
            BlobStore().get("sha256:" + "0" * 64)

    def test_verify_integrity_typed_findings(self):
        store = BlobStore()
        store.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="blob.store", mode="bitflip")]
        )
        bad = store.put_bytes(b"will-corrupt", mediatypes.IMAGE_CONFIG)
        store.fault_injector = None
        good = store.put_bytes(b"stays-clean", mediatypes.IMAGE_CONFIG)
        findings = store.verify_integrity()
        assert [f.digest for f in findings] == [bad.digest]
        assert findings[0].kind == KIND_DIGEST_MISMATCH
        assert good.digest not in {f.digest for f in findings}
        assert str(findings[0]).startswith(f"blob {bad.digest} digest-mismatch")


class TestQuarantine:
    def _corrupt_store(self):
        store = BlobStore()
        store.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="blob.store", mode="bitflip")]
        )
        desc = store.put_bytes(b"doomed-payload", mediatypes.IMAGE_CONFIG)
        store.fault_injector = None
        return store, desc.digest

    def test_quarantined_blob_unreadable_but_inspectable(self):
        store, digest = self._corrupt_store()
        finding = store.verify_integrity()[0]
        assert store.quarantine(digest, finding)
        with pytest.raises(IntegrityError) as exc_info:
            store.get(digest)
        assert "quarantined" in str(exc_info.value)
        # ...but forensics can still see the corrupt payload.
        assert store.quarantined_blob(digest) is not None
        assert [f.digest for f in store.quarantined()] == [digest]
        # The sweep no longer reports it (it already carries a finding).
        assert store.verify_integrity() == []

    def test_release_after_repair(self):
        store, digest = self._corrupt_store()
        store.quarantine(digest)
        store.put_bytes(b"doomed-payload", mediatypes.IMAGE_CONFIG)
        assert store.release_quarantine(digest)
        assert store.get(digest).as_bytes() == b"doomed-payload"

    def test_quarantine_missing_blob_is_false(self):
        assert not BlobStore().quarantine("sha256:" + "0" * 64)


def _rot_config(registry, config):
    """Replace the stored config object with rotten bytes, then fail to
    repair it (no sources): the digest ends up quarantined."""
    good = registry.blobs.try_get(config.digest)
    registry.blobs._blobs[config.digest] = dataclasses.replace(good, payload=b"{}")
    assert not RepairEngine().repair_blob(registry.blobs, config.digest).repaired
    assert [f.digest for f in registry.blobs.quarantined()] == [config.digest]


class TestQuarantineEndsWithAnIntactCopy:
    """A quarantined digest reads again once an intact copy is stored."""

    def test_sync_heals_a_quarantined_mirror_blob(self):
        from repro.federation import FederatedRegistry
        from repro.integrity.fsck import fsck_federation

        fed = FederatedRegistry()
        fed.add_mirror("edge-0")
        manifest, config, layer = _make_image()
        fed.push("lab/app:1", manifest, config, [layer])
        fed.sync_all()
        mirror = fed.mirror("edge-0")
        _rot_config(mirror.registry, config)
        report = fed.sync_mirror("edge-0")
        assert report.references_promoted == ["lab/app:1"]
        assert fed.converged(mirror) and mirror.registry.audit() == []
        assert mirror.registry.pull("lab/app:1").manifest.digest == manifest.digest
        assert mirror.registry.blobs.quarantined() == []
        fsck = fsck_federation(fed)
        assert fsck.clean and fsck.replicas["edge-0"].quarantined == []
        assert fed.engine.plan(mirror) == ({}, {}, [])

    def test_repush_heals_a_quarantined_registry_blob(self):
        registry = ImageRegistry()
        manifest, config, layer = _make_image()
        registry.push("lab/app:1", manifest, config, [layer])
        _rot_config(registry, config)
        with pytest.raises(IntegrityError, match="quarantined"):
            registry.pull("lab/app:1")
        registry.push("lab/app:1", manifest, config, [layer])
        assert registry.pull("lab/app:1").config.to_bytes() == config.to_bytes()
        assert registry.blobs.quarantined() == []
        report = fsck_layout(registry)
        assert report.clean and report.quarantined == []
        # The corrupt copy stays inspectable until the entry is released.
        assert registry.blobs.quarantined_blob(config.digest).as_bytes() == b"{}"

    def test_rewrite_that_does_not_verify_is_still_refused(self):
        registry = ImageRegistry()
        manifest, config, layer = _make_image()
        registry.push("lab/app:1", manifest, config, [layer])
        _rot_config(registry, config)
        registry.fault_injector = FaultInjector(corruptions=[CorruptionSpec(
            site="registry.transfer", match="#config")])
        registry.push("lab/app:1", manifest, config, [layer])
        registry.fault_injector = None
        with pytest.raises(IntegrityError, match="quarantined") as info:
            registry.blobs.get(config.digest)
        assert info.value.finding.digest == config.digest
        assert [f.digest for f in registry.blobs.quarantined()] == [config.digest]
        assert not fsck_layout(registry).clean

    def test_read_of_a_quarantined_digest_arms_blob_read_first(self):
        from repro.resilience import FaultSpec
        from repro.resilience.faults import InjectedFault

        registry = ImageRegistry()
        manifest, config, layer = _make_image()
        registry.push("lab/app:1", manifest, config, [layer])
        _rot_config(registry, config)
        registry.blobs.fault_injector = FaultInjector(specs=[FaultSpec(
            site="blob.read", match=config.digest)])
        with pytest.raises(InjectedFault):
            registry.blobs.get(config.digest)
        with pytest.raises(IntegrityError, match="quarantined"):
            registry.blobs.get(config.digest)


class TestResolvedImageVerify:
    def test_clean_image_verifies(self):
        layout, *_ = _make_layout()
        resolved = layout.resolve("app:latest")
        assert resolved.verify() == []
        assert resolved.check("test") is resolved

    def test_tampered_config_detected(self):
        layout, manifest, config, layer = _make_layout()
        resolved = layout.resolve("app:latest")
        # The resolved config is a shared read-only document: tamper with
        # a copy and put that on the resolved image.
        tampered = resolved.config.clone()
        tampered.env.append("EVIL=1")
        resolved.config = tampered
        findings = resolved.verify()
        assert findings and findings[0].kind == KIND_DIGEST_MISMATCH
        with pytest.raises(IntegrityError) as exc_info:
            resolved.check("unit-test")
        assert exc_info.value.site == "unit-test"

    def test_tampered_layer_detected(self):
        layout, *_ = _make_layout()
        resolved = layout.resolve("app:latest")
        # The resolved layer is the stored one, frozen: tamper with a
        # copy and put that on the resolved image.
        tampered = Layer(entries=list(resolved.layers[0].entries))
        tampered.add(LayerEntry.file("/evil", InlineContent(b"x")))
        resolved.layers[0] = tampered
        assert any(f.kind == KIND_DIGEST_MISMATCH for f in resolved.verify())

    def test_a_readers_add_is_refused_and_the_layout_still_resolves(self):
        layout, *_ = _make_layout()
        resolved = layout.resolve("app:latest")
        with pytest.raises(TypeError):
            resolved.layers[0].add(LayerEntry.file("/evil", InlineContent(b"x")))
        again = layout.resolve("app:latest")
        assert again.verify() == []
        assert again.layers[0].paths() == resolved.layers[0].paths()

    def test_a_readers_write_to_the_entries_is_refused(self):
        layout, *_ = _make_layout()
        layer = layout.resolve("app:latest").layers[0]
        assert len(layer.entries) == 1
        evil = LayerEntry.file("/evil", InlineContent(b"x"))
        for write in (lambda: layer.entries.append(evil),
                      lambda: layer.entries.extend([evil]),
                      lambda: layer.entries.__setitem__(0, evil),
                      lambda: layer.entries.clear()):
            with pytest.raises(TypeError):
                write()
        again = layout.resolve("app:latest")
        assert again.verify() == []
        assert len(again.layers[0].entries) == 1

    @pytest.mark.parametrize("field", ["entries", "comment"])
    def test_a_frozen_layer_refuses_a_rebound_field(self, field):
        layout, *_ = _make_layout()
        layer = layout.resolve("app:latest").layers[0]
        before = getattr(layer, field)
        with pytest.raises(TypeError):
            setattr(layer, field, type(before)())
        assert getattr(layout.resolve("app:latest").layers[0], field) == before


class TestRegistryIntegrity:
    def test_transfer_corruption_caught_on_pull(self):
        layout, *_ = _make_layout()
        registry = ImageRegistry()
        registry.fault_injector = registry.blobs.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="registry.transfer", mode="bitflip",
                                        times=-1)]
        )
        registry.push_layout("repro/app:latest", layout, tag="app:latest")
        with pytest.raises(IntegrityError) as exc_info:
            registry.pull("repro/app:latest")
        assert find_integrity_error(exc_info.value) is exc_info.value

    def test_nearest_tag_suggested(self):
        layout, *_ = _make_layout()
        registry = ImageRegistry()
        registry.push_layout("repro/app:v1.2.3", layout, tag="app:latest")
        with pytest.raises(ImageNotFound) as exc_info:
            registry.pull("repro/app:v1.2.4")
        assert exc_info.value.suggestion == "repro/app:v1.2.3"
        assert "did you mean" in str(exc_info.value)

    def test_unknown_repo_has_no_suggestion(self):
        with pytest.raises(ImageNotFound) as exc_info:
            ImageRegistry().pull("ghost/app:latest")
        assert exc_info.value.suggestion is None


class TestFindIntegrityError:
    def test_direct_and_chained(self):
        err = IntegrityError(site="s", digest="sha256:" + "a" * 64, detail="d")
        assert find_integrity_error(err) is err
        try:
            try:
                raise err
            except IntegrityError as inner:
                raise RuntimeError("wrapped") from inner
        except RuntimeError as outer:
            assert find_integrity_error(outer) is err

    def test_unrelated_returns_none(self):
        assert find_integrity_error(ValueError("nope")) is None


class TestAtomicSave:
    def test_save_writes_checksum_manifest(self, tmp_path):
        layout, *_ = _make_layout()
        target = str(tmp_path / "img.oci")
        layout.save(target)
        with open(os.path.join(target, CHECKSUM_MANIFEST), encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["version"] == 1
        assert "index.json" in manifest["files"]
        assert any(rel.startswith("blobs/sha256/") for rel in manifest["files"])
        # No staging/backup residue after a clean save.
        assert not os.path.exists(target + ".saving")
        assert not os.path.exists(target + ".replaced")

    def test_save_over_existing_replaces_atomically(self, tmp_path):
        target = str(tmp_path / "img.oci")
        old, *_ = _make_layout(tag_data=b"v1")
        old.save(target)
        new, *_ = _make_layout(tag_data=b"v2")
        new.save(target)
        reloaded = OCILayout.load(target)
        fs = reloaded.resolve("app:latest").filesystem()
        assert fs.read_file("/app/bin") == b"v2"
        assert not os.path.exists(target + ".replaced")

    def test_on_disk_corruption_detected_at_load(self, tmp_path):
        layout, *_ = _make_layout()
        target = str(tmp_path / "img.oci")
        layout.save(target)
        blob_dir = os.path.join(target, "blobs", "sha256")
        victim = os.path.join(blob_dir, sorted(os.listdir(blob_dir))[0])
        with open(victim, "rb") as fh:
            data = bytearray(fh.read())
        data[0] ^= 0x01
        with open(victim, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(IntegrityError) as exc_info:
            OCILayout.load(target)
        assert exc_info.value.finding.kind == KIND_CHECKSUM_MISMATCH
        # Best-effort load still works for repair tooling.
        OCILayout.load(target, verify=False)

    def test_injected_save_corruption_detected(self, tmp_path):
        layout, *_ = _make_layout()
        layout.blobs.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="layout.save", mode="torn",
                                        match="blobs/")]
        )
        target = str(tmp_path / "img.oci")
        layout.save(target)
        layout.blobs.fault_injector = None
        with pytest.raises(IntegrityError):
            OCILayout.load(target)


class TestJournalSalvage:
    def _journal_with_nodes(self, count=6):
        layout = OCILayout()
        journal = RebuildJournal(layout, "app.dist")
        for i in range(count):
            content = PaddedContent(json.dumps({"obj": i}).encode(), pad=64)
            journal.record(f"node-{i}", f"sha256:{i:064x}", f"/src/{i}.o",
                           content, 0o644)
        return layout, journal

    def test_clean_roundtrip_keeps_every_node(self):
        layout, journal = self._journal_with_nodes()
        journal.flush()
        reloaded = RebuildJournal(layout, "app.dist")
        assert reloaded.node_ids() == journal.node_ids()
        assert reloaded.torn_entries_dropped == 0
        content, mode = reloaded.output_for("node-0")
        assert content.digest == journal.output_for("node-0")[0].digest

    def test_torn_tail_salvages_prefix(self):
        layout, journal = self._journal_with_nodes()
        layout.blobs.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="journal.append", mode="torn")]
        )
        journal.flush()
        layout.blobs.fault_injector = None
        reloaded = RebuildJournal(layout, "app.dist")
        # Torn write: whatever lines survived parse; the rest are counted
        # as dropped and will recompile — never a crash, never bad data.
        assert len(reloaded) < 6
        assert reloaded.torn_entries_dropped >= 1
        assert set(reloaded.node_ids()) <= set(journal.node_ids())
        assert layout.audit() == []

    def test_bitflip_drops_at_most_one_line(self):
        layout, journal = self._journal_with_nodes()
        layout.blobs.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="journal.append", mode="bitflip")]
        )
        journal.flush()
        layout.blobs.fault_injector = None
        reloaded = RebuildJournal(layout, "app.dist")
        # One flipped bit damages at most one JSONL line (it may still
        # parse if the flip lands in a string payload).
        assert len(reloaded) >= 5
        assert reloaded.torn_entries_dropped <= 2
        assert layout.audit() == []

    def test_truncated_journal_never_crashes(self):
        layout, journal = self._journal_with_nodes()
        layout.blobs.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="journal.append", mode="truncate")]
        )
        journal.flush()
        layout.blobs.fault_injector = None
        reloaded = RebuildJournal(layout, "app.dist")
        assert set(reloaded.node_ids()) <= set(journal.node_ids())

    @pytest.mark.parametrize("field", ["mode", "path"])
    def test_flipped_field_bit_drops_entry(self, field):
        """A one-bit flip inside a field value still parses and passes
        the structural and content checks (420 -> 421 is a valid mode);
        only the line digest catches it, so the node must recompile."""
        layout, journal = self._journal_with_nodes(count=3)
        journal.flush()
        desc = layout.side_blob(mediatypes.ANNOTATION_COMTAINER_JOURNAL,
                                "app.dist")
        blob = layout.blobs.try_get(desc.digest)
        data = bytearray(blob.as_bytes())
        line_at = data.index(b'"node": "node-1"')
        line_at = data.rindex(b"\n", 0, line_at) + 1
        value_at = data.index(f'"{field}": '.encode(), line_at) + len(field) + 4
        if field == "path":
            value_at += 1                      # past the opening quote
        data[value_at] ^= 1
        # Silent at-rest damage: the descriptor keeps the old digest.
        layout.blobs.put(dataclasses.replace(blob, payload=bytes(data)))
        reloaded = RebuildJournal(layout, "app.dist")
        assert reloaded.node_ids() == ["node-0", "node-2"]
        assert reloaded.torn_entries_dropped == 1

    def test_negative_pad_entry_dropped(self):
        layout, journal = self._journal_with_nodes(count=3)
        journal.flush()
        desc = next(d for d in layout.index if d.annotations.get(
            mediatypes.ANNOTATION_COMTAINER_JOURNAL) == "app.dist")
        lines = layout.blobs.get(desc.digest).as_bytes().split(b"\n")
        at = next(i for i, line in enumerate(lines) if b'"node-1"' in line)
        entry = json.loads(lines[at])
        entry["content"]["pad"] = -5
        # The digest such an entry would carry: (payload, pad) hashed the
        # way PaddedContent.digest does, so only the pad check can drop it.
        payload = base64.b64decode(entry["content"]["payload"])
        entry["content_digest"] = "sha256:" + hashlib.sha256(
            payload + b"\x00pad:-5").hexdigest()
        # Re-sealed, so the line digest holds and the pad check decides.
        lines[at] = durable.line(durable.seal(entry)).rstrip(b"\n")
        nodes, _leases, dropped = _parse_journal(b"\n".join(lines))
        assert sorted(nodes) == ["node-0", "node-2"]
        assert dropped == 1


class TestPaddedLayerEntries:
    def _saved_padded_layout(self, tmp_path, pad):
        layer = Layer().add(LayerEntry.file(
            "/app/a.o", PaddedContent(b'{"kind": "object"}', pad=64)))
        config = ImageConfig(architecture="amd64")
        config.diff_ids.append(layer.digest)
        manifest = Manifest(config=config.descriptor(),
                            layers=[Blob.from_layer(layer).descriptor()])
        layout = OCILayout()
        layout.add_manifest(manifest, config, [layer], tag="app:latest")
        target = str(tmp_path / "img.oci")
        layout.save(target)
        # Rewrite the layer's pad and re-record its checksum, so the
        # loader's only complaint can be the pad itself.
        rel = f"blobs/sha256/{layer.digest.split(':', 1)[1]}"
        path = os.path.join(target, *rel.split("/"))
        with open(path, "rb") as fh:
            data = fh.read().replace(b'"pad":64', b'"pad":' + pad)
        with open(path, "wb") as fh:
            fh.write(data)
        manifest_path = os.path.join(target, CHECKSUM_MANIFEST)
        with open(manifest_path, encoding="utf-8") as fh:
            checksums = json.load(fh)
        checksums["files"][rel] = digest_bytes(data)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(checksums, fh)
        return target, layer.digest

    @pytest.mark.parametrize("pad", [b"-5", b"1.5", b'"64"'])
    def test_invalid_pad_layer_is_an_integrity_error(self, tmp_path, pad):
        target, digest = self._saved_padded_layout(tmp_path, pad)
        with pytest.raises(IntegrityError) as info:
            OCILayout.load(target)
        assert info.value.finding.kind == KIND_UNPARSEABLE
        assert info.value.digest == digest
        # Best-effort loading skips the unparseable layer blob.
        assert digest not in OCILayout.load(target, verify=False).blobs

    def test_valid_pad_layer_loads(self, tmp_path):
        target, digest = self._saved_padded_layout(tmp_path, b"64")
        assert OCILayout.load(target).resolve("app:latest").verify() == []


class TestRepairEngine:
    def _corrupt_layout(self):
        layout, manifest, config, layer = _make_layout()
        replica, *_ = _make_layout()
        config_digest = config.digest
        blob = layout.blobs.try_get(config_digest)
        layout.blobs.put(dataclasses.replace(
            blob, payload=blob.as_bytes() + b" "))
        return layout, replica, config_digest

    def test_repair_from_layout_replica(self):
        layout, replica, digest = self._corrupt_layout()
        engine = RepairEngine().add_layout(replica, label="replica")
        outcome = engine.repair_blob(layout.blobs, digest)
        assert outcome.repaired and outcome.source == "replica"
        assert layout.blobs.get(digest)       # verified read passes again
        assert layout.blobs.quarantined() == []

    def test_repair_from_registry_replica(self):
        layout, replica, digest = self._corrupt_layout()
        registry = ImageRegistry()
        registry.push_layout("repro/app:latest", replica, tag="app:latest")
        engine = RepairEngine().add_registry(registry)
        outcome = engine.repair_blob(layout.blobs, digest)
        assert outcome.repaired and outcome.source == "registry"

    def test_repair_by_regeneration(self):
        layout, _replica, digest = self._corrupt_layout()
        engine = RepairEngine().add_regenerator(
            lambda: _make_layout()[0], label="regenerate")
        outcome = engine.repair_blob(layout.blobs, digest)
        assert outcome.repaired and outcome.source == "regenerate"

    def test_failed_repair_leaves_quarantine(self):
        layout, _replica, digest = self._corrupt_layout()
        engine = RepairEngine()       # no sources at all
        outcome = engine.repair_blob(layout.blobs, digest)
        assert not outcome.repaired
        assert "no source" in outcome.detail
        # The corrupt copy is preserved in quarantine, not deleted...
        assert layout.blobs.quarantined_blob(digest) is not None
        # ...and normal reads keep failing loudly.
        with pytest.raises(IntegrityError):
            layout.blobs.get(digest)

    def test_corrupt_source_skipped(self):
        layout, replica, digest = self._corrupt_layout()
        bad_blob = replica.blobs.try_get(digest)
        replica.blobs.put(dataclasses.replace(
            bad_blob, payload=bad_blob.as_bytes() + b"!"))
        good, *_ = _make_layout()
        engine = RepairEngine().add_layout(replica, label="bad").add_layout(
            good, label="good")
        outcome = engine.repair_blob(layout.blobs, digest)
        assert outcome.repaired and outcome.source == "good"

    def test_repair_layout_fixes_missing_referenced(self):
        layout, replica, _digest = self._corrupt_layout()
        victim = next(iter(layout.referenced_digests()))
        layout.blobs.remove(victim)
        outcomes = RepairEngine().add_layout(replica).repair_layout(layout)
        assert any(o.digest == victim and o.repaired for o in outcomes)
        assert layout.audit() == []

    def test_healthy_blob_is_noop(self):
        layout, *_ = _make_layout()
        digest = next(iter(layout.referenced_digests()))
        outcome = RepairEngine().repair_blob(layout.blobs, digest)
        assert outcome.repaired and outcome.detail == "already intact"


class TestFsck:
    def test_clean_layout_exit_zero(self):
        layout, *_ = _make_layout()
        report = fsck_layout(layout)
        assert report.clean and report.exit_code == 0
        assert report.scanned == len(layout.blobs)
        assert report.to_json()["clean"] is True

    def test_scan_only_reports_without_mutating(self, tmp_path):
        layout, *_ = _make_layout()
        target = str(tmp_path / "img.oci")
        layout.save(target)
        blob_dir = os.path.join(target, "blobs", "sha256")
        victim = os.path.join(blob_dir, sorted(os.listdir(blob_dir))[0])
        with open(victim, "rb") as fh:
            corrupt = bytearray(fh.read())
        corrupt[0] ^= 0x10
        with open(victim, "wb") as fh:
            fh.write(bytes(corrupt))

        report = fsck_directory(target)
        assert report.exit_code == 1
        assert report.findings
        with open(victim, "rb") as fh:
            assert fh.read() == bytes(corrupt)   # scan never mutates

    def test_repair_restores_saved_directory(self, tmp_path):
        layout, *_ = _make_layout()
        target = str(tmp_path / "img.oci")
        replica_dir = str(tmp_path / "replica.oci")
        layout.save(target)
        layout.save(replica_dir)
        blob_dir = os.path.join(target, "blobs", "sha256")
        victim = os.path.join(blob_dir, sorted(os.listdir(blob_dir))[0])
        with open(victim, "rb") as fh:
            data = bytearray(fh.read())
        data[len(data) // 2] ^= 0x20
        with open(victim, "wb") as fh:
            fh.write(bytes(data))

        repair = RepairEngine().add_layout(
            OCILayout.load(replica_dir, verify=False), label=replica_dir)
        report = fsck_directory(target, repair=repair)
        assert report.exit_code == 0
        assert report.repaired and not report.failed
        # The acceptance bar: the directory is back to a loadable,
        # fully-verified state.
        restored = OCILayout.load(target, verify=True)
        assert restored.resolve("app:latest").verify() == []

    def test_repair_without_source_stays_dirty(self, tmp_path):
        layout, *_ = _make_layout()
        target = str(tmp_path / "img.oci")
        layout.save(target)
        blob_dir = os.path.join(target, "blobs", "sha256")
        victim = os.path.join(blob_dir, sorted(os.listdir(blob_dir))[0])
        with open(victim, "rb") as fh:
            data = bytearray(fh.read())
        data[0] ^= 0x01
        with open(victim, "wb") as fh:
            fh.write(bytes(data))
        report = fsck_directory(target, repair=RepairEngine())
        assert report.exit_code == 1
        assert report.failed or report.missing

    def test_unparseable_index_reported_not_crashed(self, tmp_path):
        layout, *_ = _make_layout()
        target = str(tmp_path / "img.oci")
        layout.save(target)
        with open(os.path.join(target, "index.json"), "wb") as fh:
            fh.write(b"\x00not json\xff")
        report = fsck_directory(target)
        assert report.exit_code == 1
        assert report.findings

    def test_cli_fsck_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        layout, *_ = _make_layout()
        target = str(tmp_path / "img.oci")
        replica_dir = str(tmp_path / "replica.oci")
        layout.save(target)
        layout.save(replica_dir)
        assert main(["fsck", target]) == 0

        blob_dir = os.path.join(target, "blobs", "sha256")
        victim = os.path.join(blob_dir, sorted(os.listdir(blob_dir))[0])
        with open(victim, "rb") as fh:
            data = bytearray(fh.read())
        data[0] ^= 0x08
        with open(victim, "wb") as fh:
            fh.write(bytes(data))
        assert main(["fsck", target]) == 1
        assert main(["fsck", target, "--repair", "--source", replica_dir]) == 0
        assert main(["fsck", target]) == 0
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "clean" in out


class TestFindingTypes:
    def test_finding_str_and_json(self):
        finding = IntegrityFinding(
            digest="sha256:" + "a" * 64, kind=KIND_DIGEST_MISMATCH, detail="boom")
        assert str(finding) == f"blob sha256:{'a' * 64} digest-mismatch: boom"
        assert finding.to_json()["kind"] == KIND_DIGEST_MISMATCH

    def test_error_carries_site_and_digest(self):
        finding = IntegrityFinding(
            digest="sha256:" + "b" * 64, kind=KIND_DIGEST_MISMATCH, detail="d")
        err = IntegrityError(site="blob.read", finding=finding)
        assert err.site == "blob.read"
        assert err.digest == finding.digest
        assert finding.digest in str(err) and "blob.read" in str(err)


class TestMerkleMemoization:
    """Every verified pull walks the Merkle tree; the members answer from
    their own remembered verdicts, so no stored object is hashed twice,
    and a new object is hashed once before it is trusted."""

    def _pushed_registry(self):
        layout, manifest, config, layer = _make_layout()
        registry = ImageRegistry()
        registry.push_layout("repro/app:latest", layout, tag="app:latest")
        return registry, manifest, config

    def test_double_pull_rehashes_each_blob_at_most_once(self, monkeypatch):
        from collections import Counter

        from repro.oci.layout import ResolvedImage

        registry, _, _ = self._pushed_registry()
        walks = []
        orig_verify = ResolvedImage.verify
        monkeypatch.setattr(
            ResolvedImage, "verify",
            lambda self: (walks.append(1), orig_verify(self))[1])
        hashed = _spy_rehash(monkeypatch)

        first = registry.pull("repro/app:latest")
        second = registry.pull("repro/app:latest")
        third = registry.pull("repro/app:latest")
        assert len(walks) == 3              # the walk runs on every pull
        assert hashed and all(count == 1 for count in Counter(hashed).values())
        assert first.manifest.digest == second.manifest.digest == third.manifest.digest

    def test_member_churn_forces_rehash(self, monkeypatch):
        registry, _, config = self._pushed_registry()
        hashed = _spy_rehash(monkeypatch)
        digest = config.digest
        registry.pull("repro/app:latest")
        registry.pull("repro/app:latest")
        assert hashed.count(digest) == 1   # verified once, then remembered
        # Quarantine the member, then store a new object with the same
        # bytes: the next pull hashes that object once before trusting it.
        assert registry.blobs.quarantine(digest)
        data = registry.blobs.quarantined_blob(digest).as_bytes()
        registry.blobs.put_bytes(data, mediatypes.IMAGE_CONFIG)
        registry.pull("repro/app:latest")
        assert hashed.count(digest) == 2
        # Its verdict now sits on the object: the following pull hashes nothing.
        before = len(hashed)
        registry.pull("repro/app:latest")
        assert len(hashed) == before

    def test_a_replaced_config_that_still_parses_fails_the_next_pull(self):
        registry, _, config = self._pushed_registry()
        registry.pull("repro/app:latest")
        other = ImageConfig(architecture="arm64", env=["PATH=/usr/bin"],
                            entrypoint=["/app/bin"])
        good = registry.blobs.try_get(config.digest)
        registry.blobs._blobs[config.digest] = dataclasses.replace(
            good, payload=other.to_bytes())
        with pytest.raises(IntegrityError) as exc_info:
            registry.pull("repro/app:latest")
        assert exc_info.value.digest == config.digest
