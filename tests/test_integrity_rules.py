"""The integrity rules the layout, the registry, mirror sync, repair and
fsck share, and the caller-side differences each of them keeps.

The pins in this file describe behaviour that callers rely on: which
digests an image store references, what its audit and fsck call a
quarantined blob, when a mirror re-syncs an unchanged reference, and the
exact wording and order of the replica-divergence reports.
"""

import json
import os

import pytest

from repro.federation import FederatedRegistry
from repro.integrity import KIND_CHECKSUM_MISMATCH, KIND_UNPARSEABLE, IntegrityError
from repro.integrity.fsck import (
    fsck_directory,
    fsck_federation_directories,
    fsck_layout,
)
from repro.oci import (
    ImageConfig,
    ImageRegistry,
    Layer,
    LayerEntry,
    Manifest,
    OCILayout,
    mediatypes,
)
from repro.oci.blobs import Blob
from repro.vfs import InlineContent


def _image(data: bytes):
    layer = Layer().add(LayerEntry.file("/app/bin", InlineContent(data), mode=0o755))
    config = ImageConfig(architecture="amd64", entrypoint=["/app/bin"],
                         env=[f"IMAGE={data.decode()}"])
    config.diff_ids.append(layer.digest)
    manifest = Manifest(config=config.descriptor(),
                        layers=[Blob.from_layer(layer).descriptor()])
    return manifest, config, layer


def _closure(manifest):
    return {manifest.digest, manifest.config.digest,
            *(ld.digest for ld in manifest.layers)}


def _rot(store, digest, payload: bytes):
    """Replace *digest*'s stored bytes in place, keeping its descriptor."""
    good = store.try_get(digest)
    store._blobs[digest] = Blob(media_type=good.media_type, digest=digest,
                                size=good.size, payload=payload)


class TestQuarantinedReferencedBlob:
    def _layout(self):
        layout = OCILayout()
        manifest, config, layer = _image(b"q")
        layout.add_manifest(manifest, config, [layer], tag="app:q")
        assert layout.blobs.quarantine(config.digest)
        return layout, config.digest

    def test_audit_reports_it_missing(self):
        layout, digest = self._layout()
        assert layout.audit() == [f"missing referenced blob {digest}"]

    def test_fsck_layout_lists_it_quarantined_not_missing(self):
        layout, digest = self._layout()
        report = fsck_layout(layout)
        assert report.quarantined == [digest]
        assert report.missing == []


class TestReferencedDigests:
    def test_layout_references_side_blobs_and_expands_only_manifests(self):
        layout = OCILayout()
        manifest, config, layer = _image(b"side")
        layout.add_manifest(manifest, config, [layer], tag="app:side")
        layout.replace_side_blob(mediatypes.ANNOTATION_COMTAINER_JOURNAL, "app:side",
                                 data=b"journal", media_type="application/json")
        # A side blob whose bytes happen to be a manifest is a root, but
        # only image-manifest descriptors are expanded into a closure.
        other, _, _ = _image(b"other")
        layout.replace_side_blob(mediatypes.ANNOTATION_COMTAINER_ARTIFACTS, "app:side",
                                 data=other.to_bytes(), media_type="application/json")
        journal = layout.side_blob(mediatypes.ANNOTATION_COMTAINER_JOURNAL, "app:side")
        cache = layout.side_blob(mediatypes.ANNOTATION_COMTAINER_ARTIFACTS, "app:side")
        assert layout.referenced_digests() == (
            _closure(manifest) | {journal.digest, cache.digest})
        assert layout.gc() == 0
        assert layout.audit() == []

    def test_registry_references_published_artifact_caches(self):
        registry = ImageRegistry()
        manifest, config, layer = _image(b"cache")
        registry.push("lab/app:1", manifest, config, [layer])
        cache = Blob.from_bytes(b'{"cache": 1}', "application/json")
        registry.put_artifact_cache("lab/app", cache)
        assert registry.referenced_digests() == _closure(manifest) | {cache.digest}
        assert registry.audit() == []

    def test_unparseable_manifest_keeps_its_digest_and_adds_no_closure(self):
        registry, layout = ImageRegistry(), OCILayout()
        manifest, config, layer = _image(b"bad")
        registry.push("lab/app:1", manifest, config, [layer])
        layout.add_manifest(manifest, config, [layer], tag="app:1")
        for store in (registry.blobs, layout.blobs):
            _rot(store, manifest.digest, b"\x00not a manifest\xff")
        assert registry.referenced_digests() == {manifest.digest}
        assert layout.referenced_digests() == {manifest.digest}

    def test_absent_manifest_keeps_its_digest(self):
        registry = ImageRegistry()
        manifest, config, layer = _image(b"gone")
        registry.push("lab/app:1", manifest, config, [layer])
        registry.blobs.remove(manifest.digest)
        assert registry.referenced_digests() == {manifest.digest}

    def test_rotten_manifest_closure_is_read_as_stored(self):
        registry, layout = ImageRegistry(), OCILayout()
        manifest, config, layer = _image(b"rot")
        registry.push("lab/app:1", manifest, config, [layer])
        layout.add_manifest(manifest, config, [layer], tag="app:1")
        other, _, _ = _image(b"other")
        for store in (registry.blobs, layout.blobs):
            _rot(store, manifest.digest, other.to_bytes())
        expected = {manifest.digest, other.config.digest, other.layers[0].digest}
        assert registry.referenced_digests() == expected
        assert layout.referenced_digests() == expected


class TestSyncPlanReopensDamagedManifest:
    def _synced(self):
        fed = FederatedRegistry()
        fed.add_mirror("edge-0")
        manifest, config, layer = _image(b"sync")
        fed.push("lab/app:1", manifest, config, [layer])
        fed.sync_all()
        mirror = fed.mirror("edge-0")
        assert fed.engine.plan(mirror) == ({}, {}, [])
        return fed, mirror, manifest

    def test_rotten_manifest_reopens_its_ref(self):
        fed, mirror, manifest = self._synced()
        other, _, _ = _image(b"other")
        _rot(mirror.registry.blobs, manifest.digest, other.to_bytes())
        assert fed.engine.plan(mirror) == (
            {"lab/app:1": manifest.digest}, {}, [manifest.digest])

    def test_unparseable_manifest_reopens_its_ref(self):
        fed, mirror, manifest = self._synced()
        _rot(mirror.registry.blobs, manifest.digest, b"\x00garbage")
        assert fed.engine.plan(mirror) == (
            {"lab/app:1": manifest.digest}, {}, [manifest.digest])

    def test_absent_manifest_reopens_its_ref(self):
        fed, mirror, manifest = self._synced()
        mirror.registry.blobs.remove(manifest.digest)
        assert fed.engine.plan(mirror) == (
            {"lab/app:1": manifest.digest}, {}, [manifest.digest])

    def test_origin_tag_on_a_non_manifest_is_a_typed_error(self):
        fed, mirror, manifest = self._synced()
        fed.origin.tag_manifest("lab/app:2", manifest.layers[0].digest)
        with pytest.raises(IntegrityError) as info:
            fed.engine.plan(mirror)
        assert info.value.finding.kind == KIND_UNPARSEABLE
        assert info.value.digest == manifest.layers[0].digest


def _blob_lines(missing, divergent):
    lines = [(d, f"missing blob {d}") for d in missing]
    lines += [(d, f"divergent blob {d}") for d in divergent]
    return [line for _, line in sorted(lines)]


class TestDivergenceReports:
    def test_federated_registry_wording_and_order(self):
        fed = FederatedRegistry()
        fed.add_mirror("edge-0")
        images = {name: _image(name.encode()) for name in ("a", "b", "c")}
        for name, image in images.items():
            fed.push(f"lab/{name}:1", *image[:2], [image[2]])
        cache = Blob.from_bytes(b'{"cache": "origin"}', "application/json")
        fed.put_artifact_cache("lab/a", cache)
        fed.sync_all()
        mirror = fed.mirror("edge-0")
        assert fed.divergences(mirror) == []

        store = mirror.registry
        store.delete_reference("lab/a:1")
        b2, b2_config, b2_layer = _image(b"b2")
        store.push("lab/b:1", b2, b2_config, [b2_layer])
        c, c_config, c_layer = images["c"]
        store.tag_manifest("lab/z:1", c.digest)
        store.put_artifact_cache(
            "lab/a", Blob.from_bytes(b'{"cache": "mirror"}', "application/json"))
        store.blobs.remove(c_layer.digest)
        _rot(store.blobs, c_config.digest, b"{}")

        assert fed.divergences(mirror) == [
            "missing reference lab/a:1",
            f"divergent reference lab/b:1: origin {images['b'][0].digest},"
            f" mirror {b2.digest}",
            "extra reference lab/z:1",
            "divergent artifact cache for lab/a",
        ] + _blob_lines(missing=[c_layer.digest, cache.digest],
                        divergent=[c_config.digest])
        assert fed.audit() == {"edge-0": fed.divergences(mirror)}

    def test_saved_layouts_wording_and_order(self, tmp_path):
        images = {name: _image(name.encode()) for name in ("a", "b", "c")}
        origin = OCILayout()
        replica = OCILayout()
        for name, (manifest, config, layer) in images.items():
            origin.add_manifest(manifest, config, [layer], tag=f"app:{name}")
            replica.add_manifest(manifest, config, [layer], tag=f"app:{name}")
        replica.index = [d for d in replica.index
                         if d.annotations[mediatypes.ANNOTATION_REF_NAME] != "app:a"]
        b2, b2_config, b2_layer = _image(b"b2")
        replica.add_manifest(b2, b2_config, [b2_layer], tag="app:b")
        z, z_config, z_layer = _image(b"z")
        replica.add_manifest(z, z_config, [z_layer], tag="app:z")
        origin_dir = str(tmp_path / "origin.oci")
        replica_dir = str(tmp_path / "replica.oci")
        origin.save(origin_dir)
        replica.save(replica_dir)

        c, c_config, c_layer = images["c"]
        blob_dir = os.path.join(replica_dir, "blobs", "sha256")
        os.remove(os.path.join(blob_dir, c_layer.digest.split(":", 1)[1]))
        with open(os.path.join(blob_dir, c_config.digest.split(":", 1)[1]), "wb") as fh:
            fh.write(b"{}")

        report = fsck_federation_directories(origin_dir, [replica_dir])
        assert report.divergences[replica_dir] == [
            "missing reference app:a",
            f"divergent reference app:b: origin {images['b'][0].digest},"
            f" replica {b2.digest}",
            "extra reference app:z",
        ] + _blob_lines(missing=[c_layer.digest], divergent=[c_config.digest])
        assert report.exit_code == 1


class TestIntactLookup:
    def test_intact_absent_corrupt_and_quarantined(self):
        from repro.resilience import FaultInjector, FaultSpec

        registry = ImageRegistry()
        manifest, config, layer = _image(b"intact")
        registry.push("lab/app:1", manifest, config, [layer])
        store = registry.blobs
        # No arming: a scripted read fault is not consumed.
        store.fault_injector = FaultInjector(specs=[FaultSpec(site="blob.read")])
        assert store.intact(layer.digest) is store.try_get(layer.digest)
        assert store.intact("sha256:" + "0" * 64) is None
        _rot(store, config.digest, b"{}")
        assert store.intact(config.digest) is None
        store.quarantine(config.digest)
        assert store.intact(config.digest) is None
        assert store.missing_of([layer.digest, config.digest, manifest.digest]) == [
            config.digest]

    def test_manifest_closure(self):
        from repro.oci.blobs import manifest_closure

        manifest, _, layer = _image(b"closure")
        blob = Blob.from_bytes(manifest.to_bytes(), mediatypes.IMAGE_MANIFEST)
        assert manifest_closure(blob) == (
            manifest.digest, manifest.config.digest, layer.digest)
        assert manifest_closure(None) is None
        for junk in (b"\xff", b"[]", b'{"config": 5}', b'{"layers": []}'):
            assert manifest_closure(Blob.from_bytes(junk, "x")) is None

    def test_intact_closures_keep_only_intact_manifests_that_parse(self):
        from repro.oci.blobs import manifest_closure

        registry = ImageRegistry()
        refs = {}
        for name in ("good", "absent", "rotten", "junk", "quarantined"):
            manifest, config, layer = _image(name.encode())
            registry.push(f"lab/{name}:1", manifest, config, [layer])
            refs[name] = manifest.digest
        store = registry.blobs
        store.remove(refs["absent"])
        _rot(store, refs["rotten"], b"{}")
        junk = Blob.from_bytes(b"[]", mediatypes.IMAGE_MANIFEST)
        store.put(junk)
        refs["junk"] = junk.digest
        store.quarantine(refs["quarantined"])
        closures = store.intact_closures(refs.items())
        assert closures == {
            "good": manifest_closure(store.try_get(refs["good"]))}
        # The config and layer of a left-out manifest are not read: only
        # what the caller pools into missing_of is checked.
        assert store.intact_closures([]) == {}


def _saved(tmp_path, name="img.oci"):
    layout = OCILayout()
    manifest, config, layer = _image(b"saved")
    layout.add_manifest(manifest, config, [layer], tag="app:saved")
    target = str(tmp_path / name)
    layout.save(target)
    return target


def _write(target, rel, data: bytes, record: bool = False):
    with open(os.path.join(target, rel), "wb") as fh:
        fh.write(data)
    if record:   # re-record the file's checksum so only its shape is wrong
        from repro.oci.digest import digest_bytes

        path = os.path.join(target, "checksums.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["files"][rel] = digest_bytes(data)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _fsck_cli(capsys, *argv):
    from repro.cli import main

    code = main(["fsck", *argv])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


BAD_CHECKSUMS = [b"[]", b'{"files": [1, 2]}', b'{"version": 1}',
                 b'{"files": {"index.json": 5}}', b"{",
                 pytest.param(b"[" * 100000, id="deeply-nested")]
BAD_INDEXES = [
    b"[]",
    b'{"manifests": [{"digest": "x"}]}',
    b'{"manifests": "oops"}',
    b'{"schemaVersion": 2}',
    b'{"manifests": [{"mediaType": "m", "digest": "d", "size": "1"}]}',
    b'{"manifests": [{"mediaType": "m", "digest": "d", "size": true}]}',
    b'{"manifests": [{"mediaType": "m", "digest": 7, "size": 1}]}',
    b'{"manifests": [{"mediaType": "m", "digest": "d", "size": 1,'
    b' "annotations": {"k": 1}}]}',
    b'{"manifests": [{"mediaType": "m", "digest": "d", "size": 1,'
    b' "annotations": []}]}',
]


class TestSavedLayoutReadersAreTotal:
    @pytest.mark.parametrize("doc", BAD_CHECKSUMS)
    def test_bad_checksums(self, tmp_path, capsys, doc):
        target = _saved(tmp_path)
        _write(target, "checksums.json", doc)
        with pytest.raises(IntegrityError) as info:
            OCILayout.load(target)
        assert info.value.finding.kind == KIND_UNPARSEABLE
        assert info.value.finding.digest == "checksums.json"
        assert OCILayout.load(target, verify=False).resolve("app:saved").verify() == []
        report = fsck_directory(target)
        assert report.exit_code == 1
        assert [(f.digest, f.kind) for f in report.findings] == [
            ("checksums.json", KIND_UNPARSEABLE)]
        assert _fsck_cli(capsys, target)[0] == 1

    @pytest.mark.parametrize("doc", BAD_INDEXES)
    @pytest.mark.parametrize("record", [False, True])
    def test_bad_index(self, tmp_path, capsys, doc, record):
        target = _saved(tmp_path)
        _write(target, "index.json", doc, record=record)
        with pytest.raises(IntegrityError) as info:
            OCILayout.load(target)
        kind = KIND_UNPARSEABLE if record else KIND_CHECKSUM_MISMATCH
        assert (info.value.finding.digest, info.value.finding.kind) == (
            "index.json", kind)
        with pytest.raises(IntegrityError) as info:
            OCILayout.load(target, verify=False)
        assert (info.value.finding.digest, info.value.finding.kind) == (
            "index.json", KIND_UNPARSEABLE)
        report = fsck_directory(target)
        assert report.exit_code == 1
        assert ("index.json", KIND_UNPARSEABLE) in [
            (f.digest, f.kind) for f in report.findings]
        assert _fsck_cli(capsys, target)[0] == 1

    def test_checksummed_path_that_is_a_directory(self, tmp_path):
        target = _saved(tmp_path)
        os.makedirs(os.path.join(target, "extra"))
        _write(target, "checksums.json", b'{"files": {"extra": "sha256:00"}}')
        report = fsck_directory(target)
        assert report.exit_code == 1
        assert [(f.digest, f.kind) for f in report.findings] == [
            ("extra", KIND_UNPARSEABLE)]


class TestFsckRepairSkipsUnreadableSource:
    @pytest.mark.parametrize("damage", ["unparseable", "missing"])
    def test_target_verdict_and_one_stderr_line(self, tmp_path, capsys, damage):
        target = _saved(tmp_path)
        source = str(tmp_path / "source.oci")
        if damage == "unparseable":
            _saved(tmp_path, "source.oci")
            _write(source, "index.json", b"\x00not json")
        code, err = _fsck_cli(capsys, target, "--repair", "--source", source)
        assert code == 0
        lines = err.strip().splitlines()
        assert len(lines) == 1 and source in lines[0]

    def test_federation_mode_names_each_unreadable_replica_once(self, tmp_path, capsys):
        origin = _saved(tmp_path, "origin.oci")
        replica = str(tmp_path / "gone.oci")
        code, err = _fsck_cli(capsys, origin, "--federation", "--repair",
                              "--source", replica)
        assert code == 1   # the replica's own scan fails, and it diverges
        lines = err.strip().splitlines()
        assert len(lines) == 1 and replica in lines[0]
