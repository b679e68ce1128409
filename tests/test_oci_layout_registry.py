"""Tests for manifests, configs, OCI layouts and the registry."""

import pytest

from repro.oci import (
    ImageConfig,
    ImageRegistry,
    Layer,
    LayerEntry,
    Manifest,
    OCILayout,
    mediatypes,
)
from repro.oci.blobs import Blob, BlobStore
from repro.oci.registry import parse_reference
from repro.vfs import InlineContent


def _make_image(tag_data=b"payload"):
    layer = Layer().add(LayerEntry.file("/app/bin", InlineContent(tag_data), mode=0o755))
    config = ImageConfig(architecture="amd64", env=["PATH=/usr/bin"], entrypoint=["/app/bin"])
    config.diff_ids.append(layer.digest)
    manifest = Manifest(config=config.descriptor(), layers=[Blob.from_layer(layer).descriptor()])
    return manifest, config, layer


class TestConfigManifest:
    def test_config_roundtrip(self):
        _, config, _ = _make_image()
        restored = ImageConfig.from_json(config.to_json())
        assert restored.to_bytes() == config.to_bytes()
        assert restored.digest == config.digest

    def test_env_dict(self):
        config = ImageConfig(env=["A=1", "B=two=2"])
        assert config.env_dict() == {"A": "1", "B": "two=2"}

    def test_manifest_roundtrip(self):
        manifest, _, _ = _make_image()
        restored = Manifest.from_json(manifest.to_json())
        assert restored.digest == manifest.digest

    def test_total_layer_size(self):
        manifest, _, layer = _make_image()
        assert manifest.total_layer_size == layer.size

    def test_clone_is_independent(self):
        _, config, _ = _make_image()
        clone = config.clone()
        clone.env.append("X=1")
        assert "X=1" not in config.env


class TestBlobStore:
    def test_put_get_bytes(self):
        store = BlobStore()
        desc = store.put_bytes(b"{}", mediatypes.IMAGE_CONFIG)
        assert store.get(desc.digest).as_bytes() == b"{}"

    def test_put_get_layer(self):
        store = BlobStore()
        _, _, layer = _make_image()
        desc = store.put_layer(layer)
        assert store.get_layer(desc.digest).digest == layer.digest

    def test_missing_blob_raises(self):
        with pytest.raises(KeyError):
            BlobStore().get("sha256:" + "0" * 64)

    def test_copy_into_dedupes(self):
        a, b = BlobStore(), BlobStore()
        a.put_bytes(b"x", mediatypes.IMAGE_CONFIG)
        assert a.copy_into(b) == 1
        assert a.copy_into(b) == 0


class TestLayout:
    def test_add_and_resolve(self):
        layout = OCILayout()
        manifest, config, layer = _make_image()
        layout.add_manifest(manifest, config, [layer], tag="app:latest")
        resolved = layout.resolve("app:latest")
        assert resolved.manifest.digest == manifest.digest
        assert resolved.config.entrypoint == ["/app/bin"]
        fs = resolved.filesystem()
        assert fs.read_file("/app/bin") == b"payload"

    def test_retag_replaces_index_entry(self):
        layout = OCILayout()
        m1, c1, l1 = _make_image(b"v1")
        m2, c2, l2 = _make_image(b"v2")
        layout.add_manifest(m1, c1, [l1], tag="app:latest")
        layout.add_manifest(m2, c2, [l2], tag="app:latest")
        assert layout.tags().count("app:latest") == 1
        assert layout.resolve("app:latest").manifest.digest == m2.digest

    def test_multiple_tags_coexist(self):
        """The coMtainer workflow appends +coM manifests next to the original."""
        layout = OCILayout()
        m1, c1, l1 = _make_image(b"v1")
        m2, c2, l2 = _make_image(b"v2")
        layout.add_manifest(m1, c1, [l1], tag="app:latest")
        layout.add_manifest(m2, c2, [l2], tag="app:latest+coM")
        assert set(layout.tags()) == {"app:latest", "app:latest+coM"}

    def test_unknown_tag_raises(self):
        with pytest.raises(KeyError):
            OCILayout().resolve("ghost")

    def test_save_load_roundtrip(self, tmp_path):
        layout = OCILayout()
        manifest, config, layer = _make_image()
        layout.add_manifest(manifest, config, [layer], tag="app:latest")
        layout.save(str(tmp_path / "app.oci"))
        loaded = OCILayout.load(str(tmp_path / "app.oci"))
        resolved = loaded.resolve("app:latest")
        assert resolved.manifest.digest == manifest.digest
        assert resolved.filesystem().read_file("/app/bin") == b"payload"


class TestRegistry:
    def test_parse_reference(self):
        assert parse_reference("repo/app:1.0") == ("repo/app", "1.0")
        assert parse_reference("app") == ("app", "latest")
        assert parse_reference("host:5000/app:x")[1] == "x"

    def test_push_pull(self):
        registry = ImageRegistry()
        manifest, config, layer = _make_image()
        registry.push("lab/app:1.0", manifest, config, [layer])
        resolved = registry.pull("lab/app:1.0")
        assert resolved.manifest.digest == manifest.digest
        assert registry.repositories() == ["lab/app"]
        assert registry.tags("lab/app") == ["1.0"]

    def test_pull_missing_raises(self):
        with pytest.raises(KeyError):
            ImageRegistry().pull("nope:latest")

    def test_layout_to_registry_to_layout(self):
        layout = OCILayout()
        manifest, config, layer = _make_image()
        layout.add_manifest(manifest, config, [layer], tag="dist")
        registry = ImageRegistry()
        registry.push_layout("lab/app:dist", layout, tag="dist")
        pulled = registry.pull_to_layout("lab/app:dist")
        assert pulled.resolve("dist").manifest.digest == manifest.digest


class TestCorruptManifestTraversal:
    """``referenced_digests`` must flag — not crash on — a manifest blob
    whose bytes no longer parse (e.g. a bit flip landing in the JSON)."""

    def _rot(self, store, digest):
        blob = store.try_get(digest)
        bad = bytearray(blob.as_bytes())
        bad[len(bad) // 2] ^= 0xFF
        store._blobs[digest] = Blob(
            media_type=blob.media_type, digest=digest,
            size=blob.size, payload=bytes(bad),
        )
        store._verified.discard(digest)

    def test_registry_skips_unparseable_manifest_closure(self):
        registry = ImageRegistry()
        manifest, config, layer = _make_image()
        registry.push("lab/app:1.0", manifest, config, [layer])
        self._rot(registry.blobs, manifest.digest)
        refs = registry.referenced_digests()
        assert manifest.digest in refs          # still a repair target
        assert registry.audit()                 # loudly unhealthy, no crash

    def test_layout_repairable_after_manifest_rot(self):
        from repro.integrity.repair import RepairEngine

        pristine, damaged = OCILayout(), OCILayout()
        manifest, config, layer = _make_image()
        for layout in (pristine, damaged):
            layout.add_manifest(manifest, config, [layer], tag="app:dist")
        self._rot(damaged.blobs, manifest.digest)
        engine = RepairEngine().add_layout(pristine, label="pristine")
        outcomes = engine.repair_layout(damaged)
        assert any(o.digest == manifest.digest and o.repaired for o in outcomes)
        assert damaged.audit() == []
        assert damaged.referenced_digests() == pristine.referenced_digests()


class TestNearestTagSuggestion:
    def _registry(self):
        registry = ImageRegistry()
        for tag in ("1.0", "1.1", "2.0-rc1"):
            manifest, config, layer = _make_image(tag.encode())
            registry.push(f"lab/app:{tag}", manifest, config, [layer])
        return registry

    def test_close_typo_suggested(self):
        registry = self._registry()
        with pytest.raises(KeyError) as excinfo:
            registry.pull("lab/app:2.0rc1")
        assert excinfo.value.suggestion == "lab/app:2.0-rc1"
        assert "did you mean" in str(excinfo.value)

    def test_distant_tag_still_suggests_something(self):
        registry = self._registry()
        with pytest.raises(KeyError) as excinfo:
            registry.pull("lab/app:9.9")
        suggestion = excinfo.value.suggestion
        assert suggestion is not None
        assert registry.exists(suggestion)     # always an existing ref

    def test_unknown_repository_has_no_suggestion(self):
        registry = self._registry()
        with pytest.raises(KeyError) as excinfo:
            registry.pull("lab/other:1.0")
        assert excinfo.value.suggestion is None

    def test_nearest_tag_helper_direct(self):
        registry = self._registry()
        assert registry._nearest_tag("lab/app", "1.2") in (
            "lab/app:1.0", "lab/app:1.1",
        )
        assert registry._nearest_tag("lab/none", "x") is None


class TestArtifactCacheUnderFaults:
    def _cache_blob(self, payload=b'{"artifacts": ["a.o", "b.o"]}'):
        return Blob.from_bytes(payload, "application/json")

    def test_roundtrip_plain(self):
        registry = ImageRegistry()
        blob = self._cache_blob()
        assert registry.put_artifact_cache("lab/app", blob) == blob.digest
        got = registry.get_artifact_cache("lab/app")
        assert got is not None and got.digest == blob.digest
        assert registry.get_artifact_cache("lab/none") is None

    def test_roundtrip_survives_transient_faults_with_retry(self):
        from repro.resilience import FaultInjector, FaultSpec
        from repro.resilience.retry import (
            RetryPolicy, SimulatedClock, retry_call,
        )

        registry = ImageRegistry()
        inj = FaultInjector(
            specs=[FaultSpec(site="blob.write", times=2)]
        )
        registry.blobs.fault_injector = inj
        blob = self._cache_blob()
        clock = SimulatedClock()
        retry_call(
            lambda: registry.put_artifact_cache("lab/app", blob),
            policy=RetryPolicy(max_attempts=4), clock=clock,
            site="registry.push",
        )
        got = registry.get_artifact_cache("lab/app")
        assert got is not None and got.digest == blob.digest
        assert clock.now > 0.0           # backoff was charged, not slept

    def test_corrupted_transfer_detected_and_replaced(self):
        from repro.oci.blobs import check_blob
        from repro.resilience import CorruptionSpec, FaultInjector

        registry = ImageRegistry()
        registry.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="registry.transfer", times=1)]
        )
        blob = self._cache_blob()
        registry.put_artifact_cache("lab/app", blob)
        stored = registry.get_artifact_cache("lab/app")
        assert check_blob(stored) is not None   # silent rot, detectable
        # The verified-put promotion path replaces it with good bytes.
        registry.blobs.put_verified(blob)
        assert check_blob(registry.get_artifact_cache("lab/app")) is None

    def test_replacing_cache_gcs_unreferenced_old_blob(self):
        registry = ImageRegistry()
        old = self._cache_blob(b'{"v": 1}')
        new = self._cache_blob(b'{"v": 2}')
        registry.put_artifact_cache("lab/app", old)
        registry.put_artifact_cache("lab/app", new)
        assert old.digest not in registry.blobs
        assert registry.get_artifact_cache("lab/app").digest == new.digest
