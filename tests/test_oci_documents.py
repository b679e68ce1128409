"""Read-only OCI documents, parsed once per distinct bytes.

:func:`repro.oci.layout.resolve_manifest` hands out a
:class:`FrozenManifest` and a :class:`FrozenImageConfig` from a bounded
memo keyed on the stored bytes, so every resolve of equal bytes shares
one parse, and an engine stores each image's config as a frozen value.
Sharing is only safe because no reader can change a shared document:
every mutation path raises, by the documents' own types.  Working copies
(``ImageConfig(...)``, ``Manifest(...)``, ``clone()``) stay mutable.
"""

import copy
import pickle

import pytest

from repro.apps import APPS, get_app
from repro.containers import ContainerEngine
from repro.core.workflow import build_extended_image, build_original_image
from repro.oci import mediatypes
from repro.oci.blobs import Blob
from repro.oci.digest import canonical_json
from repro.oci.image import (
    Descriptor,
    FrozenImageConfig,
    FrozenManifest,
    ImageConfig,
    Manifest,
    ReadOnlyDict,
    ReadOnlyList,
)
from repro.oci.layer import Layer, LayerEntry
from repro.oci.layout import OCILayout
from repro.oci.registry import ImageRegistry
from repro.telemetry import Telemetry
from repro.vfs import InlineContent
from tests.conftest import memos_switched_off

TAG = "app:1"


def _image():
    layer = Layer()
    layer.add(LayerEntry.file("/bin/app", InlineContent(b"app"), mode=0o755))
    config = ImageConfig(env=["PATH=/bin"], entrypoint=["/bin/app"],
                         labels={"org.example": "x"}, diff_ids=[layer.digest])
    config.add_history("build app")
    manifest = Manifest(config=config.descriptor(),
                        layers=[Blob.from_layer(layer).descriptor()],
                        annotations={"org.example.kind": "app"})
    return manifest, config, layer


def _layout():
    layout = OCILayout()
    manifest, config, layer = _image()
    layout.add_manifest(manifest, config, [layer], tag=TAG)
    return layout, manifest, config


# Every way to write to a resolved document: attribute sets and deletes,
# list appends and in-place operators, dict sets, nested maps.
CONFIG_WRITES = {
    "set architecture": lambda c: setattr(c, "architecture", "arm64"),
    "set env": lambda c: setattr(c, "env", []),
    "delete os": lambda c: delattr(c, "os"),
    "env append": lambda c: c.env.append("EVIL=1"),
    "env +=": lambda c: c.env.__iadd__(["EVIL=1"]),
    "env item": lambda c: c.env.__setitem__(0, "EVIL=1"),
    "env pop": lambda c: c.env.pop(),
    "entrypoint extend": lambda c: c.entrypoint.extend(["-x"]),
    "cmd insert": lambda c: c.cmd.insert(0, "x"),
    "diff_ids append": lambda c: c.diff_ids.append("sha256:" + "0" * 64),
    "diff_ids clear": lambda c: c.diff_ids.clear(),
    "history append": lambda c: c.history.append({"created_by": "x"}),
    "history entry set": lambda c: c.history[0].__setitem__("created_by", "x"),
    "add_history": lambda c: c.add_history("x"),
    "labels set": lambda c: c.labels.__setitem__("evil", "1"),
    "labels update": lambda c: c.labels.update(evil="1"),
    "labels delete": lambda c: c.labels.__delitem__("org.example"),
    "labels |=": lambda c: c.labels.__ior__({"evil": "1"}),
}
MANIFEST_WRITES = {
    "set config": lambda m: setattr(m, "config", m.layers[0]),
    "set layers": lambda m: setattr(m, "layers", []),
    "delete annotations": lambda m: delattr(m, "annotations"),
    "layers append": lambda m: m.layers.append(m.config),
    "layers item": lambda m: m.layers.__setitem__(0, m.config),
    "layers remove": lambda m: m.layers.remove(m.layers[0]),
    "layers reverse": lambda m: m.layers.reverse(),
    "annotations set": lambda m: m.annotations.__setitem__("evil", "1"),
    "annotations setdefault": lambda m: m.annotations.setdefault("evil", "1"),
    "config descriptor field": lambda m: setattr(m.config, "digest", "x"),
    "config annotations set": lambda m: m.config.annotations.__setitem__("e", "1"),
    "layer annotations update": lambda m: m.layers[0].annotations.update(e="1"),
}


class TestResolvedDocumentsRefuseWrites:
    @pytest.mark.parametrize("write", sorted(CONFIG_WRITES))
    def test_config(self, write):
        layout, _, config = _layout()
        resolved = layout.resolve(TAG)
        assert isinstance(resolved.config, FrozenImageConfig)
        with pytest.raises((TypeError, AttributeError)):
            CONFIG_WRITES[write](resolved.config)
        assert resolved.config == config
        assert resolved.config.to_bytes() == config.to_bytes()
        assert resolved.verify() == []

    @pytest.mark.parametrize("write", sorted(MANIFEST_WRITES))
    def test_manifest(self, write):
        layout, manifest, _ = _layout()
        resolved = layout.resolve(TAG)
        assert isinstance(resolved.manifest, FrozenManifest)
        with pytest.raises((TypeError, AttributeError)):
            MANIFEST_WRITES[write](resolved.manifest)
        assert resolved.manifest == manifest
        assert resolved.manifest.to_bytes() == manifest.to_bytes()

    def test_nothing_in_a_resolved_document_is_a_plain_list_or_dict(self):
        layout, _, _ = _layout()
        resolved = layout.resolve(TAG)

        def containers(value):
            if isinstance(value, Descriptor):
                yield value.annotations
            elif isinstance(value, (list, dict)):
                yield value
                for item in (value.values() if isinstance(value, dict) else value):
                    yield from containers(item)

        for document in (resolved.manifest, resolved.config):
            for name in document.__dataclass_fields__:
                for value in containers(getattr(document, name)):
                    assert isinstance(value, (ReadOnlyList, ReadOnlyDict)), name

    def test_copies_stay_read_only_and_equal(self):
        layout, _, _ = _layout()
        resolved = layout.resolve(TAG)
        for document in (resolved.manifest, resolved.config):
            for clone in (copy.copy, copy.deepcopy,
                          lambda d: pickle.loads(pickle.dumps(d))):
                copied = clone(document)
                assert type(copied) is type(document) and copied == document
                assert copied.to_bytes() == document.to_bytes()
                with pytest.raises(TypeError):
                    copied.annotations.__setitem__("x", "1") \
                        if isinstance(copied, Manifest) else copied.env.append("x")


class TestWorkingCopiesStayMutable:
    def test_a_new_config_and_manifest(self):
        manifest, config, layer = _image()
        config.diff_ids.append("sha256:" + "1" * 64)
        config.history[0]["comment"] = "kept"
        config.labels["more"] = "yes"
        config.env = ["A=1"]
        manifest.layers.append(manifest.config)
        manifest.annotations["more"] = "yes"
        assert type(manifest.layers) is list and type(config.history[0]) is dict

    def test_a_clone_of_a_resolved_config_is_a_private_working_copy(self):
        layout, _, config = _layout()
        resolved = layout.resolve(TAG)
        clone = resolved.config.clone()
        assert type(clone) is ImageConfig and clone == resolved.config
        clone.diff_ids.append("sha256:" + "2" * 64)
        clone.history[0]["created_by"] = "changed"
        clone.add_history("more")
        clone.labels["x"] = "y"
        assert resolved.config == config
        assert layout.resolve(TAG).config == config

    def test_freezing_copies_a_working_copy(self):
        _, config, _ = _image()
        frozen = config.frozen()
        config.env.append("LATER=1")
        config.history[0]["created_by"] = "later"
        assert "LATER=1" not in frozen.env
        assert frozen.history[0]["created_by"] == "build app"
        assert frozen.frozen() is frozen

    def test_the_two_kinds_compare_and_render_alike(self):
        manifest, config, _ = _image()
        for working in (manifest, config):
            value = working.frozen()
            assert value == working and working == value
            assert value.to_bytes() == working.to_bytes()
            assert value.digest == working.digest
            assert value.descriptor() == working.descriptor()
        assert manifest.frozen().descriptor({"a": "b"}) == manifest.descriptor({"a": "b"})


@pytest.fixture(scope="module")
def app_configs():
    """Every config the 11 apps' images hold: each layout tag's resolved
    config and every image config in the engine (all read-only values),
    and a working copy of each."""
    engine = ContainerEngine(arch="amd64")
    values = []
    for name in sorted(APPS):
        layout, _ = build_extended_image(engine, get_app(name))
        build_original_image(engine, get_app(name))
        values += [layout.resolve(tag).config for tag in layout.tags()]
    values += [image.config for image in engine.images.values()]
    return values + [ImageConfig.from_json(value.to_json()) for value in values]


class TestCloneCopiesFields:
    """``clone()`` copies the fields instead of rendering and parsing,
    and gives what the round trip gave."""

    def test_a_clone_equals_the_round_trip(self, app_configs):
        assert {type(config) for config in app_configs} == {
            FrozenImageConfig, ImageConfig}
        for config in app_configs:
            clone = config.clone()
            assert type(clone) is ImageConfig
            assert clone == ImageConfig.from_json(config.to_json())
            assert clone.to_bytes() == config.to_bytes()

    def test_writing_to_a_clone_leaves_the_original_unchanged(self, app_configs):
        for config in app_configs:
            before = copy.deepcopy(config.to_json())
            clone = config.clone()
            for values in (clone.env, clone.entrypoint, clone.cmd,
                           clone.diff_ids, clone.history):
                values.append({} if values is clone.history else "x")
            clone.labels["x"] = "y"
            for entry in clone.history:
                entry["x"] = "y"
            assert config.to_json() == before

    def test_an_empty_working_dir_clones_as_root(self):
        config = ImageConfig(working_dir="")
        assert config.clone().working_dir == "/"
        assert config.clone() == ImageConfig.from_json(config.to_json())


class TestParsedOnce:
    def test_equal_bytes_share_one_parse(self):
        first, _, _ = _layout()
        second, _, _ = _layout()
        a, b = first.resolve(TAG), second.resolve(TAG)
        assert a.manifest is b.manifest and a.config is b.config
        assert a.manifest is first.resolve(TAG).manifest

    def test_with_the_memo_off_each_resolve_parses(self):
        layout, _, _ = _layout()
        with memos_switched_off():
            a, b = layout.resolve(TAG), layout.resolve(TAG)
        assert a.manifest is not b.manifest and a.manifest == b.manifest
        assert a.config is not b.config and a.config == b.config

    def test_a_value_renders_once(self, monkeypatch):
        import repro.oci.image as image_module

        renders = []

        def counting(obj):
            renders.append(obj)
            return canonical_json(obj)

        _, config, _ = _image()
        monkeypatch.setattr(image_module, "canonical_json", counting)
        value = config.frozen()
        assert value.to_bytes() is value.to_bytes()
        assert value.digest == value.descriptor().digest
        assert len(renders) == 1

    def test_other_bytes_parse_apart(self):
        layout, _, _ = _layout()
        manifest, config, layer = _image()
        other = config.clone()
        other.env.append("OTHER=1")
        layout.add_manifest(
            Manifest(config=other.descriptor(), layers=list(manifest.layers)),
            other, [layer], tag="app:2")
        assert layout.resolve("app:2").config == other
        assert layout.resolve(TAG).config == config


class TestEngineStoresValues:
    def test_a_stored_config_is_a_value_and_a_container_gets_a_working_copy(self):
        engine = ContainerEngine(arch="amd64")
        _, config, layer = _image()
        engine.add_image("app:1", config, [layer])
        config.env.append("LATER=1")
        stored = engine.image("app:1")
        assert isinstance(stored.config, FrozenImageConfig)
        assert "LATER=1" not in stored.config.env
        ctr = engine.from_image("app:1")
        assert type(ctr.config) is ImageConfig
        ctr.config.env.append("MINE=1")
        ctr.config.labels["mine"] = "1"
        committed = engine.commit(ctr, ref="app:2")
        assert "MINE=1" in committed.config.env
        assert "MINE=1" not in engine.image("app:1").config.env

    def test_a_loaded_image_shares_the_resolved_config(self):
        layout, _, _ = _layout()
        engine = ContainerEngine(arch="amd64")
        engine.load_from_layout(layout, TAG, ref="app:1")
        assert engine.image("app:1").config is layout.resolve(TAG).config


class TestPullBytes:
    def test_registry_pull_bytes_are_the_stored_blobs_sizes(self):
        registry = ImageRegistry()
        registry.telemetry = tele = Telemetry()
        manifest, config, layer = _image()
        digest = registry.push("lab/app:1", manifest, config, [layer])
        stored = (registry.blobs.get(digest).size
                  + registry.blobs.get(config.digest).size + layer.size)
        rendered = (len(config.clone().to_bytes())
                    + len(Manifest.from_json(manifest.to_json()).to_bytes())
                    + layer.size)
        assert stored == rendered
        for pulls in (1, 2, 3):
            registry.pull("lab/app:1")
            assert tele.metrics.counter(
                "registry_pull_bytes_total").value == pulls * stored

    def test_a_pull_is_read_only_and_verified(self):
        registry = ImageRegistry()
        manifest, config, layer = _image()
        registry.push("lab/app:1", manifest, config, [layer])
        resolved = registry.pull("lab/app:1")
        assert isinstance(resolved.config, FrozenImageConfig)
        assert resolved.manifest.config.media_type == mediatypes.IMAGE_CONFIG
        with pytest.raises(TypeError):
            resolved.config.diff_ids.append("x")
