"""The layer-stack decode memo of ``repro.core.cache.storage``: every
decode equals a fresh parse of the flattened stack, whatever earlier
callers did to what they were handed, and every failure and verified read
happens on every call."""

import dataclasses
import json
import types

import pytest

from repro.apps import APPS, get_app
from repro.containers import ContainerEngine
from repro.core.backend import rebuild as rebuild_module
from repro.core.cache import storage
from repro.core.cache.storage import (
    CACHE_ROOT,
    REBUILD_ROOT,
    CacheError,
    add_cache_manifest,
    add_rebuild_manifest,
    decode_cache,
    decode_rebuild,
    decode_rebuild_plan,
    encode_cache_layer,
    encode_rebuild_layer,
    extended_tag,
    rebuilt_tag,
)
from repro.core.frontend.parser import graph_from_trace
from repro.core.models import BuildNode, CompilationStep, FileRecord, ImageModel, ProcessModels
from repro.core.workflow import build_extended_image, system_side_adapt
from repro.integrity import IntegrityError
from repro.oci import Layer, LayerEntry
from repro.oci.blobs import Blob
from repro.oci.layout import OCILayout
from repro.sysmodel import X86_CLUSTER
from repro.vfs import InlineContent
from repro.vfs import paths as vpath
from tests.conftest import memos_switched_off
from tests.test_oci_properties import apply_fresh

APP_NAMES = sorted(APPS)


@pytest.fixture(scope="module")
def adapted():
    """``{app: (layout, dist_tag)}``, each layout holding the dist image,
    its ``+coM`` and its ``+coMre``."""
    out = {}
    for name in APP_NAMES:
        layout, dist_tag = build_extended_image(ContainerEngine(arch="amd64"), get_app(name))
        system_side_adapt(ContainerEngine(arch="amd64"), layout, X86_CLUSTER)
        out[name] = layout, dist_tag
    return out


def _files_under(fs, root):
    if not fs.is_dir(root):
        return {}
    return {"/" + vpath.relative_to(path, root): node for path, node in fs.iter_files(root)}


def _digests(files):
    return {path: content.digest for path, content in files.items()}


def _shape(models):
    """What a decode of the models must reproduce: the JSON and the order
    nodes and file records were inserted in."""
    return models.to_json(), [n.id for n in models.graph], list(models.image.files)


def _fresh_cache(layout, dist_tag):
    fs = apply_fresh(layout.resolve(extended_tag(dist_tag)).layers)
    models = ProcessModels.from_json(json.loads(fs.read_text(f"{CACHE_ROOT}/models.json")))
    sources = {p: n.content for p, n in _files_under(fs, f"{CACHE_ROOT}/sources").items()}
    return models, sources


def _fresh_rebuild(layout, dist_tag):
    fs = apply_fresh(layout.resolve(rebuilt_tag(dist_tag)).layers)
    meta = json.loads(fs.read_text(f"{REBUILD_ROOT}/meta.json"))
    files = _files_under(fs, f"{REBUILD_ROOT}/files")
    nodes = _files_under(fs, f"{REBUILD_ROOT}/nodes")
    return (meta, _digests({p: n.content for p, n in files.items()}),
            {p: n.mode for p, n in files.items()},
            _digests({p: n.content for p, n in nodes.items()}))


def _assert_fresh(layout, dist_tag):
    models, sources, resolved = decode_cache(layout, dist_tag)
    fresh_models, fresh_sources = _fresh_cache(layout, dist_tag)
    assert _shape(models) == _shape(fresh_models)
    assert _digests(sources) == _digests(fresh_sources)
    assert resolved.manifest.digest == layout.resolve(extended_tag(dist_tag)).manifest.digest
    meta, files, modes, resolved = decode_rebuild(layout, dist_tag)
    fresh_meta, fresh_files, fresh_modes, fresh_nodes = _fresh_rebuild(layout, dist_tag)
    assert (meta, _digests(files), modes) == (fresh_meta, fresh_files, fresh_modes)
    assert resolved.manifest.digest == layout.resolve(rebuilt_tag(dist_tag)).manifest.digest
    node_files, fingerprints = decode_rebuild_plan(layout, dist_tag)
    assert _digests(node_files) == fresh_nodes
    assert fingerprints == fresh_meta.get("node_fingerprints", {})


def _spoil(models, sources, meta, files, modes, node_files):
    """Change every container of one set of handed-out decode results."""
    image = models.image
    first = next(iter(image.files.values()))
    image.files.pop(first.path)
    image.files["/spoiled"] = FileRecord(path="/spoiled", origin="unknown")
    for listing in (image.packages, image.base_packages, image.entrypoint):
        listing.append("spoiled")
    for node in models.graph:
        node.deps.append("/spoiled")
        node.metadata["spoiled"] = True
        node.kind = "spoiled"
    models.graph.add(BuildNode(id="/spoiled", kind="file", path="/spoiled"))
    models.metadata["spoiled"] = True
    for mapping in (sources, files, node_files):
        mapping.pop(next(iter(mapping)), None)
        mapping["/spoiled"] = InlineContent(b"spoiled")
    modes["/spoiled"] = 0o7777
    meta["copied_data_files"] = -1
    meta.setdefault("node_fingerprints", {})["/spoiled"] = "spoiled"
    meta.pop("replacements", None)


class TestEveryDecodeIsAFreshParse:
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_each_decode_equals_a_fresh_parse(self, adapted, app):
        layout, dist_tag = adapted[app]
        for _ in range(2):   # a miss or a hit, then certainly a hit
            _assert_fresh(layout, dist_tag)

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_changing_what_was_handed_out_changes_no_later_decode(self, adapted, app):
        layout, dist_tag = adapted[app]
        models, sources, _ = decode_cache(layout, dist_tag)
        meta, files, modes, _ = decode_rebuild(layout, dist_tag)
        node_files, _ = decode_rebuild_plan(layout, dist_tag)
        _spoil(models, sources, meta, files, modes, node_files)
        _assert_fresh(layout, dist_tag)

    def test_one_changed_entry_misses_the_memo(self, adapted):
        layout, dist_tag = adapted["hpccg"]
        models, sources, _ = decode_cache(layout, dist_tag)
        models.metadata["changed"] = 1
        add_cache_manifest(layout, dist_tag, encode_cache_layer(models, sources))
        assert decode_cache(layout, dist_tag)[0].metadata["changed"] == 1
        meta, files, modes, _ = decode_rebuild(layout, dist_tag)
        node_files, _ = decode_rebuild_plan(layout, dist_tag)
        meta["changed"] = 2
        add_rebuild_manifest(
            layout, dist_tag, encode_rebuild_layer(meta, files, modes, node_files))
        assert decode_rebuild(layout, dist_tag)[0]["changed"] == 2
        _assert_fresh(layout, dist_tag)


def _hollow_layout(kind):
    """A layout whose ``+coM`` (or ``+coMre``) top layer lacks its JSON file."""
    layout, dist_tag = build_extended_image(ContainerEngine(arch="amd64"), get_app("hpccg"))
    hollow = Layer(entries=[LayerEntry.directory("/.coMtainer"),
                            LayerEntry.directory(CACHE_ROOT if kind == "cache" else REBUILD_ROOT)])
    if kind == "cache":
        add_cache_manifest(layout, dist_tag, hollow)
    else:
        add_rebuild_manifest(layout, dist_tag, hollow)
    return layout, dist_tag


class TestFailuresOnEveryCall:
    def test_missing_models_json_raises_every_time(self):
        layout, dist_tag = _hollow_layout("cache")
        for _ in range(2):
            with pytest.raises(CacheError) as info:
                decode_cache(layout, dist_tag)
            assert str(info.value) == "extended image has no cache layer models.json"
            assert (info.value.stage, info.value.tag) == ("decode-cache", extended_tag(dist_tag))

    def test_missing_meta_json_raises_or_reads_empty_every_time(self):
        layout, dist_tag = _hollow_layout("rebuild")
        for _ in range(2):
            with pytest.raises(CacheError) as info:
                decode_rebuild(layout, dist_tag)
            assert str(info.value) == "rebuilt image has no rebuild meta.json"
            assert (info.value.stage, info.value.tag) == ("decode-rebuild", rebuilt_tag(dist_tag))
            assert decode_rebuild_plan(layout, dist_tag) == ({}, {})

    def test_unparsable_json_raises_every_time(self):
        layout, dist_tag = build_extended_image(ContainerEngine(arch="amd64"), get_app("hpccg"))
        broken = Layer(entries=[
            LayerEntry.file(f"{CACHE_ROOT}/models.json", InlineContent(b"{not json")),
            LayerEntry.file(f"{REBUILD_ROOT}/meta.json", InlineContent(b"[1,")),
        ])
        add_cache_manifest(layout, dist_tag, broken)
        add_rebuild_manifest(layout, dist_tag, broken)
        for _ in range(2):
            for decode in (decode_cache, decode_rebuild, decode_rebuild_plan):
                with pytest.raises(json.JSONDecodeError):
                    decode(layout, dist_tag)

    def test_missing_tags_raise_as_before(self):
        layout, dist_tag = OCILayout(), "hpccg.dist"
        with pytest.raises(CacheError, match="run coMtainer-build first"):
            decode_cache(layout, dist_tag)
        with pytest.raises(CacheError, match="run coMtainer-rebuild first"):
            decode_rebuild(layout, dist_tag)
        assert decode_rebuild_plan(layout, dist_tag) == ({}, {})

    def test_a_rotten_layer_raises_from_resolve_every_time(self, adapted):
        layout, dist_tag = adapted["minimd"]
        _assert_fresh(layout, dist_tag)     # both stacks are in the memo now
        for tag in (extended_tag(dist_tag), rebuilt_tag(dist_tag)):
            top = layout.resolve(tag).manifest.layers[-1].digest
            good = layout.blobs.try_get(top)
            layout.blobs._blobs[top] = Blob(media_type=good.media_type, digest=top,
                                            size=good.size, payload=b"rotten")
            decode = decode_cache if tag == extended_tag(dist_tag) else decode_rebuild
            for _ in range(2):
                with pytest.raises(IntegrityError):
                    decode(layout, dist_tag)
            layout.blobs._blobs[top] = good

    def test_every_decode_reads_its_blobs_through_the_store(self, adapted, monkeypatch):
        layout, dist_tag = adapted["comd"]
        reads = []
        real = type(layout.blobs).get
        monkeypatch.setattr(type(layout.blobs), "get",
                            lambda store, digest, *a, **k: (reads.append(digest),
                                                            real(store, digest, *a, **k))[1])
        counts = []
        for _ in range(3):
            reads.clear()
            decode_cache(layout, dist_tag)
            decode_rebuild(layout, dist_tag)
            decode_rebuild_plan(layout, dist_tag)
            counts.append(list(reads))
        assert counts[0] and counts[0] == counts[1] == counts[2]


class TestRepeatReadsParseNothing:
    def test_a_second_decode_cache_parses_nothing(self, adapted, monkeypatch):
        layout, dist_tag = adapted["lulesh"]
        decode_cache(layout, dist_tag)
        parses = []
        real_from_json = ProcessModels.from_json
        # The decode's own JSON parses; resolving the tag still parses the
        # manifest and config, as every call must.
        monkeypatch.setattr(storage, "json", types.SimpleNamespace(
            dumps=json.dumps,
            loads=lambda *a, **k: (parses.append("loads"), json.loads(*a, **k))[1]))
        monkeypatch.setattr(ProcessModels, "from_json", staticmethod(
            lambda obj: (parses.append("from_json"), real_from_json(obj))[1]))
        models, _, _ = decode_cache(layout, dist_tag)
        assert parses == []
        assert _shape(models) == _shape(_fresh_cache(layout, dist_tag)[0])


def _unsorted_models():
    """Models built by the front end in trace order, which is not sorted."""
    cc = {"toolchain": "gnu-12", "role": "cc"}
    graph = graph_from_trace([
        {"argv": ["gcc", "-O2", "-c", "z.c"], "cwd": "/src", "program": "compiler-driver",
         "meta": cc},
        {"argv": ["gcc", "-O2", "-c", "a.c"], "cwd": "/src", "program": "compiler-driver",
         "meta": cc},
        {"argv": ["ar", "rcs", "lib.a", "a.o"], "cwd": "/src", "program": "ar", "meta": {}},
        {"argv": ["gcc", "z.o", "lib.a", "-o", "/app/demo", "-lm"], "cwd": "/src",
         "program": "compiler-driver", "meta": cc},
    ])
    image = ImageModel(packages=["libz"], entrypoint=["/app/demo"])
    for path in ("/app/demo", "/app/data.txt", "/app/a"):
        image.files[path] = FileRecord(path=path, origin="build", size=3)
    models = ProcessModels(image=image, graph=graph, metadata={"isa_scan": {"a": 1}})
    assert [n.id for n in graph] != sorted(n.id for n in graph)
    assert list(image.files) != sorted(image.files)
    return models


class TestClone:
    def _assert_round_trip_equal(self, models):
        clone = models.clone()
        assert _shape(clone) == _shape(ProcessModels.from_json(models.to_json()))
        assert clone.to_json() == models.to_json()
        for node in models.graph:
            copy = clone.graph.get(node.id)
            assert copy is not node and copy.step is node.step
            assert copy.deps is not node.deps and copy.metadata is not node.metadata
        for path, record in models.image.files.items():
            assert clone.image.files[path] is record
        assert clone.image.files is not models.image.files
        assert clone.metadata is not models.metadata
        for name in ("packages", "base_packages", "entrypoint"):
            assert getattr(clone.image, name) is not getattr(models.image, name)

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_clone_is_the_round_trip_for_every_app(self, adapted, app):
        layout, dist_tag = adapted[app]
        self._assert_round_trip_equal(_fresh_cache(layout, dist_tag)[0])

    def test_clone_of_a_front_end_graph_inserts_in_sorted_order(self):
        models = _unsorted_models()
        self._assert_round_trip_equal(models)
        clone = models.clone()
        assert [n.id for n in clone.graph] == sorted(n.id for n in models.graph)
        assert list(clone.image.files) == sorted(models.image.files)

    def test_file_records_and_steps_are_frozen(self):
        record = FileRecord(path="/a", origin="build")
        step = CompilationStep(argv=["gcc", "-c", "a.c"])
        for obj, field in ((record, "size"), (record, "origin"), (step, "argv"),
                           (step, "meta"), (step, "cwd")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, field, None)

    def test_the_memo_is_bounded(self, adapted):
        for name in APP_NAMES:
            decode_cache(*adapted[name])
            decode_rebuild(*adapted[name])
        assert len(storage._DECODE_MEMO) <= storage._DECODE_MEMO.cap == 64


class TestRebuildOnlyReadsItsModels:
    """``rebuild_in_container`` reads the decode memo's own models and
    sources in place: a rebuild leaves them as it found them."""

    @pytest.mark.parametrize("app", ["hpccg", "lammps"])
    def test_cold_and_warm_rebuilds_leave_the_models_unchanged(self, app, monkeypatch):
        rebuild = rebuild_module.rebuild_in_container
        runs = []

        def checked(engine, container, extended, dist_tag, *args, **kwargs):
            models, sources = storage.decoded_cache(extended, dist_tag)
            before = models.to_json(), dict(sources)
            meta = rebuild(engine, container, extended, dist_tag, *args, **kwargs)
            runs.append((len(meta[0]["executed_nodes"]),
                         (models.to_json(), sources) == before))
            return meta

        monkeypatch.setattr(rebuild_module, "rebuild_in_container", checked)
        layout, _ = build_extended_image(ContainerEngine(arch="amd64"), get_app(app))
        system_side_adapt(ContainerEngine(arch="amd64"), layout, X86_CLUSTER)
        cold = len(runs)
        # An earlier test's warm rebuild of these inputs may have stored
        # the +coMre this one would read from the rebuild memo.
        with memos_switched_off("rebuild"):
            system_side_adapt(ContainerEngine(arch="amd64"), layout, X86_CLUSTER)
        assert all(unchanged for _, unchanged in runs)
        assert runs[0][0] > 0                                 # cold: compiles
        assert cold < len(runs) and runs[-1][0] == 0          # warm: none
