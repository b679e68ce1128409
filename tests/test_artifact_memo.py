"""Each build product described once: the ``artifacts`` memo and the
splice.

A render (:func:`repro.toolchain.artifacts.artifact_content`) keeps the
artifact it rendered under the payload bytes, and
:func:`~repro.toolchain.artifacts.read_artifact` answers those bytes with
a copy of it instead of parsing them.  A render of an archive or a
linked artifact splices in each member's text when the member's payload
is in the memo (:func:`~repro.toolchain.artifacts.rendered_text`).
Both must be invisible: every payload and digest equals the run with
every memo off, every stored artifact still encodes to its key, every
hit equals a fresh parse, no write to a read artifact reaches a later
read, and bytes no render made parse as before.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simbin
from repro.apps import APPS, get_app
from repro.containers import ContainerEngine
from repro.core.workflow import (
    build_extended_image,
    build_original_image,
    system_side_adapt,
)
from repro.memo import MEMOS
from repro.oci.layout import OCILayout
from repro.perf import attach_perf
from repro.resilience.journal import RebuildJournal
from repro.sysmodel import X86_CLUSTER
from repro.toolchain.artifacts import (
    ArchiveArtifact,
    ExecutableArtifact,
    ObjectArtifact,
    SharedObjectArtifact,
    artifact_content,
    read_artifact,
    rendered_text,
    try_read_artifact,
)
from tests.conftest import memos_switched_off

ARTIFACTS = MEMOS["artifacts"]


@pytest.fixture
def renders(monkeypatch):
    """Every payload :func:`simbin.artifact_payload` makes, in order, as
    ``(kind, spliced?, payload)``; a spliced render must equal the plain
    encoding of the same artifact."""
    made = []
    plain = simbin.artifact_payload

    def render(kind, body, spliced=None):
        payload = plain(kind, body, spliced)
        if spliced:
            assert payload == plain(kind, body)
        made.append((kind, bool(spliced), payload))
        return payload

    monkeypatch.setattr(simbin, "artifact_payload", render)
    return made


def _adapt_every_way(name):
    """The user-side build and original image of app *name*, then its
    vendor, llvm, LTO and PGO (instrument, profile, use) adaptations:
    every image's config digest and layer digests, and the layout's
    tags."""
    spec = get_app(name)
    user = ContainerEngine(arch="amd64")
    layout, _ = build_extended_image(user, spec)
    build_original_image(user, spec)
    system = ContainerEngine(arch="amd64")
    recorder = attach_perf(system, X86_CLUSTER)
    system_side_adapt(system, layout, X86_CLUSTER, ref=f"{name}:vendor")
    system_side_adapt(system, layout, X86_CLUSTER, flavor="llvm",
                      ref=f"{name}:llvm")
    system_side_adapt(system, layout, X86_CLUSTER, lto=True, ref=f"{name}:lto")
    system_side_adapt(system, layout, X86_CLUSTER, recorder=recorder,
                      pgo_workload=spec.workload_names()[0], ref=f"{name}:pgo")
    images = {(side, ref): (image.config.digest, image.layer_key())
              for side, engine in (("user", user), ("system", system))
              for ref, image in engine.images.items()}
    return images, layout.manifest_map()


class TestSameBytes:
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_every_payload_and_digest_equals_the_run_with_memos_off(
            self, app, renders):
        on = _adapt_every_way(app)
        on_renders = list(renders)
        renders.clear()
        with memos_switched_off():
            off = _adapt_every_way(app)
        assert on == off
        assert [p for _, _, p in on_renders] == [p for _, _, p in renders]
        # Seven links (user build, original, vendor, llvm, LTO, both PGO
        # rebuilds) splice every object they read; with the memo off no
        # render splices.
        kinds = {kind for kind, spliced, _ in on_renders if spliced}
        assert "executable" in kinds and not any(s for _, s, _ in renders)
        if get_app(app).use_static_lib:
            assert "archive" in kinds
        # A render takes its artifact over: nothing wrote to a stored
        # artifact since, so each still encodes to the payload it is kept
        # under (a change after the render would reach every later read).
        assert len(ARTIFACTS) > 0
        for payload, stored in ARTIFACTS._entries.items():
            assert simbin.ARTIFACT_MAGIC + json.dumps(
                stored.to_json(), sort_keys=True).encode() == payload


def _payloads(renders, app="hpl"):
    """Every payload a user-side build of *app* (an archive for hpl) and
    its vendor adaptation render, by kind."""
    spec = get_app(app)
    user = ContainerEngine(arch="amd64")
    layout, dist_tag = build_extended_image(user, spec)
    system = ContainerEngine(arch="amd64")
    system_side_adapt(system, layout, X86_CLUSTER, ref=f"{app}:audit")
    found = {}
    for kind, _, payload in renders:
        found.setdefault(kind, []).append(payload)
    assert {"object", "executable"} <= set(found)
    return found, layout, dist_tag


def _parse(data):
    with memos_switched_off():
        return read_artifact(data)


def _same(artifact, parsed):
    assert type(artifact) is type(parsed)
    assert vars(artifact) == vars(parsed)


def _scribble(artifact):
    """Write to every list and map of *artifact*, its member records and
    their objects included."""
    for value in vars(artifact).values():
        _scribble_json(value)


def _scribble_json(value):
    if isinstance(value, list):
        for item in value:
            _scribble_json(item)
        value.append("scribbled")
    elif isinstance(value, dict):
        for item in value.values():
            _scribble_json(item)
        value["scribbled"] = True


class TestReadAudit:
    def test_a_hit_equals_a_fresh_parse(self, renders):
        found, _, _ = _payloads(renders)
        for kind, payloads in found.items():
            for payload in payloads[-20:]:
                assert payload in ARTIFACTS, kind
                hits = ARTIFACTS.hits
                artifact = read_artifact(payload)
                assert ARTIFACTS.hits == hits + 1
                _same(artifact, _parse(payload))

    def test_a_hit_of_each_kind_reads_as_its_class(self, renders):
        found, _, _ = _payloads(renders)
        assert {type(read_artifact(p[-1])) for p in found.values()} == {
            ObjectArtifact, ArchiveArtifact, ExecutableArtifact}

    def test_writing_to_a_read_artifact_never_changes_a_later_read(self, renders):
        found, _, _ = _payloads(renders)
        for payloads in found.values():
            payload = payloads[-1]
            first = read_artifact(payload)
            _scribble(first)
            assert first != _parse(payload)
            _same(read_artifact(payload), _parse(payload))

    def test_a_hit_is_a_copy_of_what_the_render_kept(self):
        obj = ObjectArtifact(sources=("/src/a.c",), fflags={"lto": True},
                             command=["gcc", "-c", "a.c"], code_size=900)
        content = artifact_content(obj)
        hit = read_artifact(content)
        _same(hit, _parse(content))
        assert hit.sources == ["/src/a.c"]        # a list, as a parse gives
        assert hit.command is not obj.command and hit.fflags is not obj.fflags

    def test_a_hit_copies_an_executables_member_records(self):
        obj = ObjectArtifact(sources=["/src/a.c"], code_size=100)
        exe = ExecutableArtifact(objects=[obj.to_json()], lib_paths={"m": "/lib/libm.so"})
        content = artifact_content(exe)
        one, two = read_artifact(content), read_artifact(content)
        assert one.objects[0] is not two.objects[0]
        assert one.objects[0]["sources"] is not two.objects[0]["sources"]
        assert one.lib_paths is not two.lib_paths

    def test_a_payload_no_render_made_parses_as_before(self):
        handmade = simbin.ARTIFACT_MAGIC + b'{"kind":"object","sources":["a.c"]}'
        lookups = (ARTIFACTS.hits, ARTIFACTS.misses, ARTIFACTS.stores)
        for _ in range(2):
            artifact = read_artifact(handmade)
            assert type(artifact) is ObjectArtifact and artifact.sources == ["a.c"]
        # Two misses: a read never stores.
        assert (ARTIFACTS.hits, ARTIFACTS.misses, ARTIFACTS.stores) == (
            lookups[0], lookups[1] + 2, lookups[2])

    def test_a_saved_layout_and_a_journal_entry_parse_as_before(
            self, renders, tmp_path):
        found, layout, dist_tag = _payloads(renders, app="hpccg")
        layout.save(str(tmp_path))
        exe_path = f"/app/{get_app('hpccg').binary_name}"
        expected = read_artifact(layout.resolve(dist_tag).filesystem().read_content(exe_path))
        payload = found["object"][0]
        journal = RebuildJournal(layout, dist_tag)
        journal.record("obj", "sha256:0", "/src/main.o", artifact_content(
            read_artifact(payload), pad=0), 0o644)
        journal.flush()
        ARTIFACTS.clear()
        stores = ARTIFACTS.stores
        loaded = OCILayout.load(str(tmp_path))
        data = loaded.resolve(dist_tag).filesystem().read_content(exe_path)
        assert rendered_text(data) is None
        _same(read_artifact(data), _parse(data))
        assert vars(read_artifact(data)) == vars(expected)
        content, _ = RebuildJournal(layout, dist_tag).output_for("obj")
        _same(read_artifact(content), _parse(payload))
        assert ARTIFACTS.stores == stores

    def test_a_shell_script_is_not_looked_up(self):
        lookups = ARTIFACTS.hits + ARTIFACTS.misses
        assert try_read_artifact(b"#!/bin/sh\necho hi\n") is None
        assert try_read_artifact(simbin.program_marker("gcc")) is None
        assert ARTIFACTS.hits + ARTIFACTS.misses == lookups

    def test_with_the_memo_off_nothing_is_spliced_or_kept(self, memos_off):
        content = artifact_content(ObjectArtifact(sources=["/src/a.c"]))
        assert rendered_text(content) is None and len(ARTIFACTS) == 0
        assert type(read_artifact(content)) is ObjectArtifact


_TEXT = st.text(max_size=6)
_OBJECTS = st.builds(
    ObjectArtifact,
    sources=st.lists(_TEXT, max_size=2),
    defines=st.lists(_TEXT, max_size=2),
    fflags=st.dictionaries(_TEXT, st.one_of(st.booleans(), _TEXT), max_size=3),
    opt_level=st.sampled_from(["0", "2", "3", "fast"]),
    march=st.one_of(st.none(), _TEXT),
    lto_ir=st.booleans(),
    code_size=st.integers(0, 1 << 20),
    command=st.lists(_TEXT, max_size=3),
)


@settings(max_examples=120, deadline=None)
@given(objects=st.lists(st.tuples(_OBJECTS, st.booleans()), max_size=5),
       kind=st.sampled_from(["archive", "shared", "executable"]),
       libs=st.dictionaries(_TEXT, _TEXT, max_size=3))
def test_a_spliced_render_is_the_plain_render(objects, kind, libs):
    contents = [artifact_content(obj) for obj, _ in objects]
    texts = [rendered_text(content) if known else None
             for content, (_, known) in zip(contents, objects)]
    members = [read_artifact(content) for content in contents]
    if kind == "archive":
        records = [ArchiveArtifact.member(f"m{i}.o", obj, text)
                   for i, (obj, text) in enumerate(zip(members, texts))]
        artifact = ArchiveArtifact(members=[record for record, _ in records])
        texts = [text for _, text in records]
    else:
        cls = SharedObjectArtifact if kind == "shared" else ExecutableArtifact
        artifact = cls(objects=[obj.to_json() for obj in members], lib_paths=libs,
                       lto_coverage=0.5, command=["ld"])
    body = artifact.to_json()
    plain = simbin.ARTIFACT_MAGIC + json.dumps(body, sort_keys=True).encode()
    content = artifact_content(artifact, pad=0, texts=texts)
    assert content.payload == plain
    parsed = _parse(content)
    _same(read_artifact(content), parsed)
    assert dataclasses.asdict(parsed) == dataclasses.asdict(artifact)
