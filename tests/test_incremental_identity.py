"""Incremental-vs-cold byte identity across every application spec.

The plan-level short-circuit (:mod:`repro.perf.incremental`) replays
previous outputs instead of executing — so for every app the rebuilt
*bytes* must be indistinguishable from a cold rebuild, for a warm
identical re-adaptation, for a one-node change, and with worker-fleet
chaos in the mix (fleet faults reshape simulated time, never bytes)."""

import pytest

from repro import durable
from repro.apps import APPS
from repro.containers import ContainerEngine
from repro.core.cache.storage import (
    add_cache_manifest,
    decode_cache,
    decode_rebuild,
    decode_rebuild_plan,
    encode_cache_layer,
    extended_tag,
)
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import install_system_side_images, sysenv_ref
from repro.core.workflow import build_extended_image
from repro.oci import mediatypes
from repro.oci.layout import OCILayout
from repro.perf import attach_perf
from repro.resilience import FaultInjector, FaultSpec, PersistentFault
from repro.resilience.journal import (
    JOURNAL_KIND,
    RebuildJournal,
    encode_output,
)
from repro.sysmodel import X86_CLUSTER
from repro.vfs.content import InlineContent

pytestmark = pytest.mark.incremental

ALL_APPS = sorted(APPS)
CHAOS_APPS = ALL_APPS[:3]


@pytest.fixture(scope="module")
def system_engine():
    engine = ContainerEngine(arch="amd64")
    install_system_side_images(engine, X86_CLUSTER)
    attach_perf(engine, X86_CLUSTER)
    return engine


@pytest.fixture(scope="module")
def extended_images():
    user = ContainerEngine(arch="amd64")
    built = {}

    def get(app):
        if app not in built:
            built[app] = build_extended_image(user, APPS[app])
        return built[app]

    return get


def _fresh_copy(extended):
    layout, dist_tag = extended
    fresh = OCILayout()
    for tag in (dist_tag, extended_tag(dist_tag)):
        resolved = layout.resolve(tag)
        fresh.add_manifest(resolved.manifest, resolved.config,
                           resolved.layers, tag=tag)
    return fresh, dist_tag


def _rebuild(engine, layout, args):
    ctr = engine.from_image(sysenv_ref("x86"), name="inc-id",
                            mounts={IO_MOUNT: layout})
    try:
        return engine.run(ctr, ["coMtainer-rebuild"] + args).check().stdout
    finally:
        engine.remove_container("inc-id")


def _digests(layout, dist_tag):
    """Per-path content digests of the rebuilt files + node outputs."""
    meta, files, _, _ = decode_rebuild(layout, dist_tag)
    node_files, _ = decode_rebuild_plan(layout, dist_tag)
    return (
        {p: c.digest for p, c in files.items()},
        {p: c.digest for p, c in node_files.items()},
        meta,
    )


def _scoped_target(meta):
    """A deterministic single-object LTO target for the app."""
    objects = sorted(n for n in meta["executed_nodes"] if n.endswith(".o"))
    return objects[0] if objects else sorted(meta["executed_nodes"])[0]


class TestWarmIdentity:
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_warm_identical_bytes_match_cold(
        self, app, system_engine, extended_images
    ):
        cold, dist_tag = _fresh_copy(extended_images(app))
        _rebuild(system_engine, cold, ["--adapter=vendor"])
        cold_files, cold_nodes, cold_meta = _digests(cold, dist_tag)

        warm, _ = _fresh_copy(extended_images(app))
        _rebuild(system_engine, warm, ["--adapter=vendor"])
        out = _rebuild(system_engine, warm, ["--adapter=vendor"])
        warm_files, warm_nodes, warm_meta = _digests(warm, dist_tag)

        # Zero nodes executed, zero waves scheduled — and identical bytes.
        assert warm_meta["executed_nodes"] == []
        assert sorted(warm_meta["pruned_nodes"]) == sorted(
            cold_meta["executed_nodes"])
        assert "wavefronts=0" in out
        assert warm_files == cold_files
        assert warm_nodes == cold_nodes

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_one_node_changed_bytes_match_cold(
        self, app, system_engine, extended_images
    ):
        base, dist_tag = _fresh_copy(extended_images(app))
        _rebuild(system_engine, base, ["--adapter=vendor"])
        target = _scoped_target(decode_rebuild(base, dist_tag)[0])
        change = ["--adapter=vendor", "--lto", f"--lto-scope={target}"]

        cold, _ = _fresh_copy(extended_images(app))
        _rebuild(system_engine, cold, change)
        cold_files, cold_nodes, cold_meta = _digests(cold, dist_tag)

        # The incremental path: plain rebuild, then the scoped change.
        out = _rebuild(system_engine, base, change)
        inc_files, inc_nodes, inc_meta = _digests(base, dist_tag)

        assert target in inc_meta["executed_nodes"]
        # Pruning is command-group granular: only apps with more than one
        # independent compile command keep siblings pruned.
        objects = [n for n in cold_meta["executed_nodes"] if n.endswith(".o")]
        groups = {cold_meta["node_commands"][n] for n in objects}
        if len(groups) > 1:
            assert len(inc_meta["executed_nodes"]) < len(
                cold_meta["executed_nodes"])
            assert inc_meta["pruned_nodes"]
        assert sorted(inc_meta["executed_nodes"] + inc_meta["pruned_nodes"]) \
            == sorted(cold_meta["executed_nodes"])
        assert inc_files == cold_files
        assert inc_nodes == cold_nodes


@pytest.mark.chaos
class TestChaosIdentity:
    """Worker-fleet faults reshape the simulated timeline, never bytes —
    so the pruned plans must stay digest-identical under fleet chaos."""

    @pytest.mark.parametrize("app", CHAOS_APPS)
    def test_chaotic_cold_then_clean_warm(
        self, app, system_engine, extended_images
    ):
        clean, dist_tag = _fresh_copy(extended_images(app))
        _rebuild(system_engine, clean, ["--adapter=vendor", "--jobs=4"])
        clean_files, clean_nodes, _ = _digests(clean, dist_tag)

        chaotic, _ = _fresh_copy(extended_images(app))
        system_engine.fault_injector = FaultInjector(
            specs=[FaultSpec(site="worker.crash", match="", times=1),
                   FaultSpec(site="worker.flaky", match="", times=1)]
        )
        try:
            _rebuild(system_engine, chaotic,
                     ["--adapter=vendor", "--jobs=4"])
        finally:
            system_engine.fault_injector = None
        out = _rebuild(system_engine, chaotic,
                       ["--adapter=vendor", "--jobs=4"])
        warm_files, warm_nodes, warm_meta = _digests(chaotic, dist_tag)

        # The chaotic cold run produced clean bytes, so the warm diff
        # prunes everything and replays those same bytes.
        assert warm_meta["executed_nodes"] == []
        assert "wavefronts=0" in out
        assert warm_files == clean_files
        assert warm_nodes == clean_nodes

    @pytest.mark.parametrize("app", CHAOS_APPS)
    def test_chaotic_incremental_change(
        self, app, system_engine, extended_images
    ):
        base, dist_tag = _fresh_copy(extended_images(app))
        _rebuild(system_engine, base, ["--adapter=vendor"])
        target = _scoped_target(decode_rebuild(base, dist_tag)[0])
        change = ["--adapter=vendor", "--jobs=4", "--lto",
                  f"--lto-scope={target}"]

        cold, _ = _fresh_copy(extended_images(app))
        _rebuild(system_engine, cold, change)
        cold_files, cold_nodes, _ = _digests(cold, dist_tag)

        system_engine.fault_injector = FaultInjector(
            specs=[FaultSpec(site="worker.crash", match="", times=1),
                   FaultSpec(site="worker.straggle", match="", times=2)]
        )
        try:
            _rebuild(system_engine, base, change)
        finally:
            system_engine.fault_injector = None
        inc_files, inc_nodes, inc_meta = _digests(base, dist_tag)

        assert target in inc_meta["executed_nodes"]
        assert inc_files == cold_files
        assert inc_nodes == cold_nodes


# Two apps: hpccg links objects directly, lammps adds an archive level.
STALE_APPS = ["hpccg", "lammps"]
PLAIN = ["--adapter=vendor"]


def _crash_at_link(engine, layout, dist_tag, args):
    """Run a rebuild whose final link fails persistently."""
    models = decode_cache(layout, dist_tag)[0]
    link = [n for n in models.graph.topo_order() if n.step is not None][-1]
    engine.fault_injector = FaultInjector(
        specs=[FaultSpec(site="rebuild.node", kind="persistent",
                         match=link.id)]
    )
    try:
        with pytest.raises(PersistentFault):
            _rebuild(engine, layout, args)
    finally:
        engine.fault_injector = None


def _edit_source(layout, dist_tag):
    """Append one byte to the first cached source; the models (and so
    every transformed command) stay as they were."""
    models, sources, _ = decode_cache(layout, dist_tag)
    path = sorted(sources)[0]
    edited = dict(sources)
    edited[path] = InlineContent(sources[path].read() + b"\n")
    add_cache_manifest(layout, dist_tag, encode_cache_layer(models, edited))
    return path


def _dirty_nodes(layout, dist_tag, source):
    """Every node a rebuild must redo once *source* changed: the command
    groups reading it and everything downstream of them."""
    models = decode_cache(layout, dist_tag)[0]
    commands = decode_rebuild(layout, dist_tag)[0]["node_commands"]
    dirty = {source}
    while True:
        dirty_commands = {commands.get(n) for n in dirty}
        grown = dirty | {
            n.id for n in models.graph
            if n.is_produced and (dirty.intersection(n.deps)
                                  or commands[n.id] in dirty_commands)
        }
        if grown == dirty:
            return dirty - {source}
        dirty = grown


class TestNoStaleReuse:
    """A rebuild reuses only what it would have produced anyway: the
    plan fingerprint decides the plan diff, the journal restore and the
    artifact cache alike, so no combination of them returns a stale
    binary.  Each case compares against a fault-free reference."""

    @pytest.mark.parametrize("app", STALE_APPS)
    def test_warm_change_resumed_after_crash(
        self, app, system_engine, extended_images
    ):
        change = PLAIN + ["--journal", "--lto-scope=/src/main.o"]
        ref, dist_tag = _fresh_copy(extended_images(app))
        _rebuild(system_engine, ref, PLAIN)
        _rebuild(system_engine, ref, change)

        layout, _ = _fresh_copy(extended_images(app))
        _rebuild(system_engine, layout, PLAIN)
        _crash_at_link(system_engine, layout, dist_tag, change)
        _rebuild(system_engine, layout, change)

        files, nodes, meta = _digests(layout, dist_tag)
        assert meta["journal_restored"]
        assert (files, nodes) == _digests(ref, dist_tag)[:2]

    @pytest.mark.parametrize("app", STALE_APPS)
    def test_edited_source_under_unchanged_command(
        self, app, system_engine, extended_images
    ):
        ref, dist_tag = _fresh_copy(extended_images(app))
        source = _edit_source(ref, dist_tag)
        _rebuild(system_engine, ref, PLAIN)

        layout, _ = _fresh_copy(extended_images(app))
        _rebuild(system_engine, layout, PLAIN)
        _edit_source(layout, dist_tag)
        _rebuild(system_engine, layout, PLAIN)

        files, nodes, meta = _digests(layout, dist_tag)
        assert _dirty_nodes(ref, dist_tag, source) <= set(
            meta["executed_nodes"])
        assert (files, nodes) == _digests(ref, dist_tag)[:2]

    @pytest.mark.parametrize("app", STALE_APPS)
    def test_journal_resume_after_source_edit(
        self, app, system_engine, extended_images
    ):
        ref, dist_tag = _fresh_copy(extended_images(app))
        source = _edit_source(ref, dist_tag)
        _rebuild(system_engine, ref, PLAIN)

        layout, _ = _fresh_copy(extended_images(app))
        _crash_at_link(system_engine, layout, dist_tag, PLAIN + ["--journal"])
        journaled = set(RebuildJournal(layout, dist_tag).node_ids())
        _edit_source(layout, dist_tag)
        _rebuild(system_engine, layout, PLAIN + ["--journal"])

        files, nodes, meta = _digests(layout, dist_tag)
        dirty = _dirty_nodes(ref, dist_tag, source)
        assert set(meta["journal_restored"]) == journaled - dirty
        assert dirty <= set(meta["executed_nodes"])
        assert (files, nodes) == _digests(ref, dist_tag)[:2]

    def test_command_keyed_journal_restores_nothing(
        self, system_engine, extended_images
    ):
        """Journal lines keyed on the bare command digest (journal
        version 3) still salvage, but never match a fingerprint."""
        ref, dist_tag = _fresh_copy(extended_images("lammps"))
        _rebuild(system_engine, ref, PLAIN)
        commands = decode_rebuild(ref, dist_tag)[0]["node_commands"]

        layout, _ = _fresh_copy(extended_images("lammps"))
        _crash_at_link(system_engine, layout, dist_tag, PLAIN + ["--journal"])
        graph = decode_cache(layout, dist_tag)[0].graph
        journal = RebuildJournal(layout, dist_tag)
        lines = [durable.header(JOURNAL_KIND, 3, dist_tag=dist_tag)]
        for node_id in journal.node_ids():
            content, mode = journal.output_for(node_id)
            record = encode_output(node_id, graph.get(node_id).path,
                                   content, mode)
            lines.append(durable.line(
                durable.seal({**record, "digest": commands[node_id]})))
        layout.replace_side_blob(
            mediatypes.ANNOTATION_COMTAINER_JOURNAL, dist_tag,
            b"".join(lines), mediatypes.REBUILD_JOURNAL)
        assert len(RebuildJournal(layout, dist_tag)) == len(journal) > 0

        _rebuild(system_engine, layout, PLAIN + ["--journal"])
        files, nodes, meta = _digests(layout, dist_tag)
        assert meta["journal_restored"] == []
        assert (files, nodes) == _digests(ref, dist_tag)[:2]
