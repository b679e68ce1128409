"""Scheduler equivalence and artifact-cache integration tests.

The wavefront scheduler must be a pure *accounting* change: for every
application and any ``--jobs`` value the rebuilt layer bytes are
identical, and the artifact cache may change which work *executes* but
never what comes out.
"""

import pytest

from repro.apps import APPS, get_app
from repro.containers import ContainerEngine
from repro.core.cache.artifacts import (
    attach_artifact_cache,
    has_artifact_cache,
    publish_artifact_cache,
)
from repro.core.cache.storage import (
    decode_cache,
    decode_rebuild,
    extended_tag,
    rebuilt_tag,
)
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import install_system_side_images, sysenv_ref
from repro.core.workflow import ComtainerSession, build_extended_image
from repro.oci.layout import OCILayout
from repro.oci.registry import ImageRegistry
from repro.perf import attach_perf
from repro.resilience import FaultInjector, FaultSpec
from repro.sysmodel import X86_CLUSTER

ALL_APPS = sorted(APPS)
JOBS_SWEEP = (1, 2, 8)


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
            built[app] = build_extended_image(user, get_app(app))
        return built[app]

    return get


def _fresh_copy(extended):
    """A pristine layout holding only the dist + extended manifests."""
    layout, dist_tag = extended
    fresh = OCILayout()
    for tag in (dist_tag, extended_tag(dist_tag)):
        resolved = layout.resolve(tag)
        fresh.add_manifest(resolved.manifest, resolved.config,
                           resolved.layers, tag=tag)
    return fresh, dist_tag


def _rebuild(engine, layout, args):
    ctr = engine.from_image(sysenv_ref("x86"), name="sched-rb",
                            mounts={IO_MOUNT: layout})
    try:
        return engine.run(ctr, ["coMtainer-rebuild"] + args).check().stdout
    finally:
        engine.remove_container("sched-rb")


def _rebuilt_layer_digest(layout, dist_tag):
    return layout.resolve(rebuilt_tag(dist_tag)).layers[-1].digest


class TestJobsEquivalence:
    @pytest.mark.parametrize("app", ALL_APPS)
    def test_rebuilt_bytes_identical_at_any_jobs(
        self, app, system_engine, extended_images
    ):
        digests, metas = {}, {}
        for jobs in JOBS_SWEEP:
            layout, dist_tag = _fresh_copy(extended_images(app))
            out = _rebuild(system_engine, layout,
                           ["--adapter=vendor", f"--jobs={jobs}"])
            assert f"schedule jobs={jobs} " in out
            digests[jobs] = _rebuilt_layer_digest(layout, dist_tag)
            metas[jobs] = decode_rebuild(layout, dist_tag)[0]
        assert len(set(digests.values())) == 1, digests
        baseline = metas[JOBS_SWEEP[0]]
        for jobs in JOBS_SWEEP[1:]:
            meta = metas[jobs]
            assert meta["executed_nodes"] == baseline["executed_nodes"]
            assert meta["node_commands"] == baseline["node_commands"]
            assert meta["reused_nodes"] == baseline["reused_nodes"]

    def test_schedule_speedup_reported(self, system_engine, extended_images):
        layout, _ = _fresh_copy(extended_images("lammps"))
        out = _rebuild(system_engine, layout, ["--adapter=vendor", "--jobs=8"])
        line = next(l for l in out.splitlines() if "schedule jobs=8" in l)
        speedup = float(line.rsplit("speedup=", 1)[1].rstrip("x"))
        assert speedup > 1.5

    def test_bad_jobs_value_rejected(self, system_engine, extended_images):
        layout, _ = _fresh_copy(extended_images("minife"))
        ctr = system_engine.from_image(sysenv_ref("x86"), name="sched-bad",
                                       mounts={IO_MOUNT: layout})
        try:
            result = system_engine.run(
                ctr, ["coMtainer-rebuild", "--adapter=vendor", "--jobs=0"]
            )
            assert result.exit_code != 0
            assert "bad --jobs value" in result.stderr
        finally:
            system_engine.remove_container("sched-bad")

    @pytest.mark.parametrize("arg", [
        f"--{flag}={value}"
        for flag in ("jobs", "max-worker-failures", "deadline")
        for value in ("x", "0", "-1")
    ] + ["--deadline=nan", "--deadline=inf", "--jobs=1.5"])
    def test_bad_number_flag_rejected(self, system_engine, arg):
        # Flags are checked before the mounted layout is read, so an
        # empty layout is enough.
        ctr = system_engine.from_image(sysenv_ref("x86"), name="sched-flag",
                                       mounts={IO_MOUNT: OCILayout()})
        try:
            result = system_engine.run(ctr, ["coMtainer-rebuild", arg])
        finally:
            system_engine.remove_container("sched-flag")
        flag, value = arg.split("=", 1)
        assert result.exit_code != 0
        assert result.stderr == (
            f"coMtainer-rebuild: bad {flag} value {value!r}")

    def test_edge_number_flags_parse(self):
        from repro.core.backend.rebuild import _parse_args

        _, _, flags = _parse_args(
            ["--jobs=1", "--max-worker-failures=1", "--deadline=1e-9"])
        assert (flags["jobs"], flags["max_worker_failures"],
                flags["deadline"]) == (1, 1, 1e-9)


class TestArtifactCacheIntegration:
    def test_warm_cache_executes_nothing(self, system_engine, extended_images):
        extended = extended_images("lammps")
        cold, dist_tag = _fresh_copy(extended)
        _rebuild(system_engine, cold, ["--adapter=vendor"])
        cold_meta = decode_rebuild(cold, dist_tag)[0]
        assert cold_meta["cache_hits"] == []
        assert has_artifact_cache(cold, dist_tag)

        registry = ImageRegistry()
        assert publish_artifact_cache(registry, "repro/lammps", cold, dist_tag)

        warm, _ = _fresh_copy(extended)
        assert attach_artifact_cache(warm, registry, "repro/lammps", dist_tag)
        out = _rebuild(system_engine, warm, ["--adapter=vendor"])
        warm_meta = decode_rebuild(warm, dist_tag)[0]
        assert warm_meta["executed_nodes"] == []
        assert set(warm_meta["cache_hits"]) == set(warm_meta["node_commands"])
        assert "served from the artifact cache" in out
        # meta.json differs (cache_hits vs executed), but every produced
        # artifact is byte-identical to the cold build's.
        cold_files = decode_rebuild(cold, dist_tag)[1]
        warm_files = decode_rebuild(warm, dist_tag)[1]
        assert {p: c.digest for p, c in warm_files.items()} == \
            {p: c.digest for p, c in cold_files.items()}
        assert warm.audit() == []
        assert registry.audit() == []

    def test_warm_cache_at_parallel_jobs_reports_unity_speedup(
        self, system_engine, extended_images
    ):
        """A fully warm cache executes zero groups: the schedule line must
        report speedup=1.00x, not a 0/0 artifact (regression guard for
        ScheduleReport.speedup/utilization on empty-executed plans)."""
        extended = extended_images("lulesh")
        cold, dist_tag = _fresh_copy(extended)
        _rebuild(system_engine, cold, ["--adapter=vendor"])
        registry = ImageRegistry()
        assert publish_artifact_cache(registry, "repro/lulesh", cold, dist_tag)

        warm, _ = _fresh_copy(extended)
        assert attach_artifact_cache(warm, registry, "repro/lulesh", dist_tag)
        out = _rebuild(system_engine, warm, ["--adapter=vendor", "--jobs=8"])
        meta = decode_rebuild(warm, dist_tag)[0]
        assert meta["executed_nodes"] == []
        line = next(l for l in out.splitlines() if "schedule jobs=8" in l)
        assert line.rstrip().endswith("speedup=1.00x")
        assert float(line.rsplit("speedup=", 1)[1].rstrip("x")) == 1.0

    def test_option_change_misses_cache(self, system_engine, extended_images):
        extended = extended_images("minife")
        cold, dist_tag = _fresh_copy(extended)
        _rebuild(system_engine, cold, ["--adapter=vendor"])
        registry = ImageRegistry()
        publish_artifact_cache(registry, "repro/minife", cold, dist_tag)

        warm, _ = _fresh_copy(extended)
        attach_artifact_cache(warm, registry, "repro/minife", dist_tag)
        _rebuild(system_engine, warm, ["--adapter=vendor", "--lto"])
        meta = decode_rebuild(warm, dist_tag)[0]
        # -flto changes every command digest: the plain-build cache is cold.
        assert meta["cache_hits"] == []
        assert len(meta["executed_nodes"]) == len(meta["node_commands"])

    def test_no_cache_flag_disables_everything(
        self, system_engine, extended_images
    ):
        layout, dist_tag = _fresh_copy(extended_images("minife"))
        _rebuild(system_engine, layout, ["--adapter=vendor", "--no-cache"])
        meta = decode_rebuild(layout, dist_tag)[0]
        assert meta["cache_hits"] == []
        assert not has_artifact_cache(layout, dist_tag)

    def test_failed_rebuild_never_flushes_cache(
        self, system_engine, extended_images
    ):
        layout, dist_tag = _fresh_copy(extended_images("minife"))
        models, _, _ = decode_cache(layout, dist_tag)
        victim = [n for n in models.graph.topo_order() if n.step][-1]
        system_engine.fault_injector = FaultInjector(
            specs=[FaultSpec(site="rebuild.node", kind="persistent",
                             match=victim.id)]
        )
        from repro.resilience import PersistentFault

        ctr = system_engine.from_image(sysenv_ref("x86"), name="cache-fail",
                                       mounts={IO_MOUNT: layout})
        try:
            with pytest.raises(PersistentFault):
                system_engine.run(
                    ctr, ["coMtainer-rebuild", "--adapter=vendor"]
                )
        finally:
            system_engine.fault_injector = None
            system_engine.remove_container("cache-fail")
        # Partial work must not poison future consumers of the cache.
        assert not has_artifact_cache(layout, dist_tag)

    def test_cross_session_sharing_skips_all_compiles(self):
        registry = ImageRegistry()
        first = ComtainerSession(registry=registry, share_cache=True)
        first.adapted_image("hpccg")
        layout_a, dist_tag = first.extended_layout("hpccg")
        assert registry.get_artifact_cache("repro/hpccg") is not None

        second = ComtainerSession(registry=registry, share_cache=True)
        second.adapted_image("hpccg")
        layout_b, _ = second.extended_layout("hpccg")
        meta = decode_rebuild(layout_b, dist_tag)[0]
        assert meta["executed_nodes"] == []
        assert set(meta["cache_hits"]) == set(meta["node_commands"])
        files_a = decode_rebuild(layout_a, dist_tag)[1]
        files_b = decode_rebuild(layout_b, dist_tag)[1]
        assert {p: c.digest for p, c in files_b.items()} == \
            {p: c.digest for p, c in files_a.items()}
        assert registry.audit() == []

    def test_sharing_off_by_default(self):
        registry = ImageRegistry()
        session = ComtainerSession(registry=registry)
        session.adapted_image("hpccg")
        assert registry.get_artifact_cache("repro/hpccg") is None


@pytest.mark.chaos
class TestMidWavefrontFaults:
    def test_fallback_poisons_dependents_not_peers(
        self, system_engine, extended_images
    ):
        extended = extended_images("hpl")
        layout, dist_tag = _fresh_copy(extended)
        models, _, _ = decode_cache(layout, dist_tag)
        step_nodes = [n for n in models.graph.topo_order() if n.step]
        compiles = [n for n in step_nodes if n.kind == "object"]
        assert len(compiles) >= 2, "need wavefront peers"
        victim = compiles[0]

        system_engine.fault_injector = FaultInjector(
            specs=[FaultSpec(site="rebuild.node", kind="persistent",
                             match=victim.id)]
        )
        ctr = system_engine.from_image(sysenv_ref("x86"), name="wave-fault",
                                       mounts={IO_MOUNT: layout})
        try:
            out = system_engine.run(
                ctr, ["coMtainer-rebuild", "--adapter=vendor", "--fallback",
                      "--jobs=4"]
            ).check().stdout
        finally:
            system_engine.fault_injector = None
            system_engine.remove_container("wave-fault")

        meta = decode_rebuild(layout, dist_tag)[0]
        failed = set(meta["failed_nodes"])
        executed = set(meta["executed_nodes"])
        assert victim.id in failed
        # Every dependent of the victim is poisoned without executing...
        downstream = {
            n.id for n in step_nodes if victim.id in models.graph.ancestors(n.id)
        }
        assert downstream <= failed
        assert not (downstream & executed)
        # ...while its wavefront peers complete normally.  Sibling outputs
        # of the victim's own (multi-source) command fail with it — they
        # are one command, not peers.
        vkey = (tuple(victim.step.argv), victim.step.cwd)
        siblings = {
            n.id for n in compiles
            if (tuple(n.step.argv), n.step.cwd) == vkey
        }
        assert siblings <= failed
        peers = {n.id for n in compiles} - siblings
        assert peers, "need at least one true wavefront peer"
        assert peers <= executed
        assert peers.isdisjoint(failed)
        assert meta["fallback_paths"]
        assert "fell back to generic" in out
        assert layout.audit() == []

    def test_journal_resume_with_parallel_schedule(
        self, system_engine, extended_images
    ):
        from repro.resilience import PersistentFault, RebuildJournal, has_journal

        extended = extended_images("hpccg")
        layout, dist_tag = _fresh_copy(extended)
        models, _, _ = decode_cache(layout, dist_tag)
        victim = [n for n in models.graph.topo_order() if n.step][-1]

        system_engine.fault_injector = FaultInjector(
            specs=[FaultSpec(site="rebuild.node", kind="persistent",
                             match=victim.id)]
        )
        ctr1 = system_engine.from_image(sysenv_ref("x86"), name="wave-res1",
                                        mounts={IO_MOUNT: layout})
        try:
            with pytest.raises(PersistentFault):
                system_engine.run(
                    ctr1, ["coMtainer-rebuild", "--adapter=vendor",
                           "--journal", "--jobs=4"]
                )
        finally:
            system_engine.fault_injector = None
            system_engine.remove_container("wave-res1")

        assert has_journal(layout, dist_tag)
        completed = set(RebuildJournal(layout, dist_tag).node_ids())
        assert completed and victim.id not in completed

        _rebuild(system_engine, layout,
                 ["--adapter=vendor", "--journal", "--jobs=4"])
        meta = decode_rebuild(layout, dist_tag)[0]
        assert set(meta["journal_restored"]) == completed
        assert victim.id in meta["executed_nodes"]
        assert not (set(meta["executed_nodes"]) & completed)
        assert not has_journal(layout, dist_tag)
        assert layout.audit() == []
