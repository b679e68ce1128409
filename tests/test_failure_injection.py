"""Failure injection: the framework must fail loudly and precisely.

Corrupted caches, missing traces, foreign mounts, unbuildable graphs —
each failure mode should surface as the right error at the right stage,
never as silent misbehaviour.
"""

import json

import pytest

from repro.apps import get_app
from repro.containers import ContainerEngine, ProgramError
from repro.core.adapters import RebuildOptions, VendorAdapter
from repro.core.backend.rebuild import RebuildError, rebuild_in_container
from repro.core.cache.storage import (
    CACHE_ROOT,
    CacheError,
    add_cache_manifest,
    decode_cache,
    decode_rebuild,
    encode_cache_layer,
    extended_tag,
    find_dist_tag,
    resolve_extended,
)
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import (
    install_system_side_images,
    install_user_side_images,
    rebase_ref,
    sysenv_ref,
)
from repro.core.models.process import ProcessModels
from repro.core.workflow import build_extended_image, run_workload
from repro.oci.layout import OCILayout
from repro.perf.runtime import attach_perf
from repro.resilience import (
    RUNG_GENERIC,
    RUNG_REDIRECT_ONLY,
    ResiliencePolicy,
    adapt_with_resilience,
    install_resilience,
    uninstall_resilience,
)
from repro.sysmodel import X86_CLUSTER
from repro.vfs import InlineContent


@pytest.fixture(scope="module")
def user_engine():
    engine = ContainerEngine(arch="amd64")
    install_user_side_images(engine)
    return engine


@pytest.fixture(scope="module")
def system_engine():
    engine = ContainerEngine(arch="amd64")
    install_system_side_images(engine, X86_CLUSTER)
    return engine


@pytest.fixture()
def extended(user_engine):
    return build_extended_image(user_engine, get_app("hpccg"))


def _corrupt_cache_layout(layout, dist_tag):
    """Copy of *layout* whose +coM image has an unparseable models.json."""
    from repro.core.cache.storage import add_cache_manifest
    from repro.oci.layer import Layer, LayerEntry

    resolved = layout.resolve(extended_tag(dist_tag))
    bad_cache = Layer(comment="corrupt")
    for entry in resolved.layers[-1].entries:
        if entry.path == f"{CACHE_ROOT}/models.json":
            bad_cache.add(LayerEntry.file(entry.path, InlineContent(b"{not json")))
        else:
            bad_cache.add(entry)
    fresh = OCILayout()
    original = layout.resolve(dist_tag)
    fresh.add_manifest(original.manifest, original.config, original.layers,
                       tag=dist_tag)
    # add_cache_manifest stacks the corrupt layer as the +coM image.
    add_cache_manifest(fresh, dist_tag, bad_cache)
    return fresh, dist_tag


def _recached(layout, dist_tag, models, sources):
    """The resolved +coM image of a copy of *layout* whose cache layer
    holds *models* and *sources*."""
    fresh, _ = _dist_only_layout(layout, dist_tag)
    add_cache_manifest(fresh, dist_tag, encode_cache_layer(models, sources))
    return resolve_extended(fresh, dist_tag)


def _dist_only_layout(layout, dist_tag):
    """Copy of *layout* holding only the dist image — no +coM cache at all."""
    fresh = OCILayout()
    resolved = layout.resolve(dist_tag)
    fresh.add_manifest(resolved.manifest, resolved.config, resolved.layers,
                       tag=dist_tag)
    return fresh, dist_tag


class TestFrontendFailures:
    def test_build_without_mount(self, user_engine):
        from repro.core.images import env_ref

        ctr = user_engine.from_image(env_ref("amd64"), name="no-mount")
        result = user_engine.run(ctr, ["coMtainer-build"])
        assert not result.ok
        assert "no OCI layout mounted" in result.stderr
        user_engine.remove_container("no-mount")

    def test_build_with_empty_layout(self, user_engine):
        from repro.core.images import env_ref

        ctr = user_engine.from_image(
            env_ref("amd64"), name="empty-layout", mounts={IO_MOUNT: OCILayout()}
        )
        result = user_engine.run(ctr, ["coMtainer-build"])
        assert not result.ok
        assert "no application image tag" in result.stderr
        user_engine.remove_container("empty-layout")

    def test_unparseable_trace_line_fails(self):
        from repro.core.frontend.parser import FrontendError, graph_from_trace

        records = [{"argv": [], "cwd": "/", "program": "compiler-driver",
                    "meta": {}}]
        with pytest.raises(FrontendError):
            graph_from_trace(records)


class TestCacheFailures:
    def test_decode_cache_before_build(self, user_engine, extended):
        layout, dist_tag = extended
        fresh = OCILayout()
        resolved = layout.resolve(dist_tag)
        fresh.add_manifest(resolved.manifest, resolved.config, resolved.layers,
                           tag=dist_tag)
        with pytest.raises(CacheError, match="run coMtainer-build first"):
            decode_cache(fresh, dist_tag)

    def test_decode_rebuild_before_rebuild(self, extended):
        layout, dist_tag = extended
        with pytest.raises(CacheError, match="run coMtainer-rebuild first"):
            decode_rebuild(layout, dist_tag)

    def test_corrupted_models_json(self, user_engine, extended):
        fresh, dist_tag = _corrupt_cache_layout(*extended)
        with pytest.raises(json.JSONDecodeError):
            decode_cache(fresh, dist_tag)

    def test_find_dist_tag_ignores_comtainer_tags(self, extended):
        layout, dist_tag = extended
        assert find_dist_tag(layout) == dist_tag


class TestRebuildFailures:
    def test_missing_source_fails_rebuild(self, system_engine, extended):
        layout, dist_tag = extended
        models, sources, _ = decode_cache(layout, dist_tag)
        sources.pop("/src/main.cc", None)   # drop a cached source
        extended = _recached(layout, dist_tag, models, sources)
        ctr = system_engine.from_image(sysenv_ref("x86"), name="rb-fail")
        try:
            with pytest.raises(RebuildError, match="No such file|rebuild of"):
                rebuild_in_container(
                    system_engine, ctr, extended, dist_tag,
                    VendorAdapter(X86_CLUSTER), RebuildOptions(),
                )
        finally:
            system_engine.remove_container("rb-fail")

    def test_rebuild_bad_option(self, system_engine, extended):
        layout, dist_tag = extended
        ctr = system_engine.from_image(
            sysenv_ref("x86"), name="rb-opt", mounts={IO_MOUNT: layout}
        )
        result = system_engine.run(ctr, ["coMtainer-rebuild", "--frobnicate"])
        assert not result.ok
        assert "unknown option" in result.stderr
        system_engine.remove_container("rb-opt")

    def test_rebuild_bad_pgo_value(self, system_engine, extended):
        layout, dist_tag = extended
        ctr = system_engine.from_image(
            sysenv_ref("x86"), name="rb-pgo", mounts={IO_MOUNT: layout}
        )
        result = system_engine.run(ctr, ["coMtainer-rebuild", "--pgo=maybe"])
        assert not result.ok
        assert "bad --pgo value" in result.stderr
        system_engine.remove_container("rb-pgo")

    def test_pgo_use_without_profile_fails(self, system_engine, extended):
        layout, dist_tag = extended
        ctr = system_engine.from_image(
            sysenv_ref("x86"), name="rb-noprof", mounts={IO_MOUNT: layout}
        )
        result = system_engine.run(ctr, ["coMtainer-rebuild", "--pgo=use"])
        assert not result.ok
        assert "could not find profile data" in result.stderr
        system_engine.remove_container("rb-noprof")

    def test_missing_graph_output_detected(self, system_engine, extended):
        """A graph claiming an output the build never produced is caught."""
        layout, dist_tag = extended
        models, sources, _ = decode_cache(layout, dist_tag)
        # Point a BUILD file at a node whose path the build won't create.
        tampered = ProcessModels.from_json(models.to_json())
        for record in tampered.image.files.values():
            if record.node_id:
                tampered.graph.get(record.node_id).path = "/nonexistent/out"
                tampered.graph.get(record.node_id).step = None
        extended = _recached(layout, dist_tag, tampered, sources)
        ctr = system_engine.from_image(sysenv_ref("x86"), name="rb-ghost")
        try:
            with pytest.raises(RebuildError, match="rebuilt artifact missing"):
                rebuild_in_container(
                    system_engine, ctr, extended, dist_tag,
                    VendorAdapter(X86_CLUSTER), RebuildOptions(),
                )
        finally:
            system_engine.remove_container("rb-ghost")


class TestRedirectFailures:
    def test_redirect_without_rebuild(self, system_engine, extended):
        layout, dist_tag = extended
        fresh = OCILayout()
        for tag in (dist_tag, extended_tag(dist_tag)):
            resolved = layout.resolve(tag)
            fresh.add_manifest(resolved.manifest, resolved.config,
                               resolved.layers, tag=tag)
        ctr = system_engine.from_image(
            rebase_ref("x86"), name="rd-early", mounts={IO_MOUNT: fresh}
        )
        result = system_engine.run(ctr, ["coMtainer-redirect"])
        assert not result.ok
        assert "coMtainer-rebuild first" in result.stderr
        system_engine.remove_container("rd-early")

    def test_redirect_without_mount(self, system_engine):
        ctr = system_engine.from_image(rebase_ref("x86"), name="rd-nomount")
        result = system_engine.run(ctr, ["coMtainer-redirect"])
        assert not result.ok
        assert "no OCI layout mounted" in result.stderr
        system_engine.remove_container("rd-nomount")


class TestPermissiveDegradation:
    """The same corruptions, under a permissive policy: instead of raising,
    adaptation must land on a low ladder rung with a runnable image.  The
    strict default keeps today's loud-failure behaviour bit for bit."""

    @pytest.fixture(scope="class")
    def perf_engine(self):
        engine = ContainerEngine(arch="amd64")
        install_system_side_images(engine, X86_CLUSTER)
        recorder = attach_perf(engine, X86_CLUSTER)
        return engine, recorder

    def _permissive_adapt(self, engine, recorder, layout, ref):
        policy = ResiliencePolicy.permissive()
        ctx = install_resilience(policy, engines=[engine])
        try:
            return adapt_with_resilience(
                engine, layout, X86_CLUSTER, ctx, recorder=recorder, ref=ref
            )
        finally:
            uninstall_resilience(engines=[engine])

    def test_corrupt_cache_lands_on_redirect_rung(self, perf_engine, extended):
        engine, recorder = perf_engine
        fresh, _dist_tag = _corrupt_cache_layout(*extended)
        report = self._permissive_adapt(engine, recorder, fresh,
                                        "corrupt-cache:adapted")
        assert report.rung in (RUNG_REDIRECT_ONLY, RUNG_GENERIC)
        assert any("rebuild" in reason for reason in report.reasons)
        result = run_workload(engine, report.ref, "hpccg", recorder,
                              vendor_mpirun=True)
        assert result.seconds > 0

    def test_dist_only_image_lands_on_redirect_rung(self, perf_engine, extended):
        """A plain image without any +coM cache still gets the package
        redirects — the ladder's whole point."""
        engine, recorder = perf_engine
        fresh, _dist_tag = _dist_only_layout(*extended)
        report = self._permissive_adapt(engine, recorder, fresh,
                                        "dist-only:adapted")
        assert report.rung in (RUNG_REDIRECT_ONLY, RUNG_GENERIC)
        result = run_workload(engine, report.ref, "hpccg", recorder,
                              vendor_mpirun=True)
        assert result.seconds > 0

    @pytest.mark.parametrize("rung", [RUNG_REDIRECT_ONLY, RUNG_GENERIC])
    def test_a_lower_entry_rung_skips_the_rungs_above_it(
            self, perf_engine, extended, rung):
        """The adaptation service's load shedding enters the ladder below
        the rebuild: nothing is rebuilt, and nothing is given up."""
        engine, recorder = perf_engine
        layout, dist_tag = extended
        ctx = install_resilience(ResiliencePolicy.permissive(), engines=[engine])
        try:
            report = adapt_with_resilience(
                engine, layout, X86_CLUSTER, ctx, recorder=recorder,
                ref=f"enter-{rung}:adapted", rung=rung,
            )
        finally:
            uninstall_resilience(engines=[engine])
        assert (report.rung, report.ref, report.reasons) == (
            rung, f"enter-{rung}:adapted", [])
        with pytest.raises(CacheError):
            decode_rebuild(layout, dist_tag)
        result = run_workload(engine, report.ref, "hpccg", recorder,
                              vendor_mpirun=True)
        assert result.seconds > 0

    def test_corrupt_cache_strict_still_raises(self, perf_engine, extended):
        """Without opting into a permissive policy, nothing degrades: the
        corrupted cache surfaces as the same ProgramError as before."""
        engine, recorder = perf_engine
        fresh, _dist_tag = _corrupt_cache_layout(*extended)
        with pytest.raises(ProgramError, match="coMtainer-rebuild"):
            adapt_with_resilience(engine, fresh, X86_CLUSTER, None,
                                  recorder=recorder, ref="strict:adapted")
