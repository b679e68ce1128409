"""Tests for incremental re-rebuilds (§4.1: rebuild/redirect can be
performed many times during the image's lifetime)."""

import pytest

from repro.apps import get_app
from repro.containers import ContainerEngine
from repro.core.cache.storage import decode_rebuild, decode_rebuild_plan
from repro.core.images import install_system_side_images, sysenv_ref
from repro.core.frontend.build import IO_MOUNT
from repro.core.workflow import _run_rebuild, _run_redirect, build_extended_image
from repro.perf import attach_perf
from repro.sysmodel import X86_CLUSTER
from repro.oci.layout import OCILayout
from repro.toolchain.artifacts import read_artifact


@pytest.fixture(scope="module")
def setup():
    user = ContainerEngine(arch="amd64")
    layout, dist_tag = build_extended_image(user, get_app("minife"))
    engine = ContainerEngine(arch="amd64")
    attach_perf(engine, X86_CLUSTER)
    install_system_side_images(engine, X86_CLUSTER)
    install_system_side_images(engine, X86_CLUSTER, flavor="llvm")
    return engine, layout, dist_tag


def _rebuild(engine, layout, args, flavor="vendor"):
    ctr = engine.from_image(sysenv_ref("x86", flavor), name="inc-rb",
                            mounts={IO_MOUNT: layout})
    try:
        result = engine.run(ctr, ["coMtainer-rebuild"] + args).check()
        return result.stdout
    finally:
        engine.remove_container("inc-rb")


class TestIncrementalRebuild:
    def test_first_rebuild_executes_everything(self, setup):
        engine, layout, dist_tag = setup
        out = _rebuild(engine, layout, ["--adapter=vendor"])
        meta, _, _, _ = decode_rebuild(layout, dist_tag)
        assert meta["reused_nodes"] == []
        assert len(meta["executed_nodes"]) == len(meta["node_commands"])
        assert "(0 reused)" in out

    def test_identical_rebuild_reuses_everything(self, setup):
        engine, layout, dist_tag = setup
        _rebuild(engine, layout, ["--adapter=vendor"])
        out = _rebuild(engine, layout, ["--adapter=vendor"])
        meta, _, _, _ = decode_rebuild(layout, dist_tag)
        assert meta["executed_nodes"] == []
        assert len(meta["reused_nodes"]) > 0
        assert "rebuilt 0 nodes" in out

    def test_reused_artifacts_identical(self, setup):
        engine, layout, dist_tag = setup
        _rebuild(engine, layout, ["--adapter=vendor"])
        _, files_first, _, _ = decode_rebuild(layout, dist_tag)
        first = files_first["/app/minife"].digest
        _rebuild(engine, layout, ["--adapter=vendor"])
        _, files_second, _, _ = decode_rebuild(layout, dist_tag)
        assert files_second["/app/minife"].digest == first

    def test_option_change_invalidates_reuse(self, setup):
        engine, layout, dist_tag = setup
        _rebuild(engine, layout, ["--adapter=vendor"])
        _rebuild(engine, layout, ["--adapter=vendor", "--lto"])
        meta, files, _, _ = decode_rebuild(layout, dist_tag)
        # -flto changes every compile and link command: nothing reusable.
        assert meta["reused_nodes"] == []
        exe = read_artifact(files["/app/minife"].read())
        assert exe.lto_applied

    def test_adapter_change_invalidates_reuse(self, setup):
        engine, layout, dist_tag = setup
        _rebuild(engine, layout, ["--adapter=vendor"])
        _rebuild(engine, layout, ["--adapter=llvm"], flavor="llvm")
        meta, files, _, _ = decode_rebuild(layout, dist_tag)
        assert meta["reused_nodes"] == []
        assert read_artifact(files["/app/minife"].read()).toolchain == "llvm-17"

    def test_node_outputs_stored_in_layer(self, setup):
        engine, layout, dist_tag = setup
        _rebuild(engine, layout, ["--adapter=vendor"])
        node_files, fingerprints = decode_rebuild_plan(layout, dist_tag)
        assert fingerprints
        # Objects and the final binary are all present.
        assert any(path.endswith(".o") for path in node_files)
        assert "/app/minife" in node_files

    def test_no_previous_rebuild_yields_empty_maps(self, setup):
        engine, layout, dist_tag = setup
        fresh = OCILayout()
        assert decode_rebuild_plan(fresh, "ghost") == ({}, {})

    def test_redirect_after_incremental_rebuild(self, setup):
        engine, layout, dist_tag = setup
        _rebuild(engine, layout, ["--adapter=vendor"])
        _rebuild(engine, layout, ["--adapter=vendor"])   # all reused
        ref = _run_redirect(engine, layout, X86_CLUSTER, ref="minife:inc")
        exe = read_artifact(engine.image_filesystem(ref).read_file("/app/minife"))
        assert exe.toolchain == "intel-2024"
