"""The coMtainer image set is derived once per recipe, and re-derived only
when an input changes."""

import os
import subprocess
import sys

import pytest

from repro.containers import ContainerEngine
from repro.core import images
from repro.core.images import (
    base_ref,
    env_ref,
    install_system_side_images,
    install_user_side_images,
    rebase_ref,
    sysenv_ref,
)
from repro.images import UBUNTU_REF, install_ubuntu_base
from repro.oci.diff import layer_from_tree
from repro.pkg import Package, PackagedFile
from repro.pkg.apt import AptFacade
from repro.sysmodel import AARCH64_CLUSTER, X86_CLUSTER
from repro.vfs import VirtualFilesystem

SYSTEM_REFS = (sysenv_ref("x86"), rebase_ref("x86"))
USER_REFS = (env_ref("amd64"), base_ref("amd64"))


@pytest.fixture
def calls(monkeypatch):
    """Counts of apt installs and layer diffs made while deriving images."""
    counts = {"install": 0, "diff": 0}
    install, diff = AptFacade.install, images.diff_filesystems

    def counted_install(self, names):
        counts["install"] += 1
        return install(self, names)

    def counted_diff(*args, **kwargs):
        counts["diff"] += 1
        return diff(*args, **kwargs)

    monkeypatch.setattr(AptFacade, "install", counted_install)
    monkeypatch.setattr(images, "diff_filesystems", counted_diff)
    return counts


def _system_engine():
    engine = ContainerEngine(arch="amd64")
    install_system_side_images(engine, X86_CLUSTER)
    return engine


def _held(engine, refs):
    return {ref: engine.images[ref] for ref in refs}


def _layers(engine, refs):
    return {ref: engine.image(ref).layer_key() for ref in refs}


class TestSecondInstallIsFree:
    def test_system_side(self, calls):
        engine = _system_engine()
        held = _held(engine, SYSTEM_REFS)
        calls.update(install=0, diff=0)
        install_system_side_images(engine, X86_CLUSTER)
        assert all(engine.images[ref] is held[ref] for ref in SYSTEM_REFS)
        assert calls == {"install": 0, "diff": 0}

    def test_user_side(self, calls):
        engine = ContainerEngine(arch="amd64")
        install_user_side_images(engine)
        held = _held(engine, USER_REFS)
        calls.update(install=0, diff=0)
        install_user_side_images(engine)
        assert all(engine.images[ref] is held[ref] for ref in USER_REFS)
        assert calls == {"install": 0, "diff": 0}

    def test_alternating_flavors_never_rederive_rebase(self, calls):
        engine = _system_engine()
        rebase = engine.images[rebase_ref("x86")]
        install_system_side_images(engine, X86_CLUSTER, flavor="llvm")
        calls.update(install=0, diff=0)
        for flavor in ("vendor", "llvm", "vendor", "llvm"):
            install_system_side_images(engine, X86_CLUSTER, flavor=flavor)
        assert engine.images[rebase_ref("x86")] is rebase
        assert calls == {"install": 0, "diff": 0}


class TestRederivation:
    def test_ref_overwritten_by_add_image(self, calls):
        engine = _system_engine()
        want = _layers(engine, SYSTEM_REFS)
        stored = engine.image(UBUNTU_REF)
        engine.add_image(sysenv_ref("x86"), stored.config, stored.layers)
        calls.update(install=0, diff=0)
        install_system_side_images(engine, X86_CLUSTER)
        assert _layers(engine, SYSTEM_REFS) == want
        assert calls["diff"] == 1

    def test_ref_overwritten_by_commit(self, calls):
        engine = _system_engine()
        want = _layers(engine, SYSTEM_REFS)
        ctr = engine.from_image(rebase_ref("x86"), name="scribble")
        ctr.fs.write_file("/etc/scribble", "x\n")
        engine.commit(ctr, ref=rebase_ref("x86"))
        assert _layers(engine, SYSTEM_REFS) != want
        calls.update(install=0, diff=0)
        install_system_side_images(engine, X86_CLUSTER)
        assert _layers(engine, SYSTEM_REFS) == want
        assert calls == {"install": 0, "diff": 1}

    def test_base_replaced(self):
        fs = VirtualFilesystem()
        fs.write_file("/etc/site-policy", "strict\n", create_parents=True)
        extra = layer_from_tree(fs, comment="site policy")

        def replace_base(engine):
            stored = engine.image(UBUNTU_REF)
            config = stored.config.clone()
            config.diff_ids.append(extra.digest)
            engine.add_image(UBUNTU_REF, config, list(stored.layers) + [extra])

        engine = _system_engine()
        install_user_side_images(engine)
        replace_base(engine)
        install_system_side_images(engine, X86_CLUSTER)
        install_user_side_images(engine)

        fresh = ContainerEngine(arch="amd64")
        install_ubuntu_base(fresh)
        replace_base(fresh)
        install_system_side_images(fresh, X86_CLUSTER)
        install_user_side_images(fresh)
        refs = SYSTEM_REFS + USER_REFS
        assert _layers(engine, refs) == _layers(fresh, refs)
        for ref in refs:
            assert extra.digest in engine.image(ref).layer_key()

    def test_package_added_to_a_registered_repository(self, calls):
        def extra_package():
            return Package(
                name="libsite-tuned", version="1.0", architecture="amd64",
                files=[PackagedFile(path="/opt/site/lib/libtuned.so", size=64)],
            )

        engine = _system_engine()
        rebase = engine.images[rebase_ref("x86")]
        engine.repos[X86_CLUSTER.vendor_repo].add(extra_package())
        install_system_side_images(engine, X86_CLUSTER)
        assert engine.image_filesystem(sysenv_ref("x86")).exists(
            "/opt/site/lib/libtuned.so")
        assert engine.images[rebase_ref("x86")] is rebase

        fresh = ContainerEngine(arch="amd64")
        install_ubuntu_base(fresh)
        install_system_side_images(fresh, X86_CLUSTER)
        fresh.repos[X86_CLUSTER.vendor_repo].add(extra_package())
        install_system_side_images(fresh, X86_CLUSTER)
        assert _layers(engine, SYSTEM_REFS) == _layers(fresh, SYSTEM_REFS)


class TestArchMismatch:
    def test_registers_nothing(self):
        engine = ContainerEngine(arch="arm64")
        with pytest.raises(ValueError):
            install_system_side_images(engine, X86_CLUSTER)
        assert engine.images == {} and engine.repos == {}

    def test_raises_under_optimised_python(self):
        code = (
            "from repro.containers import ContainerEngine\n"
            "from repro.core.images import install_system_side_images\n"
            "from repro.sysmodel import X86_CLUSTER\n"
            "try:\n"
            "    install_system_side_images(ContainerEngine(arch='arm64'), X86_CLUSTER)\n"
            "except ValueError:\n"
            "    print('refused')\n"
        )
        src = images.__file__.rsplit("/repro/", 1)[0]
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                             text=True, timeout=120)
        assert out.stdout.strip() == "refused", out.stderr

    def test_matching_arch_still_installs(self):
        engine = ContainerEngine(arch="arm64")
        install_system_side_images(engine, AARCH64_CLUSTER)
        assert engine.has_image(sysenv_ref("arm"))
