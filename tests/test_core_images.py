"""Tests for the coMtainer image set (Env / Base / Sysenv / Rebase)."""

import pytest

from repro import simbin
from repro.containers import ContainerEngine
from repro.core.images import (
    base_ref,
    env_ref,
    install_system_side_images,
    install_user_side_images,
    rebase_ref,
    sysenv_ref,
)
from repro.pkg.database import DpkgDatabase
from repro.sysmodel import AARCH64_CLUSTER, X86_CLUSTER


@pytest.fixture(scope="module")
def user_engine():
    engine = ContainerEngine(arch="amd64")
    install_user_side_images(engine)
    return engine


@pytest.fixture(scope="module")
def system_engine():
    engine = ContainerEngine(arch="amd64")
    install_system_side_images(engine, X86_CLUSTER)
    install_system_side_images(engine, X86_CLUSTER, flavor="llvm")
    return engine


class TestUserSideImages:
    def test_refs(self):
        assert env_ref("amd64") == "comt:amd64.env"
        assert base_ref("arm64") == "comt:arm64.base"

    def test_base_is_standard_compatible(self, user_engine):
        """Base = ubuntu + a marker; nothing else changes."""
        base_fs = user_engine.image_filesystem(base_ref("amd64"))
        ubuntu_fs = user_engine.image_filesystem("ubuntu:24.04")
        assert base_fs.exists("/.coMtainer/release")
        assert base_fs.exists("/bin/bash")
        # Same package set as the standard base.
        assert (DpkgDatabase.read_from(base_fs).names()
                == DpkgDatabase.read_from(ubuntu_fs).names())

    def test_env_has_toolchain(self, user_engine):
        fs = user_engine.image_filesystem(env_ref("amd64"))
        assert fs.exists("/usr/bin/gcc-12")
        assert fs.exists("/usr/bin/mpicc")
        assert fs.exists("/usr/bin/ar")

    def test_env_toolchain_is_hijacked(self, user_engine):
        fs = user_engine.image_filesystem(env_ref("amd64"))
        marker = simbin.read_program_marker(fs.read_file("/usr/bin/gcc-12"))
        assert marker["program"] == "hijack"
        assert marker["forward"]["program"] == "compiler-driver"
        assert marker["forward"]["toolchain"] == "gnu-12"

    def test_env_has_comtainer_build(self, user_engine):
        fs = user_engine.image_filesystem(env_ref("amd64"))
        marker = simbin.read_program_marker(fs.read_file("/usr/bin/coMtainer-build"))
        assert marker["program"] == "coMtainer-build"

    def test_hijack_does_not_break_compilation(self, user_engine):
        ctr = user_engine.from_image(env_ref("amd64"), name="hj-compile")
        ctr.fs.write_file("/s/x.c", "int x;\n" * 10, create_parents=True)
        result = user_engine.run(ctr, ["sh", "-c", "cd /s && gcc -c x.c"])
        assert result.ok, result.stderr
        assert ctr.fs.exists("/s/x.o")
        user_engine.remove_container("hj-compile")

    def test_idempotent_install(self, user_engine):
        install_user_side_images(user_engine)  # second call must not break
        assert user_engine.has_image(env_ref("amd64"))


class TestSystemSideImages:
    def test_sysenv_has_vendor_toolchain(self, system_engine):
        fs = system_engine.image_filesystem(sysenv_ref("x86"))
        marker = simbin.read_program_marker(fs.read_file("/opt/intel/bin/icx"))
        assert marker["program"] == "compiler-driver"
        assert marker["toolchain"] == "intel-2024"

    def test_sysenv_has_vendor_libraries(self, system_engine):
        fs = system_engine.image_filesystem(sysenv_ref("x86"))
        assert fs.exists("/usr/lib/x86_64-linux-gnu/libmkl_core.so.0")

    def test_sysenv_path_includes_vendor_bins(self, system_engine):
        stored = system_engine.image(sysenv_ref("x86"))
        assert "/opt/intel/bin" in stored.config.env_dict()["PATH"]

    def test_sysenv_sources_list_has_all_repos(self, system_engine):
        fs = system_engine.image_filesystem(sysenv_ref("x86"))
        sources = fs.read_text("/etc/apt/sources.list")
        assert "ubuntu-generic" in sources
        assert "intel-hpc" in sources
        assert "llvm-generic" in sources

    def test_llvm_flavor_sysenv(self, system_engine):
        fs = system_engine.image_filesystem(sysenv_ref("x86", "llvm"))
        assert fs.exists("/usr/bin/clang")
        # Optimized vendor *libraries* still present (artifact B.2: only
        # the proprietary compilers are substituted).
        assert fs.exists("/usr/lib/x86_64-linux-gnu/libmkl_core.so.0")
        # But the proprietary compiler is not.
        assert not fs.exists("/opt/intel/bin/icx")

    def test_rebase_is_minimal(self, system_engine):
        fs = system_engine.image_filesystem(rebase_ref("x86"))
        marker = simbin.read_program_marker(
            fs.read_file("/usr/bin/coMtainer-redirect")
        )
        assert marker["program"] == "coMtainer-redirect"
        assert not fs.exists("/usr/bin/gcc-12")   # no toolchain in Rebase

    def test_arm_system_images(self):
        engine = ContainerEngine(arch="arm64")
        install_system_side_images(engine, AARCH64_CLUSTER)
        fs = engine.image_filesystem(sysenv_ref("arm"))
        marker = simbin.read_program_marker(fs.read_file("/opt/phytium/bin/ftcc"))
        assert marker["toolchain"] == "phytium-kit-3"

    def test_arch_mismatch_asserts(self):
        engine = ContainerEngine(arch="amd64")
        with pytest.raises(ValueError):
            install_system_side_images(engine, AARCH64_CLUSTER)
