"""Edge cases of the container engine and simulated userland."""

import pytest

from repro.containers import ContainerEngine
from repro.images import install_ubuntu_base
from repro.oci.image import ImageConfig
from repro.oci.layer import Layer, LayerEntry
from repro.vfs import InlineContent, VfsError, VirtualFilesystem


@pytest.fixture(scope="module")
def engine():
    eng = ContainerEngine(arch="amd64")
    install_ubuntu_base(eng)
    return eng


@pytest.fixture
def ctr(engine):
    container = engine.from_image("ubuntu:24.04", name="edge")
    yield container
    engine.remove_container("edge")


class TestScriptExecution:
    def test_shebang_script_file(self, engine, ctr):
        ctr.fs.write_file(
            "/usr/local/bin/hello",
            b"#!/bin/sh\necho from-script\n",
            mode=0o755,
            create_parents=True,
        )
        result = engine.run(ctr, ["/usr/local/bin/hello"])
        assert result.ok
        assert result.stdout == "from-script\n"

    def test_sh_script_by_path(self, engine, ctr):
        ctr.fs.write_file("/s.sh", "echo one\necho two\n")
        result = engine.run(ctr, ["sh", "/s.sh"])
        assert result.stdout == "one\ntwo\n"

    def test_sh_missing_script(self, engine, ctr):
        result = engine.run(ctr, ["sh", "/nope.sh"])
        assert not result.ok

    def test_cannot_execute_random_bytes(self, engine, ctr):
        ctr.fs.write_file("/junk", b"\x00\x01\x02", mode=0o755)
        result = engine.run(ctr, ["/junk"])
        assert result.exit_code == 126


class TestScratchAndConfig:
    def test_build_from_scratch(self, engine):
        context = VirtualFilesystem()
        context.write_file("/payload", b"p", create_parents=True)
        engine.build("FROM scratch\nCOPY /payload /payload\n",
                     context=context, tag="mini:1")
        fs = engine.image_filesystem("mini:1")
        assert fs.read_file("/payload") == b"p"
        assert not fs.exists("/bin")

    def test_env_visible_in_run(self, engine):
        engine.build(
            "FROM ubuntu:24.04\nENV GREETING=hi\nRUN echo $GREETING > /g\n",
            tag="envtest:1",
        )
        assert engine.image_filesystem("envtest:1").read_text("/g") == "hi\n"

    def test_workdir_affects_run(self, engine):
        engine.build(
            "FROM ubuntu:24.04\nWORKDIR /w/deep\nRUN touch here\n",
            tag="wdtest:1",
        )
        assert engine.image_filesystem("wdtest:1").exists("/w/deep/here")

    def test_env_replacement_not_duplication(self, engine):
        engine.build(
            "FROM ubuntu:24.04\nENV X=1\nENV X=2\n", tag="envdup:1"
        )
        env = engine.image("envdup:1").config.env
        assert env.count("X=2") == 1
        assert not any(e == "X=1" for e in env)

    def test_copy_missing_source_fails(self, engine):
        from repro.containers import EngineError

        with pytest.raises(EngineError, match="COPY source not found"):
            engine.build("FROM ubuntu:24.04\nCOPY /ghost /g\n",
                         context=VirtualFilesystem())


class TestImageStore:
    def test_image_filesystem_isolated(self, engine):
        fs1 = engine.image_filesystem("ubuntu:24.04")
        fs1.write_file("/tainted", b"x")
        fs2 = engine.image_filesystem("ubuntu:24.04")
        assert not fs2.exists("/tainted")

    def test_the_engine_keeps_no_tree_and_still_counts_flattens(self):
        from repro.memo import MEMOS
        from repro.telemetry import Telemetry

        MEMOS["flatten"].clear()
        engine = ContainerEngine(arch="amd64")
        engine.telemetry = Telemetry()
        for i in range(100):
            layer = Layer(entries=[LayerEntry.file(f"/img{i}", InlineContent(b"%d" % i))])
            engine.add_image(f"img:{i}", ImageConfig(architecture="amd64"), [layer])
            assert engine.image_filesystem(f"img:{i}").read_text(f"/img{i}") == str(i)
            assert engine.image_filesystem(f"img:{i}").exists(f"/img{i}")

        def trees(value):
            if isinstance(value, VirtualFilesystem):
                return 1
            if isinstance(value, dict):
                return sum(trees(v) for v in value.values())
            return 0

        assert sum(trees(value) for value in vars(engine).values()) == 0
        counter = engine.telemetry.metrics.counter
        assert counter("engine_fs_cache_misses_total").value == 100
        assert counter("engine_fs_cache_hits_total").value == 100

    def test_unknown_image_raises(self, engine):
        from repro.containers import EngineError

        with pytest.raises(EngineError, match="image not found"):
            engine.image("ghost:1")

    def test_tag_aliases(self, engine):
        engine.tag("ubuntu:24.04", "ubuntu:latest")
        assert engine.has_image("ubuntu:latest")

    def test_default_binary_runner(self, engine, ctr):
        """Without perf attached, executables 'run' with a stub message."""
        from repro.toolchain.drivers import CompilerDriver

        assert engine.binary_runner is None
        ctr.fs.write_file("/x.c", "int main(){}\n")
        CompilerDriver("gnu-12", isa="x86-64").execute(
            ["gcc", "/x.c", "-o", "/bin/thing"], ctr.fs
        )
        result = engine.run(ctr, ["/bin/thing"])
        assert result.ok
        assert "simulated execution" in result.stdout


class TestTarProgram:
    def test_create_list_extract(self, engine, ctr):
        script = (
            "mkdir -p /work/data && echo abc > /work/data/f.txt "
            "&& cd /work && tar -cf data.tar data"
        )
        engine.run(ctr, ["sh", "-c", script]).check()
        listing = engine.run(ctr, ["sh", "-c", "cd /work && tar -tf data.tar"])
        assert "data/f.txt" in listing.stdout
        engine.run(ctr, ["sh", "-c",
                         "mkdir -p /out && tar -xf /work/data.tar -C /out"]).check()
        assert ctr.fs.read_text("/out/data/f.txt") == "abc\n"

    def test_extract_missing_archive(self, engine, ctr):
        result = engine.run(ctr, ["tar", "-xf", "/no.tar"])
        assert not result.ok

    def test_create_missing_member(self, engine, ctr):
        result = engine.run(ctr, ["tar", "-cf", "/a.tar", "ghost"])
        assert not result.ok


class TestVfsRenameCycleGuard:
    def test_rename_into_self_rejected(self):
        fs = VirtualFilesystem()
        fs.makedirs("/a/b")
        with pytest.raises(VfsError, match="into itself"):
            fs.rename("/a", "/a/b/c")

    def test_rename_to_same_path_rejected(self):
        fs = VirtualFilesystem()
        fs.makedirs("/a")
        with pytest.raises(VfsError):
            fs.rename("/a", "/a")

    def test_sibling_rename_still_works(self):
        fs = VirtualFilesystem()
        fs.makedirs("/a/b")
        fs.rename("/a", "/c")
        assert fs.is_dir("/c/b")


class TestRepositoryPoolSelection:
    def test_sources_list_ordering(self, engine):
        container = engine.from_image("ubuntu:24.04", name="pool-test")
        container.fs.write_file(
            "/etc/apt/sources.list", "repo ubuntu-generic\n", create_parents=True
        )
        pool = engine.repository_pool_for(container)
        assert [r.name for r in pool.repositories] == ["ubuntu-generic"]
        engine.remove_container("pool-test")

    def test_unknown_repo_names_skipped(self, engine):
        container = engine.from_image("ubuntu:24.04", name="pool-test2")
        container.fs.write_file(
            "/etc/apt/sources.list",
            "repo not-registered\nrepo ubuntu-generic\n",
            create_parents=True,
        )
        pool = engine.repository_pool_for(container)
        assert [r.name for r in pool.repositories] == ["ubuntu-generic"]
        engine.remove_container("pool-test2")

    def test_no_sources_list_falls_back_to_arch_repos(self, engine):
        config = ImageConfig(architecture="amd64")
        layer = Layer().add(LayerEntry.file("/hello", InlineContent(b"x")))
        config.diff_ids.append(layer.digest)
        engine.add_image("bare:1", config, [layer])
        container = engine.from_image("bare:1", name="pool-test3")
        pool = engine.repository_pool_for(container)
        assert any(r.name == "ubuntu-generic" for r in pool.repositories)
        engine.remove_container("pool-test3")
