"""Tests for compiler driver execution, archiver, artifacts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simbin
from repro.apps import get_app
from repro.containers import ContainerEngine
from repro.core.backend.verify import verify_redirected_image
from repro.core.images import env_ref, install_user_side_images
from repro.core.workflow import build_extended_image, system_side_adapt
from repro.sysmodel import X86_CLUSTER
from repro.toolchain.archiver import ArchiverError, run_ar
from repro.toolchain.artifacts import (
    ArchiveArtifact,
    ExecutableArtifact,
    ObjectArtifact,
    PaddedContent,
    SharedObjectArtifact,
    artifact_content,
    read_artifact,
    try_read_artifact,
)
from repro.toolchain.drivers import CompilerDriver, CompilerError
from repro.vfs import InlineContent, VirtualFilesystem
from repro.vfs import paths as vpath


@pytest.fixture
def fs():
    filesystem = VirtualFilesystem()
    filesystem.makedirs("/src")
    filesystem.write_file("/src/main.c", "int main(){return 0;}\n" * 50)
    filesystem.write_file("/src/util.c", "int util(){return 1;}\n" * 80)
    filesystem.write_file("/src/solver.cc", "double solve();\n" * 200)
    return filesystem


@pytest.fixture
def gcc():
    return CompilerDriver(toolchain_id="gnu-12", role="cc", isa="x86-64")


@pytest.fixture
def padded_reads(monkeypatch):
    """Records every :meth:`PaddedContent.read`: each one materializes
    an artifact's padding."""
    calls = []
    original = PaddedContent.read

    def counted(self):
        calls.append(self.size)
        return original(self)

    monkeypatch.setattr(PaddedContent, "read", counted)
    return calls


class TestArtifacts:
    def test_padded_content_size_and_digest(self):
        content = PaddedContent(payload=b"{}", pad=1000)
        assert content.size == 1002
        assert content.read() == b"{}" + b" " * 1000
        assert content.digest != PaddedContent(payload=b"{}", pad=999).digest

    def test_padded_content_hashes_once(self, monkeypatch):
        import hashlib
        import types

        from repro.toolchain import artifacts

        hashed = []

        def sha256(data):
            hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(artifacts, "hashlib", types.SimpleNamespace(sha256=sha256))
        content = PaddedContent(payload=b"{}", pad=10)
        assert content.digest == content.digest == PaddedContent(b"{}", 10).digest
        assert hashed == [b"{}", b"{}"]                  # once per object
        assert content == PaddedContent(b"{}", 10)
        assert hash(content) == hash(PaddedContent(b"{}", 10))

    def test_object_roundtrip(self):
        obj = ObjectArtifact(sources=["/src/a.c"], opt_level="2", lto_ir=True,
                             code_size=512)
        restored = read_artifact(artifact_content(obj).read())
        assert isinstance(restored, ObjectArtifact)
        assert restored.sources == ["/src/a.c"]
        assert restored.lto_ir

    def test_padding_is_valid_json_whitespace(self):
        obj = ObjectArtifact(code_size=4096)
        data = artifact_content(obj).read()
        assert len(data) >= 4096
        assert isinstance(read_artifact(data), ObjectArtifact)

    def test_try_read_non_artifact(self):
        assert try_read_artifact(b"not an artifact") is None

    @pytest.mark.parametrize("pad", [-1, -5, 1.5, "7", None, True])
    def test_pad_must_be_non_negative_int(self, pad):
        with pytest.raises(ValueError, match="pad"):
            PaddedContent(payload=b"{}", pad=pad)

    def test_reads_file_content_without_padding(self, padded_reads):
        content = artifact_content(ObjectArtifact(code_size=1 << 20))
        assert isinstance(read_artifact(content), ObjectArtifact)
        assert padded_reads == []


_KIND_PAYLOADS = [artifact_content(artifact, pad=0).payload for artifact in (
    ObjectArtifact(sources=["/src/a.c"], opt_level="3", lto_ir=True),
    ArchiveArtifact(members=[{"name": "a.o", "object": ObjectArtifact().to_json()}]),
    SharedObjectArtifact(soname="liba.so.1", libs=["m"]),
    ExecutableArtifact(lto_applied=True, pgo_profile="run-1"),
)]
_ODD_PAYLOADS = [
    simbin.ARTIFACT_MAGIC + b'{"kind": "object", "toolchain": "\xff\xfe"}',
    simbin.ARTIFACT_MAGIC + b'["kind", "object"]',
    simbin.ARTIFACT_MAGIC + b'{"sources": ["/src/a.c"]}',
    simbin.ARTIFACT_MAGIC + b'{"kind": "firmware"}',
    simbin.program_marker("gcc", toolchain="gnu-12"),
    b"",
]
_PAYLOADS = st.one_of(
    st.sampled_from(_KIND_PAYLOADS + _ODD_PAYLOADS),
    # Truncated JSON: every artifact kind cut at any byte.
    st.sampled_from(_KIND_PAYLOADS).flatmap(
        lambda p: st.integers(0, len(p) - 1).map(lambda n: p[:n])),
)


def _outcome(data):
    """What :func:`read_artifact` makes of *data*: the error class it
    raised, or the type and JSON of the artifact it returned."""
    try:
        artifact = read_artifact(data)
    except Exception as exc:
        return type(exc)
    return type(artifact), artifact.to_json()


@settings(max_examples=150)
@given(payload=_PAYLOADS, pad=st.integers(0, 4096))
def test_padded_decode_equals_materialized_decode(payload, pad):
    content = PaddedContent(payload, pad)
    materialized = payload + b" " * pad
    lazy, eager = try_read_artifact(content), try_read_artifact(materialized)
    if eager is None:
        assert lazy is None
    else:
        assert type(lazy) is type(eager)
        assert lazy.to_json() == eager.to_json()
    assert _outcome(content) == _outcome(materialized)


class TestCompile:
    def test_compile_produces_object(self, fs, gcc):
        result = gcc.execute(["gcc", "-c", "main.c", "-o", "main.o"], fs, cwd="/src")
        assert result.outputs == ["main.o"]
        obj = read_artifact(fs.read_file("/src/main.o"))
        assert isinstance(obj, ObjectArtifact)
        assert obj.sources == ["/src/main.c"]
        assert obj.toolchain == "gnu-12"
        assert obj.isa == "x86-64"

    def test_default_output_name(self, fs, gcc):
        gcc.execute(["gcc", "-c", "main.c"], fs, cwd="/src")
        assert fs.exists("/src/main.o")

    def test_provenance_captures_flags(self, fs, gcc):
        gcc.execute(
            ["gcc", "-O3", "-march=native", "-funroll-loops", "-DNDEBUG",
             "-c", "main.c"], fs, cwd="/src",
        )
        obj = read_artifact(fs.read_file("/src/main.o"))
        assert obj.opt_level == "3"
        assert obj.march == "native"
        assert obj.fflags["unroll-loops"] is True
        assert obj.defines == ["NDEBUG"]

    def test_lto_flag_marks_ir(self, fs, gcc):
        gcc.execute(["gcc", "-O2", "-flto", "-c", "main.c"], fs, cwd="/src")
        assert read_artifact(fs.read_file("/src/main.o")).lto_ir

    def test_missing_source_raises(self, fs, gcc):
        with pytest.raises(CompilerError, match="No such file"):
            gcc.execute(["gcc", "-c", "ghost.c"], fs, cwd="/src")

    def test_no_inputs_raises(self, fs, gcc):
        with pytest.raises(CompilerError, match="no input files"):
            gcc.execute(["gcc", "-c"], fs, cwd="/src")

    def test_multiple_sources_with_output_raises(self, fs, gcc):
        with pytest.raises(CompilerError):
            gcc.execute(["gcc", "-c", "main.c", "util.c", "-o", "x.o"], fs, cwd="/src")

    def test_code_size_scales_with_source(self, fs, gcc):
        gcc.execute(["gcc", "-O2", "-c", "main.c"], fs, cwd="/src")
        gcc.execute(["gcc", "-O2", "-c", "solver.cc"], fs, cwd="/src")
        small = read_artifact(fs.read_file("/src/main.o")).code_size
        large = read_artifact(fs.read_file("/src/solver.o")).code_size
        assert large > small

    def test_version(self, fs, gcc):
        result = gcc.execute(["gcc", "--version"], fs)
        assert "gnu-12" in result.stdout

    def test_preprocess_to_stdout(self, fs, gcc):
        result = gcc.execute(["gcc", "-E", "main.c"], fs, cwd="/src")
        assert '"main.c"' in result.stdout


class TestIsaRejection:
    def test_wrong_isa_mflag_rejected(self, fs):
        arm = CompilerDriver(toolchain_id="gnu-12", isa="aarch64")
        with pytest.raises(CompilerError, match="unrecognized command-line option"):
            arm.execute(["gcc", "-mavx2", "-c", "main.c"], fs, cwd="/src")

    def test_wrong_isa_march_rejected(self, fs):
        arm = CompilerDriver(toolchain_id="gnu-12", isa="aarch64")
        with pytest.raises(CompilerError):
            arm.execute(["gcc", "-march=skylake", "-c", "main.c"], fs, cwd="/src")

    def test_native_march_accepted_everywhere(self, fs):
        arm = CompilerDriver(toolchain_id="gnu-12", isa="aarch64")
        arm.execute(["gcc", "-march=native", "-c", "main.c"], fs, cwd="/src")
        assert read_artifact(fs.read_file("/src/main.o")).isa == "aarch64"


class TestLink:
    def _objects(self, fs, gcc, lto=False):
        flags = ["-O2"] + (["-flto"] if lto else [])
        gcc.execute(["gcc", *flags, "-c", "main.c"], fs, cwd="/src")
        gcc.execute(["gcc", *flags, "-c", "util.c"], fs, cwd="/src")

    def test_link_executable(self, fs, gcc):
        self._objects(fs, gcc)
        result = gcc.execute(["gcc", "main.o", "util.o", "-o", "app", "-lm"],
                             fs, cwd="/src")
        assert result.outputs == ["app"]
        exe = read_artifact(fs.read_file("/src/app"))
        assert isinstance(exe, ExecutableArtifact)
        assert len(exe.objects) == 2
        assert "m" in exe.libs
        assert fs.get_node("/src/app").mode == 0o755

    def test_link_direct_from_sources(self, fs, gcc):
        gcc.execute(["gcc", "-O2", "main.c", "util.c", "-o", "app"], fs, cwd="/src")
        exe = read_artifact(fs.read_file("/src/app"))
        assert len(exe.objects) == 2

    def test_link_shared(self, fs, gcc):
        self._objects(fs, gcc)
        gcc.execute(["gcc", "-shared", "util.o", "-o", "libutil.so",
                     "-Wl,-soname,libutil.so.1"], fs, cwd="/src")
        so = read_artifact(fs.read_file("/src/libutil.so"))
        assert isinstance(so, SharedObjectArtifact)
        assert so.soname == "libutil.so.1"

    def test_lto_applied_with_full_coverage(self, fs, gcc):
        self._objects(fs, gcc, lto=True)
        gcc.execute(["gcc", "-flto", "main.o", "util.o", "-o", "app"], fs, cwd="/src")
        exe = read_artifact(fs.read_file("/src/app"))
        assert exe.lto_applied
        assert exe.lto_coverage == 1.0

    def test_lto_not_applied_without_link_flag(self, fs, gcc):
        self._objects(fs, gcc, lto=True)
        gcc.execute(["gcc", "main.o", "util.o", "-o", "app"], fs, cwd="/src")
        exe = read_artifact(fs.read_file("/src/app"))
        assert not exe.lto_applied

    def test_partial_lto_coverage(self, fs, gcc):
        gcc.execute(["gcc", "-flto", "-c", "main.c"], fs, cwd="/src")
        gcc.execute(["gcc", "-c", "util.c"], fs, cwd="/src")
        gcc.execute(["gcc", "-flto", "main.o", "util.o", "-o", "app"], fs, cwd="/src")
        exe = read_artifact(fs.read_file("/src/app"))
        assert exe.lto_applied
        assert exe.lto_coverage == pytest.approx(0.5)

    def test_missing_library_raises(self, fs, gcc):
        self._objects(fs, gcc)
        with pytest.raises(CompilerError, match="cannot find -lnotreal"):
            gcc.execute(["gcc", "main.o", "-lnotreal", "-o", "app"], fs, cwd="/src")

    def test_library_resolved_from_libdir(self, fs, gcc):
        self._objects(fs, gcc)
        fs.makedirs("/usr/lib/x86_64-linux-gnu")
        fs.write_file("/usr/lib/x86_64-linux-gnu/libopenblas.so.0", b"synthetic lib")
        gcc.execute(["gcc", "main.o", "-lopenblas", "-o", "app"], fs, cwd="/src")
        exe = read_artifact(fs.read_file("/src/app"))
        assert exe.lib_paths["openblas"] == "/usr/lib/x86_64-linux-gnu/libopenblas.so.0"

    def test_library_resolved_from_L_flag(self, fs, gcc):
        self._objects(fs, gcc)
        fs.makedirs("/opt/mylibs")
        fs.write_file("/opt/mylibs/libcustom.so", b"x")
        gcc.execute(["gcc", "main.o", "-L/opt/mylibs", "-lcustom", "-o", "app"],
                    fs, cwd="/src")
        exe = read_artifact(fs.read_file("/src/app"))
        assert "custom" in exe.lib_paths

    def test_static_archive_members_inlined(self, fs, gcc):
        self._objects(fs, gcc)
        run_ar(["ar", "rcs", "libu.a", "util.o"], fs, cwd="/src")
        gcc.execute(["gcc", "main.o", "libu.a", "-o", "app"], fs, cwd="/src")
        exe = read_artifact(fs.read_file("/src/app"))
        assert len(exe.objects) == 2

    def test_mixed_isa_link_rejected(self, fs, gcc):
        gcc.execute(["gcc", "-c", "main.c"], fs, cwd="/src")
        arm = CompilerDriver(toolchain_id="gnu-12", isa="aarch64")
        arm.execute(["gcc", "-c", "util.c", "-o", "util_arm.o"], fs, cwd="/src")
        with pytest.raises(CompilerError, match="incompatible|cannot link"):
            gcc.execute(["gcc", "main.o", "util_arm.o", "-o", "app"], fs, cwd="/src")

    def test_garbage_object_rejected(self, fs, gcc):
        fs.write_file("/src/junk.o", b"garbage")
        with pytest.raises(CompilerError, match="file format not recognized"):
            gcc.execute(["gcc", "junk.o", "-o", "app"], fs, cwd="/src")

    def test_mpi_wrapper_adds_mpi(self, fs):
        mpicc = CompilerDriver(toolchain_id="gnu-12", isa="x86-64", mpi_wrapper=True)
        fs.makedirs("/usr/lib/x86_64-linux-gnu")
        fs.write_file("/usr/lib/x86_64-linux-gnu/libmpi.so.40", b"mpi")
        mpicc.execute(["mpicc", "-O2", "main.c", "-o", "app"], fs, cwd="/src")
        exe = read_artifact(fs.read_file("/src/app"))
        assert "mpi" in exe.libs
        assert exe.lib_paths["mpi"].endswith("libmpi.so.40")


class TestPgo:
    def test_profile_generate_marks_instrumented(self, fs, gcc):
        gcc.execute(["gcc", "-fprofile-generate", "main.c", "-o", "app"],
                    fs, cwd="/src")
        exe = read_artifact(fs.read_file("/src/app"))
        assert exe.pgo_instrumented and not exe.pgo_applied

    def test_profile_use_without_data_raises(self, fs, gcc):
        with pytest.raises(CompilerError, match="could not find profile data"):
            gcc.execute(["gcc", "-fprofile-use", "main.c", "-o", "app"],
                        fs, cwd="/src")

    def test_profile_use_with_data(self, fs, gcc):
        fs.write_file("/src/app.gcda", b'{"profile": "run-42", "quality": 1.0}')
        gcc.execute(["gcc", "-O2", "-fprofile-use", "main.c", "-o", "app"],
                    fs, cwd="/src")
        exe = read_artifact(fs.read_file("/src/app"))
        assert exe.pgo_applied
        assert exe.pgo_profile == "run-42"

    def test_profile_use_explicit_path(self, fs, gcc):
        fs.write_file("/profiles/run.gcda", b'{"profile": "p9"}', create_parents=True)
        gcc.execute(["gcc", "-fprofile-use=/profiles/run.gcda", "main.c", "-o", "app"],
                    fs, cwd="/src")
        assert read_artifact(fs.read_file("/src/app")).pgo_profile == "p9"


class TestArchiver:
    def test_create_and_list(self, fs, gcc):
        gcc.execute(["gcc", "-c", "main.c"], fs, cwd="/src")
        gcc.execute(["gcc", "-c", "util.c"], fs, cwd="/src")
        run_ar(["ar", "rcs", "liball.a", "main.o", "util.o"], fs, cwd="/src")
        listing = run_ar(["ar", "t", "liball.a"], fs, cwd="/src")
        assert listing.splitlines() == ["main.o", "util.o"]

    def test_replace_member(self, fs, gcc):
        gcc.execute(["gcc", "-c", "main.c"], fs, cwd="/src")
        run_ar(["ar", "rcs", "lib.a", "main.o"], fs, cwd="/src")
        gcc.execute(["gcc", "-O3", "-c", "main.c"], fs, cwd="/src")
        run_ar(["ar", "r", "lib.a", "main.o"], fs, cwd="/src")
        archive = read_artifact(fs.read_file("/src/lib.a"))
        assert len(archive.members) == 1
        assert archive.member_objects()[0].opt_level == "3"

    def test_extract(self, fs, gcc):
        gcc.execute(["gcc", "-c", "main.c"], fs, cwd="/src")
        run_ar(["ar", "rcs", "lib.a", "main.o"], fs, cwd="/src")
        fs.remove("/src/main.o")
        run_ar(["ar", "x", "lib.a"], fs, cwd="/src")
        assert fs.exists("/src/main.o")

    def test_missing_member_raises(self, fs):
        with pytest.raises(ArchiverError):
            run_ar(["ar", "rcs", "lib.a", "ghost.o"], fs, cwd="/src")


class TestInputLookups:
    """The link and ``ar`` read each input with one lookup, and an input
    that is no regular file fails as a file of another format does."""

    @staticmethod
    def _lookups(fs, monkeypatch):
        """The paths every walk from the root of *fs* resolves, in order."""
        paths = []
        resolve = fs._resolve

        def counted(path, *args, **kwargs):
            paths.append(path)
            return resolve(path, *args, **kwargs)

        monkeypatch.setattr(fs, "_resolve", counted)
        return paths

    def test_each_link_and_ar_input_is_looked_up_once(self, fs, gcc, monkeypatch):
        gcc.execute(["gcc", "-c", "main.c"], fs, cwd="/src")
        gcc.execute(["gcc", "-c", "util.c"], fs, cwd="/src")
        run_ar(["ar", "rcs", "libu.a", "util.o"], fs, cwd="/src")
        lookups = self._lookups(fs, monkeypatch)
        gcc.execute(["gcc", "main.o", "libu.a", "-o", "app"], fs, cwd="/src")
        run_ar(["ar", "r", "libu.a", "main.o"], fs, cwd="/src")
        # One per command: the write of the archive walks no path here.
        assert lookups.count("/src/main.o") == lookups.count("/src/libu.a") == 2
        run_ar(["ar", "t", "libu.a"], fs, cwd="/src")
        assert lookups.count("/src/libu.a") == 3

    @pytest.fixture(scope="class")
    def env(self):
        engine = ContainerEngine(arch="amd64")
        install_user_side_images(engine)
        return engine

    @pytest.mark.parametrize("argv, error", [
        (["/usr/bin/gcc", "-o", "/work/app", "/work/dir.o"],
         "/usr/bin/ld: /work/dir.o: file format not recognized"),
        (["/usr/bin/gcc", "-o", "/work/app", "/work/dir.a"],
         "/usr/bin/ld: /work/dir.a: malformed archive"),
        (["/usr/bin/ar", "rcs", "/work/lib.a", "/work/dir.o"],
         "ar: /work/dir.o: file format not recognized"),
        (["/usr/bin/ar", "r", "/work/dir.a", "/work/dir.o"],
         "ar: /work/dir.a: file format not recognized"),
        (["/usr/bin/ar", "t", "/work/dir.a"],
         "ar: /work/dir.a: file format not recognized"),
        (["/usr/bin/gcc", "-o", "/work/app", "/work/none.o"],
         "/usr/bin/gcc: error: /work/none.o: No such file or directory"),
        (["/usr/bin/ar", "rcs", "/work/lib.a", "/work/none.o"],
         "ar: /work/none.o: No such file or directory"),
    ], ids=["ld-object", "ld-archive", "ar-member", "ar-r-archive", "ar-t-archive",
            "ld-missing", "ar-missing"])
    def test_a_directory_or_missing_input_exits_1(self, env, argv, error):
        ctr = env.from_image(env_ref("amd64"))
        try:
            ctr.fs.makedirs("/work/dir.o")
            ctr.fs.makedirs("/work/dir.a")
            result = env.run(ctr, argv)
        finally:
            env.remove_container(ctr.name)
        assert (result.exit_code, result.stderr) == (1, error)

    @pytest.mark.parametrize("layout, linked", [
        ({"/work/lib/libfoo.a": None}, None),
        ({"/work/lib/libfoo.a": None, "/work/lib2/libfoo.a": "ar"}, "/work/lib2/libfoo.a"),
        ({"/work/lib/libfoo.so": None, "/work/lib/libfoo.a": "ar"}, "/work/lib/libfoo.a"),
        ({"/work/lib/libfoo.a": "/work/lib/gone.a"}, None),
    ], ids=["directory", "directory-then-archive", "so-directory-then-archive",
            "dangling-archive-link"])
    def test_a_library_candidate_that_is_no_file_is_passed_over(
            self, env, layout, linked):
        """A ``lib<name>`` that is a directory (None) or a dangling archive
        symlink (its target) is skipped: the search goes on to the next
        suffix and directory, and ends in the linker's error when nothing
        else matches."""
        ctr = env.from_image(env_ref("amd64"))
        try:
            ctr.fs.write_file("/work/m.c", InlineContent(b"int main() { return 0; }\n"),
                              create_parents=True)
            ctr.fs.write_file("/work/f.c", InlineContent(b"int foo() { return 1; }\n"))
            env.run(ctr, ["/usr/bin/gcc", "-c", "/work/m.c", "-o", "/work/m.o"]).check()
            env.run(ctr, ["/usr/bin/gcc", "-c", "/work/f.c", "-o", "/work/f.o"]).check()
            for path, kind in layout.items():
                if kind is None:
                    ctr.fs.makedirs(path)
                elif kind == "ar":
                    ctr.fs.makedirs(vpath.dirname(path))
                    env.run(ctr, ["/usr/bin/ar", "rcs", path, "/work/f.o"]).check()
                else:
                    ctr.fs.symlink(kind, path, create_parents=True)
            result = env.run(ctr, ["/usr/bin/gcc", "/work/m.o", "-L/work/lib",
                                   "-L/work/lib2", "-lfoo", "-o", "/work/app"])
            app = ctr.fs.try_get_node("/work/app")
        finally:
            env.remove_container(ctr.name)
        if linked is None:
            assert (result.exit_code, result.stderr) == (
                1, "/usr/bin/ld: cannot find -lfoo")
        else:
            result.check()
            objects = read_artifact(app.content.read()).objects
            assert [o["sources"] for o in objects] == [["/work/m.c"], ["/work/f.c"]]


class TestPaddingNeverMaterialized:
    """Provenance reads decode an artifact's payload, never its padding."""

    def test_archive_and_link_paths(self, fs, gcc, padded_reads):
        gcc.execute(["gcc", "-c", "main.c"], fs, cwd="/src")
        gcc.execute(["gcc", "-c", "util.c"], fs, cwd="/src")
        run_ar(["ar", "rcs", "libu.a", "util.o"], fs, cwd="/src")
        run_ar(["ar", "r", "libu.a", "util.o"], fs, cwd="/src")
        assert run_ar(["ar", "t", "libu.a"], fs, cwd="/src") == "util.o\n"
        run_ar(["ar", "x", "libu.a"], fs, cwd="/src")
        gcc.execute(["gcc", "main.o", "libu.a", "-o", "app"], fs, cwd="/src")
        gcc.execute(["gcc", "main.o", "-L/src", "-lu", "-o", "app2"],
                    fs, cwd="/src")
        for exe in ("/src/app", "/src/app2"):
            assert len(read_artifact(fs.read_content(exe)).objects) == 2
        assert padded_reads == []

    def test_cold_adaptation_verification_and_exec(self, padded_reads):
        user = ContainerEngine(arch="amd64")
        layout, dist_tag = build_extended_image(user, get_app("hpl"))
        engine = ContainerEngine(arch="amd64")
        ref = system_side_adapt(engine, layout, X86_CLUSTER, jobs=2,
                                ref="hpl:padding")
        report = verify_redirected_image(
            layout, dist_tag, engine.image_filesystem(ref),
            engine.image(ref).config.entrypoint,
        )
        assert report.ok, report.notes
        container = engine.from_image(ref, name="padding-exec")
        result = engine.run(container, ["/app/hpl"])
        assert result.exit_code == 0, result.stderr
        assert "simulated execution" in result.stdout
        assert padded_reads == []
