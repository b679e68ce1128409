"""Tests: app generation, original-image builds, Table 3 size calibration,
and end-to-end execution timing through the perf runtime."""

import pytest

from repro.apps import APPS, app_containerfile, build_context, get_app
from repro.apps.generate import (
    build_script,
    data_plan,
    estimate_executable_size,
    generate_sources,
    source_file_plan,
)
from repro.apps.specs import CROSSISA_APPS, MIB, TABLE3_APPS
from repro.containers import ContainerEngine
from repro.core.workflow import build_original_image
from repro.images import install_ubuntu_base
from repro.perf import attach_perf, predict_time, scheme_traits
from repro.perf.workloads import WORKLOADS
from repro.sysmodel import X86_CLUSTER
from repro.toolchain.artifacts import ExecutableArtifact, read_artifact


@pytest.fixture(scope="module")
def engine():
    eng = ContainerEngine(arch="amd64")
    install_ubuntu_base(eng)
    return eng


@pytest.fixture(scope="module")
def engines(engine):
    """An engine per architecture (amd64 is :func:`engine`)."""
    return {"amd64": engine, "arm64": ContainerEngine(arch="arm64")}


def _build_original(engine, app_name, tag=None):
    spec = get_app(app_name)
    context = build_context(spec, engine.arch)
    return engine.build(
        app_containerfile(spec), context=context, target="dist",
        tag=tag or f"{app_name}:orig",
    )


class TestSpecs:
    def test_all_eleven_apps(self):
        assert len(APPS) == 11

    def test_loc_matches_table2(self):
        assert get_app("hpl").loc == 37556
        assert get_app("lammps").loc == 2273423
        assert get_app("openmx").loc == 287381

    def test_workload_names_cover_perf_registry(self):
        names = {w for spec in APPS.values() for w in spec.workload_names()}
        assert names == set(WORKLOADS)

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            get_app("gromacs")


class TestSourceGeneration:
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_plan_sizes_sum(self, app):
        spec = get_app(app)
        plan = source_file_plan(spec)
        assert len(plan) >= spec.n_sources - 1
        total = sum(size for _, size, _ in plan)
        assert total >= spec.source_bytes * 0.95

    def test_guarded_asm_has_fallback(self):
        sources = generate_sources(get_app("hpl"))
        asm = [v for k, v in sources.items() if k.startswith("arch_")]
        assert asm
        text = asm[0].read().decode()
        assert "__asm__" in text and "#else" in text

    def test_unguarded_asm_has_no_fallback(self):
        sources = generate_sources(get_app("lammps"))
        asm_text = sources["arch_00.cc"].read().decode()
        assert "__asm__" in asm_text and "#else" not in asm_text

    def test_sources_deterministic(self):
        a = generate_sources(get_app("lulesh"))
        b = generate_sources(get_app("lulesh"))
        assert {k: v.digest for k, v in a.items()} == {k: v.digest for k, v in b.items()}


class TestBuildScript:
    def test_x86_script_has_isa_flags(self):
        script = build_script(get_app("hpl"), "x86-64")
        assert "-mavx2" in script
        assert "mpicc" in script

    def test_arm_script_differs(self):
        x86 = build_script(get_app("hpl"), "x86-64")
        arm = build_script(get_app("hpl"), "aarch64")
        assert x86 != arm
        assert "-mavx2" not in arm

    def test_static_lib_step(self):
        script = build_script(get_app("hpl"), "x86-64")
        assert "ar rcs libhpl.a" in script

    def test_cxx_app_uses_mpicxx(self):
        script = build_script(get_app("lulesh"), "x86-64")
        assert "mpicxx" in script
        assert "-DUSE_MPI=1" in script


#: ``data_plan``'s bulk data file per (app, arch), pinned: whether it
#: generates the sources itself or takes ``build_context``'s, no size
#: may move.
DATA_FILES = {
    ("comd", "amd64"): ("tables.bin", 1048952),
    ("hpccg", "amd64"): ("tables.bin", 1171305),
    ("hpcg", "amd64"): ("tables.bin", 688308),
    ("hpl", "amd64"): ("tables.bin", 1181976),
    ("lammps", "amd64"): ("potentials.bin", 25564788),
    ("lulesh", "amd64"): ("tables.bin", 1020795),
    ("miniaero", "amd64"): ("tables.bin", 862609),
    ("miniamr", "amd64"): ("tables.bin", 751222),
    ("minife", "amd64"): ("tables.bin", 1093101),
    ("minimd", "amd64"): ("tables.bin", 929235),
    ("openmx", "amd64"): ("vps_pao_database.bin", 266093886),
    ("comd", "arm64"): ("tables.bin", 744866),
    ("hpccg", "arm64"): ("tables.bin", 720418),
    ("hpcg", "arm64"): ("tables.bin", 1244054),
    ("hpl", "arm64"): ("tables.bin", 447974),
    ("lammps", "arm64"): ("potentials.bin", 25176817),
    ("lulesh", "arm64"): ("tables.bin", 2100829),
    ("miniaero", "arm64"): ("tables.bin", 558522),
    ("miniamr", "arm64"): ("tables.bin", 457622),
    ("minife", "arm64"): ("tables.bin", 883386),
    ("minimd", "arm64"): ("tables.bin", 719521),
    ("openmx", "arm64"): ("vps_pao_database.bin", 260085546),
}


class TestOriginalImageBuild:
    @pytest.mark.parametrize("app", ["lulesh", "hpl"])
    def test_build_succeeds_and_binary_present(self, engine, app):
        ref = _build_original(engine, app)
        fs = engine.image_filesystem(ref)
        spec = get_app(app)
        exe = read_artifact(fs.read_file(f"/app/{spec.binary_name}"))
        assert isinstance(exe, ExecutableArtifact)
        assert exe.toolchain == "gnu-12"
        assert exe.isa == "x86-64"
        assert not exe.lto_applied and not exe.pgo_applied

    @pytest.mark.parametrize("arch", ["amd64", "arm64"])
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_executable_size_estimate_matches(self, engines, app, arch):
        engine, spec = engines[arch], get_app(app)
        ref = build_original_image(engine, spec)
        actual = engine.image_filesystem(ref).file_size(f"/app/{spec.binary_name}")
        assert actual == estimate_executable_size(spec)

    @pytest.mark.parametrize("arch", ["amd64", "arm64"])
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_data_plan_is_pinned(self, app, arch):
        spec = get_app(app)
        plan = data_plan(spec, arch)
        assert plan[:-1] == [(f"in.{w}", 2048) for w in spec.workloads if w]
        name, size = plan[-1]
        assert (name, size) == DATA_FILES[app, arch]
        assert build_context(spec, arch).file_size(f"/data/{name}") == size

    def test_dist_image_has_no_sources_or_toolchain(self, engine):
        ref = _build_original(engine, "lulesh")
        fs = engine.image_filesystem(ref)
        assert not fs.exists("/src")
        assert not fs.exists("/usr/bin/gcc")

    def test_runtime_libs_installed(self, engine):
        ref = _build_original(engine, "lulesh")
        fs = engine.image_filesystem(ref)
        assert fs.exists("/usr/lib/x86_64-linux-gnu/libmpi.so.40")

    @pytest.mark.parametrize("app", ["lulesh", "hpl", "lammps", "openmx"])
    def test_table3_image_size(self, engine, app):
        spec = get_app(app)
        ref = _build_original(engine, app)
        total = engine.image_filesystem(ref).total_size()
        target = spec.image_size["amd64"] * MIB
        assert total == pytest.approx(target, rel=0.01), app


class TestExecution:
    def test_run_original_lulesh_matches_model(self, engine):
        ref = _build_original(engine, "lulesh")
        recorder = attach_perf(engine, X86_CLUSTER)
        container = engine.from_image(ref, name="run-lulesh")
        result = engine.run(
            container, ["mpirun", "-np", "16", "/app/lulesh"],
            env={"SIM_WORKLOAD": "lulesh"},
        )
        assert result.ok, result.stderr
        assert "Elapsed time" in result.stdout
        report = recorder.last
        assert report.workload == "lulesh"
        assert report.nodes == 16
        expected = predict_time(
            "lulesh", X86_CLUSTER, scheme_traits("lulesh", X86_CLUSTER, "original")
        )
        assert report.seconds == pytest.approx(expected, rel=0.01)
        engine.remove_container("run-lulesh")

    def test_lammps_workload_from_input_file(self, engine):
        ref = _build_original(engine, "lammps")
        recorder = attach_perf(engine, X86_CLUSTER)
        container = engine.from_image(ref, name="run-lmp")
        result = engine.run(
            container,
            ["mpirun", "-np", "16", "/app/lmp", "-in", "/app/share/in.eam"],
        )
        assert result.ok, result.stderr
        assert recorder.last.workload == "lammps.eam"
        engine.remove_container("run-lmp")


class TestCrossIsaMarkers:
    def test_crossisa_apps_have_portable_asm(self):
        for app in CROSSISA_APPS:
            assert get_app(app).asm_guarded, app

    def test_large_apps_blocked(self):
        assert not get_app("lammps").asm_guarded
        assert not get_app("openmx").asm_guarded

    def test_table3_apps_have_calibration(self):
        for app in TABLE3_APPS:
            spec = get_app(app)
            assert "amd64" in spec.image_size and "arm64" in spec.image_size
