"""End-to-end orchestration of the coMtainer workflow (Figure 5).

User side: two-stage build on the Env/Base images, push the dist image to
an OCI layout, run ``coMtainer-build`` in the build container to create
the extended image.  Distribution: the extended image travels through a
registry.  System side: ``coMtainer-rebuild`` in a Sysenv container (with
an optional automated PGO feedback loop), ``coMtainer-redirect`` in a
Rebase container, commit -> the optimized image.

:class:`ComtainerSession` wires a user engine, a registry and a system
engine together and memoizes per-app artifacts so the evaluation harness
can measure all four schemes of §5.1.3 for every workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps import app_containerfile, build_context, get_app
from repro.apps.specs import AppSpec
from repro.containers.container import ProgramError
from repro.containers.engine import ContainerEngine
from repro.core.backend.replacement import (
    apply_replacements,
    install_runtime,
    replace_installed_libraries,
    replacements_for_packages,
)
from repro.core.cache.artifacts import (
    attach_artifact_cache,
    publish_artifact_cache,
)
from repro.core.cache.storage import extended_tag, find_dist_tag
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import (
    base_ref,
    env_ref,
    install_system_side_images,
    install_user_side_images,
    rebase_ref,
    sysenv_ref,
)
from repro.integrity.repair import RepairEngine
from repro.oci.layout import OCILayout
from repro.oci.registry import ImageRegistry
from repro.perf.runtime import ExecutionReport, PerfRecorder, attach_perf
from repro.pkg import catalog
from repro.pkg.apt import AptFacade
from repro.resilience.degrade import (
    ResilienceContext,
    ResiliencePolicy,
    ResilienceReport,
    adapt_with_resilience,
    install_resilience,
    resilient_transfer,
)
from repro.sysmodel import SystemModel, X86_CLUSTER
from repro.telemetry import NULL_TELEMETRY, install_telemetry
from repro.toolchain.cli import parse_command_line


class WorkflowError(Exception):
    pass


# ---------------------------------------------------------------------------
# user side
# ---------------------------------------------------------------------------

def build_extended_image(
    engine: ContainerEngine, spec: AppSpec, obfuscate: bool = False
) -> Tuple[OCILayout, str]:
    """Build app images on the coMtainer Env/Base and run coMtainer-build.

    Returns the OCI layout holding ``<app>.dist`` and ``<app>.dist+coM``.
    With *obfuscate*, cached sources are scrambled for IP protection
    (§4.6) — adaptation still works.  The ``build`` and ``dist`` stage
    images are removed from *engine* again: the layout holds everything
    the build produced, and the engine keeps only the Env/Base images.
    """
    with engine.telemetry.span("build", app=spec.name, arch=engine.arch):
        install_user_side_images(engine)
        arch = engine.arch
        containerfile = app_containerfile(
            spec, build_base=env_ref(arch), dist_base=base_ref(arch)
        )
        context = build_context(spec, arch)
        refs = engine.build_stages(containerfile, context=context)
        build_ref, dist_ref = refs["build"], refs["dist"]

        dist_tag = f"{spec.name}.dist"
        layout = OCILayout()
        build_name = f"{spec.name}.build"
        try:
            engine.push_to_layout(dist_ref, layout, tag=dist_tag)
            build_ctr = engine.from_image(
                build_ref, name=build_name, mounts={IO_MOUNT: layout}
            )
            argv = ["coMtainer-build"] + (["--obfuscate"] if obfuscate else [])
            engine.run(build_ctr, argv).check()
        finally:
            engine.remove_container(build_name)
            for ref in refs.values():
                engine.remove_image(ref)
        return layout, dist_tag


def build_original_image(
    engine: ContainerEngine, spec: AppSpec, tag: Optional[str] = None
) -> str:
    """The conventional generic image (the `original` scheme)."""
    from repro.images import UBUNTU_REF, install_ubuntu_base

    if not engine.has_image(UBUNTU_REF):
        install_ubuntu_base(engine)
    containerfile = app_containerfile(spec)   # plain ubuntu bases
    context = build_context(spec, engine.arch)
    return engine.build(
        containerfile, context=context, target="dist",
        tag=tag or f"{spec.name}:original",
    )


# ---------------------------------------------------------------------------
# system side
# ---------------------------------------------------------------------------

def _run_rebuild(
    engine: ContainerEngine,
    layout: OCILayout,
    system: SystemModel,
    flavor: str,
    args: List[str],
    profile_bytes: Optional[bytes] = None,
    extra_args: Optional[List[str]] = None,
    jobs: int = 1,
    speculate: bool = True,
    max_worker_failures: int = 3,
    deadline: Optional[float] = None,
) -> None:
    if extra_args:
        args = args + list(extra_args)
    if jobs != 1:
        args = args + [f"--jobs={jobs}"]
    if not speculate:
        args = args + ["--no-speculate"]
    if max_worker_failures != 3:
        args = args + [f"--max-worker-failures={max_worker_failures}"]
    if deadline is not None:
        args = args + [f"--deadline={deadline}"]
    with engine.telemetry.span("rebuild", system=system.key, flavor=flavor):
        ctr = engine.from_image(
            sysenv_ref(system.key, flavor), name="comt-rebuild",
            mounts={IO_MOUNT: layout},
        )
        try:
            if profile_bytes is not None:
                ctr.fs.write_file(
                    "/profiles/app.gcda", profile_bytes, create_parents=True
                )
                args = args + ["--pgo=use", "--pgo-profile=/profiles/app.gcda"]
            engine.run(ctr, ["coMtainer-rebuild"] + args).check()
        finally:
            engine.remove_container(ctr.name)


def _run_redirect(
    engine: ContainerEngine,
    layout: OCILayout,
    system: SystemModel,
    ref: str,
) -> str:
    with engine.telemetry.span("redirect", system=system.key, ref=ref):
        ctr = engine.from_image(
            rebase_ref(system.key), name="comt-redirect", mounts={IO_MOUNT: layout}
        )
        try:
            engine.run(ctr, ["coMtainer-redirect"]).check()
            engine.commit(ctr, ref=ref, comment="coMtainer redirected image")
        finally:
            engine.remove_container(ctr.name)
        return ref


_VENDOR_MPIRUN_PATHS = ("/opt/intel/bin/mpirun", "/opt/phytium/bin/mpirun")


def _vendor_mpirun(engine: ContainerEngine, image_ref: str) -> str:
    """The vendor ``mpirun`` path inside *image_ref* (or plain ``mpirun``)."""
    fs = engine.image_filesystem(image_ref)
    for candidate in _VENDOR_MPIRUN_PATHS:
        if fs.exists(candidate):
            return candidate
    return "mpirun"


def run_workload(
    engine: ContainerEngine,
    image_ref: str,
    workload_name: str,
    recorder: PerfRecorder,
    nodes: int = 16,
    vendor_mpirun: bool = False,
) -> ExecutionReport:
    """Launch a workload in an image and return its execution report."""
    app_name, _, input_name = workload_name.partition(".")
    spec = get_app(app_name)
    binary = f"/app/{spec.binary_name}"
    argv: List[str] = []
    if input_name:
        argv = ["-in", f"/app/share/in.{input_name}"]
    launcher = _vendor_mpirun(engine, image_ref) if vendor_mpirun else "mpirun"
    tele = engine.telemetry
    with tele.span("workload", workload=workload_name, image=image_ref,
                   nodes=nodes) as span:
        ctr = engine.from_image(image_ref, name=f"run-{workload_name}")
        try:
            before = len(recorder.reports)
            result = engine.run(
                ctr,
                [launcher, "-np", str(nodes), binary] + argv,
                env={"SIM_WORKLOAD": workload_name},
            )
            if not result.ok:
                raise WorkflowError(
                    f"workload {workload_name} failed in {image_ref}: {result.stderr}"
                )
            if len(recorder.reports) == before:
                raise WorkflowError(
                    f"workload {workload_name} produced no execution report"
                )
            report = recorder.reports[-1]
            span.set("seconds", report.seconds)
            tele.charge(report.seconds)
            return report
        finally:
            engine.remove_container(ctr.name)


def system_side_adapt(
    engine: ContainerEngine,
    layout: OCILayout,
    system: SystemModel,
    recorder: Optional[PerfRecorder] = None,
    lto: bool = False,
    pgo_workload: Optional[str] = None,
    flavor: str = "vendor",
    ref: Optional[str] = None,
    nodes: int = 16,
    extra_rebuild_args: Optional[List[str]] = None,
    jobs: int = 1,
    speculate: bool = True,
    max_worker_failures: int = 3,
    deadline: Optional[float] = None,
) -> str:
    """Rebuild + redirect an extended image for *system*.

    With *pgo_workload*, runs the paper's automated PGO feedback loop:
    instrumented rebuild -> redirect -> profiling run -> final rebuild
    with the gathered profile.  *extra_rebuild_args* are appended to
    every ``coMtainer-rebuild`` invocation (the resilience layer passes
    ``--journal`` / ``--fallback`` through here).  *jobs* is the rebuild
    worker count (``coMtainer-rebuild --jobs``); it changes simulated
    rebuild time, never the produced image.  *speculate* /
    *max_worker_failures* tune the rebuild worker fleet (straggler
    speculation and the flaky-worker blacklist threshold) — like *jobs*,
    simulated time only.  *deadline* is a simulated-seconds budget per
    rebuild phase; a blown budget raises the typed
    :class:`repro.resilience.DeadlineExceededError` with the journal
    left resumable.
    """
    install_system_side_images(engine, system, flavor)
    dist_tag = find_dist_tag(layout)
    ref = ref or f"{dist_tag}:adapted"
    base_args = ["--lto"] if lto else []
    base_args += [f"--adapter={flavor}"]

    if pgo_workload is not None:
        if recorder is None:
            raise WorkflowError("PGO loop needs a perf recorder on the engine")
        _run_rebuild(engine, layout, system, flavor,
                     base_args + ["--pgo=instrument"],
                     extra_args=extra_rebuild_args, jobs=jobs,
                     speculate=speculate,
                     max_worker_failures=max_worker_failures,
                     deadline=deadline)
        instr_ref = _run_redirect(engine, layout, system, ref=f"{ref}.instrumented")
        # Profiling run: execute the instrumented binary on the system.
        app_name, _, input_name = pgo_workload.partition(".")
        spec = get_app(app_name)
        launcher = _vendor_mpirun(engine, instr_ref)
        instr_ctr = engine.from_image(instr_ref, name="pgo-profile-run")
        try:
            argv = ["-in", f"/app/share/in.{input_name}"] if input_name else []
            result = engine.run(
                instr_ctr,
                [launcher, "-np", str(nodes), f"/app/{spec.binary_name}"] + argv,
                env={"SIM_WORKLOAD": pgo_workload},
            )
            if not result.ok:
                raise WorkflowError(f"PGO profiling run failed: {result.stderr}")
            if not instr_ctr.fs.exists("/default.gcda"):
                raise WorkflowError("instrumented run produced no profile data")
            profile_bytes = instr_ctr.fs.read_file("/default.gcda")
        finally:
            engine.remove_container(instr_ctr.name)
        _run_rebuild(engine, layout, system, flavor, base_args,
                     profile_bytes=profile_bytes, extra_args=extra_rebuild_args,
                     jobs=jobs, speculate=speculate,
                     max_worker_failures=max_worker_failures,
                     deadline=deadline)
    else:
        _run_rebuild(engine, layout, system, flavor, base_args,
                     extra_args=extra_rebuild_args, jobs=jobs,
                     speculate=speculate,
                     max_worker_failures=max_worker_failures,
                     deadline=deadline)

    return _run_redirect(engine, layout, system, ref=ref)


def library_only_adapt(
    engine: ContainerEngine,
    original_ref: str,
    system: SystemModel,
    flavor: str = "vendor",
    ref: Optional[str] = None,
) -> str:
    """The `libo` step of Figure 3: replace libraries, keep the binaries.

    Demonstrates that replacement affects *existing* binaries: their
    recorded library paths re-resolve through the compat symlinks to the
    optimized code, with no recompilation involved.
    """
    install_system_side_images(engine, system, flavor)
    ctr = engine.from_image(original_ref, name="libo-adapt")
    try:
        replace_installed_libraries(engine, ctr, system)
        target = ref or f"{original_ref}.libo"
        engine.commit(ctr, ref=target, comment="library-only adaptation")
        return target
    finally:
        engine.remove_container(ctr.name)


# ---------------------------------------------------------------------------
# native builds (the `native` scheme)
# ---------------------------------------------------------------------------

_ROLE_OF_DRIVER = {
    "gcc": "cc", "mpicc": "cc", "g++": "cxx", "mpicxx": "cxx",
    "gfortran": "fc", "mpif90": "fc",
}

NATIVE_TUNED_FLAGS = ["-march=native", "-funroll-loops", "-ffast-math"]


def _native_script(spec: AppSpec, system: SystemModel, adapter) -> str:
    """Hand-tuned native build script (vendor compiler + tuned flags)."""
    from repro.apps.generate import build_script

    lines = []
    for line in build_script(spec, system.isa).splitlines():
        head = line.split(" ", 1)[0] if line else ""
        role = _ROLE_OF_DRIVER.get(head)
        if role is None:
            lines.append(line)
            continue
        inv = parse_command_line(line.split())
        inv.program = adapter.native_compiler(role)
        for flag in NATIVE_TUNED_FLAGS:
            if flag.startswith("-march="):
                inv.set_mflag("arch", flag.split("=", 1)[1])
            else:
                inv.set_fflag(flag[2:], True)
        # Strip user-side ISA flags; native tuning supersedes them.
        for arg in list(inv.mflags):
            if arg not in ("arch",):
                inv.mflags.pop(arg, None)
        if head.startswith("mpi") and inv.mode == "link" and "mpi" not in inv.libs:
            inv.libs.append("mpi")
        lines.append(" ".join(inv.render()))
    return "\n".join(lines) + "\n"


def build_native(
    engine: ContainerEngine,
    spec: AppSpec,
    system: SystemModel,
    flavor: str = "vendor",
    tag: Optional[str] = None,
) -> str:
    """Build the app natively on the system (hand-tuned, vendor stack)."""
    from repro.core.adapters.builtin import get_adapter

    install_system_side_images(engine, system, flavor)
    adapter = get_adapter(flavor, system)
    ctr = engine.from_image(sysenv_ref(system.key, flavor), name=f"native-{spec.name}")
    try:
        context = build_context(spec, system.arch)
        ctr.fs.copy_tree("/src", "/src", source_fs=context)
        ctr.fs.copy_tree("/data", "/app/share", source_fs=context)

        runtime = catalog.default_runtime_install() + list(spec.runtime_packages)
        pool = engine.repository_pool_for(ctr)
        apt = AptFacade(ctr.fs, pool)
        plan = replacements_for_packages(runtime, pool)
        install_runtime(apt, runtime, plan)
        apply_replacements(ctr.fs, apt, plan)

        ctr.fs.write_file(
            "/src/build-native.sh", _native_script(spec, system, adapter),
            create_parents=True,
        )
        result = engine.run(ctr, ["sh", "/src/build-native.sh"], cwd="/src")
        if not result.ok:
            raise WorkflowError(f"native build of {spec.name} failed: {result.stderr}")
        ref = tag or f"{spec.name}:native"
        engine.commit(ctr, ref=ref, comment=f"native build of {spec.name}")
        return ref
    finally:
        engine.remove_container(ctr.name)


# ---------------------------------------------------------------------------
# the evaluation session
# ---------------------------------------------------------------------------

@dataclass
class ComtainerSession:
    """User engine + registry + system engine, with memoized artifacts."""

    system: SystemModel = X86_CLUSTER
    flavor: str = "vendor"
    nodes: int = 16
    #: Simulated rebuild worker count, threaded into every
    #: ``coMtainer-rebuild --jobs``.  Changes makespan, never bytes.
    jobs: int = 1
    #: Speculatively re-execute detected straggler groups on the rebuild
    #: worker fleet (first completion wins).  Simulated time only.
    speculate: bool = True
    #: Flaky-attempt strikes before a rebuild worker is blacklisted.
    max_worker_failures: int = 3
    #: Share the rebuild artifact cache through the registry: publish it
    #: after each adaptation and attach any published cache before a
    #: rebuild — same-adapter rebuilds on other sessions/nodes hit warm
    #: compiles.  Off by default (sharing is a policy decision).
    share_cache: bool = False
    user_engine: ContainerEngine = None
    system_engine: ContainerEngine = None
    registry: ImageRegistry = None
    recorder: PerfRecorder = None
    #: Optional resilience policy; the default (None / strict) keeps the
    #: original fail-loud behaviour with zero instrumentation installed.
    resilience: Optional[ResiliencePolicy] = None
    resilience_reports: List[ResilienceReport] = field(default_factory=list)
    #: Telemetry recorder (:class:`repro.telemetry.Telemetry`); the
    #: default no-op sink records nothing.
    telemetry: object = NULL_TELEMETRY
    _original: Dict[str, str] = field(default_factory=dict)
    _layouts: Dict[str, Tuple[OCILayout, str]] = field(default_factory=dict)
    _user_layouts: Dict[str, OCILayout] = field(default_factory=dict)
    _repairers: Dict[str, RepairEngine] = field(default_factory=dict)
    _adapted: Dict[str, str] = field(default_factory=dict)
    _optimized: Dict[str, str] = field(default_factory=dict)
    _native: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.user_engine is None:
            self.user_engine = ContainerEngine(arch=self.system.arch)
        if self.system_engine is None:
            self.system_engine = ContainerEngine(arch=self.system.arch)
        if self.registry is None:
            self.registry = ImageRegistry()
        install_user_side_images(self.user_engine)
        install_system_side_images(self.system_engine, self.system, self.flavor)
        if self.recorder is None:
            self.recorder = attach_perf(self.system_engine, self.system)
        self._resilience_ctx: Optional[ResilienceContext] = None
        if self.resilience is not None and not self.resilience.strict:
            self._resilience_ctx = install_resilience(
                self.resilience,
                registry=self.registry,
                engines=[self.system_engine],
            )
        install_telemetry(
            self.telemetry,
            registry=self.registry,
            engines=[self.user_engine, self.system_engine],
        )
        if self._resilience_ctx is not None:
            self._resilience_ctx.telemetry = self.telemetry

    # -- artifact builders (memoized per app/workload) ----------------------

    def original_image(self, app: str) -> str:
        if app not in self._original:
            ref = build_original_image(self.user_engine, get_app(app))
            self.user_engine.push_to_registry(
                ref, self.registry, f"repro/{app}:original"
            )
            self._original[app] = self.system_engine.load_from_registry(
                self.registry, f"repro/{app}:original"
            )
        return self._original[app]

    def extended_layout(self, app: str) -> Tuple[OCILayout, str]:
        """The extended image layout, transferred to the system side."""
        if app not in self._layouts:
            layout, dist_tag = build_extended_image(self.user_engine, get_app(app))
            # The user-side layout is never touched by the (system-side)
            # fault injector, so it doubles as a pristine repair replica.
            self._user_layouts[app] = layout
            # Distribute via the registry (both manifests of the layout),
            # retrying transient transfer faults under a permissive policy.
            with self.telemetry.span("transfer", app=app):
                remote = resilient_transfer(
                    self.registry, layout, f"repro/{app}",
                    (dist_tag, extended_tag(dist_tag)), ctx=self._resilience_ctx,
                )
            if self.share_cache:
                # Warm this layout from any cache a previous session (or
                # another cluster node) published for the same app.
                attach_artifact_cache(
                    remote, self.registry, f"repro/{app}", dist_tag
                )
            self._layouts[app] = (remote, dist_tag)
        return self._layouts[app]

    def _publish_cache(self, app: str, layout: OCILayout, dist_tag: str) -> None:
        if self.share_cache:
            publish_artifact_cache(
                self.registry, f"repro/{app}", layout, dist_tag
            )

    def repairer(self, app: str) -> RepairEngine:
        """Repair sources for *app*, best first: registry replica, the
        pristine user-side layout, then full regeneration via the
        process-model build path."""
        if app not in self._repairers:
            engine = RepairEngine(telemetry=self.telemetry)
            engine.add_registry(self.registry, label="registry")
            user_layout = self._user_layouts.get(app)
            if user_layout is not None:
                engine.add_layout(user_layout, label="user-layout")
            engine.add_regenerator(
                lambda app=app: build_extended_image(
                    self.user_engine, get_app(app)
                )[0],
                label="regenerate",
            )
            self._repairers[app] = engine
        return self._repairers[app]

    def adapt(self, app: str, workload: Optional[str] = None) -> str:
        """One traced end-to-end adaptation of *app*.

        Opens the root ``adapt`` span covering build -> transfer ->
        rebuild (every compile node) -> redirect -> commit; with
        *workload*, runs the full optimized pipeline (LTO + PGO loop)
        instead of the plain adaptation.  Returns the adapted image ref.
        """
        with self.telemetry.span("adapt", app=app,
                                 system=self.system.key) as span:
            if workload is not None:
                ref = self.optimized_image(workload)
            else:
                ref = self.adapted_image(app)
            span.set("ref", ref)
            return ref

    def adapted_image(self, app: str) -> str:
        if app not in self._adapted:
            if self._resilience_ctx is not None:
                # Permissive session: route through the degradation
                # ladder + repair engine so a corrupt cache blob is
                # repaired (digest-identical image) or the session
                # degrades with the IntegrityError on record — it never
                # adapts silently wrong bytes.
                report = self.resilient_adapt(app, ref=f"{app}:adapted")
                self._adapted[app] = report.ref
            else:
                layout, dist_tag = self.extended_layout(app)
                self._adapted[app] = system_side_adapt(
                    self.system_engine, layout, self.system,
                    recorder=self.recorder, flavor=self.flavor,
                    ref=f"{app}:adapted", nodes=self.nodes, jobs=self.jobs,
                    speculate=self.speculate,
                    max_worker_failures=self.max_worker_failures,
                )
                self._publish_cache(app, layout, dist_tag)
        return self._adapted[app]

    def optimized_image(self, workload: str) -> str:
        if workload not in self._optimized:
            app = workload.partition(".")[0]
            layout, dist_tag = self.extended_layout(app)
            self._optimized[workload] = system_side_adapt(
                self.system_engine, layout, self.system,
                recorder=self.recorder, lto=True, pgo_workload=workload,
                flavor=self.flavor, ref=f"{workload}:optimized", nodes=self.nodes,
                jobs=self.jobs, speculate=self.speculate,
                max_worker_failures=self.max_worker_failures,
            )
            self._publish_cache(app, layout, dist_tag)
        return self._optimized[workload]

    def resilient_adapt(
        self,
        app: str,
        lto: bool = False,
        pgo_workload: Optional[str] = None,
        ref: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> ResilienceReport:
        """Adapt an app down the degradation ladder; returns the report.

        With a strict (or no) session policy this is a plain
        :func:`system_side_adapt` reported at the ``full`` rung.
        """
        layout, dist_tag = self.extended_layout(app)
        report = adapt_with_resilience(
            self.system_engine, layout, self.system,
            ctx=self._resilience_ctx, recorder=self.recorder,
            lto=lto, pgo_workload=pgo_workload, flavor=self.flavor,
            ref=ref or f"{app}:resilient", nodes=self.nodes,
            repair=self.repairer(app), jobs=self.jobs,
            speculate=self.speculate,
            max_worker_failures=self.max_worker_failures,
            deadline=deadline,
        )
        self._publish_cache(app, layout, dist_tag)
        self.resilience_reports.append(report)
        return report

    def native_image(self, app: str) -> str:
        if app not in self._native:
            self._native[app] = build_native(
                self.system_engine, get_app(app), self.system, flavor=self.flavor
            )
        return self._native[app]

    # -- measurement ---------------------------------------------------------

    def run_scheme(self, workload: str, scheme: str, nodes: Optional[int] = None) -> float:
        app = workload.partition(".")[0]
        nodes = nodes if nodes is not None else self.nodes
        if scheme == "original":
            ref, vendor = self.original_image(app), False
        elif scheme == "native":
            ref, vendor = self.native_image(app), True
        elif scheme == "adapted":
            ref, vendor = self.adapted_image(app), True
        elif scheme == "optimized":
            ref, vendor = self.optimized_image(workload), True
        else:
            raise WorkflowError(f"unknown scheme {scheme!r}")
        report = run_workload(
            self.system_engine, ref, workload, self.recorder,
            nodes=nodes, vendor_mpirun=vendor,
        )
        return report.seconds


def measure_schemes(
    session: ComtainerSession,
    workload: str,
    schemes: Tuple[str, ...] = ("original", "native", "adapted", "optimized"),
    nodes: Optional[int] = None,
) -> Dict[str, float]:
    """Execution time of *workload* under each scheme (Figure 9 rows)."""
    return {scheme: session.run_scheme(workload, scheme, nodes=nodes)
            for scheme in schemes}
