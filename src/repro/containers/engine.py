"""The container engine (buildah/podman simulacrum).

Owns an image store, creates containers, dispatches command execution to
the simulated userland, builds multi-stage Containerfiles, commits
container changes to layers, and moves images to/from OCI layouts and
registries.  It also owns the repository universe containers' ``apt``
resolves against, and the ``binary_runner`` hook through which the perf
layer executes simulated application binaries.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import simbin
from repro.containers import programs as prog
from repro.containers.container import (
    Container,
    ProcessContext,
    ProgramError,
    RunResult,
)
from repro.containers.dockerfile import (
    ContainerfileError,
    Stage,
    find_stage,
    parse_containerfile,
)
from repro.containers.hijack import record_trace
from repro.memo import LruMemo
from repro.oci.apply import flatten_layers, is_flattened
from repro.oci.diff import diff_filesystems
from repro.oci.image import ImageConfig, Manifest
from repro.oci.layer import Layer
from repro.oci.layout import OCILayout
from repro.oci.registry import ImageRegistry
from repro.pkg.repository import Repository, RepositoryPool
from repro.telemetry import NULL_TELEMETRY
from repro.toolchain.artifacts import (
    ExecutableArtifact,
    decodable_bytes,
    try_read_artifact,
)
from repro.vfs import RegularFile, VirtualFilesystem
from repro.vfs import paths as vpath


class EngineError(Exception):
    pass


#: Upper bound on retained :attr:`ContainerEngine.exec_log` entries.  A
#: :class:`ComtainerSession` dispatches thousands of commands across its
#: many containers; only the most recent window is ever inspected (the
#: chaos suite's journal-resume assertions), so the log is a bounded
#: deque — older entries fall off instead of growing without bound.
EXEC_LOG_CAP = 4096


#: Layers earlier commits made, with a clone of the tree each was diffed
#: from: see :meth:`ContainerEngine.commit`.
_COMMIT_MEMO = LruMemo(64, name="commit")


@dataclass
class StoredImage:
    """An image in the engine's local store.

    Its config is a read-only value (:meth:`ImageConfig.frozen`), shared
    by every reader; a container or a derived image changes a clone.
    """

    config: ImageConfig
    layers: List[Layer] = field(default_factory=list)
    #: The recipe key :func:`repro.core.images._derive_image` derived this
    #: image under; never serialised.  Every other path that stores an
    #: image builds one without it, so overwriting a ref forgets the key.
    recipe: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.config = self.config.frozen()

    def layer_key(self) -> tuple:
        return tuple(layer.digest for layer in self.layers)


BinaryRunner = Callable[[ProcessContext, str, ExecutableArtifact], RunResult]


class ContainerEngine:
    """One engine per (virtual) machine; ``arch`` is the machine's arch."""

    def __init__(self, arch: str = "amd64") -> None:
        self.arch = arch
        self.images: Dict[str, StoredImage] = {}
        self.containers: Dict[str, Container] = {}
        self.repos: Dict[str, Repository] = {}
        self.binary_runner: Optional[BinaryRunner] = None
        self._ids = itertools.count(1)
        #: Optional :class:`repro.resilience.faults.FaultInjector`; armed at
        #: the top of :meth:`run` so chaos tests can crash container entry.
        self.fault_injector = None
        #: Optional :class:`repro.resilience.degrade.ResilienceContext`;
        #: read by ``coMtainer-rebuild`` for per-node retry and journaling.
        self.resilience = None
        #: Telemetry sink (:class:`repro.telemetry.Telemetry`); the no-op
        #: default records nothing and keeps untraced runs byte-identical.
        self.telemetry = NULL_TELEMETRY
        #: The most recent (container name, argv) pairs dispatched through
        #: :meth:`exec_in` — the command log the journal-resume tests
        #: inspect to prove completed compile nodes are not re-executed.
        #: Bounded at :data:`EXEC_LOG_CAP` entries; use :meth:`reset_exec_log`
        #: to start a fresh observation window.
        self.exec_log: Deque[Tuple[str, Tuple[str, ...]]] = deque(maxlen=EXEC_LOG_CAP)

    def reset_exec_log(self) -> None:
        """Clear the command log (the chaos suite calls this between runs)."""
        self.exec_log.clear()

    # ------------------------------------------------------------------
    # repositories
    # ------------------------------------------------------------------

    def register_repository(self, repository: Repository) -> None:
        self.repos[repository.name] = repository

    def repository_pool_for(self, container: Container) -> RepositoryPool:
        """Repositories a container's apt sees, from its sources.list."""
        sources = "/etc/apt/sources.list"
        names: List[str] = []
        if container.fs.exists(sources):
            for line in container.fs.read_text(sources).splitlines():
                line = line.strip()
                if line.startswith("repo "):
                    names.append(line.split(None, 1)[1])
        if not names:
            names = [
                name
                for name, repo in sorted(self.repos.items())
                if repo.architecture == container.arch
            ]
        pool = RepositoryPool()
        for name in names:
            if name in self.repos:
                pool.add_repository(self.repos[name])
        return pool

    # ------------------------------------------------------------------
    # image store
    # ------------------------------------------------------------------

    def add_image(self, ref: str, config: ImageConfig, layers: List[Layer]) -> None:
        self.images[ref] = StoredImage(config=config, layers=list(layers))

    def tag(self, src_ref: str, dst_ref: str) -> None:
        self.images[dst_ref] = self.image(src_ref)

    def remove_image(self, ref: str) -> None:
        """Forget *ref* (absent is fine); other refs to its image stay."""
        self.images.pop(ref, None)

    def has_image(self, ref: str) -> bool:
        return ref in self.images or ref == "scratch"

    def image(self, ref: str) -> StoredImage:
        if ref == "scratch":
            return StoredImage(config=ImageConfig(architecture=self.arch))
        try:
            return self.images[ref]
        except KeyError:
            raise EngineError(f"image not found: {ref!r}") from None

    def image_filesystem(self, ref: str) -> VirtualFilesystem:
        """Flattened filesystem of an image: the private copy-on-write
        clone :func:`repro.oci.apply.flatten_layers` hands out from its
        memo.  The engine keeps no tree of its own; its
        ``engine_fs_cache_*`` counters count whether the memo already
        held the stack."""
        layers = self.image(ref).layers
        self.telemetry.metrics.counter(
            "engine_fs_cache_hits_total" if is_flattened(layers)
            else "engine_fs_cache_misses_total").inc()
        return flatten_layers(layers)

    # ------------------------------------------------------------------
    # containers
    # ------------------------------------------------------------------

    def from_image(
        self,
        ref: str,
        name: Optional[str] = None,
        mounts: Optional[Dict[str, Any]] = None,
    ) -> Container:
        """A new container of image *ref*; it records the image's
        layer-digest tuple (``Container.image_layers``), which keeps
        naming that image after *ref* is re-tagged."""
        stored = self.image(ref)
        fs = self.image_filesystem(ref)
        container = Container(
            id=f"ctr{next(self._ids)}",
            name=name or f"ctr{len(self.containers) + 1}",
            image_ref=ref,
            arch=stored.config.architecture,
            fs=fs,
            base_fs=fs.clone(),
            config=stored.config.clone(),
            mounts={vpath.normalize(k): v for k, v in (mounts or {}).items()},
            image_layers=stored.layer_key(),
        )
        self.containers[container.name] = container
        return container

    def remove_container(self, name: str) -> None:
        self.containers.pop(name, None)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        container: Container,
        argv: List[str],
        env: Optional[Dict[str, str]] = None,
        cwd: Optional[str] = None,
    ) -> RunResult:
        with self.telemetry.span(
            "container.run",
            container=container.name,
            command=argv[0] if argv else "",
        ) as span:
            if self.fault_injector is not None and argv:
                self.fault_injector.arm("container.run", argv[0])
            merged = container.environment()
            merged.update(env or {})
            result = self.exec_in(container, argv, env=merged,
                                  cwd=cwd or container.config.working_dir or "/")
            span.set("exit_code", result.exit_code)
            if not result.ok:
                span.status = "error"
            return result

    def run_image(
        self,
        ref: str,
        argv: Optional[List[str]] = None,
        env: Optional[Dict[str, str]] = None,
    ) -> RunResult:
        """``podman run --rm <ref> [argv...]`` semantics.

        Executes the image's ENTRYPOINT (+ CMD or the given argv) in a
        fresh throwaway container.
        """
        stored = self.image(ref)
        command = list(stored.config.entrypoint)
        command += list(argv) if argv else list(stored.config.cmd)
        if not command:
            return RunResult(exit_code=125,
                             stderr=f"run: image {ref!r} has no command")
        container = self.from_image(ref, name=f"run-{next(self._ids)}")
        try:
            return self.run(container, command, env=env)
        finally:
            self.remove_container(container.name)

    def exec_in(
        self,
        container: Container,
        argv: List[str],
        env: Dict[str, str],
        cwd: str,
    ) -> RunResult:
        """The dispatcher: resolve argv[0] in the container and execute it."""
        if not argv:
            return RunResult(exit_code=0)
        self.exec_log.append((container.name, tuple(argv)))
        self.telemetry.metrics.counter("engine_commands_total").inc()
        path = self._resolve_program(container, argv[0], env, cwd)
        if path is None:
            return RunResult(
                exit_code=127, stderr=f"sh: {argv[0]}: command not found"
            )
        node = container.fs.try_get_node(path)
        if not isinstance(node, RegularFile):
            return RunResult(exit_code=126, stderr=f"sh: {argv[0]}: cannot execute")
        # Markers and provenance decode from an artifact's payload alone;
        # only a shell script needs the file's materialized bytes.
        data = decodable_bytes(node.content)

        marker = simbin.read_program_marker(data)
        if marker is not None and marker.get("program") == "hijack":
            forward = marker.get("forward", {})
            record_trace(container.fs, argv, env, cwd, forward)
            marker = forward

        if marker is not None:
            name = marker["program"]
            meta = {k: v for k, v in marker.items() if k != "program"}
            if not prog.has_program(name):
                return RunResult(
                    exit_code=127, stderr=f"{argv[0]}: unknown program {name!r}"
                )
            ctx = ProcessContext(
                engine=self, container=container, argv=argv, env=env, cwd=cwd, meta=meta
            )
            try:
                code = prog.get_program(name)(ctx)
            except ProgramError as exc:
                return RunResult(exit_code=1, stdout=ctx.stdout(), stderr=str(exc))
            return RunResult(exit_code=code, stdout=ctx.stdout())

        artifact = try_read_artifact(data)
        if isinstance(artifact, ExecutableArtifact):
            ctx = ProcessContext(
                engine=self, container=container, argv=argv, env=env, cwd=cwd
            )
            if self.binary_runner is not None:
                return self.binary_runner(ctx, path, artifact)
            return RunResult(stdout=f"[simulated execution: {path}]\n")

        if data.startswith(b"#!"):
            from repro.containers.shell import Shell

            text = node.content.read().decode("utf-8", errors="replace")
            script = text.split("\n", 1)
            body = script[1] if len(script) > 1 else ""
            return Shell(self, container).run_script(body, env=env, cwd=cwd)

        return RunResult(
            exit_code=126, stderr=f"sh: {argv[0]}: cannot execute binary file"
        )

    def _resolve_program(
        self, container: Container, name: str, env: Dict[str, str], cwd: str
    ) -> Optional[str]:
        fs = container.fs
        if "/" in name:
            path = vpath.join(cwd, name)
            return path if fs.is_file(path) else None
        for directory in env.get("PATH", "").split(":"):
            if not directory:
                continue
            candidate = vpath.join(directory, name)
            if fs.is_file(candidate):
                return candidate
        return None

    # ------------------------------------------------------------------
    # commit & transport
    # ------------------------------------------------------------------

    def commit(
        self,
        container: Container,
        ref: Optional[str] = None,
        comment: str = "",
    ) -> StoredImage:
        """Capture the container's changes as a new layer atop its image.

        The layer is the diff of the container's tree against its
        creation-time tree, so it is a function of the container's image
        (:attr:`Container.image_layers`), the *comment* and the tree.  An
        earlier commit's layer is reused (a 64-entry
        :class:`repro.memo.LruMemo`) when all three match: the key holds
        the image's layer digests, the comment and the identity of each
        top-level node of the tree, and the entry a clone of that tree,
        which keeps those nodes alive, so no other node can take their
        identities.  A lookup hits only while the container's tree is
        unwritten since that clone (:meth:`VirtualFilesystem.unwritten_since`,
        which also compares the root's own attributes); this is what a
        redirect-memo hit leaves.  Only a tree cloned since its last write
        (:meth:`VirtualFilesystem.cloned_since_written`) is stored, since
        no other tree can hold a freshly written one.  The span, the
        counters and the image are made from the layer either way.
        """
        tele = self.telemetry
        span = tele.start_span(
            "engine.commit", container=container.name, ref=ref or "")
        try:
            base = self.image(container.image_ref)
            layer = _committed_layer(container, comment)
            config = container.config.clone()
            layers = list(base.layers)
            if len(layer):
                layers.append(layer)
                config.diff_ids.append(layer.digest)
                config.add_history(comment or f"commit {container.name}")
            stored = StoredImage(config=config, layers=layers)
            if ref is not None:
                self.images[ref] = stored
            span.set("layer_entries", len(layer))
            span.set("layer_bytes", layer.size if len(layer) else 0)
            m = tele.metrics
            m.counter("engine_commits_total").inc()
            if len(layer):
                m.counter("engine_layer_bytes_total").inc(layer.size)
            return stored
        finally:
            tele.end_span(span)

    def push_to_layout(
        self, ref: str, layout: OCILayout, tag: Optional[str] = None
    ) -> Manifest:
        stored = self.image(ref)
        manifest = self._manifest_for(stored)
        layout.add_manifest(manifest, stored.config, stored.layers, tag=tag or ref)
        return manifest

    def load_from_layout(
        self, layout: OCILayout, tag: str, ref: Optional[str] = None
    ) -> str:
        resolved = layout.resolve(tag)
        target = ref or tag
        self.add_image(target, resolved.config, resolved.layers)
        return target

    def push_to_registry(
        self, ref: str, registry: ImageRegistry, reference: Optional[str] = None
    ) -> str:
        stored = self.image(ref)
        manifest = self._manifest_for(stored)
        return registry.push(reference or ref, manifest, stored.config, stored.layers)

    def load_from_registry(
        self, registry: ImageRegistry, reference: str, ref: Optional[str] = None
    ) -> str:
        resolved = registry.pull(reference)
        target = ref or reference
        self.add_image(target, resolved.config, resolved.layers)
        return target

    def _manifest_for(self, stored: StoredImage) -> Manifest:
        from repro.oci.blobs import Blob

        return Manifest(
            config=stored.config.descriptor(),
            layers=[Blob.from_layer(layer).descriptor() for layer in stored.layers],
        ).frozen()

    # ------------------------------------------------------------------
    # Containerfile builds
    # ------------------------------------------------------------------

    def build(
        self,
        containerfile: str,
        context: Optional[VirtualFilesystem] = None,
        target: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> str:
        """Build a (possibly multi-stage) Containerfile; returns the image ref.

        The build keeps only the image it names: *tag* when given, else the
        target stage's ``__stage__`` ref.  Every other stage image it
        committed is removed, and a build that raises leaves none.
        """
        stages = parse_containerfile(containerfile)
        target_stage = find_stage(stages, target)
        stage_refs = self._build_all(stages[: target_stage.index + 1], context)
        kept = stage_refs[target_stage.ref_name()]
        if tag is not None:
            self.tag(kept, tag)
            kept = tag
        for ref in stage_refs.values():
            if ref != kept:
                self.remove_image(ref)
        return kept

    def build_stages(
        self,
        containerfile: str,
        context: Optional[VirtualFilesystem] = None,
    ) -> Dict[str, str]:
        """Build every stage once; returns stage name -> image ref.

        The caller owns the stage images: they stay in the store under
        their ``__stage__`` refs until it removes them
        (:meth:`remove_image`).  A build that raises leaves none."""
        stages = parse_containerfile(containerfile)
        stage_refs = self._build_all(stages, context)
        return {stage.ref_name(): stage_refs[stage.ref_name()] for stage in stages}

    def _build_all(
        self, stages: List[Stage], context: Optional[VirtualFilesystem]
    ) -> Dict[str, str]:
        """Build *stages* in order; returns each one's name and index ->
        its image ref.  If a stage raises, the images of the stages before
        it are removed."""
        context = context or VirtualFilesystem()
        stage_refs: Dict[str, str] = {}
        try:
            for stage in stages:
                ref = self._build_stage(stage, context, stage_refs)
                stage_refs[stage.ref_name()] = ref
                stage_refs[str(stage.index)] = ref
        except BaseException:
            for ref in stage_refs.values():
                self.remove_image(ref)
            raise
        return stage_refs

    def _build_stage(
        self, stage: Stage, context: VirtualFilesystem, stage_refs: Dict[str, str]
    ) -> str:
        base_ref = stage_refs.get(stage.base_ref, stage.base_ref)
        if not self.has_image(base_ref):
            raise EngineError(f"base image not found: {stage.base_ref!r}")
        container = self.from_image(base_ref, name=f"build-{stage.ref_name()}-{next(self._ids)}")
        try:
            for instruction in stage.instructions:
                self._apply_instruction(container, instruction, context, stage_refs)
        finally:
            self.remove_container(container.name)
        ref = f"__stage__:{stage.ref_name()}:{next(self._ids)}"
        self.commit(container, ref=ref, comment=f"stage {stage.ref_name()}")
        return ref

    def _apply_instruction(
        self,
        container: Container,
        instruction,
        context: VirtualFilesystem,
        stage_refs: Dict[str, str],
    ) -> None:
        keyword = instruction.keyword
        if keyword == "RUN":
            self._instr_run(container, instruction)
        elif keyword in ("COPY", "ADD"):
            self._instr_copy(container, instruction, context, stage_refs)
        elif keyword == "WORKDIR":
            path = vpath.join(container.config.working_dir or "/", instruction.value)
            container.fs.makedirs(path)
            container.config.working_dir = path
        elif keyword == "ENV":
            for key, value in _parse_kv(instruction.value).items():
                container.config.env = [
                    e for e in container.config.env if not e.startswith(key + "=")
                ]
                container.config.env.append(f"{key}={value}")
        elif keyword == "LABEL":
            container.config.labels.update(_parse_kv(instruction.value))
        elif keyword == "ENTRYPOINT":
            container.config.entrypoint = (
                instruction.exec_form() or ["/bin/sh", "-c", instruction.value]
            )
        elif keyword == "CMD":
            container.config.cmd = (
                instruction.exec_form() or ["/bin/sh", "-c", instruction.value]
            )
        # EXPOSE / USER / VOLUME / SHELL are accepted and ignored.

    def _instr_run(self, container: Container, instruction) -> None:
        from repro.containers.shell import Shell

        exec_form = instruction.exec_form()
        if exec_form is not None:
            result = self.run(container, exec_form)
        else:
            result = Shell(self, container).run_script(
                instruction.value,
                env=container.environment(),
                cwd=container.config.working_dir or "/",
            )
        if not result.ok:
            raise EngineError(
                f"RUN {instruction.value!r} failed ({result.exit_code}): {result.stderr}"
            )

    def _instr_copy(
        self,
        container: Container,
        instruction,
        context: VirtualFilesystem,
        stage_refs: Dict[str, str],
    ) -> None:
        source_fs = context
        from_ref = instruction.flags.get("from")
        if from_ref is not None:
            resolved = stage_refs.get(from_ref, from_ref)
            source_fs = self.image_filesystem(resolved)
        parts = instruction.value.split()
        if len(parts) < 2:
            raise ContainerfileError(f"COPY needs source(s) and destination: {instruction.value!r}")
        *sources, dst = parts
        dst_abs = vpath.join(container.config.working_dir or "/", dst)
        multiple = len(sources) > 1 or dst.endswith("/")
        for src in sources:
            src_abs = vpath.join("/", src)
            if not source_fs.lexists(src_abs):
                raise EngineError(f"COPY source not found: {src!r}")
            if multiple or (container.fs.is_dir(dst_abs) and not source_fs.is_dir(src_abs)):
                target = vpath.join(dst_abs, vpath.basename(src_abs))
            else:
                target = dst_abs
            container.fs.copy_tree(src_abs, target, source_fs=source_fs)


def _committed_layer(container: Container, comment: str) -> Layer:
    """The layer :meth:`ContainerEngine.commit` commits for *container*:
    an earlier commit's, while it matches, else a fresh diff."""
    tree = container.fs
    key = None
    if container.image_layers is not None:
        key = (container.image_layers, comment,
               tuple((name, id(node)) for name, node in tree.root.sorted_items()))
        stored = _COMMIT_MEMO.get(key, valid=lambda entry: tree.unwritten_since(entry[0]))
        if stored is not None:
            return stored[1]
    layer = diff_filesystems(container.base_fs, tree, comment=comment)
    # A freshly written tree (a build stage's) cannot come back: keep only
    # a tree some other tree holds, such as the redirect memo's clone.
    if key is not None and tree.cloned_since_written():
        _COMMIT_MEMO.put(key, (tree.clone(), layer))
    return layer


def _parse_kv(value: str) -> Dict[str, str]:
    """Parse ``K=V K2=V2`` (or legacy ``K V``) instruction values."""
    out: Dict[str, str] = {}
    tokens = value.split()
    if not tokens:
        return out
    if "=" not in tokens[0]:
        parts = value.split(None, 1)
        if len(parts) == 2:
            out[parts[0]] = parts[1]
        return out
    for token in tokens:
        if "=" in token:
            key, _, val = token.partition("=")
            out[key] = val.strip('"')
    return out
