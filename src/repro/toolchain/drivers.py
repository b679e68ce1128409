"""Compiler driver execution against a virtual filesystem.

A :class:`CompilerDriver` is one installed compiler entry point (``gcc``,
``g++``, ``icx``, ``ftcc``, an MPI wrapper, ...).  ``execute`` parses the
argv with the structured option model and performs the requested pipeline
stage: preprocessing, compilation to object artifacts, or linking to
shared objects / executables, with LTO bitcode tracking, PGO profile
validation and cross-ISA flag rejection — the failure modes the paper's
cross-ISA study (§5.5) observes are real errors here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.toolchain import cli
from repro.toolchain.artifacts import (
    ArchiveArtifact,
    ExecutableArtifact,
    ObjectArtifact,
    SharedObjectArtifact,
    artifact_at,
    artifact_content,
    BYTES_PER_SOURCE_BYTE,
    rendered_text,
)
from repro.toolchain.info import get_toolchain
from repro.toolchain.options import is_isa_specific
from repro.vfs import Directory, RegularFile, VirtualFilesystem
from repro.vfs import paths as vpath

#: Libraries the toolchain provides implicitly (no file lookup needed).
IMPLICIT_LIBS = {
    "c", "m", "gcc", "gcc_s", "stdc++", "gfortran", "pthread", "dl",
    "rt", "util", "gomp", "quadmath", "atomic", "flang", "omp",
}

ARCH_TRIPLE_OF_ISA = {"x86-64": "x86_64-linux-gnu", "aarch64": "aarch64-linux-gnu"}


class CompilerError(Exception):
    """A diagnostic that would abort a real compiler invocation."""


@dataclass
class DriverResult:
    stdout: str = ""
    outputs: List[str] = field(default_factory=list)
    invocation: Optional[cli.CompilerInvocation] = None


@dataclass
class CompilerDriver:
    """One compiler entry point bound to a toolchain and target ISA."""

    toolchain_id: str
    role: str = "cc"                # cc / cxx / fc / cpp / ld
    isa: str = "x86-64"
    mpi_wrapper: bool = False
    version: str = "12.3.0"

    # ------------------------------------------------------------------

    def execute(
        self,
        argv: List[str],
        fs: VirtualFilesystem,
        cwd: str = "/",
        env: Optional[Dict[str, str]] = None,
    ) -> DriverResult:
        env = env or {}

        def read_response(path: str) -> str:
            return fs.read_text(vpath.join(cwd, path))

        inv = cli.parse_command_line(argv, read_file=read_response)
        self._check_isa_flags(inv)

        if inv.mode == cli.MODE_INFO:
            info = get_toolchain(self.toolchain_id)
            return DriverResult(
                stdout=f"{info.display_name} ({self.toolchain_id}) {self.version} [{self.isa}]",
                invocation=inv,
            )
        if not inv.inputs:
            raise CompilerError(f"{inv.program}: fatal error: no input files")
        if inv.mode == cli.MODE_PREPROCESS:
            return self._preprocess(inv, fs, cwd)
        if inv.mode in (cli.MODE_COMPILE, cli.MODE_ASSEMBLE):
            return self._compile(inv, fs, cwd)
        return self._link(inv, fs, cwd, env)

    # ------------------------------------------------------------------

    def _check_isa_flags(self, inv: cli.CompilerInvocation) -> None:
        """Reject machine flags of a different ISA (cross-ISA failure mode)."""
        for arg in inv.isa_specific_args():
            pinned = is_isa_specific(arg)
            if pinned is not None and pinned != self.isa:
                raise CompilerError(
                    f"{inv.program}: error: unrecognized command-line option "
                    f"'{arg}' (valid for {pinned}, target is {self.isa})"
                )

    def _resolve(self, cwd: str, path: str) -> str:
        return vpath.join(cwd, path)

    def _input_node(self, fs: VirtualFilesystem, cwd: str, arg: str, program: str):
        """The node a link input *arg* names, looked up once."""
        node = fs.try_get_node(self._resolve(cwd, arg))
        if node is None:
            raise CompilerError(f"{program}: error: {arg}: No such file or directory")
        return node

    def _source_size(self, fs: VirtualFilesystem, path: str, program: str) -> int:
        node = fs.try_get_node(path)
        if node is None:
            raise CompilerError(f"{program}: error: {path}: No such file or directory")
        if isinstance(node, Directory):
            raise CompilerError(f"{program}: error: {path} is a directory")
        return node.size

    # ------------------------------------------------------------------

    def _preprocess(
        self, inv: cli.CompilerInvocation, fs: VirtualFilesystem, cwd: str
    ) -> DriverResult:
        chunks = []
        for source in inv.sources:
            path = self._resolve(cwd, source)
            self._source_size(fs, path, inv.program)
            chunks.append(f"# 1 \"{source}\"\n")
        text = "".join(chunks)
        output = inv.effective_output()
        if output != "-":
            fs.write_file(self._resolve(cwd, output), text, create_parents=True)
            return DriverResult(outputs=[output], invocation=inv)
        return DriverResult(stdout=text, invocation=inv)

    # ------------------------------------------------------------------

    def _object_for_source(
        self,
        inv: cli.CompilerInvocation,
        source_path: str,
        source_size: int,
        command: List[str],
    ) -> ObjectArtifact:
        """The object *inv* compiles from one source; *command* is
        ``inv.render()``, which every object of one invocation shares."""
        opt = inv.opt_level or "0"
        density = BYTES_PER_SOURCE_BYTE.get(opt, 0.5)
        return ObjectArtifact(
            sources=[source_path],
            language=inv.language or classify_or_default(source_path),
            toolchain=self.toolchain_id,
            isa=self.isa,
            opt_level=opt,
            march=inv.march,
            mtune=inv.mtune,
            defines=list(inv.defines),
            fflags={k: v for k, v in inv.fflags.items()},
            openmp=inv.openmp,
            debug=inv.debug is not None,
            lto_ir=inv.lto,
            pgo_instrumented=inv.profile_generate,
            pgo_profile=None,
            code_size=max(64, int(source_size * density * (1.25 if inv.lto else 1.0))),
            command=command,
        )

    def _compile(
        self, inv: cli.CompilerInvocation, fs: VirtualFilesystem, cwd: str
    ) -> DriverResult:
        if inv.output and len(inv.sources) > 1:
            raise CompilerError(
                f"{inv.program}: fatal error: cannot specify -o with -c, -S or -E "
                "with multiple files"
            )
        profile = None
        if inv.profile_use:
            profile = self._load_profile(inv, fs, cwd)
        command = inv.render()
        outputs: List[str] = []
        for source in inv.sources:
            path = self._resolve(cwd, source)
            size = self._source_size(fs, path, inv.program)
            if inv.mode == cli.MODE_ASSEMBLE:
                out = inv.output or source.rsplit("/", 1)[-1].rsplit(".", 1)[0] + ".s"
                fs.write_file(
                    self._resolve(cwd, out), f"# asm for {source}\n", create_parents=True
                )
                outputs.append(out)
                continue
            artifact = self._object_for_source(inv, path, size, command)
            if profile is not None:
                artifact.pgo_profile = profile
            out = inv.output or source.rsplit("/", 1)[-1].rsplit(".", 1)[0] + ".o"
            fs.write_file(
                self._resolve(cwd, out), artifact_content(artifact), create_parents=True
            )
            outputs.append(out)
        return DriverResult(outputs=outputs, invocation=inv)

    # ------------------------------------------------------------------

    def _load_profile(
        self, inv: cli.CompilerInvocation, fs: VirtualFilesystem, cwd: str
    ) -> str:
        """Locate and validate PGO profile data; returns its identifier."""
        value = inv.fflags.get("profile-use")
        candidates: List[str] = []
        if isinstance(value, str):
            candidates.append(self._resolve(cwd, value))
        prof_dir = inv.fflags.get("profile-dir")
        if isinstance(prof_dir, str):
            candidates.append(self._resolve(cwd, prof_dir))
        candidates.append(cwd)
        for candidate in candidates:
            profile = _find_profile(fs, candidate)
            if profile is not None:
                return profile
        raise CompilerError(
            f"{inv.program}: error: -fprofile-use: could not find profile data "
            f"(searched {', '.join(candidates)})"
        )

    # ------------------------------------------------------------------

    def _link(
        self,
        inv: cli.CompilerInvocation,
        fs: VirtualFilesystem,
        cwd: str,
        env: Dict[str, str],
    ) -> DriverResult:
        command = inv.render()
        members: List[ObjectArtifact] = []
        # Inline sources in a link command compile implicitly first.
        for source in inv.sources:
            path = self._resolve(cwd, source)
            size = self._source_size(fs, path, inv.program)
            members.append(self._object_for_source(inv, path, size, command))
        # Each member's rendered text where it is known, for the splice.
        texts: List[Optional[bytes]] = [None] * len(members)
        for obj_path in inv.objects:
            node = self._input_node(fs, cwd, obj_path, inv.program)
            artifact = artifact_at(node)
            if not isinstance(artifact, ObjectArtifact):
                raise CompilerError(
                    f"/usr/bin/ld: {obj_path}: file format not recognized"
                )
            members.append(artifact)
            texts.append(rendered_text(node.content))
        for ar_path in inv.archives:
            artifact = artifact_at(self._input_node(fs, cwd, ar_path, inv.program))
            if not isinstance(artifact, ArchiveArtifact):
                raise CompilerError(f"/usr/bin/ld: {ar_path}: malformed archive")
            members.extend(artifact.member_objects())

        lib_paths: Dict[str, str] = {}
        for shared_input in inv.shared_inputs:
            path = self._resolve(cwd, shared_input)
            if not fs.exists(path):
                raise CompilerError(
                    f"{inv.program}: error: {shared_input}: No such file or directory"
                )
            name = vpath.basename(path).split(".so", 1)[0]
            lib_paths[name.removeprefix("lib")] = path
        libs = list(inv.libs)
        if self.mpi_wrapper and "mpi" not in libs:
            libs.append("mpi")
        for lib in libs:
            found = self._find_library(lib, inv, fs, cwd, env)
            if found is None:
                if lib in IMPLICIT_LIBS:
                    continue
                raise CompilerError(f"/usr/bin/ld: cannot find -l{lib}")
            resolved, library = found
            static_members = self._maybe_static_members(resolved, library)
            if static_members is not None:
                members.extend(static_members)
            else:
                lib_paths[lib] = resolved

        if not members and not lib_paths:
            raise CompilerError(f"{inv.program}: fatal error: no input files")

        profile = None
        if inv.profile_use:
            profile = self._load_profile(inv, fs, cwd)

        isas = {m.isa for m in members}
        if len(isas) > 1:
            raise CompilerError(
                f"/usr/bin/ld: incompatible object ISAs: {sorted(isas)}"
            )
        if members and next(iter(isas)) != self.isa:
            raise CompilerError(
                f"/usr/bin/ld: {next(iter(isas))} objects cannot link on {self.isa}"
            )

        lto_members = sum(1 for m in members if m.lto_ir)
        lto_coverage = lto_members / len(members) if members else 0.0
        member_profiles = [m.pgo_profile for m in members if m.pgo_profile]
        pgo_applied = bool(profile or member_profiles)

        cls = SharedObjectArtifact if inv.shared else ExecutableArtifact
        artifact = cls(
            objects=[m.to_json() for m in members],
            libs=sorted(set(libs)),
            lib_paths=lib_paths,
            toolchain=self.toolchain_id,
            isa=self.isa,
            opt_level=inv.opt_level or _dominant_opt(members),
            march=inv.march or _dominant_march(members),
            openmp=inv.openmp or any(m.openmp for m in members),
            lto_applied=inv.lto and lto_coverage > 0.0,
            lto_coverage=lto_coverage if inv.lto else 0.0,
            pgo_instrumented=inv.profile_generate
            or any(m.pgo_instrumented for m in members),
            pgo_applied=pgo_applied,
            pgo_profile=profile or (member_profiles[0] if member_profiles else None),
            code_size=int(sum(m.code_size for m in members) * 1.1) + 256,
            command=command,
            soname=_soname_from(inv),
        )
        texts.extend([None] * (len(members) - len(texts)))
        output = inv.effective_output()
        fs.write_file(
            self._resolve(cwd, output),
            artifact_content(artifact, texts=texts),
            mode=0o755,
            create_parents=True,
        )
        return DriverResult(outputs=[output], invocation=inv)

    # ------------------------------------------------------------------

    def _find_library(
        self,
        name: str,
        inv: cli.CompilerInvocation,
        fs: VirtualFilesystem,
        cwd: str,
        env: Dict[str, str],
    ) -> Optional[Tuple[str, Optional[RegularFile]]]:
        """The path and file of the library ``-l<name>`` links (no file
        for a dangling shared-library link)."""
        triple = ARCH_TRIPLE_OF_ISA.get(self.isa, "x86_64-linux-gnu")
        search: List[str] = [self._resolve(cwd, d) for d in inv.lib_dirs]
        search.extend(p for p in env.get("LIBRARY_PATH", "").split(":") if p)
        search.extend([f"/usr/lib/{triple}", "/usr/lib", "/lib",
                       "/opt/intel/lib", "/opt/phytium/lib"])
        prefer_static = inv.static
        suffix_order = [".a", ".so"] if prefer_static else [".so", ".a"]
        for directory in search:
            if not fs.is_dir(directory):
                continue
            names = fs.listdir(directory)
            for suffix in suffix_order:
                exact = f"lib{name}{suffix}"
                found = None
                if exact in names:
                    found = vpath.join(directory, exact)
                elif suffix == ".so":
                    versioned = sorted(
                        n for n in names if n.startswith(exact + ".")
                    )
                    if versioned:
                        found = vpath.join(directory, versioned[0])
                if found is None:
                    continue
                # Real linkers record the SONAME of the library they
                # resolved, not the dev symlink path — emulate by
                # canonicalizing, so the recorded path survives into
                # images that lack the -dev symlinks.  A dangling shared
                # library link is recorded as it is; any other candidate
                # that is no regular file is passed over.
                library = fs.try_get_node(found)
                if isinstance(library, RegularFile):
                    return fs.resolve_path(found), library
                if library is None and suffix == ".so":
                    return found, None
        return None

    def _maybe_static_members(
        self, path: str, library: Optional[RegularFile]
    ) -> Optional[List[ObjectArtifact]]:
        if not path.endswith(".a"):
            return None
        artifact = artifact_at(library)
        if isinstance(artifact, ArchiveArtifact):
            return artifact.member_objects()
        return []  # synthetic (package-provided) static library: opaque


def classify_or_default(path: str) -> str:
    return cli.classify_source(path) or "c"


def _dominant_opt(members: List[ObjectArtifact]) -> str:
    levels = [m.opt_level for m in members if m.opt_level]
    if not levels:
        return "0"
    order = {"0": 0, "g": 1, "1": 1, "s": 2, "z": 2, "2": 3, "3": 4, "fast": 5}
    return max(levels, key=lambda lv: order.get(lv, 0))


def _dominant_march(members: List[ObjectArtifact]) -> Optional[str]:
    for member in members:
        if member.march:
            return member.march
    return None


def _soname_from(inv: cli.CompilerInvocation) -> Optional[str]:
    for i, arg in enumerate(inv.linker_args):
        if arg == "-soname" and i + 1 < len(inv.linker_args):
            return inv.linker_args[i + 1]
        if arg.startswith("-soname="):
            return arg.split("=", 1)[1]
    return None


def _find_profile(fs: VirtualFilesystem, location: str) -> Optional[str]:
    """Find PGO profile data at *location* (a file or a directory)."""
    if fs.is_file(location):
        return _profile_id(fs, location)
    if fs.is_dir(location):
        for name in fs.listdir(location):
            if name.endswith((".gcda", ".profdata")):
                return _profile_id(fs, vpath.join(location, name))
    return None


def _profile_id(fs: VirtualFilesystem, path: str) -> str:
    try:
        obj = json.loads(fs.read_file(path).decode("utf-8"))
        if isinstance(obj, dict) and "profile" in obj:
            return obj["profile"]
    except (json.JSONDecodeError, UnicodeDecodeError):
        pass
    return vpath.basename(path)
