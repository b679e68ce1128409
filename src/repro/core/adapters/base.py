"""Adapter plugin API.

"System adapters, akin to compiler optimization passes, operate on
independent copies of the process models, tailoring transformations to
specific HPC systems.  These adapters analyze and modify process models,
collect additional data from the build environment, and perform the image
rebuilding and redirection on the target system." (§4.2)

An adapter knows its target system and answers two questions:

* which installed generic packages should be replaced by which optimized
  packages (:meth:`SystemAdapter.plan_replacements`), and
* how each recorded compilation command should be transformed
  (:meth:`SystemAdapter.transform_step`): native compiler, native
  microarchitecture, optional LTO / PGO stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.models.compilation import CompilationStep
from repro.core.models.image_model import ImageModel
from repro.pkg.package import Package
from repro.pkg.repository import RepositoryPool
from repro.sysmodel import SystemModel


class AdapterError(Exception):
    pass


@dataclass(frozen=True)
class LibraryReplacement:
    """One package substitution decision."""

    generic: str                   # installed generic package name
    optimized: str                 # vendor package name
    quality: float                 # optimized package quality
    #: Library files of the generic package -> the optimized file that
    #: should stand in for each (compat symlinks are created accordingly).
    link_map: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "generic": self.generic,
            "optimized": self.optimized,
            "quality": self.quality,
            "link_map": dict(self.link_map),
        }

    @staticmethod
    def from_json(obj: dict) -> "LibraryReplacement":
        return LibraryReplacement(
            generic=obj["generic"],
            optimized=obj["optimized"],
            quality=obj.get("quality", 1.0),
            link_map=dict(obj.get("link_map", {})),
        )


@dataclass
class RebuildOptions:
    """What the system side wants from a rebuild."""

    lto: bool = False
    #: LTO scope: node ids to compile with -flto; None = whole program.
    lto_scope: Optional[List[str]] = None
    pgo: str = "off"               # "off" | "instrument" | "use"
    pgo_profile_path: Optional[str] = None   # container path of profile data
    #: Strip machine flags pinned to a foreign ISA (the "relaxed
    #: constraints" of the cross-ISA study, §5.5).
    relax_isa: bool = False

    def key(self) -> tuple:
        """Every field, hashable: what a memo keyed on the options holds."""
        scope = self.lto_scope
        return (self.lto, None if scope is None else tuple(scope), self.pgo,
                self.pgo_profile_path, self.relax_isa)

    def to_json(self) -> dict:
        return {
            "lto": self.lto,
            "lto_scope": self.lto_scope,
            "pgo": self.pgo,
            "pgo_profile_path": self.pgo_profile_path,
            "relax_isa": self.relax_isa,
        }

    @staticmethod
    def from_json(obj: dict) -> "RebuildOptions":
        return RebuildOptions(
            lto=obj.get("lto", False),
            lto_scope=obj.get("lto_scope"),
            pgo=obj.get("pgo", "off"),
            pgo_profile_path=obj.get("pgo_profile_path"),
            relax_isa=obj.get("relax_isa", False),
        )


class SystemAdapter:
    """Base adapter: subclass and override for a specific system.

    An adapter is immutable once built:
    :func:`repro.core.adapters.builtin.get_adapter` shares one per factory
    and system, and the rebuild's plan memo keys on its identity, so a
    subclass sets every attribute in ``__init__`` and never after.
    """

    name = "base"

    def __init__(self, system: SystemModel) -> None:
        self.system = system

    # ------------------------------------------------------------------
    # package replacement
    # ------------------------------------------------------------------

    def plan_replacements(
        self, image: ImageModel, pool: RepositoryPool
    ) -> List[LibraryReplacement]:
        """Map each replaceable installed package to its best optimized
        equivalent available in the system's repositories."""
        plan: List[LibraryReplacement] = []
        for generic_name in image.packages:
            candidates = pool.optimized_equivalents(generic_name)
            if not candidates:
                continue
            best = candidates[0]
            plan.append(self._replacement_for(image, generic_name, best))
        return plan

    def _replacement_for(
        self, image: ImageModel, generic_name: str, optimized: Package
    ) -> LibraryReplacement:
        generic_libs = [
            record.path
            for record in image.by_origin("package")
            if record.package == generic_name and ".so" in record.path
        ]
        optimized_libs = [f.path for f in optimized.files if f.kind == "library"]
        link_map: Dict[str, str] = {}
        if optimized_libs:
            for path in generic_libs:
                link_map[path] = optimized_libs[0]
        return LibraryReplacement(
            generic=generic_name,
            optimized=optimized.name,
            quality=optimized.quality,
            link_map=link_map,
        )

    # ------------------------------------------------------------------
    # compilation transformation
    # ------------------------------------------------------------------

    #: role -> native compiler path; subclasses fill this in.
    compiler_map: Dict[str, str] = {}

    def native_compiler(self, role: Optional[str]) -> str:
        try:
            return self.compiler_map[role or "cc"]
        except KeyError:
            raise AdapterError(
                f"{self.name}: no native compiler for role {role!r}"
            ) from None

    def transform_step(
        self, step: CompilationStep, options: RebuildOptions, node_id: str = ""
    ) -> CompilationStep:
        """Rewrite one compiler command for this system.

        The app's own flags are preserved (coMtainer does not second-guess
        them); the program becomes the native compiler, the target
        microarchitecture becomes native, and LTO/PGO controls are added
        per *options*.
        """
        if not step.is_compiler:
            return step
        inv = step.invocation()
        inv.program = self.native_compiler(step.role)
        if options.relax_isa:
            from repro.toolchain.options import is_isa_specific

            for name in list(inv.mflags):
                value = inv.mflags[name]
                arg = f"-m{name}" + (f"={value}" if isinstance(value, str) else "")
                if isinstance(value, bool) and not value:
                    arg = f"-mno-{name}"
                pinned = is_isa_specific(arg)
                if pinned is not None and pinned != self.system.isa:
                    inv.mflags.pop(name, None)
        inv.set_mflag("arch", "native")
        if step.mpi_wrapper and inv.mode == "link" and "mpi" not in inv.libs:
            # The generic MPI wrapper added -lmpi implicitly; the native
            # compiler is not a wrapper, so make it explicit.
            inv.libs.append("mpi")
        lto_on = options.lto and (
            options.lto_scope is None or node_id in options.lto_scope
        )
        if lto_on:
            inv.set_fflag("lto", True)
        if options.pgo == "instrument":
            inv.set_fflag("profile-generate", True)
        elif options.pgo == "use":
            if options.pgo_profile_path:
                inv.set_fflag("profile-use", options.pgo_profile_path)
            else:
                inv.set_fflag("profile-use", True)
        return step.with_argv(inv.render(), toolchain=self.toolchain_id())

    def toolchain_id(self) -> str:
        return self.system.native_toolchain
