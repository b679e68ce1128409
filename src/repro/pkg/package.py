"""Package metadata and packaged file records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.pkg.depends import DependencyClause, parse_depends, render_depends

# File kinds; the image model uses these to understand what a package put
# where (libraries are replacement candidates, binaries may be toolchain
# entry points, etc.).
FILE_BINARY = "binary"
FILE_LIBRARY = "library"
FILE_HEADER = "header"
FILE_CONFIG = "config"
FILE_DATA = "data"
FILE_DOC = "doc"


@dataclass(frozen=True)
class PackagedFile:
    """One file shipped by a package.

    ``program`` names a simulated program implementation (see
    :mod:`repro.simbin`) for executable payloads; ``program_meta`` carries
    its metadata (e.g. the toolchain a compiler driver belongs to).
    Non-program payloads get deterministic synthetic content of ``size``.
    """

    path: str
    size: int = 0
    kind: str = FILE_DATA
    mode: int = 0o644
    program: Optional[str] = None
    program_meta: Dict[str, Any] = field(default_factory=dict)
    symlink_to: Optional[str] = None

    def __post_init__(self) -> None:
        if self.program is not None and self.kind != FILE_BINARY:
            object.__setattr__(self, "kind", FILE_BINARY)
        if self.program is not None and self.mode == 0o644:
            object.__setattr__(self, "mode", 0o755)


@dataclass
class Package:
    """A binary package: identity, relationships, payload, coMtainer hints.

    ``equivalent_of`` names the generic package this (vendor-optimized)
    package can substitute — the key input to coMtainer's package
    replacement planning.  ``quality`` is the relative performance factor
    of its code versus the generic implementation (1.0 = generic); the
    analytic performance model consumes it.  ``tags`` mark functional
    roles ("blas", "mpi", "toolchain", "hsn-plugin", ...).
    """

    name: str
    version: str
    architecture: str = "amd64"
    section: str = "libs"
    priority: str = "optional"
    description: str = ""
    depends: List[DependencyClause] = field(default_factory=list)
    provides: List[str] = field(default_factory=list)
    files: List[PackagedFile] = field(default_factory=list)
    equivalent_of: Optional[str] = None
    quality: float = 1.0
    tags: Tuple[str, ...] = ()

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.name, self.version, self.architecture)

    @property
    def installed_size(self) -> int:
        return sum(f.size for f in self.files)

    def provides_names(self) -> List[str]:
        return [self.name] + list(self.provides)

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    # -- control-file rendering (dpkg status format) ------------------------

    def to_control(self) -> str:
        lines = [
            f"Package: {self.name}",
            "Status: install ok installed",
            f"Priority: {self.priority}",
            f"Section: {self.section}",
            f"Installed-Size: {max(1, self.installed_size // 1024)}",
            f"Architecture: {self.architecture}",
            f"Version: {self.version}",
        ]
        if self.depends:
            lines.append(f"Depends: {render_depends(self.depends)}")
        if self.provides:
            lines.append("Provides: " + ", ".join(self.provides))
        if self.equivalent_of:
            lines.append(f"X-Comtainer-Equivalent-Of: {self.equivalent_of}")
        if self.quality != 1.0:
            lines.append(f"X-Comtainer-Quality: {self.quality}")
        if self.tags:
            lines.append("X-Comtainer-Tags: " + ", ".join(self.tags))
        desc = self.description or f"{self.name} (synthetic package)"
        lines.append(f"Description: {desc}")
        return "\n".join(lines)

    @staticmethod
    def from_control(text: str) -> "Package":
        """Parse one control stanza; ``ValueError`` if it is malformed."""
        fields: Dict[str, str] = {}
        for line in text.splitlines():
            if not line.strip() or line.startswith(" "):
                continue
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
        if not fields.get("Package"):
            raise ValueError("missing 'Package' field")
        return Package(
            name=fields["Package"],
            version=fields.get("Version", "0"),
            architecture=fields.get("Architecture", "amd64"),
            section=fields.get("Section", "libs"),
            priority=fields.get("Priority", "optional"),
            description=fields.get("Description", ""),
            depends=parse_depends(fields.get("Depends", "")),
            provides=[
                p.strip() for p in fields.get("Provides", "").split(",") if p.strip()
            ],
            equivalent_of=fields.get("X-Comtainer-Equivalent-Of") or None,
            quality=float(fields.get("X-Comtainer-Quality", "1.0")),
            tags=tuple(
                t.strip() for t in fields.get("X-Comtainer-Tags", "").split(",") if t.strip()
            ),
        )
