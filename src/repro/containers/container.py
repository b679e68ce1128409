"""Containers, process contexts and run results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.oci.image import ImageConfig
from repro.vfs import VirtualFilesystem
from repro.vfs import paths as vpath

ARCH_ISA = {"amd64": "x86-64", "arm64": "aarch64"}

DEFAULT_PATH = "/usr/local/bin:/usr/bin:/bin:/usr/sbin:/sbin:/opt/intel/bin:/opt/phytium/bin"


class ProgramError(Exception):
    """A simulated program failed; message is its stderr diagnostic."""


@dataclass
class RunResult:
    """Outcome of executing a command in a container."""

    exit_code: int = 0
    stdout: str = ""
    stderr: str = ""

    @property
    def ok(self) -> bool:
        return self.exit_code == 0

    def check(self) -> "RunResult":
        if not self.ok:
            raise ProgramError(self.stderr or f"command failed with {self.exit_code}")
        return self


@dataclass
class Container:
    """A writable instance of an image plus runtime state.

    *image_layers* is the layer-digest tuple of the image the container
    was created from, recorded by ``ContainerEngine.from_image`` (None
    for a container built any other way), so it still names that image
    after its ref is re-tagged.  While :meth:`unwritten` holds, the
    container's filesystem is exactly that image's.
    """

    id: str
    name: str
    image_ref: str
    arch: str
    fs: VirtualFilesystem
    base_fs: VirtualFilesystem
    config: ImageConfig
    mounts: Dict[str, Any] = field(default_factory=dict)
    image_layers: Optional[Tuple[str, ...]] = None

    @property
    def isa(self) -> str:
        return ARCH_ISA.get(self.arch, "x86-64")

    def unwritten(self) -> bool:
        """Whether no write has reached the filesystem since creation
        (:meth:`VirtualFilesystem.unwritten_since` its base)."""
        return self.fs.unwritten_since(self.base_fs)

    def environment(self) -> Dict[str, str]:
        env = {"PATH": DEFAULT_PATH, "HOME": "/root"}
        env.update(self.config.env_dict())
        return env

    def mount_at(self, path: str) -> Optional[Any]:
        return self.mounts.get(vpath.normalize(path))


@dataclass
class ProcessContext:
    """Everything a simulated program sees when it runs."""

    engine: Any                     # ContainerEngine (untyped to avoid cycle)
    container: Container
    argv: List[str]
    env: Dict[str, str]
    cwd: str
    meta: Dict[str, Any] = field(default_factory=dict)   # program marker metadata
    _stdout: List[str] = field(default_factory=list)

    @property
    def fs(self) -> VirtualFilesystem:
        return self.container.fs

    @property
    def isa(self) -> str:
        return self.container.isa

    def resolve(self, path: str) -> str:
        return vpath.join(self.cwd, path)

    def write(self, text: str) -> None:
        self._stdout.append(text)

    def writeline(self, text: str = "") -> None:
        self._stdout.append(text + "\n")

    def stdout(self) -> str:
        return "".join(self._stdout)
