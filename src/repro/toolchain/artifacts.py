"""Build artifacts with embedded provenance.

Simulated object files, archives, shared objects and executables are JSON
payloads (see :mod:`repro.simbin`) carrying the provenance a system-side
backend needs: which sources went in, which toolchain and flags produced
the code, the target ISA/march, whether LTO bitcode is present, and the
PGO state.  The perf model reads executables' provenance to decide how
fast they run on a given system; coMtainer's backend reads it to verify
rebuild results.

Artifacts are *padded* to a realistic code size (~12 bytes per source
line) so image sizes keep Table 3 shape without materializing bulk bytes
until someone actually reads the file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro import simbin
from repro.vfs.content import FileContent

#: Rough native code density used to size artifacts from source size.
BYTES_PER_SOURCE_BYTE = {"0": 0.50, "1": 0.42, "2": 0.38, "3": 0.44,
                         "s": 0.30, "z": 0.28, "fast": 0.46, "g": 0.48}


@dataclass(frozen=True)
class PaddedContent(FileContent):
    """JSON payload + declared padding of ASCII spaces, materialized only
    on :meth:`read`.

    Provenance is decoded from :attr:`payload` alone (see
    :func:`decodable_bytes`): trailing spaces can neither make bytes that
    are not UTF-8 JSON parse nor change a parsed value, so the padding
    never needs to exist for a read of the artifact's provenance.
    """

    payload: bytes
    pad: int = 0

    def __post_init__(self) -> None:
        if type(self.pad) is not int or self.pad < 0:
            raise ValueError(f"pad must be a non-negative int, got {self.pad!r}")

    @property
    def size(self) -> int:
        return len(self.payload) + self.pad

    @property
    def digest(self) -> str:
        hasher = hashlib.sha256(self.payload)
        hasher.update(f"\x00pad:{self.pad}".encode())
        return "sha256:" + hasher.hexdigest()

    def read(self) -> bytes:
        return self.payload + b" " * self.pad


class ArtifactError(Exception):
    """Raised when bytes that should be an artifact are not one."""


@dataclass
class ObjectArtifact:
    """A compiled translation unit (.o)."""

    kind: str = "object"
    sources: List[str] = field(default_factory=list)
    language: Optional[str] = None
    toolchain: str = "gnu-12"
    isa: str = "x86-64"
    opt_level: str = "0"
    march: Optional[str] = None
    mtune: Optional[str] = None
    defines: List[str] = field(default_factory=list)
    fflags: Dict[str, Any] = field(default_factory=dict)
    openmp: bool = False
    debug: bool = False
    lto_ir: bool = False
    pgo_instrumented: bool = False
    pgo_profile: Optional[str] = None
    code_size: int = 0
    command: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items()}

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "ObjectArtifact":
        art = ObjectArtifact()
        for key, value in obj.items():
            if hasattr(art, key):
                setattr(art, key, value)
        return art


@dataclass
class ArchiveArtifact:
    """A static archive (.a) holding object members."""

    kind: str = "archive"
    members: List[Dict[str, Any]] = field(default_factory=list)  # name -> object json

    def member_objects(self) -> List[ObjectArtifact]:
        return [ObjectArtifact.from_json(m["object"]) for m in self.members]

    def member_names(self) -> List[str]:
        return [m["name"] for m in self.members]

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "members": self.members}

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "ArchiveArtifact":
        return ArchiveArtifact(members=list(obj.get("members", [])))


@dataclass
class LinkedArtifact:
    """Common state of shared objects and executables."""

    kind: str = "executable"
    objects: List[Dict[str, Any]] = field(default_factory=list)
    libs: List[str] = field(default_factory=list)           # -lname references
    lib_paths: Dict[str, str] = field(default_factory=dict)  # name -> resolved path
    toolchain: str = "gnu-12"
    isa: str = "x86-64"
    opt_level: str = "0"
    march: Optional[str] = None
    openmp: bool = False
    lto_applied: bool = False
    lto_coverage: float = 0.0
    pgo_instrumented: bool = False
    pgo_applied: bool = False
    pgo_profile: Optional[str] = None
    # Post-link binary layout optimization (BOLT-style extension).
    layout_optimized: bool = False
    layout_profile: Optional[str] = None
    code_size: int = 0
    command: List[str] = field(default_factory=list)
    soname: Optional[str] = None

    def member_objects(self) -> List[ObjectArtifact]:
        return [ObjectArtifact.from_json(o) for o in self.objects]

    def to_json(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items()}

    @classmethod
    def from_json(cls, obj: Dict[str, Any]) -> "LinkedArtifact":
        art = cls()
        for key, value in obj.items():
            if hasattr(art, key):
                setattr(art, key, value)
        return art


class SharedObjectArtifact(LinkedArtifact):
    def __init__(self, **kw: Any) -> None:
        super().__init__(**kw)
        self.kind = "shared"


class ExecutableArtifact(LinkedArtifact):
    def __init__(self, **kw: Any) -> None:
        super().__init__(**kw)
        self.kind = "executable"


_KIND_CLASSES = {
    "object": ObjectArtifact,
    "archive": ArchiveArtifact,
    "shared": SharedObjectArtifact,
    "executable": ExecutableArtifact,
}


def artifact_content(artifact: Any, pad: Optional[int] = None) -> PaddedContent:
    """Serialize *artifact* to padded simbin content."""
    body = artifact.to_json()
    kind = body.pop("kind")
    payload = simbin.artifact_payload(kind, body)
    pad_bytes = pad if pad is not None else max(0, artifact.code_size - len(payload))
    return PaddedContent(payload=payload, pad=pad_bytes)


def decodable_bytes(data: Union[bytes, FileContent]) -> bytes:
    """The bytes a simbin decoder needs from *data*: a padded artifact's
    payload without its padding, any other content in full."""
    if isinstance(data, PaddedContent):
        return data.payload
    if isinstance(data, FileContent):
        return data.read()
    return data


def read_artifact(data: Union[bytes, FileContent]) -> Any:
    """Parse an artifact's bytes or file content into its typed
    representation."""
    obj = simbin.read_artifact_payload(decodable_bytes(data))
    if obj is None:
        raise ArtifactError("not a simulated build artifact")
    kind = obj.get("kind")
    cls = _KIND_CLASSES.get(kind)
    if cls is None:
        raise ArtifactError(f"unknown artifact kind: {kind!r}")
    obj = dict(obj)
    obj.pop("kind", None)
    if cls is ObjectArtifact:
        return ObjectArtifact.from_json(obj)
    if cls is ArchiveArtifact:
        return ArchiveArtifact.from_json(obj)
    return cls.from_json(obj)


def try_read_artifact(data: Union[bytes, FileContent]) -> Optional[Any]:
    try:
        return read_artifact(data)
    except ArtifactError:
        return None
