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

Every artifact is described once.  A render (:func:`artifact_content`)
keeps the artifact it rendered in the ``artifacts`` memo, keyed on the
payload, and :func:`read_artifact` answers those bytes with a copy of it
instead of parsing them: the linker reads the objects the compiler just
wrote.  A render of an archive or a linked artifact splices in the text
of each member whose payload is in the memo (:func:`rendered_text`)
instead of encoding it again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import simbin
from repro.memo import LruMemo
from repro.vfs import Node, RegularFile
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

    @cached_property
    def digest(self) -> str:
        # Kept in the instance dict on first read (see repro.vfs.content).
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

    @staticmethod
    def member(name: str, obj: ObjectArtifact,
               text: Optional[bytes] = None) -> Tuple[Dict[str, Any], Optional[bytes]]:
        """The member record of *obj* under *name*, and the record's JSON
        text when *text*, the object's own (:func:`rendered_text`), is
        known."""
        record = {"name": name, "object": obj.to_json()}
        if text is not None:
            text = b'{"name": %s, "object": %s}' % (json.dumps(name).encode(), text)
        return record, text


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


#: The member list of each kind that holds members, which a render splices.
_MEMBER_KEYS = {"archive": "members", "shared": "objects", "executable": "objects"}

#: The artifact each payload was rendered from, filled by every render: a
#: cold build reads only artifacts it rendered moments before, and almost
#: never the same bytes twice, so a memo that parses filled would almost
#: never hit.
_ARTIFACTS = LruMemo(256, name="artifacts")

_FIELD_NAMES = {cls: frozenset(f.name for f in fields(cls))
                for cls in _KIND_CLASSES.values()}


#: The types of the scalars a JSON parse returns, which a copy shares.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _plain(value: Any) -> Any:
    """A copy of a JSON value as a parse returns it: every list (or tuple)
    and dict in it new, every scalar shared.  A list of scalars (most of
    an artifact's lists) is copied whole."""
    if isinstance(value, dict):
        return {k: v if type(v) in _SCALARS else _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if _SCALARS.issuperset(map(type, value)):
            return list(value)
        return [v if type(v) in _SCALARS else _plain(v) for v in value]
    return value


def _copy(artifact: Any) -> Any:
    """An independent copy of *artifact* whose class and fields equal
    those a parse of its rendered payload returns (a map may iterate in
    another order): every list and map in it is new, a tuple a list."""
    copy = object.__new__(type(artifact))
    copy.__dict__.update(_plain(artifact.__dict__))
    return copy


def _parses_as_itself(artifact: Any, kind: str) -> bool:
    """Whether a parse of *artifact*'s render gives back its class and
    every field it has, and no other."""
    cls = _KIND_CLASSES.get(kind)
    return type(artifact) is cls and artifact.__dict__.keys() == _FIELD_NAMES[cls]


def artifact_content(artifact: Any, pad: Optional[int] = None,
                     texts: Optional[Sequence[Optional[bytes]]] = None) -> PaddedContent:
    """Serialize *artifact* to padded simbin content, and keep it under
    the payload for :func:`read_artifact`, which hands out copies.  The
    render takes the artifact over: nothing may change it afterwards
    (every render builds its artifact for the render and drops it).

    *texts*, for an archive or a linked artifact, holds each member's
    :func:`rendered_text` (None where it is not known), spliced into the
    payload as it is."""
    body = artifact.to_json()
    kind = body.pop("kind")
    spliced = None
    if texts is not None and any(text is not None for text in texts):
        spliced = {_MEMBER_KEYS[kind]: texts}
    payload = simbin.artifact_payload(kind, body, spliced)
    if _parses_as_itself(artifact, kind):
        _ARTIFACTS.put(payload, artifact)
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


def rendered_text(data: Union[bytes, FileContent]) -> Optional[bytes]:
    """The JSON text of the artifact *data* holds (its payload after the
    magic) when a render made that payload and the memo still holds it,
    else None.  Such text is exactly what a render encodes the artifact
    as, so a render of its archive or linked artifact may splice it in."""
    payload = decodable_bytes(data)
    if payload in _ARTIFACTS:
        return payload[len(simbin.ARTIFACT_MAGIC):]
    return None


def read_artifact(data: Union[bytes, FileContent]) -> Any:
    """Parse an artifact's bytes or file content into its typed
    representation: a copy of what rendered them, when the memo holds
    it."""
    payload = decodable_bytes(data)
    if not payload.startswith(simbin.ARTIFACT_MAGIC):
        raise ArtifactError("not a simulated build artifact")
    stored = _ARTIFACTS.get(payload)
    if stored is not None:
        return _copy(stored)
    obj = simbin.read_artifact_payload(payload)
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


def artifact_at(node: Node) -> Optional[Any]:
    """The artifact a filesystem node holds: :func:`try_read_artifact` of
    a regular file's content, None for any other node."""
    return try_read_artifact(node.content) if isinstance(node, RegularFile) else None
