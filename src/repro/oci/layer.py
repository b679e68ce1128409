"""Image layers: ordered typed entries with whiteout semantics.

A layer records filesystem *changes*: directories, regular files, symlinks,
whiteouts (deletions) and opaque-directory markers, in application order.
The digest is computed over a canonical JSON form of the entries so it is
stable, cheap, and independent of whether file payloads are inline or
synthetic.  ``to_tar_bytes`` can produce a real POSIX tar for inline-only
layers (used by tests and by the on-disk layout exporter).

A layer is built with :meth:`Layer.add` and is a value from the moment
its digest or size is first read, or a :class:`~repro.oci.blobs.Blob`
takes it (:meth:`Layer.freeze`): its entries become a read-only list,
and ``add``, any in-place change of that list and a rebinding of
``entries`` or ``comment`` raise ``TypeError``.  So the digest and size
it remembers, and any verdict remembered about a blob holding it, never
go stale, and a stored layer that many readers share (every mirror a
sync round promoted it to) cannot be changed by one of them.  A reader
that wants a changed layer builds a new one.
"""

from __future__ import annotations

import base64
import io
import tarfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.oci.digest import canonical_json, digest_bytes
from repro.oci.image import ReadOnlyList
from repro.vfs import paths as vpath
from repro.vfs.content import FileContent, InlineContent, SyntheticContent

# Kinds of layer entries.
KIND_DIR = "dir"
KIND_FILE = "file"
KIND_SYMLINK = "symlink"
KIND_WHITEOUT = "whiteout"
KIND_OPAQUE = "opaque"

_TAR_BLOCK = 512

_FROZEN = ("layer is frozen (its digest or size was read, or a blob holds "
           "it): build a new Layer instead")

WHITEOUT_PREFIX = ".wh."
OPAQUE_MARKER = ".wh..wh..opq"


@dataclass(frozen=True)
class LayerEntry:
    """One change record inside a layer."""

    kind: str
    path: str
    mode: int = 0o644
    size: int = 0
    content: Optional[FileContent] = None
    link_target: str = ""
    mtime: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", vpath.normalize(self.path))
        if self.kind == KIND_FILE and self.content is None:
            object.__setattr__(self, "content", InlineContent())
        if self.kind == KIND_FILE and self.content is not None:
            object.__setattr__(self, "size", self.content.size)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def directory(path: str, mode: int = 0o755) -> "LayerEntry":
        return LayerEntry(kind=KIND_DIR, path=path, mode=mode)

    @staticmethod
    def file(path: str, content: FileContent, mode: int = 0o644, mtime: int = 0) -> "LayerEntry":
        return LayerEntry(kind=KIND_FILE, path=path, mode=mode, content=content, mtime=mtime)

    @staticmethod
    def symlink(path: str, target: str) -> "LayerEntry":
        return LayerEntry(kind=KIND_SYMLINK, path=path, mode=0o777, link_target=target)

    @staticmethod
    def whiteout(path: str) -> "LayerEntry":
        return LayerEntry(kind=KIND_WHITEOUT, path=path)

    @staticmethod
    def opaque(path: str) -> "LayerEntry":
        return LayerEntry(kind=KIND_OPAQUE, path=path)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {"kind": self.kind, "path": self.path, "mode": self.mode}
        if self.kind == KIND_FILE:
            assert self.content is not None
            obj["size"] = self.content.size
            obj["digest"] = self.content.digest
            obj["mtime"] = self.mtime
            if isinstance(self.content, SyntheticContent):
                obj["synthetic"] = {"seed": self.content.seed, "size": self.content.size}
            elif hasattr(self.content, "pad") and hasattr(self.content, "payload"):
                # PaddedContent serializes *structurally*: its digest covers
                # (payload, pad), not the materialized bytes, so flattening
                # to inline data would change the entry identity — and with
                # it the layer digest — across a save/load round trip.
                obj["padded"] = {
                    "payload": base64.b64encode(self.content.payload).decode("ascii"),
                    "pad": self.content.pad,
                }
            else:
                obj["data"] = base64.b64encode(self.content.read()).decode("ascii")
        elif self.kind == KIND_SYMLINK:
            obj["target"] = self.link_target
        return obj

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "LayerEntry":
        kind = obj["kind"]
        if kind == KIND_FILE:
            if "synthetic" in obj:
                content: FileContent = SyntheticContent(
                    seed=obj["synthetic"]["seed"], declared_size=obj["synthetic"]["size"]
                )
            elif "padded" in obj:
                from repro.toolchain.artifacts import PaddedContent

                content = PaddedContent(
                    base64.b64decode(obj["padded"]["payload"]), obj["padded"]["pad"]
                )
            else:
                content = InlineContent(base64.b64decode(obj.get("data", "")))
            return LayerEntry.file(
                obj["path"], content, mode=obj.get("mode", 0o644), mtime=obj.get("mtime", 0)
            )
        if kind == KIND_SYMLINK:
            return LayerEntry.symlink(obj["path"], obj["target"])
        return LayerEntry(kind=kind, path=obj["path"], mode=obj.get("mode", 0o755))

    def identity(self) -> Dict[str, Any]:
        """Digest-relevant view of the entry (payload by digest, not bytes)."""
        ident: Dict[str, Any] = {"kind": self.kind, "path": self.path, "mode": self.mode}
        if self.kind == KIND_FILE:
            assert self.content is not None
            ident["size"] = self.content.size
            ident["digest"] = self.content.digest
            if self.mtime:
                # Left out at 0 so every mtime-0 layer keeps its digest.
                ident["mtime"] = self.mtime
        elif self.kind == KIND_SYMLINK:
            ident["target"] = self.link_target
        return ident


@dataclass
class Layer:
    """An ordered collection of :class:`LayerEntry`, frozen once its
    digest or size is read (see the module docstring)."""

    entries: List[LayerEntry] = field(default_factory=list)
    comment: str = ""

    #: The fields a frozen layer refuses to rebind.
    _FIELDS = frozenset({"entries", "comment"})

    def __post_init__(self) -> None:
        if type(self.entries) is not list:   # another layer's, or a tuple
            self.entries = list(self.entries)
        self._digest_cache: Optional[str] = None
        self._size_cache: Optional[int] = None
        self._frozen = False

    def __setattr__(self, name: str, value: Any) -> None:
        if name in self._FIELDS and getattr(self, "_frozen", False):
            raise TypeError(_FROZEN)
        object.__setattr__(self, name, value)

    def add(self, entry: LayerEntry) -> "Layer":
        if self._frozen:
            raise TypeError(_FROZEN)
        self.entries.append(entry)
        return self

    def freeze(self) -> None:
        """Make the layer a value: its entries a read-only list, and every
        later :meth:`add` and rebinding of a field a ``TypeError``."""
        if not self._frozen:
            self.entries = ReadOnlyList(self.entries)
            self._frozen = True

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def digest(self) -> str:
        """Stable content digest over the canonical entry identities.

        Computed once: the first read freezes the layer.
        """
        cached = self._digest_cache
        if cached is None:
            self.freeze()
            cached = self._digest_cache = digest_bytes(
                canonical_json([e.identity() for e in self.entries])
            )
        return cached

    @property
    def size(self) -> int:
        """Tar-equivalent byte size (512-byte headers, padded payloads).

        Computed once, like :attr:`digest`, and its first read freezes
        the layer too.
        """
        total = self._size_cache
        if total is None:
            self.freeze()
            total = 2 * _TAR_BLOCK  # tar end-of-archive blocks
            for entry in self.entries:
                total += _TAR_BLOCK  # header
                if entry.kind == KIND_FILE:
                    payload = entry.size
                    total += (payload + _TAR_BLOCK - 1) // _TAR_BLOCK * _TAR_BLOCK
            self._size_cache = total
        return total

    @property
    def payload_size(self) -> int:
        """Sum of raw file payload sizes (no tar framing)."""
        return sum(e.size for e in self.entries if e.kind == KIND_FILE)

    def paths(self) -> List[str]:
        return [e.path for e in self.entries]

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "comment": self.comment,
            "entries": [e.to_json() for e in self.entries],
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "Layer":
        layer = Layer(comment=obj.get("comment", ""))
        for entry_obj in obj.get("entries", []):
            layer.add(LayerEntry.from_json(entry_obj))
        return layer

    def to_bytes(self) -> bytes:
        return canonical_json(self.to_json())

    @staticmethod
    def from_bytes(data: bytes) -> "Layer":
        import json

        return Layer.from_json(json.loads(data.decode("utf-8")))

    # -- tar export -------------------------------------------------------------

    def to_tar_bytes(self) -> bytes:
        """Materialize a real tar archive (whiteouts become ``.wh.`` files).

        Synthetic contents are materialized too, so call this only on layers
        whose payloads are reasonably small.
        """
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            for entry in self.entries:
                if entry.kind == KIND_WHITEOUT:
                    name = vpath.join(
                        vpath.dirname(entry.path),
                        WHITEOUT_PREFIX + vpath.basename(entry.path),
                    )
                    info = tarfile.TarInfo(name=name.lstrip("/"))
                    info.size = 0
                    tar.addfile(info)
                    continue
                if entry.kind == KIND_OPAQUE:
                    name = vpath.join(entry.path, OPAQUE_MARKER)
                    info = tarfile.TarInfo(name=name.lstrip("/"))
                    info.size = 0
                    tar.addfile(info)
                    continue
                info = tarfile.TarInfo(name=entry.path.lstrip("/") or ".")
                info.mode = entry.mode
                info.mtime = entry.mtime
                if entry.kind == KIND_DIR:
                    info.type = tarfile.DIRTYPE
                    tar.addfile(info)
                elif entry.kind == KIND_SYMLINK:
                    info.type = tarfile.SYMTYPE
                    info.linkname = entry.link_target
                    tar.addfile(info)
                else:
                    assert entry.content is not None
                    data = entry.content.read()
                    info.size = len(data)
                    tar.addfile(info, io.BytesIO(data))
        return buf.getvalue()

    @staticmethod
    def from_tar_bytes(data: bytes) -> "Layer":
        """Parse a real tar archive back into a Layer (inverse of export)."""
        layer = Layer()
        with tarfile.open(fileobj=io.BytesIO(data), mode="r") as tar:
            for info in tar:
                name = info.name
                while name.startswith("./"):
                    name = name[2:]
                path = "/" + name.lstrip("/")
                base = vpath.basename(path)
                if base == OPAQUE_MARKER:
                    layer.add(LayerEntry.opaque(vpath.dirname(path)))
                elif base.startswith(WHITEOUT_PREFIX):
                    original = vpath.join(vpath.dirname(path), base[len(WHITEOUT_PREFIX):])
                    layer.add(LayerEntry.whiteout(original))
                elif info.isdir():
                    layer.add(LayerEntry.directory(path, mode=info.mode))
                elif info.issym():
                    layer.add(LayerEntry.symlink(path, info.linkname))
                elif info.isfile():
                    fobj = tar.extractfile(info)
                    payload = fobj.read() if fobj is not None else b""
                    layer.add(
                        LayerEntry.file(
                            path, InlineContent(payload), mode=info.mode, mtime=int(info.mtime)
                        )
                    )
        return layer
