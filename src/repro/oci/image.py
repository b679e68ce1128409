"""Image config and manifest documents (OCI image-spec shapes).

Each document comes in two kinds.  :class:`ImageConfig` and
:class:`Manifest` are working copies: build one, or ``clone()`` one, and
change it freely.  :class:`FrozenImageConfig` and :class:`FrozenManifest`
are values: every list in one is a :class:`ReadOnlyList` and every map a
:class:`ReadOnlyDict` (history entries and descriptor annotations too),
an attribute write raises, and each renders its bytes and digest once.
``frozen()`` makes a value of a working copy (a value is its own), and
the two kinds compare equal when their fields do.

Values are what gets shared: a stored document parsed once
(:func:`repro.oci.layout.resolve_manifest`) and the config of an image in
an engine's store.  Whoever wants to change one changes a ``clone()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from repro.oci import mediatypes
from repro.oci.digest import canonical_json, digest_bytes


def _refuse(self, *args, **kwargs):
    raise TypeError(f"a {type(self).__name__} cannot be changed")


class ReadOnlyList(list):
    """A list that refuses every in-place change."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):
        return ReadOnlyList, (list(self),)


class ReadOnlyDict(dict):
    """A dict that refuses every in-place change."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return ReadOnlyDict, (dict(self),)


def _read_only(value: Any) -> Any:
    """*value* with every list and dict in it (descriptor annotations
    included) replaced by a read-only copy."""
    if isinstance(value, (ReadOnlyList, ReadOnlyDict)):
        return value
    if isinstance(value, dict):
        return ReadOnlyDict({k: _read_only(v) for k, v in value.items()})
    if isinstance(value, list):
        return ReadOnlyList(map(_read_only, value))
    if isinstance(value, Descriptor):
        return Descriptor(value.media_type, value.digest, value.size,
                          _read_only(value.annotations))
    return value


def _mutable(value: Any) -> Any:
    """A plain copy of a JSON value: every list and dict in it is new."""
    if isinstance(value, dict):
        return {k: _mutable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_mutable(v) for v in value]
    return value


def _fields(doc) -> tuple:
    return tuple(getattr(doc, name) for name in doc.__dataclass_fields__)


class _Value:
    """The read-only half of a document pair: attribute writes raise, and
    the bytes and digest are rendered once and kept on the value."""

    __setattr__ = __delattr__ = _refuse

    def frozen(self):
        return self

    # A cached property writes the instance dict itself, past __setattr__.
    @cached_property
    def _rendered(self) -> bytes:
        return super().to_bytes()

    def to_bytes(self) -> bytes:
        return self._rendered

    @cached_property
    def digest(self) -> str:
        return digest_bytes(self._rendered)


def _fill(value: _Value, doc):
    """*value* with each of *doc*'s fields, made read-only."""
    for name in doc.__dataclass_fields__:
        object.__setattr__(value, name, _read_only(getattr(doc, name)))
    return value


@dataclass(frozen=True)
class Descriptor:
    """A content descriptor: (media type, digest, size) + annotations."""

    media_type: str
    digest: str
    size: int
    annotations: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "mediaType": self.media_type,
            "digest": self.digest,
            "size": self.size,
        }
        if self.annotations:
            obj["annotations"] = dict(self.annotations)
        return obj

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "Descriptor":
        return Descriptor(
            media_type=obj["mediaType"],
            digest=obj["digest"],
            size=obj["size"],
            annotations=dict(obj.get("annotations", {})),
        )


@dataclass(eq=False)
class ImageConfig:
    """The OCI image config: runtime defaults + rootfs diff IDs + history."""

    architecture: str = "amd64"
    os: str = "linux"
    env: List[str] = field(default_factory=list)
    entrypoint: List[str] = field(default_factory=list)
    cmd: List[str] = field(default_factory=list)
    working_dir: str = "/"
    labels: Dict[str, str] = field(default_factory=dict)
    diff_ids: List[str] = field(default_factory=list)
    history: List[Dict[str, Any]] = field(default_factory=list)

    def __eq__(self, other):
        if not isinstance(other, ImageConfig):
            return NotImplemented
        return _fields(self) == _fields(other)

    def to_json(self) -> Dict[str, Any]:
        return {
            "architecture": self.architecture,
            "os": self.os,
            "config": {
                "Env": list(self.env),
                "Entrypoint": list(self.entrypoint),
                "Cmd": list(self.cmd),
                "WorkingDir": self.working_dir,
                "Labels": dict(self.labels),
            },
            "rootfs": {"type": "layers", "diff_ids": list(self.diff_ids)},
            "history": [_mutable(entry) for entry in self.history],
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "ImageConfig":
        cfg = obj.get("config", {})
        return ImageConfig(
            architecture=obj.get("architecture", "amd64"),
            os=obj.get("os", "linux"),
            env=list(cfg.get("Env", []) or []),
            entrypoint=list(cfg.get("Entrypoint", []) or []),
            cmd=list(cfg.get("Cmd", []) or []),
            working_dir=cfg.get("WorkingDir", "/") or "/",
            labels=dict(cfg.get("Labels", {}) or {}),
            diff_ids=list(obj.get("rootfs", {}).get("diff_ids", [])),
            history=list(obj.get("history", [])),
        )

    def to_bytes(self) -> bytes:
        return canonical_json(self.to_json())

    @property
    def digest(self) -> str:
        return digest_bytes(self.to_bytes())

    def descriptor(self) -> Descriptor:
        data = self.to_bytes()
        return Descriptor(mediatypes.IMAGE_CONFIG, digest_bytes(data), len(data))

    def clone(self) -> "ImageConfig":
        """A working copy: every list and dict in it is new and mutable.

        It equals ``ImageConfig.from_json(self.to_json())``, an empty
        working directory read as ``/`` included, without rendering."""
        return ImageConfig(
            architecture=self.architecture,
            os=self.os,
            env=list(self.env),
            entrypoint=list(self.entrypoint),
            cmd=list(self.cmd),
            working_dir=self.working_dir or "/",
            labels=dict(self.labels),
            diff_ids=list(self.diff_ids),
            history=[_mutable(entry) for entry in self.history],
        )

    def frozen(self) -> "FrozenImageConfig":
        """A read-only copy of this config (later changes do not reach it)."""
        return _fill(object.__new__(FrozenImageConfig), self)

    def add_history(self, created_by: str, empty_layer: bool = False) -> None:
        entry: Dict[str, Any] = {"created_by": created_by}
        if empty_layer:
            entry["empty_layer"] = True
        self.history.append(entry)

    def env_dict(self) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for item in self.env:
            if "=" in item:
                key, _, value = item.partition("=")
                out[key] = value
        return out


class FrozenImageConfig(_Value, ImageConfig):
    """A read-only :class:`ImageConfig` (see the module docstring); made
    only by :meth:`ImageConfig.frozen`."""

    def descriptor(self) -> Descriptor:
        return Descriptor(mediatypes.IMAGE_CONFIG, self.digest, len(self.to_bytes()))


@dataclass(eq=False)
class Manifest:
    """The OCI image manifest: config descriptor + ordered layer descriptors."""

    config: Descriptor
    layers: List[Descriptor] = field(default_factory=list)
    annotations: Dict[str, str] = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, Manifest):
            return NotImplemented
        return _fields(self) == _fields(other)

    def to_json(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "schemaVersion": 2,
            "mediaType": mediatypes.IMAGE_MANIFEST,
            "config": self.config.to_json(),
            "layers": [layer.to_json() for layer in self.layers],
        }
        if self.annotations:
            obj["annotations"] = dict(self.annotations)
        return obj

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "Manifest":
        return Manifest(
            config=Descriptor.from_json(obj["config"]),
            layers=[Descriptor.from_json(layer) for layer in obj.get("layers", [])],
            annotations=dict(obj.get("annotations", {})),
        )

    def to_bytes(self) -> bytes:
        return canonical_json(self.to_json())

    @property
    def digest(self) -> str:
        return digest_bytes(self.to_bytes())

    def descriptor(self, annotations: Optional[Dict[str, str]] = None) -> Descriptor:
        data = self.to_bytes()
        return Descriptor(
            mediatypes.IMAGE_MANIFEST,
            digest_bytes(data),
            len(data),
            annotations=dict(annotations or {}),
        )

    def frozen(self) -> "FrozenManifest":
        """A read-only copy of this manifest (later changes do not reach it)."""
        return _fill(object.__new__(FrozenManifest), self)

    def closure(self, digest: str) -> Tuple[str, ...]:
        """Every blob digest this manifest (stored as *digest*) references:
        itself, its config, then its layers in order."""
        return (digest, self.config.digest, *(ld.digest for ld in self.layers))

    @property
    def total_layer_size(self) -> int:
        return sum(layer.size for layer in self.layers)


class FrozenManifest(_Value, Manifest):
    """A read-only :class:`Manifest` (see the module docstring); made only
    by :meth:`Manifest.frozen`."""

    def descriptor(self, annotations: Optional[Dict[str, str]] = None) -> Descriptor:
        return Descriptor(mediatypes.IMAGE_MANIFEST, self.digest,
                          len(self.to_bytes()), annotations=dict(annotations or {}))
