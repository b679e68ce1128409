"""Image config and manifest documents (OCI image-spec shapes)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.oci import mediatypes
from repro.oci.digest import canonical_json, digest_bytes


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


@dataclass
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
            "history": list(self.history),
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
        return ImageConfig.from_json(self.to_json())

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


@dataclass
class Manifest:
    """The OCI image manifest: config descriptor + ordered layer descriptors."""

    config: Descriptor
    layers: List[Descriptor] = field(default_factory=list)
    annotations: Dict[str, str] = field(default_factory=dict)

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

    def closure(self, digest: str) -> Tuple[str, ...]:
        """Every blob digest this manifest (stored as *digest*) references:
        itself, its config, then its layers in order."""
        return (digest, self.config.digest, *(ld.digest for ld in self.layers))

    @property
    def total_layer_size(self) -> int:
        return sum(layer.size for layer in self.layers)
