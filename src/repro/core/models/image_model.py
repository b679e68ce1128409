"""The image model: structure and content of the application image (§4.3).

"The files are categorized into five types: those from the base image,
those from the package manager, those from the build process,
platform-independent data, and unknown origins.  This classification
guides system-side transformations, particularly file replacements.
Files generated by the build process are associated with the nodes in
the build graph model."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.pkg.rpm import read_package_database
from repro.vfs import RegularFile, Symlink, VirtualFilesystem

_DATA_SUFFIXES = (".txt", ".dat", ".bin", ".json", ".csv", ".md", ".cfg",
                  ".conf", ".yaml", ".toml", ".in")
_DATA_PREFIXES = ("/app/share", "/data", "/usr/share", "/opt/data")


class FileOrigin:
    BASE = "base"
    PACKAGE = "package"
    BUILD = "build"
    DATA = "data"
    UNKNOWN = "unknown"

    ALL = (BASE, PACKAGE, BUILD, DATA, UNKNOWN)


@dataclass(frozen=True)
class FileRecord:
    """One classified file; frozen, so copies of the model share it."""

    path: str
    origin: str
    package: Optional[str] = None   # owning package, for PACKAGE files
    node_id: Optional[str] = None   # build-graph node, for BUILD files
    size: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "origin": self.origin,
            "package": self.package,
            "node_id": self.node_id,
            "size": self.size,
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "FileRecord":
        return FileRecord(
            path=obj["path"],
            origin=obj["origin"],
            package=obj.get("package"),
            node_id=obj.get("node_id"),
            size=obj.get("size", 0),
        )


@dataclass
class ImageModel:
    """Classification of every regular file in the dist image."""

    files: Dict[str, FileRecord] = field(default_factory=dict)
    #: Packages installed in the dist image beyond the base set.
    packages: List[str] = field(default_factory=list)
    base_packages: List[str] = field(default_factory=list)
    entrypoint: List[str] = field(default_factory=list)
    architecture: str = "amd64"

    def by_origin(self, origin: str) -> List[FileRecord]:
        return sorted(
            (r for r in self.files.values() if r.origin == origin),
            key=lambda r: r.path,
        )

    def build_outputs(self) -> Dict[str, str]:
        """Dist-image path -> build-graph node id."""
        return {
            r.path: r.node_id
            for r in self.files.values()
            if r.origin == FileOrigin.BUILD and r.node_id
        }

    def origin_histogram(self) -> Dict[str, int]:
        out = {origin: 0 for origin in FileOrigin.ALL}
        for record in self.files.values():
            out[record.origin] += 1
        return out

    def clone(self) -> "ImageModel":
        """What ``from_json(to_json())`` returns, sharing the records."""
        files = (self.files[k] for k in sorted(self.files))
        return ImageModel(files={r.path: r for r in files}, packages=list(self.packages),
                          base_packages=list(self.base_packages),
                          entrypoint=list(self.entrypoint), architecture=self.architecture)

    def to_json(self) -> Dict[str, Any]:
        return {
            "files": [self.files[k].to_json() for k in sorted(self.files)],
            "packages": list(self.packages),
            "base_packages": list(self.base_packages),
            "entrypoint": list(self.entrypoint),
            "architecture": self.architecture,
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "ImageModel":
        model = ImageModel(
            packages=list(obj.get("packages", [])),
            base_packages=list(obj.get("base_packages", [])),
            entrypoint=list(obj.get("entrypoint", [])),
            architecture=obj.get("architecture", "amd64"),
        )
        for file_obj in obj.get("files", []):
            record = FileRecord.from_json(file_obj)
            model.files[record.path] = record
        return model


def _looks_like_data(path: str) -> bool:
    if any(path.startswith(prefix) for prefix in _DATA_PREFIXES):
        return True
    return path.endswith(_DATA_SUFFIXES)


def classify_image(
    dist_fs: VirtualFilesystem,
    base_paths: Set[str],
    base_packages: Set[str],
    build_digest_index: Dict[str, str],
    entrypoint: List[str],
    architecture: str,
) -> ImageModel:
    """Build the image model for a dist image.

    * *base_paths* — files present in the bare base image (BASE origin).
    * *base_packages* — packages preinstalled in the base image.
    * *build_digest_index* — content digest -> build-graph node id, taken
      from the build container; dist files matching a digest are BUILD
      outputs (robust to the COPY between stages).
    """
    db = read_package_database(dist_fs)
    file_owner = db.file_index()

    model = ImageModel(
        packages=sorted(set(db.names()) - base_packages),
        base_packages=sorted(base_packages),
        entrypoint=list(entrypoint),
        architecture=architecture,
    )
    for path, node in dist_fs.iter_entries("/"):
        if isinstance(node, Symlink):
            continue
        if not isinstance(node, RegularFile):
            continue
        digest = node.content.digest
        if digest in build_digest_index:
            record = FileRecord(
                path=path, origin=FileOrigin.BUILD,
                node_id=build_digest_index[digest], size=node.size,
            )
        elif path in file_owner and file_owner[path] not in base_packages:
            record = FileRecord(
                path=path, origin=FileOrigin.PACKAGE,
                package=file_owner[path], size=node.size,
            )
        elif path in base_paths:
            record = FileRecord(path=path, origin=FileOrigin.BASE, size=node.size)
        elif path in file_owner:
            record = FileRecord(
                path=path, origin=FileOrigin.PACKAGE,
                package=file_owner[path], size=node.size,
            )
        elif _looks_like_data(path):
            record = FileRecord(path=path, origin=FileOrigin.DATA, size=node.size)
        else:
            record = FileRecord(path=path, origin=FileOrigin.UNKNOWN, size=node.size)
        model.files[path] = record
    return model
