"""The ``ar`` archiver (and trivial ``ranlib``/``strip``).

Supports the operations HPC build scripts actually use: ``ar rcs out.a
member.o ...`` (create/replace), ``ar t`` (list), ``ar x`` (extract).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.toolchain.artifacts import (
    ArchiveArtifact,
    ObjectArtifact,
    artifact_at,
    artifact_content,
    rendered_text,
)
from repro.vfs import Node, VirtualFilesystem
from repro.vfs import paths as vpath


class ArchiverError(Exception):
    pass


def run_ar(argv: List[str], fs: VirtualFilesystem, cwd: str = "/") -> str:
    """Execute an ``ar`` command line; returns stdout text."""
    if len(argv) < 2:
        raise ArchiverError("ar: usage: ar [rcstx]... archive [member...]")
    ops = argv[1].lstrip("-")
    rest = argv[2:]
    if not rest:
        raise ArchiverError("ar: no archive specified")
    archive_path = vpath.join(cwd, rest[0])
    member_paths = [vpath.join(cwd, m) for m in rest[1:]]

    if "t" in ops:
        artifact = _read_archive(fs, archive_path)
        return "\n".join(artifact.member_names()) + "\n"

    if "x" in ops:
        artifact = _read_archive(fs, archive_path)
        for member in artifact.members:
            obj = ObjectArtifact.from_json(member["object"])
            fs.write_file(
                vpath.join(cwd, member["name"]),
                artifact_content(obj),
                create_parents=True,
            )
        return ""

    if "r" in ops or "q" in ops:
        node = None if "c" in ops else fs.try_get_node(archive_path)
        artifact = (ArchiveArtifact() if node is None
                    else _artifact(node, archive_path, ArchiveArtifact))
        existing = {m["name"]: i for i, m in enumerate(artifact.members)}
        # Each member's rendered text where it is known, for the splice.
        texts = [None] * len(artifact.members)
        for path in member_paths:
            node = fs.try_get_node(path)
            obj = _artifact(node, path, ObjectArtifact)
            name = vpath.basename(path)
            record, text = ArchiveArtifact.member(name, obj, rendered_text(node.content))
            if name in existing:
                artifact.members[existing[name]] = record
                texts[existing[name]] = text
            else:
                artifact.members.append(record)
                texts.append(text)
        total = sum(m["object"].get("code_size", 0) for m in artifact.members)
        content = artifact_content(artifact, pad=max(0, total - 512), texts=texts)
        fs.write_file(archive_path, content, create_parents=True)
        return ""

    raise ArchiverError(f"ar: unsupported operation: {argv[1]!r}")


def _artifact(node: Optional[Node], path: str, kind: type) -> Any:
    """The *kind* artifact *node*, looked up at *path*, holds; an
    ``ArchiverError`` for no node or any other node."""
    if node is None:
        raise ArchiverError(f"ar: {path}: No such file or directory")
    artifact = artifact_at(node)
    if not isinstance(artifact, kind):
        raise ArchiverError(f"ar: {path}: file format not recognized")
    return artifact


def _read_archive(fs: VirtualFilesystem, path: str) -> ArchiveArtifact:
    return _artifact(fs.try_get_node(path), path, ArchiveArtifact)
