"""The ``ar`` archiver (and trivial ``ranlib``/``strip``).

Supports the operations HPC build scripts actually use: ``ar rcs out.a
member.o ...`` (create/replace), ``ar t`` (list), ``ar x`` (extract).
"""

from __future__ import annotations

from typing import List

from repro.toolchain.artifacts import (
    ArchiveArtifact,
    ObjectArtifact,
    artifact_content,
    rendered_text,
    try_read_artifact,
)
from repro.vfs import VirtualFilesystem
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
        if fs.exists(archive_path) and "c" not in ops:
            artifact = _read_archive(fs, archive_path)
        else:
            artifact = ArchiveArtifact()
        existing = {m["name"]: i for i, m in enumerate(artifact.members)}
        # Each member's rendered text where it is known, for the splice.
        texts = [None] * len(artifact.members)
        for path in member_paths:
            if not fs.exists(path):
                raise ArchiverError(f"ar: {path}: No such file or directory")
            content = fs.read_content(path)
            obj = try_read_artifact(content)
            if not isinstance(obj, ObjectArtifact):
                raise ArchiverError(f"ar: {path}: file format not recognized")
            name = vpath.basename(path)
            record, text = ArchiveArtifact.member(name, obj, rendered_text(content))
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


def _read_archive(fs: VirtualFilesystem, path: str) -> ArchiveArtifact:
    if not fs.exists(path):
        raise ArchiverError(f"ar: {path}: No such file or directory")
    artifact = try_read_artifact(fs.read_content(path))
    if not isinstance(artifact, ArchiveArtifact):
        raise ArchiverError(f"ar: {path}: file format not recognized")
    return artifact
