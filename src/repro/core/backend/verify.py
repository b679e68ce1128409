"""Post-redirect verification.

The artifact description's analysis step states: "The final redirected
image should have a file system layout compatible with the original
image, and the application inside can be used likewise."  This module
performs that check programmatically: every application path of the
original image must resolve in the redirected image, the runtime
configuration must match, rebuilt binaries must carry the expected
provenance, and every replaced library path must re-resolve to its
optimized implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.cache.storage import decode_cache, decode_rebuild
from repro.core.models.image_model import FileOrigin
from repro.oci.layout import OCILayout
from repro.toolchain.artifacts import ExecutableArtifact, try_read_artifact
from repro.vfs import VirtualFilesystem


@dataclass
class VerificationReport:
    """Outcome of verifying a redirected image against its origin."""

    ok: bool = True
    missing_paths: List[str] = field(default_factory=list)
    entrypoint_matches: bool = True
    wrong_toolchain: List[str] = field(default_factory=list)
    unresolved_links: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.ok = False
        self.notes.append(note)


def verify_redirected_image(
    layout: OCILayout,
    dist_tag: str,
    redirected_fs: VirtualFilesystem,
    redirected_entrypoint: List[str],
) -> VerificationReport:
    """Check a redirected image against the cache + rebuild metadata."""
    report = VerificationReport()
    models, _sources, resolved = decode_cache(layout, dist_tag)
    meta, files, _modes, _ = decode_rebuild(layout, dist_tag)
    original_fs = resolved.filesystem()

    # 1. Filesystem compatibility: app paths of the original still resolve.
    for record in models.image.files.values():
        if record.origin in (FileOrigin.BUILD, FileOrigin.DATA):
            if not redirected_fs.exists(record.path):
                report.missing_paths.append(record.path)
    if report.missing_paths:
        report.fail(f"{len(report.missing_paths)} application paths missing")

    # 2. Runtime configuration preserved.
    if list(redirected_entrypoint) != list(resolved.config.entrypoint):
        report.entrypoint_matches = False
        report.fail("entrypoint differs from the original image")

    # 3. Rebuilt binaries carry the system toolchain.
    expected_toolchain = None
    for path in files:
        data = redirected_fs.read_content(path) if redirected_fs.exists(path) else b""
        artifact = try_read_artifact(data)
        if isinstance(artifact, ExecutableArtifact):
            if expected_toolchain is None:
                expected_toolchain = artifact.toolchain
            original = try_read_artifact(
                original_fs.read_content(path) if original_fs.exists(path) else b""
            )
            if (
                isinstance(original, ExecutableArtifact)
                and artifact.toolchain == original.toolchain
                and meta.get("adapter") != "gnu-native"
            ):
                report.wrong_toolchain.append(path)
    if report.wrong_toolchain:
        report.fail("some binaries were not actually rebuilt")

    # 4. Replaced library paths re-resolve to optimized implementations.
    for replacement in meta.get("replacements", []):
        for generic_path in replacement.get("link_map", {}):
            if not redirected_fs.lexists(generic_path):
                report.unresolved_links.append(generic_path)
                continue
            try:
                redirected_fs.resolve_path(generic_path)
            except Exception:
                report.unresolved_links.append(generic_path)
    if report.unresolved_links:
        report.fail("replaced library paths no longer resolve")

    return report
