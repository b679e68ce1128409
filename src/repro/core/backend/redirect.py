"""``coMtainer-redirect``: assembling the final optimized image.

Runs in an empty redirect container created from the Rebase image.  "The
backend sets up the redirect container by installing the runtime
dependencies and extracting files from the rebuild cache.  The cached
files are placed at the same path as the original image, and the
container's final state is committed as the optimized image." (§4.5)
"""

from __future__ import annotations

from typing import Dict

from repro.containers.container import Container, ProgramError
from repro.core.adapters.base import LibraryReplacement
from repro.core.backend.replacement import (
    apply_replacements,
    install_container_runtime,
)
from repro.core.cache.storage import (
    CacheError,
    decode_cache,
    decode_rebuild,
    find_dist_tag,
)
from repro.core.models.image_model import FileOrigin
from repro.oci.layout import OCILayout


def redirect_in_container(
    engine, container: Container, layout: OCILayout, dist_tag: str
) -> dict:
    """Populate the redirect container; returns the rebuild meta."""
    meta, files, modes, _rebuilt = decode_rebuild(layout, dist_tag)
    models, _sources, resolved = decode_cache(layout, dist_tag)
    fs = container.fs

    # 1. Runtime dependencies (optimized packages replace generic ones);
    # the install is memoised while the container is still its image.
    plan = [LibraryReplacement.from_json(r) for r in meta.get("replacements", [])]
    apt, _ = install_container_runtime(
        container, engine.repository_pool_for(container),
        meta.get("runtime_packages", []), plan,
    )
    apply_replacements(fs, apt, plan)

    # 2. Application data files, carried over from the original image.
    dist_fs = resolved.filesystem()
    copied_data = 0
    for record in models.image.files.values():
        if record.origin in (FileOrigin.DATA, FileOrigin.UNKNOWN):
            if dist_fs.is_file(record.path) and not fs.lexists(record.path):
                node = dist_fs.get_node(record.path)
                fs.write_file(
                    record.path, node.content, mode=node.mode, create_parents=True
                )
                copied_data += 1

    # 3. Rebuilt artifacts at their original paths.
    for path, content in files.items():
        fs.write_file(path, content, mode=modes.get(path, 0o755), create_parents=True)

    # 4. Runtime configuration from the original image.
    container.config.entrypoint = list(resolved.config.entrypoint)
    container.config.cmd = list(resolved.config.cmd)
    container.config.env = list(resolved.config.env)
    container.config.working_dir = resolved.config.working_dir
    container.config.labels.update(resolved.config.labels)
    container.config.labels["io.comtainer.adapted"] = meta.get("adapter", "")

    meta["copied_data_files"] = copied_data
    return meta


def comtainer_redirect_entry(ctx) -> int:
    """The ``coMtainer-redirect`` program (runs in the redirect container)."""
    from repro.core.frontend.build import IO_MOUNT

    layout = ctx.container.mount_at(IO_MOUNT)
    if not isinstance(layout, OCILayout):
        raise ProgramError(f"coMtainer-redirect: no OCI layout mounted at {IO_MOUNT}")
    try:
        dist_tag = find_dist_tag(layout)
    except CacheError as exc:
        raise ProgramError(f"coMtainer-redirect: {exc}")
    try:
        meta = redirect_in_container(ctx.engine, ctx.container, layout, dist_tag)
    except Exception as exc:
        if isinstance(exc, ProgramError):
            raise
        raise ProgramError(f"coMtainer-redirect: {exc}")
    ctx.writeline(
        f"coMtainer-redirect: placed {len(meta.get('executed_nodes', []))} rebuilt "
        f"node outputs, {meta['copied_data_files']} data files"
    )
    return 0
