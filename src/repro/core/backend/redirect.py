"""``coMtainer-redirect``: assembling the final optimized image.

Runs in an empty redirect container created from the Rebase image.  "The
backend sets up the redirect container by installing the runtime
dependencies and extracting files from the rebuild cache.  The cached
files are placed at the same path as the original image, and the
container's final state is committed as the optimized image." (§4.5)

The redirect is a pure function of what it reads, so its final tree is
memoised (a 64-entry :class:`repro.memo.LruMemo`) on exactly that: the
rebuilt (``+coMre``) stack's redirect key (each rebuilt file's path,
content digest and mode, and the ``adapter``, ``replacements`` and
``runtime_packages`` of its ``meta.json``: all the redirect reads of it,
computed once per decoded stack by
:func:`repro.core.cache.storage.rebuilt_stack`), the extended (``+coM``)
image's manifest digest (the current one, which may have been re-pushed
since the rebuild), the container's image (its layer digests, recorded
at creation) and each pool repository's name and digest, in pool order.
So two rebuilds that differ only in how they ran (a cold one and the
fully pruned one after it) redirect to one stored tree.  The key is
formed after both images are resolved and decoded, as always, and only
while the container is still unwritten since creation and the stack's
``meta.json`` is a JSON object.
A miss runs the steps below and stores a copy-on-write clone of the
final tree, the adapter label and the placed and copied counts; a call
that raises stores nothing.  A hit makes the container's filesystem
object adopt a clone of the stored tree; the runtime configuration is
then set from the resolved extended image either way.  The adopted tree
is the one the miss's commit diffed, so ``ContainerEngine.commit``
reuses that commit's layer (its own memo, keyed on the tree's top-level
nodes); a container written since the adopt is diffed afresh.
"""

from __future__ import annotations

import json
from typing import Tuple

from repro.containers.container import Container, ProgramError
from repro.core.adapters.base import LibraryReplacement
from repro.core.backend.replacement import (
    apply_replacements,
    container_key,
    install_container_runtime,
)
from repro.core.cache.storage import (
    CacheError,
    decoded_cache,
    decoded_rebuild,
    find_dist_tag,
    resolve_extended,
    resolve_rebuilt,
)
from repro.core.models.image_model import FileOrigin
from repro.memo import LruMemo
from repro.oci.layout import OCILayout

#: Finished redirects: (final tree, adapter label, placed, copied).
_REDIRECT_MEMO = LruMemo(64, name="redirect")


def redirect_in_container(
    engine, container: Container, layout: OCILayout, dist_tag: str
) -> Tuple[int, int]:
    """Populate the redirect container; returns the rebuilt artifacts
    placed and the data files copied."""
    stack = decoded_rebuild(resolve_rebuilt(layout, dist_tag), dist_tag)
    extended = resolve_extended(layout, dist_tag)
    models, _ = decoded_cache(extended, dist_tag)
    fs = container.fs
    pool = engine.repository_pool_for(container)
    key = container_key(container, pool) if stack.redirect_key is not None else None
    stored = None
    if key is not None:
        key += (stack.redirect_key, extended.digest)
        stored = _REDIRECT_MEMO.get(key)
    if stored is not None:
        tree, adapter, placed, copied = stored
        fs.adopt(tree)
    else:
        meta = json.loads(stack.text)
        adapter = meta.get("adapter", "")

        # 1. Runtime dependencies (optimized packages replace generic
        # ones); the install is memoised while the container is still its
        # image.
        plan = [LibraryReplacement.from_json(r) for r in meta.get("replacements", [])]
        apt, _ = install_container_runtime(
            container, pool, meta.get("runtime_packages", []), plan,
        )
        apply_replacements(fs, apt, plan)

        # 2. Application data files, carried over from the original image.
        dist_fs = extended.filesystem()
        copied = 0
        for record in models.image.files.values():
            if record.origin in (FileOrigin.DATA, FileOrigin.UNKNOWN):
                if dist_fs.is_file(record.path) and not fs.lexists(record.path):
                    node = dist_fs.get_node(record.path)
                    fs.write_file(
                        record.path, node.content, mode=node.mode, create_parents=True
                    )
                    copied += 1

        # 3. Rebuilt artifacts at their original paths.
        for path, content in stack.files.items():
            fs.write_file(path, content, mode=stack.modes.get(path, 0o755),
                          create_parents=True)
        placed = len(stack.files)
        if key is not None:
            _REDIRECT_MEMO.put(key, (fs.clone(), adapter, placed, copied))

    # 4. Runtime configuration from the original image.
    config = extended.config
    container.config.entrypoint = list(config.entrypoint)
    container.config.cmd = list(config.cmd)
    container.config.env = list(config.env)
    container.config.working_dir = config.working_dir
    container.config.labels.update(config.labels)
    container.config.labels["io.comtainer.adapted"] = adapter
    return placed, copied


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
        placed, copied = redirect_in_container(
            ctx.engine, ctx.container, layout, dist_tag)
    except Exception as exc:
        if isinstance(exc, ProgramError):
            raise
        raise ProgramError(f"coMtainer-redirect: {exc}")
    ctx.writeline(
        f"coMtainer-redirect: placed {placed} rebuilt artifacts, "
        f"{copied} data files"
    )
    return 0
