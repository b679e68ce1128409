"""Computing a layer from the difference of two filesystem states.

Used by the container engine's ``commit``: the changes a RUN/COPY step (or
a whole container session) made against its base are captured as one layer,
with deletions encoded as whiteouts — exactly how overlay snapshots turn
into OCI layers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.oci.layer import Layer, LayerEntry
from repro.vfs import Directory, RegularFile, Symlink, VirtualFilesystem
from repro.vfs import paths as vpath
from repro.vfs.filesystem import AnyNode


def _same_node(a: AnyNode, b: AnyNode) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Directory):
        # Child differences are reported per-child; a directory entry itself
        # only changes when its mode does.
        return a.mode == b.mode
    if isinstance(a, Symlink):
        assert isinstance(b, Symlink)
        return a.target == b.target
    assert isinstance(a, RegularFile) and isinstance(b, RegularFile)
    return a.mode == b.mode and a.content.digest == b.content.digest


def _entry_for(path: str, node: AnyNode) -> LayerEntry:
    if isinstance(node, Directory):
        return LayerEntry.directory(path, mode=node.mode)
    if isinstance(node, Symlink):
        return LayerEntry.symlink(path, node.target)
    assert isinstance(node, RegularFile)
    return LayerEntry.file(path, node.content, mode=node.mode, mtime=node.mtime)


def _visit(
    dirpath: str,
    base_dir: Optional[Directory],
    new_dir: Directory,
    removed: List[str],
    changed: List[Tuple[str, AnyNode]],
) -> None:
    """Append to *removed* and *changed* what turns *base_dir* into
    *new_dir*, both at *dirpath*, recursing into every subtree that is not
    shared by both sides."""
    base_children = base_dir.children if base_dir is not None else {}
    for name, node in new_dir.sorted_items():
        old = base_children.get(name)
        if old is node:
            continue  # structurally shared: identical subtree
        path = vpath.join(dirpath, name)
        if old is None or not _same_node(old, node):
            changed.append((path, node))
        if isinstance(node, Directory):
            _visit(path, old if isinstance(old, Directory) else None, node,
                   removed, changed)
        elif isinstance(old, Directory):
            # Directory replaced by a non-directory: its former children
            # are gone and need whiteouts of their own.
            for child_name in old.children:
                removed.append(vpath.join(path, child_name))
    if base_dir is not None:
        for name in base_dir.children:
            if name not in new_dir.children:
                removed.append(vpath.join(dirpath, name))


def diff_filesystems(
    base: VirtualFilesystem, new: VirtualFilesystem, comment: str = ""
) -> Layer:
    """Return the layer that transforms *base* into *new*.

    Deterministic: whiteouts first (sorted), then adds/changes in sorted
    path order (parents naturally precede children).

    Implemented as a parallel tree walk that skips any subtree where both
    sides reference the *same* node object — with copy-on-write clones
    (``VirtualFilesystem.clone``), everything a container session never
    touched is still structurally shared with its base and costs O(1) to
    rule out, so a commit diff scales with the size of the change, not the
    size of the image.
    """
    removed: List[str] = []
    changed: List[Tuple[str, AnyNode]] = []
    _visit("/", base.root, new.root, removed, changed)

    layer = Layer(comment=comment)
    # Skip children of removed directories: one whiteout removes the subtree.
    covered: Tuple[str, ...] = ()
    for path in sorted(removed):
        if covered and path.startswith(covered[-1] + "/"):
            continue
        layer.add(LayerEntry.whiteout(path))
        covered = covered + (path,)

    for path, node in sorted(changed, key=lambda item: item[0]):
        layer.add(_entry_for(path, node))
    return layer


def layer_from_tree(
    fs: VirtualFilesystem, top: str = "/", comment: str = ""
) -> Layer:
    """Capture an entire subtree as a layer (no whiteouts)."""
    layer = Layer(comment=comment)
    for path, node in fs.iter_entries(top):
        layer.add(_entry_for(path, node))
    return layer
