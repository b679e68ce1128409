"""Applying layers onto a virtual filesystem.

This is the layer-application half of the "POSIX file system simulator"
the paper needs to compute an image's final filesystem state: entries are
applied in order; whiteouts delete, opaque markers clear directories, and
later layers shadow earlier ones.

Layer application is on the hot path of every adaptation (each rebuild
and each read of a coMtainer image flattens its stack), so two
optimizations apply here:

* :class:`_LayerApplier` keeps a directory cache across entries (and, in
  :func:`flatten_layers`, across layers), so the common run of file entries
  sharing a parent directory resolves that directory once instead of once
  per entry.  Entries that can change path resolution (whiteouts, opaque
  markers, symlinks, anything replacing a directory) conservatively drop
  the cache — correctness over speed for the rare kinds.
* :func:`flatten_layers` memoizes finished trees by the layer-digest tuple
  and hands out O(1) copy-on-write clones.  A stack it has not seen starts
  from a clone of the longest memoized prefix of its digest tuple and
  applies only the layers above it, so a ``+coMre`` stack flattened after
  its ``+coM`` stack applies one layer.  Applying the rest to a
  clone of the prefix's finished tree is what a flatten from scratch does
  once it has reached that prefix (the applier's directory cache is only a
  cache), and the clone is copy-on-write, so the memoized tree never
  changes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.memo import LruMemo
from repro.oci.layer import (
    KIND_DIR,
    KIND_FILE,
    KIND_OPAQUE,
    KIND_SYMLINK,
    KIND_WHITEOUT,
    Layer,
)
from repro.vfs import Directory, RegularFile, VirtualFilesystem
from repro.vfs import paths as vpath


class _LayerApplier:
    """Applies layer entries with a persistent resolved-directory cache.

    The cache maps *as-written* dirname strings to writable
    :class:`Directory` nodes.  Because two different strings can resolve to
    the same directory through symlinks, invalidation never tries to be
    clever about aliases: any entry that might change resolution (or
    detach a cached node) clears the whole cache.
    """

    def __init__(self, fs: VirtualFilesystem) -> None:
        self.fs = fs
        self._dirs: Dict[str, Directory] = {}

    def _parent(self, path: str) -> tuple:
        dirpath = vpath.dirname(path)
        parent = self._dirs.get(dirpath)
        if parent is None:
            parent = self.fs.writable_dir(dirpath, create=True)
            self._dirs[dirpath] = parent
        return parent, vpath.basename(path)

    def apply_entry(self, entry) -> None:
        fs = self.fs
        kind = entry.kind
        if kind == KIND_FILE:
            assert entry.content is not None
            parent, name = self._parent(entry.path)
            existing = parent.children.get(name)
            if existing is not None and not isinstance(existing, RegularFile):
                # Replacing a directory or symlink can invalidate cached
                # resolutions (including via aliases we cannot see).
                self._dirs.clear()
                fs.remove(entry.path, recursive=True, missing_ok=True)
                parent, name = self._parent(entry.path)
            parent.children[name] = RegularFile(
                mode=entry.mode, mtime=entry.mtime, content=entry.content
            )
        elif kind == KIND_WHITEOUT:
            node = fs.try_get_node(entry.path, follow_symlinks=False)
            if node is not None and not isinstance(node, RegularFile):
                self._dirs.clear()
            fs.remove(entry.path, recursive=True, missing_ok=True)
        elif kind == KIND_OPAQUE:
            node = fs.try_get_node(entry.path, follow_symlinks=False)
            self._dirs.clear()
            if isinstance(node, Directory):
                fs.writable_dir(entry.path).children.clear()
            else:
                fs.remove(entry.path, recursive=True, missing_ok=True)
                fs.makedirs(entry.path)
        elif kind == KIND_DIR:
            node = fs.try_get_node(entry.path, follow_symlinks=False)
            if isinstance(node, Directory):
                fs.writable_dir(entry.path).mode = entry.mode
            else:
                if node is not None:
                    self._dirs.clear()
                fs.remove(entry.path, recursive=True, missing_ok=True)
                fs.makedirs(entry.path, mode=entry.mode)
        elif kind == KIND_SYMLINK:
            self._dirs.clear()
            fs.remove(entry.path, recursive=True, missing_ok=True)
            fs.symlink(entry.link_target, entry.path, create_parents=True)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown layer entry kind: {entry.kind!r}")


def apply_layer(fs: VirtualFilesystem, layer: Layer) -> VirtualFilesystem:
    """Apply *layer*'s entries to *fs* in order; returns *fs* for chaining."""
    applier = _LayerApplier(fs)
    for entry in layer.entries:
        applier.apply_entry(entry)
    return fs


# Finished flatten results keyed by the layer-digest tuple.  Entries are
# private snapshots: lookups hand out copy-on-write clones, so callers can
# mutate their tree freely without disturbing the memo.
_FLATTEN_MEMO = LruMemo(64, name="flatten")


def is_flattened(layers: Iterable[Layer]) -> bool:
    """Whether the memo already holds this exact stack's finished tree
    (it stays where it is in the recency order)."""
    return tuple(layer.digest for layer in layers) in _FLATTEN_MEMO


def flatten_layers(layers: Iterable[Layer]) -> VirtualFilesystem:
    """Compute the final filesystem state of an ordered layer stack.

    The result is memoized by the stack's layer-digest tuple; a repeat
    flatten of an identical stack returns an O(1) copy-on-write clone, and
    a new stack applies only the layers above its longest memoized prefix.
    A layer's digest covers the canonical identity of every entry (content
    by digest), so equal keys imply equal trees.
    """
    stack: List[Layer] = list(layers)
    key = tuple(layer.digest for layer in stack)
    hit = _FLATTEN_MEMO.get(key)
    if hit is not None:
        return hit.clone()
    fs, start = VirtualFilesystem(), 0
    for n in range(len(key) - 1, 0, -1):
        prefix = _FLATTEN_MEMO.get(key[:n])
        if prefix is not None:
            fs, start = prefix.clone(), n
            break
    applier = _LayerApplier(fs)
    for layer in stack[start:]:
        for entry in layer.entries:
            applier.apply_entry(entry)
    _FLATTEN_MEMO.put(key, fs.clone())
    return fs
