"""In-memory POSIX-style filesystem tree.

Semantics intentionally mirror the subset of POSIX the container substrate
needs: absolute normalized paths, symlink resolution with an ELOOP bound,
recursive removal, whole-tree copies between filesystems, and deterministic
ordered traversal (children are kept sorted so layer diffs and digests are
reproducible).

Trees share structure copy-on-write (:meth:`VirtualFilesystem.clone`), so
every mutation first path-copies the directories it will change.  A write
(``write_file``, ``symlink``, ``remove``, ``mkdir``, ``makedirs``,
``rename``, ``copy_tree``, ``writable_dir``) costs one walk from the root,
:meth:`VirtualFilesystem._descend`, which path-copies as it goes and, when
asked to, creates missing directories.  A path on which that walk meets a
symlink, a non-directory or a missing directory it may not create goes to
the resolving walk instead (``makedirs``, ``_resolve``,
``_writable_dir_at``), the only write path that follows symlinks, with its
own semantics and error messages.

So a clone can tell, in O(root fan-out), whether anything was written
to it since it was cloned (:meth:`VirtualFilesystem.unwritten_since`),
and a filesystem object can take over a clone of another tree in place
(:meth:`VirtualFilesystem.adopt`): the runtime-install memo
(:mod:`repro.core.backend.replacement`) uses the one to key on an
unwritten container's image and the other to hand it a stored install.

A tree holds no reference cycle: nodes point only down, and each
directory's cached sorted view lives on its own child map.  So a
discarded tree (a removed container's, a diffed clone, an evicted memo
entry) is freed by reference counting, not by the cyclic collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.vfs import paths as vpath
from repro.vfs.content import FileContent, InlineContent, text_content
from repro.vfs.errors import (
    FileExistsVfsError,
    IsADirectoryVfsError,
    NotADirectoryVfsError,
    NotFoundError,
    SymlinkLoopError,
    VfsError,
)

_MAX_SYMLINK_HOPS = 40


@dataclass
class Node:
    """Common metadata carried by every filesystem node."""

    mode: int = 0o644
    mtime: int = 0
    uid: int = 0
    gid: int = 0

    def __post_init__(self) -> None:
        # Structural-sharing marker: a node flagged ``_shared`` may be
        # referenced from more than one tree and must never be mutated in
        # place — mutators replace it with a private copy first.
        self._shared = False


@dataclass
class RegularFile(Node):
    content: FileContent = field(default_factory=InlineContent)

    @property
    def size(self) -> int:
        return self.content.size

    def clone(self) -> "RegularFile":
        # Content providers are immutable, so they are shared between clones.
        return RegularFile(
            mode=self.mode, mtime=self.mtime, uid=self.uid, gid=self.gid,
            content=self.content,
        )


@dataclass
class Symlink(Node):
    target: str = ""

    def clone(self) -> "Symlink":
        return Symlink(
            mode=self.mode, mtime=self.mtime, uid=self.uid, gid=self.gid,
            target=self.target,
        )


class _ChildMap(dict):
    """A directory's children, with their cached sorted view beside them.

    Every mutator drops the view (``_sorted``), and
    :meth:`Directory.sorted_items` rebuilds it on the next read.  The map
    holds no pointer back to its directory, so a tree is free of
    reference cycles and a discarded one is freed by reference counting.
    In turn, no two directories may share one map:
    ``Directory.__post_init__`` always wraps what it is given in a new one.
    """

    __slots__ = ("_sorted",)

    def __init__(self, data=()):
        super().__init__(data)
        self._sorted: Optional[List[Tuple[str, "AnyNode"]]] = None

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self._sorted = None

    def __delitem__(self, key):
        super().__delitem__(key)
        self._sorted = None

    def clear(self):
        super().clear()
        self._sorted = None

    def pop(self, *args):
        result = super().pop(*args)
        self._sorted = None
        return result

    def popitem(self):
        result = super().popitem()
        self._sorted = None
        return result

    def update(self, *args, **kwargs):
        super().update(*args, **kwargs)
        self._sorted = None

    def setdefault(self, key, default=None):
        had = key in self
        result = super().setdefault(key, default)
        if not had:
            self._sorted = None
        return result


@dataclass
class Directory(Node):
    mode: int = 0o755
    children: Dict[str, "AnyNode"] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._shared = False
        # Always a new map, even from a _ChildMap: the sorted view lives on
        # the map, so two directories must never share one.
        self.children = _ChildMap(self.children)

    def clone(self) -> "Directory":
        """Copy-on-write copy: O(fan-out), children shared with the original.

        Both the original's and the copy's children become ``_shared``; any
        later mutation through :class:`VirtualFilesystem` replaces the shared
        subtree along the mutated path with private copies first.
        """
        copy = Directory(
            mode=self.mode, mtime=self.mtime, uid=self.uid, gid=self.gid,
            children=self.children,
        )
        for child in copy.children.values():
            child._shared = True
        return copy

    def sorted_items(self) -> List[Tuple[str, "AnyNode"]]:
        """Cached sorted ``(name, child)`` view — treat the list as immutable."""
        children = self.children
        cached = children._sorted
        if cached is None:
            cached = children._sorted = sorted(children.items())
        return cached


AnyNode = Union[Directory, RegularFile, Symlink]


class VirtualFilesystem:
    """A mutable rooted tree of :class:`Directory`/:class:`RegularFile`/:class:`Symlink`."""

    def __init__(self) -> None:
        self.root = Directory()

    # ------------------------------------------------------------------
    # path resolution
    # ------------------------------------------------------------------

    def _resolve(
        self,
        path: str,
        *,
        follow_final: bool = True,
        _hops: int = 0,
    ) -> Tuple[str, Optional[AnyNode]]:
        """Resolve *path* to ``(canonical_path, node_or_None)``.

        Intermediate symlinks are always followed; the final component is
        followed only when *follow_final*.  Returns ``node=None`` when the
        final component does not exist but all intermediates do.
        """
        if _hops > _MAX_SYMLINK_HOPS:
            raise SymlinkLoopError(f"too many levels of symbolic links: {path!r}")
        comps = vpath.components(path)
        node: AnyNode = self.root
        cur = "/"
        for i, comp in enumerate(comps):
            if not isinstance(node, Directory):
                raise NotADirectoryVfsError(f"not a directory: {cur!r}")
            child = node.children.get(comp)
            is_final = i == len(comps) - 1
            child_path = vpath.join(cur, comp)
            if child is None:
                if is_final:
                    return child_path, None
                raise NotFoundError(f"no such file or directory: {child_path!r}")
            if isinstance(child, Symlink) and (not is_final or follow_final):
                target = child.target
                if not vpath.is_absolute(target):
                    target = vpath.join(cur, target)
                rest = "/".join(comps[i + 1 :])
                rejoined = vpath.join(target, rest) if rest else target
                return self._resolve(
                    rejoined, follow_final=follow_final, _hops=_hops + 1
                )
            node = child
            cur = child_path
        return cur, node

    def resolve_path(self, path: str) -> str:
        """Canonical path after following all symlinks (must exist)."""
        canonical, node = self._resolve(path)
        if node is None:
            raise NotFoundError(f"no such file or directory: {path!r}")
        return canonical

    def get_node(self, path: str, *, follow_symlinks: bool = True) -> AnyNode:
        _, node = self._resolve(path, follow_final=follow_symlinks)
        if node is None:
            raise NotFoundError(f"no such file or directory: {path!r}")
        return node

    def try_get_node(
        self, path: str, *, follow_symlinks: bool = True
    ) -> Optional[AnyNode]:
        try:
            _, node = self._resolve(path, follow_final=follow_symlinks)
        except VfsError:
            return None
        return node

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self.try_get_node(path) is not None

    def lexists(self, path: str) -> bool:
        return self.try_get_node(path, follow_symlinks=False) is not None

    def is_dir(self, path: str) -> bool:
        return isinstance(self.try_get_node(path), Directory)

    def is_file(self, path: str) -> bool:
        return isinstance(self.try_get_node(path), RegularFile)

    def is_symlink(self, path: str) -> bool:
        return isinstance(self.try_get_node(path, follow_symlinks=False), Symlink)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def _writable_dir_at(self, canonical: str) -> Directory:
        """Return a mutation-safe directory at the *canonical* (resolved) path.

        Walks from the root and replaces every ``_shared`` directory along the
        way with a private shallow copy (path copying), so mutating the
        returned node can never leak into another tree that shares structure
        with this one.
        """
        if self.root._shared:
            self.root = self.root.clone()
        node = self.root
        for comp in vpath.components(canonical):
            child = node.children[comp]
            if child._shared:
                child = child.clone()
                node.children[comp] = child
            assert isinstance(child, Directory)
            node = child
        return node

    def _descend(
        self, comps: Tuple[str, ...], *, create: bool, mode: int = 0o755
    ) -> Optional[Directory]:
        """The one walk from the root behind every write.

        Path-copies each ``_shared`` directory on the way down and, when
        *create*, adds a ``Directory(mode=mode)`` for each missing
        component, as :meth:`mkdir` would.  Returns None, having created
        nothing, at the first symlink, non-directory or (not creating)
        missing component: such a path goes to :meth:`_resolving_dir`, the
        only write path that follows symlinks.  Directories copied before
        that point are equal copies, so no tree changes content.
        """
        node = self.root
        if node._shared:
            node = self.root = node.clone()
        for comp in comps:
            children = node.children
            child = children.get(comp)
            if child is None:
                if not create:
                    return None
                child = children[comp] = Directory(mode=mode)
            elif not isinstance(child, Directory):
                return None
            elif child._shared:
                child = children[comp] = child.clone()
            node = child
        return node

    def _resolving_dir(self, path: str, *, create: bool) -> Directory:
        """The resolving walk: :meth:`makedirs` when *create*, then
        :meth:`_resolve` and :meth:`_writable_dir_at`."""
        if create:
            self.makedirs(path, exist_ok=True)
        canonical, node = self._resolve(path)
        if node is None:
            raise NotFoundError(f"no such directory: {path!r}")
        if not isinstance(node, Directory):
            raise NotADirectoryVfsError(f"not a directory: {canonical!r}")
        return self._writable_dir_at(canonical)

    def _parent_dir(self, path: str, *, create: bool = False) -> Tuple[Directory, str]:
        """Return a writable directory node holding *path*'s final component."""
        parent_path, name = vpath.split(path)
        if not name:
            raise VfsError("cannot address the root this way")
        parent = self._descend(vpath.components(parent_path), create=create)
        if parent is None:
            parent = self._resolving_dir(parent_path, create=create)
        return parent, name

    def writable_dir(self, path: str, *, create: bool = False) -> Directory:
        """Resolve *path* to a directory safe for direct child mutation."""
        node = self._descend(vpath.components(path), create=create)
        if node is None:
            node = self._resolving_dir(path, create=create)
        return node

    def mkdir(self, path: str, *, exist_ok: bool = False, mode: int = 0o755) -> None:
        parent, name = self._parent_dir(path)
        existing = parent.children.get(name)
        if existing is not None:
            if exist_ok and isinstance(existing, Directory):
                return
            raise FileExistsVfsError(f"file exists: {vpath.normalize(path)!r}")
        parent.children[name] = Directory(mode=mode)

    def makedirs(self, path: str, *, exist_ok: bool = True, mode: int = 0o755) -> None:
        if exist_ok:
            # Fast path for the overwhelmingly common case: the whole
            # chain already exists (repeated writes into one directory).
            try:
                _, node = self._resolve(path)
            except VfsError:
                node = None
            if isinstance(node, Directory):
                return
            if self._descend(vpath.components(path), create=True, mode=mode) is not None:
                return
        comps = vpath.components(path)
        cur = "/"
        for comp in comps:
            cur = vpath.join(cur, comp)
            canonical, node = self._resolve(cur)
            if node is None:
                self.mkdir(canonical, mode=mode)
            elif not isinstance(node, Directory):
                raise NotADirectoryVfsError(f"not a directory: {canonical!r}")
            elif cur == vpath.normalize(path) and not exist_ok:
                raise FileExistsVfsError(f"file exists: {cur!r}")

    def write_file(
        self,
        path: str,
        content: Union[FileContent, bytes, str],
        *,
        mode: int = 0o644,
        mtime: int = 0,
        create_parents: bool = False,
    ) -> RegularFile:
        if isinstance(content, str):
            content = text_content(content)
        elif isinstance(content, bytes):
            content = InlineContent(content)
        parent, name = self._parent_dir(path, create=create_parents)
        existing = parent.children.get(name)
        if isinstance(existing, Directory):
            raise IsADirectoryVfsError(f"is a directory: {vpath.normalize(path)!r}")
        node = RegularFile(mode=mode, mtime=mtime, content=content)
        parent.children[name] = node
        return node

    def symlink(self, target: str, linkpath: str, *, create_parents: bool = False) -> Symlink:
        parent, name = self._parent_dir(linkpath, create=create_parents)
        if name in parent.children:
            raise FileExistsVfsError(f"file exists: {vpath.normalize(linkpath)!r}")
        node = Symlink(mode=0o777, target=target)
        parent.children[name] = node
        return node

    def remove(self, path: str, *, recursive: bool = False, missing_ok: bool = False) -> None:
        try:
            parent, name = self._parent_dir(path)
        except NotFoundError:
            if missing_ok:
                return
            raise
        node = parent.children.get(name)
        if node is None:
            if missing_ok:
                return
            raise NotFoundError(f"no such file or directory: {vpath.normalize(path)!r}")
        if isinstance(node, Directory) and node.children and not recursive:
            raise VfsError(f"directory not empty: {vpath.normalize(path)!r}")
        del parent.children[name]

    def rename(self, src: str, dst: str) -> None:
        src_norm = vpath.normalize(src)
        dst_norm = vpath.normalize(dst)
        if vpath.is_within(dst_norm, src_norm):
            raise VfsError(
                f"cannot move {src_norm!r} into itself ({dst_norm!r})"
            )
        sparent, sname = self._parent_dir(src)
        node = sparent.children.get(sname)
        if node is None:
            raise NotFoundError(f"no such file or directory: {src_norm!r}")
        dparent, dname = self._parent_dir(dst)
        del sparent.children[sname]
        dparent.children[dname] = node

    def chmod(self, path: str, mode: int) -> None:
        canonical, node = self._resolve(path)
        if node is None:
            raise NotFoundError(f"no such file or directory: {path!r}")
        if node is self.root:
            if self.root._shared:
                self.root = self.root.clone()
            self.root.mode = mode
            return
        parent = self._writable_dir_at(vpath.dirname(canonical))
        name = vpath.basename(canonical)
        child = parent.children[name]
        if child._shared:
            child = child.clone()
            parent.children[name] = child
        child.mode = mode

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def read_content(self, path: str) -> FileContent:
        """The content provider of the file at *path*, not yet materialized."""
        node = self.get_node(path)
        if isinstance(node, Directory):
            raise IsADirectoryVfsError(f"is a directory: {vpath.normalize(path)!r}")
        assert isinstance(node, RegularFile)
        return node.content

    def read_file(self, path: str) -> bytes:
        return self.read_content(path).read()

    def read_text(self, path: str) -> str:
        return self.read_file(path).decode("utf-8")

    def readlink(self, path: str) -> str:
        node = self.get_node(path, follow_symlinks=False)
        if not isinstance(node, Symlink):
            raise VfsError(f"not a symlink: {vpath.normalize(path)!r}")
        return node.target

    def listdir(self, path: str = "/") -> List[str]:
        node = self.get_node(path)
        if not isinstance(node, Directory):
            raise NotADirectoryVfsError(f"not a directory: {vpath.normalize(path)!r}")
        return sorted(node.children)

    def file_size(self, path: str) -> int:
        node = self.get_node(path)
        if isinstance(node, RegularFile):
            return node.size
        raise VfsError(f"not a regular file: {vpath.normalize(path)!r}")

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------

    def walk(self, top: str = "/") -> Iterator[Tuple[str, List[str], List[str]]]:
        """Yield ``(dirpath, dirnames, othernames)`` in sorted pre-order.

        Symlinks are reported as non-directories and never followed, so a
        walk terminates even in the presence of symlink cycles.
        """
        node = self.get_node(top, follow_symlinks=False)
        if not isinstance(node, Directory):
            raise NotADirectoryVfsError(f"not a directory: {top!r}")
        top = vpath.normalize(top)
        stack: List[Tuple[str, Directory]] = [(top, node)]
        while stack:
            dirpath, dirnode = stack.pop()
            dirnames: List[str] = []
            othernames: List[str] = []
            for name, child in dirnode.sorted_items():
                if isinstance(child, Directory):
                    dirnames.append(name)
                else:
                    othernames.append(name)
            yield dirpath, dirnames, othernames
            for name in reversed(dirnames):
                child = dirnode.children[name]
                assert isinstance(child, Directory)
                stack.append((vpath.join(dirpath, name), child))

    def iter_entries(self, top: str = "/") -> Iterator[Tuple[str, AnyNode]]:
        """Yield every node strictly below *top* as ``(path, node)``, pre-order."""
        node = self.get_node(top, follow_symlinks=False)
        if not isinstance(node, Directory):
            raise NotADirectoryVfsError(f"not a directory: {top!r}")
        stack: List[Tuple[str, Directory]] = [(vpath.normalize(top), node)]
        while stack:
            dirpath, dirnode = stack.pop()
            subdirs: List[Tuple[str, Directory]] = []
            for name, child in dirnode.sorted_items():
                yield vpath.join(dirpath, name), child
                if isinstance(child, Directory):
                    subdirs.append((vpath.join(dirpath, name), child))
            stack.extend(reversed(subdirs))

    def iter_files(self, top: str = "/") -> Iterator[Tuple[str, RegularFile]]:
        for path, node in self.iter_entries(top):
            if isinstance(node, RegularFile):
                yield path, node

    def file_paths(self, top: str = "/") -> List[str]:
        return [p for p, _ in self.iter_files(top)]

    def total_size(self, top: str = "/") -> int:
        """Sum of regular-file sizes below *top* (bytes)."""
        return sum(node.size for _, node in self.iter_files(top))

    # ------------------------------------------------------------------
    # tree operations
    # ------------------------------------------------------------------

    def clone(self) -> "VirtualFilesystem":
        """O(root fan-out) copy-on-write clone sharing structure with self."""
        other = VirtualFilesystem()
        other.root = self.root.clone()
        return other

    def cloned_since_written(self) -> bool:
        """Whether every top-level node is marked shared: the tree was
        cloned (or adopted) after its last write reached the top level.
        Only such a tree's nodes can be held by another tree, so only
        such a tree can turn up again in another filesystem."""
        return all(node._shared for node in self.root.children.values())

    def unwritten_since(self, other: "VirtualFilesystem") -> bool:
        """Whether self still holds exactly the tree it and *other* were
        both cloned from, in O(root fan-out).

        Every write path-copies a shared top-level node or changes the
        root's own entries or attributes, so equal top-level node
        identities and equal root attributes mean no write landed.  A
        write that left only equal copies can still read as one
        (``_descend`` path-copies on the way to a path it then hands to
        the resolving walk).
        """
        mine, theirs = self.root, other.root
        if (mine.mode, mine.mtime, mine.uid, mine.gid) != (
                theirs.mode, theirs.mtime, theirs.uid, theirs.gid):
            return False
        children = theirs.children
        return len(mine.children) == len(children) and all(
            children.get(name) is node for name, node in mine.children.items())

    def adopt(self, other: "VirtualFilesystem") -> None:
        """Make this object's tree a copy-on-write clone of *other*'s, in
        place, so every holder of this object sees the new tree; *other*
        never changes through it."""
        self.root = other.root.clone()

    def copy_tree(
        self,
        src: str,
        dst: str,
        *,
        source_fs: Optional["VirtualFilesystem"] = None,
    ) -> None:
        """Recursively copy *src* (from *source_fs* or self) to *dst* on self."""
        source = source_fs if source_fs is not None else self
        node = source.get_node(src, follow_symlinks=False)
        if isinstance(node, Directory):
            self.makedirs(dst, exist_ok=True)
            dst_node = self.get_node(dst, follow_symlinks=False)
            assert isinstance(dst_node, Directory)
            for name, child in node.sorted_items():
                self.copy_tree(
                    vpath.join(src, name), vpath.join(dst, name), source_fs=source
                )
        else:
            parent, name = self._parent_dir(dst, create=True)
            parent.children[name] = node.clone()

    def overlay(self, other: "VirtualFilesystem", at: str = "/") -> None:
        """Merge *other*'s whole tree into self rooted at *at* (other wins)."""
        self.makedirs(at, exist_ok=True)
        for name, _child in other.root.sorted_items():
            self.copy_tree("/" + name, vpath.join(at, name), source_fs=other)
