"""The dpkg installed-package database inside an image filesystem.

State lives where dpkg keeps it: ``/var/lib/dpkg/status`` (control stanzas
of every installed package) and ``/var/lib/dpkg/info/<name>.list`` (the
file list of each package).  coMtainer's front-end parses these paths out
of the *image* to recover the dependency list and the file→package mapping
its image model needs.

Parsing is memoised: :meth:`DpkgDatabase.read_from` keys a finished parse
on the content digests of ``status`` and of every ``info/*.list`` file and
hands each caller a private copy, so re-reading an unchanged package state
(the same base image in every adaptation) costs a directory scan, not a
parse.  A parse renders every control stanza once, and its copies inherit
the rendered text.

Writing costs what changed: :meth:`DpkgDatabase.write_to` always rewrites
``status``, and considers the ``.list`` of every package touched since its
last write to the same filesystem (all of them on a first write).  A
considered list whose file already holds exactly what ``write_file`` would
leave there (a 0o644 regular file, mtime, uid and gid 0, inline content of
equal bytes) is skipped; every other list is written through
``write_file``, and so is every list of a write whose considered names
include one with a "/".  So a private copy's first write into the
filesystem it was read from creates a node only for the status and the
lists that differ.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memo import LruMemo
from repro.pkg.package import Package
from repro.vfs import Directory, FileContent, InlineContent, RegularFile, VirtualFilesystem

STATUS_PATH = "/var/lib/dpkg/status"
INFO_DIR = "/var/lib/dpkg/info"


class PackageDatabaseError(ValueError):
    """An image's package database does not have the shape it must have."""


class DpkgStatusError(PackageDatabaseError):
    """The dpkg status database holds a stanza or file that does not parse."""


class DpkgDatabase:
    """In-memory view of installed packages + their file lists."""

    def __init__(self) -> None:
        self._packages: Dict[str, Package] = {}
        self._file_lists: Dict[str, Tuple[str, ...]] = {}
        # Incremental persistence state: control stanzas are cached per
        # package and ``.list`` files are only rewritten for packages
        # touched since the last write_to on the same filesystem.
        self._control_cache: Dict[str, str] = {}
        self._dirty_lists: set = set()
        self._lists_fs: Optional[VirtualFilesystem] = None

    def __len__(self) -> int:
        return len(self._packages)

    def __contains__(self, name: str) -> bool:
        return name in self._packages

    def names(self) -> List[str]:
        return sorted(self._packages)

    def get(self, name: str) -> Package:
        return self._packages[name]

    def try_get(self, name: str) -> Optional[Package]:
        return self._packages.get(name)

    def packages(self) -> List[Package]:
        return [self._packages[name] for name in self.names()]

    def file_list(self, name: str) -> List[str]:
        return list(self._file_lists.get(name, []))

    def add(self, package: Package, file_paths: Optional[List[str]] = None) -> None:
        self._packages[package.name] = package
        if file_paths is None:
            file_paths = [f.path for f in package.files]
        self._file_lists[package.name] = tuple(sorted(file_paths))
        self._control_cache.pop(package.name, None)
        self._dirty_lists.add(package.name)

    def remove(self, name: str) -> None:
        self._packages.pop(name, None)
        self._file_lists.pop(name, None)
        self._control_cache.pop(name, None)
        self._dirty_lists.discard(name)

    def owner_of(self, path: str) -> Optional[str]:
        for name, files in self._file_lists.items():
            if path in files:
                return name
        return None

    def file_index(self) -> Dict[str, str]:
        """Map every packaged path to its owning package name."""
        index: Dict[str, str] = {}
        for name in self.names():
            for path in self._file_lists.get(name, []):
                index[path] = name
        return index

    def provides_index(self) -> Dict[str, str]:
        """Map every provided (virtual or real) name to the provider."""
        index: Dict[str, str] = {}
        for pkg in self.packages():
            for provided in pkg.provides_names():
                index.setdefault(provided, pkg.name)
        return index

    # ------------------------------------------------------------------
    # filesystem persistence
    # ------------------------------------------------------------------

    def write_to(self, fs: VirtualFilesystem) -> None:
        stanzas = []
        for name in self.names():
            text = self._control_cache.get(name)
            if text is None:
                text = self._packages[name].to_control()
                self._control_cache[name] = text
            stanzas.append(text)
        fs.write_file(STATUS_PATH, "\n\n".join(stanzas) + "\n", create_parents=True)
        fs.makedirs(INFO_DIR)
        # A filesystem seen before only needs the lists touched since the
        # last write; any other target gets the full set.
        if fs is self._lists_fs:
            to_write = sorted(n for n in self._dirty_lists if n in self._packages)
        else:
            to_write = self.names()
            self._lists_fs = fs
        # One lookup (of the directory makedirs just made sure of) serves
        # every list: each write below replaces only its own
        # ``<name>.list``, so the rest of this view stays exact.  A name
        # with a "/" can land on another package's list, so a write that
        # holds one skips nothing.
        on_disk = {}
        if not any("/" in name for name in to_write):
            on_disk = fs.get_node(INFO_DIR).children
        for name in to_write:
            listing = ("\n".join(self._file_lists.get(name, [])) + "\n").encode()
            if not _holds(on_disk.get(f"{name}.list"), listing):
                fs.write_file(f"{INFO_DIR}/{name}.list", listing, create_parents=True)
        self._dirty_lists.clear()

    def copy(self) -> "DpkgDatabase":
        """A copy of the same kind (an ``RpmDatabase`` stays one) that
        shares only values never mutated in place (packages, file tuples,
        control text); its first :meth:`write_to` considers every list, as
        a fresh parse's does."""
        db = type(self)()
        db._packages = dict(self._packages)
        db._file_lists = dict(self._file_lists)
        db._control_cache = dict(self._control_cache)
        db._dirty_lists = set(self._dirty_lists)
        return db

    @staticmethod
    def read_from(fs: VirtualFilesystem) -> "DpkgDatabase":
        """Parse *fs*'s dpkg database; :class:`DpkgStatusError` if corrupt."""
        node = fs.try_get_node(STATUS_PATH)
        if node is None:
            return DpkgDatabase()
        if not isinstance(node, RegularFile):
            raise DpkgStatusError(f"reading file '{STATUS_PATH}': not a regular file")
        status = node.content
        lists = _info_lists(fs)
        key = (status.digest, tuple((name, c.digest) for name, c in lists.items()))
        parsed = _READ_MEMO.get(key)
        if parsed is None:
            parsed = _parse(status, lists)
            _READ_MEMO.put(key, parsed)
        return parsed.copy()


# Finished parses keyed by content digests; a failed parse is never stored.
_READ_MEMO_CAP = 16
_READ_MEMO = LruMemo(_READ_MEMO_CAP, name="dpkg-status")


def _holds(node, data: bytes) -> bool:
    """Whether *node* is exactly the file ``write_file`` makes of *data*."""
    return (
        isinstance(node, RegularFile)
        and node.mode == 0o644 and node.mtime == 0 and node.uid == 0 and node.gid == 0
        and type(node.content) is InlineContent and node.content.data == data
    )


def _info_lists(fs: VirtualFilesystem) -> Dict[str, FileContent]:
    """``<name>.list`` -> content, in name order, of every file list.

    A symlinked list reads through its link; an entry that does not end at
    a regular file reads as absent, like a missing list.
    """
    info = fs.try_get_node(INFO_DIR)
    if not isinstance(info, Directory):
        return {}
    lists: Dict[str, FileContent] = {}
    for name, node in info.sorted_items():
        if not name.endswith(".list"):
            continue
        if not isinstance(node, RegularFile):
            node = fs.try_get_node(f"{INFO_DIR}/{name}")
        if isinstance(node, RegularFile):
            lists[name] = node.content
    return lists


def _text(content: FileContent, path: str) -> str:
    try:
        return content.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DpkgStatusError(f"parsing file '{path}': {exc}") from None


def _parse(status: FileContent, lists: Dict[str, FileContent]) -> DpkgDatabase:
    db = DpkgDatabase()
    for number, stanza in enumerate(_text(status, STATUS_PATH).split("\n\n"), 1):
        if not stanza.strip():
            continue
        try:
            package = Package.from_control(stanza)
        except ValueError as exc:
            first = stanza.strip().splitlines()[0]
            raise DpkgStatusError(
                f"parsing file '{STATUS_PATH}' stanza {number} ({first!r}): {exc}"
            ) from None
        name = f"{package.name}.list"
        files: List[str] = []
        if name in lists:
            text = _text(lists[name], f"{INFO_DIR}/{name}")
            files = [line for line in text.splitlines() if line.strip()]
        db.add(package, file_paths=files)
        db._control_cache[package.name] = package.to_control()
    return db
