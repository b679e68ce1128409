"""The apt facade: install/remove packages in a virtual filesystem.

Materializes package payloads into the filesystem (program markers for
executables, deterministic synthetic content for libraries and data) and
keeps the dpkg database inside the filesystem up to date — so images built
on top carry a parseable package manifest, exactly what coMtainer's image
model consumes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import simbin
from repro.pkg.rpm import PackageDatabase, read_package_database
from repro.pkg.package import Package, PackagedFile
from repro.pkg.repository import RepositoryPool
from repro.pkg.resolver import resolve_install
from repro.vfs import SyntheticContent, VirtualFilesystem
from repro.vfs import paths as vpath


class AptFacade:
    """Binds a repository pool to a filesystem and mutates both coherently.

    *db*, when given, is a private copy of the package database *fs*
    already holds, and nothing is parsed; otherwise the facade reads it.
    """

    def __init__(
        self,
        fs: VirtualFilesystem,
        pool: RepositoryPool,
        db: Optional[PackageDatabase] = None,
    ) -> None:
        self.fs = fs
        self.pool = pool
        self.db = read_package_database(fs) if db is None else db

    # ------------------------------------------------------------------

    def installed(self) -> Dict[str, Package]:
        return {name: self.db.get(name) for name in self.db.names()}

    def is_installed(self, name: str) -> bool:
        return name in self.db

    def install(self, names: List[str]) -> List[Package]:
        """Install *names* plus their dependency closure; returns what was added."""
        plan = resolve_install(names, self.pool, installed=self.installed())
        for package in plan:
            self._materialize(package)
            self.db.add(package)
        if plan:
            self.db.write_to(self.fs)
        return plan

    def remove(self, name: str) -> None:
        if name not in self.db:
            return
        for path in self.db.file_list(name):
            self.fs.remove(path, recursive=True, missing_ok=True)
        self.db.remove(name)
        self.db.write_to(self.fs)

    def replace(self, old_name: str, new_package: Package) -> None:
        """Swap an installed package for an equivalent (optimized) one.

        This is the primitive behind coMtainer's library replacement
        (`libo` in the paper's Figure 3): the generic package's files are
        removed, the optimized package's files are laid down, and compat
        symlinks are created so paths recorded in binaries keep resolving.
        """
        old_files = self.db.file_list(old_name) if old_name in self.db else []
        self.remove(old_name)
        self._materialize(new_package)
        self.db.add(new_package)
        # Compatibility links: generic library paths -> optimized libraries.
        new_libs = [f for f in new_package.files if f.kind == "library"]
        for old_path in old_files:
            if self.fs.lexists(old_path):
                continue
            base = vpath.basename(old_path)
            for new_file in new_libs:
                if _library_stem(vpath.basename(new_file.path)) == _library_stem(base):
                    self.fs.symlink(new_file.path, old_path, create_parents=True)
                    break
        self.db.write_to(self.fs)

    # ------------------------------------------------------------------

    def _materialize(self, package: Package) -> None:
        for pfile in package.files:
            self._write_file(package, pfile)

    def _write_file(self, package: Package, pfile: PackagedFile) -> None:
        if pfile.symlink_to is not None:
            self.fs.remove(pfile.path, recursive=True, missing_ok=True)
            self.fs.symlink(pfile.symlink_to, pfile.path, create_parents=True)
            return
        if pfile.program is not None:
            meta = dict(pfile.program_meta)
            meta.setdefault("package", package.name)
            data = simbin.program_marker(pfile.program, **meta)
            self.fs.write_file(pfile.path, data, mode=pfile.mode, create_parents=True)
            return
        seed = f"{package.name}:{package.version}:{pfile.path}"
        content = SyntheticContent(seed, max(pfile.size, 16))
        self.fs.write_file(pfile.path, content, mode=pfile.mode, create_parents=True)


def _library_stem(filename: str) -> str:
    """``libopenblas.so.0`` -> ``libopenblas`` (grouping key for compat links)."""
    stem = filename
    while True:
        base, _, ext = stem.rpartition(".")
        if not base or not (ext == "so" or ext.isdigit()):
            return stem
        stem = base
