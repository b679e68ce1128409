"""Package repositories and repository pools."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.pkg.package import Package
from repro.pkg.version import version_key


class Repository:
    """A named collection of packages for one architecture."""

    def __init__(self, name: str, architecture: str) -> None:
        self.name = name
        self.architecture = architecture
        self._packages: Dict[str, List[Package]] = {}
        self._digest: Optional[str] = None

    def add(self, package: Package) -> Package:
        if package.architecture not in (self.architecture, "all"):
            raise ValueError(
                f"package {package.name} is {package.architecture}, "
                f"repository {self.name} is {self.architecture}"
            )
        versions = self._packages.setdefault(package.name, [])
        versions.append(package)
        versions.sort(key=lambda p: version_key(p.version))
        self._digest = None
        return package

    @property
    def digest(self) -> str:
        """Content digest over every package version; :meth:`add` drops it."""
        if self._digest is None:
            h = hashlib.sha256(f"{self.name}\0{self.architecture}".encode())
            for name in self.names():
                for package in self._packages[name]:
                    h.update(repr(package).encode())
            self._digest = "sha256:" + h.hexdigest()
        return self._digest

    def names(self) -> List[str]:
        return sorted(self._packages)

    def candidates(self, name: str) -> List[Package]:
        """All versions of *name*, oldest to newest."""
        return list(self._packages.get(name, []))

    def latest(self, name: str) -> Optional[Package]:
        versions = self._packages.get(name)
        return versions[-1] if versions else None

    def providers(self, virtual_name: str) -> List[Package]:
        """Packages that provide *virtual_name* (including themselves)."""
        found: List[Package] = []
        for versions in self._packages.values():
            for pkg in versions:
                if virtual_name in pkg.provides_names():
                    found.append(pkg)
        return sorted(found, key=lambda p: (p.name, version_key(p.version)))

    def optimized_equivalents(self, generic_name: str) -> List[Package]:
        """Packages declaring themselves substitutes for *generic_name*."""
        found: List[Package] = []
        for versions in self._packages.values():
            for pkg in versions:
                if pkg.equivalent_of == generic_name:
                    found.append(pkg)
        return sorted(found, key=lambda p: -p.quality)

    def __len__(self) -> int:
        return sum(len(v) for v in self._packages.values())


class RepositoryPool:
    """An ordered list of repositories; earlier repositories win ties."""

    def __init__(self, repositories: Optional[List[Repository]] = None) -> None:
        self.repositories: List[Repository] = list(repositories or [])

    def add_repository(self, repository: Repository) -> None:
        self.repositories.append(repository)

    def latest(self, name: str) -> Optional[Package]:
        best: Optional[Package] = None
        for repo in self.repositories:
            candidate = repo.latest(name)
            if candidate is None:
                continue
            if best is None or version_key(candidate.version) > version_key(best.version):
                best = candidate
        return best

    def candidates(self, name: str) -> List[Package]:
        out: List[Package] = []
        for repo in self.repositories:
            out.extend(repo.candidates(name))
        return sorted(out, key=lambda p: version_key(p.version))

    def providers(self, virtual_name: str) -> List[Package]:
        out: List[Package] = []
        for repo in self.repositories:
            out.extend(repo.providers(virtual_name))
        return out

    def optimized_equivalents(self, generic_name: str) -> List[Package]:
        out: List[Package] = []
        for repo in self.repositories:
            out.extend(repo.optimized_equivalents(generic_name))
        return sorted(out, key=lambda p: -p.quality)
