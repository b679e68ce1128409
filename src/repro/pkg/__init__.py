"""Debian-style package management substrate.

coMtainer's image model classifies files by consulting the base image's
package manager ("coMtainer currently relies on the package manager of the
base image to analyze the application software stack", §4.6) and its
backend plans *package replacement*: swapping generic dependencies for
system-optimized equivalents.  This package provides the substrate:
Debian version ordering, package/dependency metadata, the dpkg status
database (written into and parsed back out of image filesystems),
synthetic repositories (generic distro + vendor-optimized), a dependency
resolver, and an apt facade that installs packages into a virtual
filesystem.
"""

from repro.pkg.apt import AptFacade
from repro.pkg.database import DpkgDatabase, DpkgStatusError, PackageDatabaseError
from repro.pkg.depends import Dependency, DependencyClause, parse_depends
from repro.pkg.package import PackagedFile, Package
from repro.pkg.repository import Repository, RepositoryPool
from repro.pkg.resolver import DependencyError, resolve_install
from repro.pkg.version import compare_versions, version_key

__all__ = [
    "AptFacade",
    "Dependency",
    "DependencyClause",
    "DependencyError",
    "DpkgDatabase",
    "DpkgStatusError",
    "Package",
    "PackageDatabaseError",
    "PackagedFile",
    "Repository",
    "RepositoryPool",
    "compare_versions",
    "parse_depends",
    "resolve_install",
    "version_key",
]
