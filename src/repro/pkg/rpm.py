"""RPM package database support.

The paper's prototype "only implements parsing for dpkg/apt and supports
Debian-based distributions only.  However, our approach is equally
applicable to other package managers, such as RPM" (§4.6).  This module
provides that: an :class:`RpmDatabase` with the same interface as
:class:`~repro.pkg.database.DpkgDatabase`, persisted in RPM's home
(``/var/lib/rpm``) as header stanzas plus embedded file lists — so
images from RPM-based distributions (the AArch64 testbed runs Kylin, an
RPM-based distro) flow through coMtainer's analysis unchanged.

:func:`read_package_database` auto-detects which database an image
carries; all coMtainer consumers go through it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.pkg.database import STATUS_PATH, DpkgDatabase, PackageDatabaseError
from repro.pkg.package import Package
from repro.vfs import RegularFile, VirtualFilesystem

RPM_DB_PATH = "/var/lib/rpm/Packages.json"


class RpmDatabaseError(PackageDatabaseError):
    """The RPM package document is not the JSON header list it must be."""


class RpmDatabase(DpkgDatabase):
    """Installed-package database in RPM layout.

    Inherits all in-memory behaviour from :class:`DpkgDatabase`; only the
    on-image persistence format differs (one JSON document holding header
    fields and file lists, standing in for the BDB/ndb Packages file).
    """

    # -- persistence ---------------------------------------------------

    def write_to(self, fs: VirtualFilesystem) -> None:  # type: ignore[override]
        headers = []
        for name in self.names():
            pkg = self.get(name)
            headers.append({
                "Name": pkg.name,
                "Version": pkg.version,
                "Architecture": _rpm_arch(pkg.architecture),
                "Group": pkg.section,
                "Requires": [c.render() for c in pkg.depends],
                "Provides": list(pkg.provides),
                "Summary": pkg.description,
                "X-Comtainer-Equivalent-Of": pkg.equivalent_of,
                "X-Comtainer-Quality": pkg.quality,
                "X-Comtainer-Tags": list(pkg.tags),
                "Files": self.file_list(name),
            })
        fs.write_file(
            RPM_DB_PATH,
            json.dumps({"headers": headers}, sort_keys=True, indent=1),
            create_parents=True,
        )

    @staticmethod
    def read_from(fs: VirtualFilesystem) -> "RpmDatabase":  # type: ignore[override]
        """Parse *fs*'s RPM database; :class:`RpmDatabaseError` for a
        document of any other shape."""
        db = RpmDatabase()
        node = fs.try_get_node(RPM_DB_PATH)
        if node is None:
            return db
        if not isinstance(node, RegularFile):
            raise RpmDatabaseError(f"reading file '{RPM_DB_PATH}': not a regular file")
        from repro.pkg.depends import parse_depends

        try:
            doc = json.loads(node.content.read().decode("utf-8"))
            for header in doc.get("headers", []):
                package = Package(
                    name=header["Name"],
                    version=header.get("Version", "0"),
                    architecture=_deb_arch(header.get("Architecture", "x86_64")),
                    section=header.get("Group", "libs"),
                    description=header.get("Summary", ""),
                    depends=parse_depends(", ".join(header.get("Requires", []))),
                    provides=list(header.get("Provides", [])),
                    equivalent_of=header.get("X-Comtainer-Equivalent-Of"),
                    quality=float(header.get("X-Comtainer-Quality", 1.0)),
                    tags=tuple(header.get("X-Comtainer-Tags", [])),
                )
                db.add(package, file_paths=list(header.get("Files", [])))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise RpmDatabaseError(
                f"parsing file '{RPM_DB_PATH}': {type(exc).__name__}: {exc}"
            ) from None
        return db


_RPM_ARCH = {"amd64": "x86_64", "arm64": "aarch64", "all": "noarch"}
_DEB_ARCH = {v: k for k, v in _RPM_ARCH.items()}


def _rpm_arch(deb: str) -> str:
    return _RPM_ARCH.get(deb, deb)


def _deb_arch(rpm: str) -> str:
    return _DEB_ARCH.get(rpm, rpm)


PackageDatabase = Union[DpkgDatabase, RpmDatabase]


def detect_database_format(fs: VirtualFilesystem) -> Optional[str]:
    """``"dpkg"`` / ``"rpm"`` / None for an image filesystem."""
    if fs.exists(STATUS_PATH):
        return "dpkg"
    if fs.exists(RPM_DB_PATH):
        return "rpm"
    return None


def read_package_database(fs: VirtualFilesystem) -> PackageDatabase:
    """Read whichever package database the image carries (empty dpkg DB
    when it has none)."""
    fmt = detect_database_format(fs)
    if fmt == "rpm":
        return RpmDatabase.read_from(fs)
    return DpkgDatabase.read_from(fs)


def database_for_format(fmt: str) -> PackageDatabase:
    if fmt == "rpm":
        return RpmDatabase()
    if fmt == "dpkg":
        return DpkgDatabase()
    raise ValueError(f"unknown package database format: {fmt!r}")
