"""``coMtainer fsck``: scan (and optionally repair) persisted image state.

Works on a live :class:`OCILayout` (:func:`fsck_layout`) or a saved
layout directory (:func:`fsck_directory`).  A scan never mutates
anything; with ``repair`` supplied, corrupt blobs are quarantined and
restored through the :class:`repro.integrity.repair.RepairEngine`, and a
repaired directory is atomically rewritten (fresh checksum manifest) and
re-verified before fsck reports success.

Exit codes (surfaced by the CLI): ``0`` — every object verified (possibly
after repair); ``1`` — unrepaired corruption, missing referenced blobs,
or failed repairs remain.

fsck owns no integrity rule of its own: the ``checksums.json`` reader and
per-file check, the store's referenced set and the replica-divergence
report all come from :mod:`repro.oci.layout` and :mod:`repro.oci.blobs`.
What it keeps is its own view of them: a quarantined referenced blob is
listed as quarantined, not missing, and every checksum mismatch is
collected instead of stopping at the first.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.integrity import (
    KIND_MISSING,
    KIND_UNPARSEABLE,
    IntegrityError,
    IntegrityFinding,
)
from repro.integrity.repair import RepairEngine, RepairOutcome
from repro.oci.layout import (
    OCILayout,
    read_checksums,
    read_layout_file,
    replica_divergences,
)
from repro.telemetry import NULL_TELEMETRY


@dataclass
class FsckReport:
    """Result of one fsck pass; all lists describe the *final* state."""

    target: str
    scanned: int = 0
    #: Problems found before any repair ran (for reporting).
    initial_findings: List[IntegrityFinding] = field(default_factory=list)
    #: Problems still present after the pass.
    findings: List[IntegrityFinding] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    repaired: List[RepairOutcome] = field(default_factory=list)
    failed: List[RepairOutcome] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    orphaned: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.findings or self.missing or self.failed)

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "scanned": self.scanned,
            "clean": self.clean,
            "initial_findings": [f.to_json() for f in self.initial_findings],
            "findings": [f.to_json() for f in self.findings],
            "quarantined": list(self.quarantined),
            "repaired": [o.to_json() for o in self.repaired],
            "failed": [o.to_json() for o in self.failed],
            "missing": list(self.missing),
            "orphaned": list(self.orphaned),
        }


def fsck_layout(
    layout: OCILayout,
    repair: Optional[RepairEngine] = None,
    ctx=None,
    telemetry=NULL_TELEMETRY,
    target: str = "<layout>",
) -> FsckReport:
    """Scan every blob of *layout*; with *repair*, restore what it can."""
    report = FsckReport(target=target)
    report.scanned = len(layout.blobs) + len(layout.blobs.quarantined())
    report.initial_findings = layout.blobs.verify_integrity()
    if repair is not None:
        for outcome in repair.repair_layout(layout, ctx=ctx):
            if outcome.detail == "already intact":
                continue
            (report.repaired if outcome.repaired else report.failed).append(outcome)
    report.findings = layout.blobs.verify_integrity()
    referenced = layout.referenced_digests()
    report.quarantined = [f.digest for f in layout.blobs.quarantined()]
    report.missing = sorted(
        d
        for d in referenced
        if d not in layout.blobs and layout.blobs.quarantined_blob(d) is None
    )
    report.orphaned = sorted(
        d for d in layout.blobs.digests() if d not in referenced
    )
    telemetry.metrics.counter("integrity_fsck_runs_total").inc()
    telemetry.event(
        "integrity.fsck",
        target=target,
        scanned=report.scanned,
        corrupt=len(report.initial_findings),
        repaired=len(report.repaired),
        clean=report.clean,
    )
    return report


def load_source(path: str) -> Optional[OCILayout]:
    """Load a saved layout best-effort (``verify=False``) for use as a
    repair source or divergence baseline.

    An unreadable one (missing, or an ``index.json`` that does not parse)
    is skipped: None, and one stderr line naming it.
    """
    try:
        return OCILayout.load(path, verify=False)
    except (IntegrityError, OSError) as exc:
        print(f"fsck: skipping unreadable layout {path}: {exc}", file=sys.stderr)
        return None


def fsck_directory(
    path: str,
    repair: Optional[RepairEngine] = None,
    ctx=None,
    telemetry=NULL_TELEMETRY,
) -> FsckReport:
    """Scan (and optionally repair + rewrite) a saved layout directory.

    Every file ``checksums.json`` records is checked and every mismatch
    collected; an unreadable checksum manifest is one finding.
    """
    file_findings: List[IntegrityFinding] = []
    try:
        checksums = read_checksums(path)
    except IntegrityError as exc:
        checksums = {}
        file_findings.append(exc.finding)
    for rel in sorted(checksums):
        try:
            finding = read_layout_file(path, rel, checksums[rel])[1]
        except FileNotFoundError:
            finding = IntegrityFinding(digest=rel, kind=KIND_MISSING, detail="file missing")
        except OSError as exc:
            finding = IntegrityFinding(digest=rel, kind=KIND_UNPARSEABLE, detail=str(exc))
        if finding is not None:
            file_findings.append(finding)
    files_checked = len(checksums)
    try:
        layout = OCILayout.load(path, verify=False)
    except (IntegrityError, OSError) as exc:
        # Not even loadable best-effort (e.g. unparseable index.json):
        # nothing to repair from, report and bail.
        report = FsckReport(target=path)
        report.scanned = files_checked
        if isinstance(exc, IntegrityError) and exc.finding is not None:
            file_findings.append(exc.finding)
        else:
            file_findings.append(
                IntegrityFinding(digest=path, kind=KIND_UNPARSEABLE, detail=str(exc))
            )
        report.initial_findings = list(file_findings)
        report.findings = list(file_findings)
        return report

    report = fsck_layout(
        layout, repair=repair, ctx=ctx, telemetry=telemetry, target=path
    )
    report.scanned += files_checked
    # Blob-file checksum mismatches are already covered as blob findings;
    # keep only the non-blob files (index.json, oci-layout, ...).
    meta_findings = [
        f for f in file_findings if not f.digest.startswith("blobs/")
    ]
    report.initial_findings = meta_findings + report.initial_findings

    dirty = bool(file_findings or report.repaired or not report.clean)
    if repair is not None and dirty and report.clean:
        # Everything repairable was repaired in memory; rewrite the
        # directory atomically (fresh checksums) and prove it loads back
        # verified before claiming success.
        layout.save(path)
        OCILayout.load(path, verify=True)
        for finding in meta_findings:
            report.repaired.append(
                RepairOutcome(digest=finding.digest, repaired=True, source="rewrite")
            )
    else:
        report.findings = meta_findings + report.findings
    return report


# ---------------------------------------------------------------------------
# federation mode: audit (and repair) replica divergence
# ---------------------------------------------------------------------------


@dataclass
class FederationFsckReport:
    """``coMtainer fsck --federation``: origin + per-replica integrity
    plus the cross-replica divergence audit."""

    origin: FsckReport
    replicas: Dict[str, FsckReport] = field(default_factory=dict)
    #: replica name -> human-readable divergences from the origin
    #: (missing/extra/divergent references, artifact caches, blobs).
    divergences: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return (
            self.origin.clean
            and all(r.clean for r in self.replicas.values())
            and not any(self.divergences.values())
        )

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "origin": self.origin.to_json(),
            "replicas": {
                name: report.to_json()
                for name, report in sorted(self.replicas.items())
            },
            "divergences": {
                name: list(problems)
                for name, problems in sorted(self.divergences.items())
            },
        }


def fsck_federation(
    federation,
    repair: bool = False,
    ctx=None,
    telemetry=NULL_TELEMETRY,
) -> FederationFsckReport:
    """Audit a live :class:`~repro.federation.registry.FederatedRegistry`.

    Every member's blob store is scanned (:func:`fsck_layout` is
    duck-typed over ``.blobs`` + ``.referenced_digests()``, which
    registries share with layouts), then replica divergence from the
    origin is reported.  With ``repair=True`` each member self-heals
    from the *other* members: the origin from its mirrors (freshest
    first), each mirror from the origin.
    """
    origin_repair = federation.repair_engine(telemetry) if repair else None
    report = FederationFsckReport(
        origin=fsck_layout(
            federation.origin, repair=origin_repair, ctx=ctx,
            telemetry=telemetry, target="origin",
        )
    )
    for name in sorted(federation.mirrors):
        mirror = federation.mirrors[name]
        mirror_repair = None
        if repair:
            mirror_repair = RepairEngine(telemetry=telemetry)
            mirror_repair.add_registry(federation.origin, label="origin")
            for source in federation.repair_sources():
                if source.blobs is not mirror.registry.blobs:
                    mirror_repair.sources.append(source)
        report.replicas[name] = fsck_layout(
            mirror.registry, repair=mirror_repair, ctx=ctx,
            telemetry=telemetry, target=f"mirror:{name}",
        )
    report.divergences = federation.audit()
    telemetry.event(
        "integrity.fsck_federation",
        replicas=len(report.replicas),
        divergent=sum(1 for p in report.divergences.values() if p),
        clean=report.clean,
    )
    return report


def fsck_federation_directories(
    origin_path: str,
    replica_paths: List[str],
    repair: bool = False,
    ctx=None,
    telemetry=NULL_TELEMETRY,
) -> FederationFsckReport:
    """``coMtainer fsck <origin> --federation --source <replica>...`` on
    saved layout directories.

    Each directory is scanned like :func:`fsck_directory`; with repair,
    every member heals from the others (the origin from replicas in the
    given order, each replica from the origin first) and repaired
    directories are atomically rewritten and re-verified.  Divergence is
    then reported against the origin's post-repair state.  Every layout
    is read through :func:`load_source`, so an unreadable one is skipped
    with one stderr line.
    """
    replica_layouts = {path: load_source(path) for path in replica_paths}

    origin_repair = None
    if repair:
        origin_repair = RepairEngine(telemetry=telemetry)
        for path, layout in replica_layouts.items():
            if layout is not None:
                origin_repair.add_layout(layout, label=f"replica:{path}")
    report = FederationFsckReport(
        origin=fsck_directory(
            origin_path, repair=origin_repair, ctx=ctx, telemetry=telemetry
        )
    )
    origin_layout = load_source(origin_path)

    for path in replica_paths:
        replica_repair = None
        if repair:
            replica_repair = RepairEngine(telemetry=telemetry)
            if origin_layout is not None:
                replica_repair.add_layout(origin_layout, label="origin")
            for other, layout in replica_layouts.items():
                if other != path and layout is not None:
                    replica_repair.add_layout(layout, label=f"replica:{other}")
        report.replicas[path] = fsck_directory(
            path, repair=replica_repair, ctx=ctx, telemetry=telemetry
        )
        # Divergence against the (possibly just repaired) on-disk state;
        # a replica that was unreadable before stays unreadable (fsck
        # cannot repair what it cannot load), so it is not re-read.
        replica_layout = (load_source(path)
                          if replica_layouts[path] is not None else None)
        if origin_layout is None:
            report.divergences[path] = ["origin layout unreadable"]
        elif replica_layout is None:
            report.divergences[path] = ["replica layout unreadable"]
        else:
            refs, blobs = replica_divergences(origin_layout, replica_layout, "replica")
            report.divergences[path] = refs + blobs
    return report


__all__ = [
    "FederationFsckReport",
    "FsckReport",
    "fsck_directory",
    "fsck_federation",
    "fsck_federation_directories",
    "fsck_layout",
    "load_source",
]
