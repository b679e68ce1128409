"""Health scoring: alerts + fsck/federation audits -> component statuses.

The scorer folds three evidence sources into per-component statuses:

* **SLO alerts** (the rules engine): a firing ``warning`` degrades its
  component, a firing ``critical`` makes it critical; ``info`` alerts
  and resolved alerts annotate without escalating.
* **fsck findings**: an unclean :class:`FsckReport` makes the engine
  critical; an unclean federation fsck maps origin findings to the
  engine and replica findings/divergences to their mirrors.
* **federation state**: each mirror is its own component
  (``mirror:<name>``); lagging more than
  :data:`STALENESS_DEGRADED` generations degrades it, and (with
  ``audit=True``) a divergence audit failure makes it critical.

Components: ``engine``, ``fleet``, ``cache``, ``federation``, plus one
``mirror:<name>`` per mirror.  Statuses rank
``healthy < unknown < degraded < critical``; the overall status is the
worst *known* component (all-unknown stays unknown).  Exit-code policy
matches fsck: healthy/unknown -> 0, degraded/critical -> 1.  The spans
and events the control plane's recorder dropped at its log caps are a
note on the ``overall`` row, never an escalation: the history is
partial, the system is not sick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.telemetry.controlplane.rules import (
    SEVERITY_CRITICAL,
    SEVERITY_WARNING,
)

STATUS_HEALTHY = "healthy"
STATUS_UNKNOWN = "unknown"
STATUS_DEGRADED = "degraded"
STATUS_CRITICAL = "critical"

_RANK = {
    STATUS_HEALTHY: 0,
    STATUS_UNKNOWN: 1,
    STATUS_DEGRADED: 2,
    STATUS_CRITICAL: 3,
}

COMPONENT_ENGINE = "engine"
COMPONENT_FLEET = "fleet"
COMPONENT_CACHE = "cache"
COMPONENT_FEDERATION = "federation"
COMPONENT_SERVICE_WAL = "service-wal"

#: Mirrors lagging more than this many origin generations degrade.
STALENESS_DEGRADED = 2

#: Open (non-terminal) requests in the WAL beyond this degrade the
#: service-wal component: a crash now would replay a deep backlog.
WAL_LAG_DEGRADED = 8


@dataclass
class ComponentHealth:
    """One component's folded status and the evidence behind it."""

    name: str
    status: str = STATUS_HEALTHY
    reasons: List[str] = field(default_factory=list)

    def escalate(self, status: str, reason: str) -> None:
        if _RANK[status] > _RANK[self.status]:
            self.status = status
        if reason:
            self.reasons.append(reason)

    def note(self, reason: str) -> None:
        self.reasons.append(reason)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "reasons": list(self.reasons),
        }


@dataclass
class HealthReport:
    """Per-component statuses plus the fold-up."""

    components: List[ComponentHealth] = field(default_factory=list)
    samples_taken: int = 0
    rules_evaluated: int = 0
    #: What the recorder's bounded logs dropped (``Telemetry.spans_dropped``,
    #: ``Telemetry.events_dropped``).
    spans_dropped: int = 0
    events_dropped: int = 0

    @property
    def overall(self) -> str:
        known = [c.status for c in self.components if c.status != STATUS_UNKNOWN]
        if not known:
            return STATUS_UNKNOWN
        return max(known, key=lambda s: _RANK[s])

    @property
    def healthy(self) -> bool:
        return _RANK[self.overall] <= _RANK[STATUS_UNKNOWN]

    @property
    def exit_code(self) -> int:
        return 0 if self.healthy else 1

    def component(self, name: str) -> Optional[ComponentHealth]:
        for comp in self.components:
            if comp.name == name:
                return comp
        return None

    def status_rows(self) -> List[Tuple[str, str, str]]:
        """(component, status, evidence) rows for ``render_table``."""
        rows = [
            (c.name, c.status, "; ".join(c.reasons) if c.reasons else "-")
            for c in self.components
        ]
        evidence = (f"{self.samples_taken} samples, "
                    f"{self.rules_evaluated} rule evaluations")
        if self.spans_dropped or self.events_dropped:
            evidence += (f"; telemetry logs full: {self.spans_dropped} "
                         f"span(s), {self.events_dropped} event(s) dropped")
        rows.append(("overall", self.overall, evidence))
        return rows

    def to_json(self) -> dict:
        return {
            "overall": self.overall,
            "components": [c.to_json() for c in self.components],
            "samples_taken": self.samples_taken,
            "rules_evaluated": self.rules_evaluated,
            "spans_dropped": self.spans_dropped,
            "events_dropped": self.events_dropped,
        }


def _severity_status(severity: str) -> str:
    if severity == SEVERITY_CRITICAL:
        return STATUS_CRITICAL
    if severity == SEVERITY_WARNING:
        return STATUS_DEGRADED
    return STATUS_HEALTHY   # info: annotate, never escalate


def _apply_fsck(comp: ComponentHealth, report) -> None:
    if report.clean:
        if report.repaired:
            comp.note(f"fsck: {len(report.repaired)} blob(s) repaired")
        return
    problems = []
    if report.findings:
        problems.append(f"{len(report.findings)} corrupt")
    if report.missing:
        problems.append(f"{len(report.missing)} missing")
    if report.failed:
        problems.append(f"{len(report.failed)} repair failure(s)")
    comp.escalate(STATUS_CRITICAL, "fsck: " + ", ".join(problems))


def score_health(
    controlplane=None,
    fsck=None,
    federation=None,
    audit: bool = False,
    failures: Optional[Dict[str, str]] = None,
    wal=None,
) -> HealthReport:
    """Fold alerts + fsck + federation state into a :class:`HealthReport`.

    *fsck* may be an :class:`~repro.integrity.fsck.FsckReport` or a
    :class:`~repro.integrity.fsck.FederationFsckReport`.  *federation*
    is a :class:`~repro.federation.registry.FederatedRegistry`; with
    ``audit=True`` its (more expensive) divergence audit also runs —
    stale-fence write rejections and completed failovers it carries are
    scored into the federation component either way.  *failures* maps
    component names to hard-failure evidence the caller observed out of
    band (an exhausted fleet, a crashed adaptation); each makes its
    component critical.  *wal* is a
    :class:`~repro.service.wal.ServiceWAL` (or its :meth:`stats` dict):
    torn records and a deep open-request backlog degrade the
    ``service-wal`` component.
    """
    components: Dict[str, ComponentHealth] = {
        name: ComponentHealth(name=name)
        for name in (COMPONENT_ENGINE, COMPONENT_FLEET, COMPONENT_CACHE,
                     COMPONENT_FEDERATION)
    }

    def component(name: str) -> ComponentHealth:
        if name not in components:
            components[name] = ComponentHealth(name=name)
        return components[name]

    report = HealthReport()
    if controlplane is not None:
        report.spans_dropped = controlplane.telemetry.spans_dropped
        report.events_dropped = controlplane.telemetry.events_dropped
    if controlplane is None or controlplane.sampler.samples_taken == 0:
        for comp in components.values():
            comp.status = STATUS_UNKNOWN
            comp.note("no samples taken")
    else:
        report.samples_taken = controlplane.sampler.samples_taken
        report.rules_evaluated = (
            controlplane.rules.evaluations * len(controlplane.rules.rules)
        )
        for alert in controlplane.rules.history:
            comp = component(alert.component)
            if alert.firing:
                comp.escalate(
                    _severity_status(alert.severity),
                    f"alert {alert.rule}: {alert.expression}",
                )
            else:
                comp.note(f"recovered: {alert.rule}")

    for name, reason in sorted((failures or {}).items()):
        component(name).escalate(STATUS_CRITICAL, reason)

    if fsck is not None:
        if hasattr(fsck, "replicas"):   # FederationFsckReport
            _apply_fsck(component(COMPONENT_ENGINE), fsck.origin)
            for name in sorted(fsck.replicas):
                _apply_fsck(component(f"mirror:{name}"), fsck.replicas[name])
            for name, problems in sorted(fsck.divergences.items()):
                if problems:
                    component(f"mirror:{name}").escalate(
                        STATUS_CRITICAL,
                        f"divergent from origin ({len(problems)} problem(s))",
                    )
                    component(COMPONENT_FEDERATION).escalate(
                        STATUS_DEGRADED, f"mirror {name} divergent"
                    )
        else:
            _apply_fsck(component(COMPONENT_ENGINE), fsck)

    if wal is not None:
        stats = wal.stats() if hasattr(wal, "stats") else dict(wal)
        comp = component(COMPONENT_SERVICE_WAL)
        if comp.status == STATUS_UNKNOWN:
            comp.status = STATUS_HEALTHY
        comp.note(
            f"{stats.get('records', 0)} records, "
            f"{stats.get('restarts', 0)} restart(s) survived"
        )
        open_requests = stats.get("open_requests", 0)
        if open_requests > WAL_LAG_DEGRADED:
            comp.escalate(
                STATUS_DEGRADED,
                f"{open_requests} admitted request(s) without terminal "
                f"records (deep replay on crash)",
            )
        torn = stats.get("torn_records_dropped", 0)
        if torn:
            comp.escalate(
                STATUS_DEGRADED, f"{torn} torn record(s) dropped by salvage"
            )

    if federation is not None:
        fenced = getattr(federation, "fenced_rejections", 0)
        if fenced:
            component(COMPONENT_FEDERATION).escalate(
                STATUS_CRITICAL,
                f"{fenced} stale-fence write(s) rejected "
                f"(demoted origin still writing)",
            )
        failovers = getattr(federation, "failovers", 0)
        if failovers:
            component(COMPONENT_FEDERATION).escalate(
                STATUS_DEGRADED,
                f"{failovers} origin failover(s) "
                f"(fence epoch {getattr(federation, 'fence_token', 0)})",
            )
        if getattr(federation, "origin_offline", False):
            component(COMPONENT_FEDERATION).escalate(
                STATUS_CRITICAL, "origin offline with no promoted successor"
            )
        problems = federation.audit() if audit else {}
        for name in sorted(federation.mirrors):
            mirror = federation.mirrors[name]
            comp = component(f"mirror:{name}")
            if comp.status == STATUS_UNKNOWN:
                comp.status = STATUS_HEALTHY
            behind = federation.generations_behind(mirror)
            if behind > STALENESS_DEGRADED:
                comp.escalate(
                    STATUS_DEGRADED, f"{behind} generations behind origin"
                )
                component(COMPONENT_FEDERATION).escalate(
                    STATUS_DEGRADED, f"mirror {name} stale"
                )
            divergent = problems.get(name) or []
            if divergent:
                comp.escalate(
                    STATUS_CRITICAL,
                    f"audit: {len(divergent)} divergence(s)",
                )
                component(COMPONENT_FEDERATION).escalate(
                    STATUS_DEGRADED, f"mirror {name} divergent"
                )

    # Stable order: the four fixed components, then mirrors by name.
    fixed = [COMPONENT_ENGINE, COMPONENT_FLEET, COMPONENT_CACHE,
             COMPONENT_FEDERATION]
    ordered = [components[name] for name in fixed]
    ordered.extend(
        components[name] for name in sorted(components)
        if name not in fixed
    )
    report.components = ordered
    return report


__all__ = [
    "COMPONENT_CACHE",
    "COMPONENT_ENGINE",
    "COMPONENT_FEDERATION",
    "COMPONENT_FLEET",
    "COMPONENT_SERVICE_WAL",
    "STALENESS_DEGRADED",
    "WAL_LAG_DEGRADED",
    "STATUS_CRITICAL",
    "STATUS_DEGRADED",
    "STATUS_HEALTHY",
    "STATUS_UNKNOWN",
    "ComponentHealth",
    "HealthReport",
    "score_health",
]
