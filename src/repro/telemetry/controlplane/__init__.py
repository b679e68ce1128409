"""The fleet-wide observability control plane (docs/OBSERVABILITY.md).

Composes the PR 2 telemetry primitives into continuous observability:

* :class:`TimeSeriesSampler` — cadence-driven ring-buffer series over
  the metrics registry on the recorder's own clock, sampled when
  :meth:`~repro.telemetry.Telemetry.charge` moves that clock past a
  cadence boundary; no layer feeds it time.
* :class:`RulesEngine` — declarative SLO threshold/burn-rate rules over
  those series, with a typed firing/resolved :class:`Alert` lifecycle.
* :func:`score_health` — alerts + fsck/federation audit findings folded
  into per-component statuses (``coMtainer health``).
* :class:`CostProfiler` — span-boundary attribution of simulated-clock
  charge to phase x site, exported as collapsed stacks and hot-path
  tables.

Install by constructing :class:`ControlPlane` over an *active*
:class:`~repro.telemetry.Telemetry`: it registers itself as
``telemetry.controlplane`` (and its profiler as ``telemetry.profiler``),
which is the only state the recorder's hooks check (``charge`` polls
the sampler; span starts and ends feed the profiler).  Samples, alerts,
spans and the cost profile therefore share one axis, the recorder's
clock.  With the default :class:`~repro.telemetry.NullTelemetry` both
attributes are ``None`` and every hook is inert, so untraced runs stay
byte-identical.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.telemetry.controlplane.health import (
    COMPONENT_CACHE,
    COMPONENT_ENGINE,
    COMPONENT_FEDERATION,
    COMPONENT_FLEET,
    COMPONENT_SERVICE_WAL,
    STATUS_CRITICAL,
    STATUS_DEGRADED,
    STATUS_HEALTHY,
    STATUS_UNKNOWN,
    ComponentHealth,
    HealthReport,
    score_health,
)
from repro.telemetry.controlplane.profiler import (
    PHASES,
    SPAN_PHASES,
    CostProfiler,
    classify_phase,
)
from repro.telemetry.controlplane.rules import (
    DEFAULT_RULES,
    Alert,
    RuleError,
    RulesEngine,
    SloRule,
)
from repro.telemetry.controlplane.sampling import (
    DEFAULT_CADENCE,
    DEFAULT_CAPACITY,
    DEFAULT_SERIES,
    Sample,
    Series,
    SeriesSpec,
    TimeSeriesSampler,
)


class ControlPlane:
    """Sampler + rules + profiler bound to one active recorder."""

    def __init__(
        self,
        telemetry,
        cadence: float = DEFAULT_CADENCE,
        capacity: int = DEFAULT_CAPACITY,
        series: Sequence[SeriesSpec] = DEFAULT_SERIES,
        rules: Sequence[SloRule] = DEFAULT_RULES,
        profile: bool = True,
    ) -> None:
        if not getattr(telemetry, "enabled", False):
            # Attaching to the shared NULL_TELEMETRY singleton would
            # leak a control plane into every untraced run; refuse.
            raise ValueError(
                "ControlPlane requires an active Telemetry recorder "
                "(NullTelemetry stays inert by design)"
            )
        self.telemetry = telemetry
        self.sampler = TimeSeriesSampler(
            telemetry, cadence=cadence, capacity=capacity, specs=series
        )
        self.rules = RulesEngine(self.sampler, rules=rules)
        self.profiler: Optional[CostProfiler] = (
            CostProfiler(origin=telemetry.clock.now) if profile else None
        )
        self._finalized = False
        telemetry.controlplane = self
        if self.profiler is not None:
            telemetry.profiler = self.profiler

    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """End-of-run flush: the samples still due, one forced sample (so
        rules always evaluate at least once, even for a fully-cached
        zero-cost run) and the profiler's trailing interval.
        Idempotent."""
        if self._finalized:
            return
        self._finalized = True
        self.sampler.poll()
        self.sampler.force_sample()
        if self.profiler is not None:
            self.profiler.finish(self.telemetry.clock.now)

    def health(self, fsck=None, federation=None, audit: bool = False,
               failures=None, wal=None) -> HealthReport:
        return score_health(
            self, fsck=fsck, federation=federation, audit=audit,
            failures=failures, wal=wal,
        )

    def uninstall(self) -> None:
        """Detach from the recorder (hooks go inert again)."""
        if self.telemetry.controlplane is self:
            self.telemetry.controlplane = None
        if self.telemetry.profiler is self.profiler:
            self.telemetry.profiler = None
        if self.rules.on_sample in self.sampler.listeners:
            self.sampler.listeners.remove(self.rules.on_sample)


def install_controlplane(telemetry, **kwargs) -> ControlPlane:
    """Convenience constructor mirroring :func:`install_telemetry`."""
    return ControlPlane(telemetry, **kwargs)


__all__ = [
    "COMPONENT_CACHE",
    "COMPONENT_ENGINE",
    "COMPONENT_FEDERATION",
    "COMPONENT_FLEET",
    "COMPONENT_SERVICE_WAL",
    "DEFAULT_CADENCE",
    "DEFAULT_CAPACITY",
    "DEFAULT_RULES",
    "DEFAULT_SERIES",
    "PHASES",
    "SPAN_PHASES",
    "STATUS_CRITICAL",
    "STATUS_DEGRADED",
    "STATUS_HEALTHY",
    "STATUS_UNKNOWN",
    "Alert",
    "ComponentHealth",
    "ControlPlane",
    "CostProfiler",
    "HealthReport",
    "RuleError",
    "RulesEngine",
    "Sample",
    "Series",
    "SeriesSpec",
    "SloRule",
    "TimeSeriesSampler",
    "classify_phase",
    "install_controlplane",
    "score_health",
]
