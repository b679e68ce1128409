"""Declarative SLO rules over sampled series, with alert lifecycle.

Rule syntax (parsed by :meth:`SloRule.parse`)::

    <series> <op> <threshold> [for <N> samples]
    rate(<series>) <op> <threshold> [over <W> samples] [for <N> samples]

The threshold form compares the latest sample of a series; the
burn-rate form compares the per-sample increase over a window of ``W``
samples (so a cumulative counter alert *resolves* once the counter
stops moving — a plain threshold on a counter could never un-fire).
``for N samples`` requires ``N`` consecutive breaching samples before
the alert fires (streak evaluation), damping one-sample blips.

Samples whose value is ``None`` (instrument absent, denominator zero)
are *skipped*: they neither extend nor reset a streak, so a cold start
never alerts and a gap in data never resolves a real problem.

Alerts are typed (:class:`Alert`) and carry a firing/resolved
lifecycle.  Each transition emits a telemetry event (``alert.firing`` /
``alert.resolved``) and bumps the ``controlplane_alerts_*`` counters;
:meth:`RulesEngine.alerts_text` renders the current state in the
Prometheus exposition style so it can ride alongside
:func:`repro.telemetry.export.prometheus_text`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SEVERITY_INFO = "info"
SEVERITY_WARNING = "warning"
SEVERITY_CRITICAL = "critical"

KIND_THRESHOLD = "threshold"
KIND_BURN_RATE = "burn_rate"

STATE_FIRING = "firing"
STATE_RESOLVED = "resolved"

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

_RULE_RE = re.compile(
    r"^\s*(?:(?P<rate>rate)\(\s*(?P<rseries>\w+)\s*\)|(?P<series>\w+))"
    r"\s*(?P<op><=|>=|==|!=|<|>)\s*(?P<threshold>-?\d+(?:\.\d+)?)"
    r"(?:\s+over\s+(?P<window>\d+)\s+samples?)?"
    r"(?:\s+for\s+(?P<streak>\d+)\s+samples?)?\s*$"
)


class RuleError(Exception):
    pass


@dataclass(frozen=True)
class SloRule:
    """One declarative rule: expression + component + severity."""

    name: str
    series: str
    op: str
    threshold: float
    kind: str = KIND_THRESHOLD
    for_samples: int = 1
    window: int = 1
    component: str = "engine"
    severity: str = SEVERITY_WARNING
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise RuleError(f"rule {self.name!r}: unknown operator {self.op!r}")
        if self.kind not in (KIND_THRESHOLD, KIND_BURN_RATE):
            raise RuleError(f"rule {self.name!r}: unknown kind {self.kind!r}")
        if self.for_samples < 1:
            raise RuleError(f"rule {self.name!r}: for_samples must be >= 1")
        if self.window < 1:
            raise RuleError(f"rule {self.name!r}: window must be >= 1")

    @classmethod
    def parse(
        cls,
        name: str,
        text: str,
        component: str = "engine",
        severity: str = SEVERITY_WARNING,
        description: str = "",
    ) -> "SloRule":
        match = _RULE_RE.match(text)
        if match is None:
            raise RuleError(f"rule {name!r}: cannot parse {text!r}")
        is_rate = match.group("rate") is not None
        return cls(
            name=name,
            series=match.group("rseries") if is_rate else match.group("series"),
            op=match.group("op"),
            threshold=float(match.group("threshold")),
            kind=KIND_BURN_RATE if is_rate else KIND_THRESHOLD,
            window=int(match.group("window") or 1),
            for_samples=int(match.group("streak") or 1),
            component=component,
            severity=severity,
            description=description,
        )

    def render(self) -> str:
        """The rule back in its canonical declarative syntax."""
        num = (
            str(int(self.threshold))
            if float(self.threshold).is_integer()
            else repr(self.threshold)
        )
        if self.kind == KIND_BURN_RATE:
            text = f"rate({self.series}) {self.op} {num}"
            if self.window != 1:
                text += f" over {self.window} samples"
        else:
            text = f"{self.series} {self.op} {num}"
        if self.for_samples != 1:
            text += f" for {self.for_samples} samples"
        return text

    def evaluate(self, series) -> Tuple[Optional[bool], Optional[float]]:
        """(breaching?, evaluated value) against one series.

        ``(None, None)`` means no data: the latest sample is None (or,
        for burn rates, no non-None sample exists yet).
        """
        if self.kind == KIND_THRESHOLD:
            value = series.latest_value()
            if value is None:
                return None, None
            return _OPS[self.op](value, self.threshold), value
        values = series.nonnull_tail_values(self.window + 1)
        if not values:
            return None, None
        latest = values[-1]
        # Counters spring into existence mid-run: with fewer than
        # window+1 readings the baseline is 0, so the very first reading
        # of a non-zero counter still registers as an increase.
        baseline = values[-1 - self.window] if len(values) > self.window else 0.0
        rate = (latest - baseline) / self.window
        return _OPS[self.op](rate, self.threshold), rate


#: The built-in rule set `coMtainer health` scores components with.
DEFAULT_RULES: Tuple[SloRule, ...] = (
    SloRule.parse(
        "fleet-utilization-low", "fleet_utilization < 0.5 for 3 samples",
        component="fleet", severity=SEVERITY_WARNING,
        description="rebuild workers mostly idle (crash/straggler drag)",
    ),
    SloRule.parse(
        "fleet-worker-crashes", "rate(fleet_worker_crashes_total) > 0 over 2 samples",
        component="fleet", severity=SEVERITY_WARNING,
        description="rebuild workers are dying",
    ),
    SloRule.parse(
        "fleet-workers-blacklisted", "fleet_blacklisted_workers > 0",
        component="fleet", severity=SEVERITY_CRITICAL,
        description="flaky workers were removed from rotation",
    ),
    SloRule.parse(
        "mirror-staleness", "mirror_generations_behind > 2",
        component="federation", severity=SEVERITY_WARNING,
        description="a mirror lags the origin by >2 generations",
    ),
    SloRule.parse(
        "cache-hit-ratio-low", "cache_hit_ratio < 0.2 for 3 samples",
        component="cache", severity=SEVERITY_INFO,
        description="the artifact cache is not absorbing recompiles",
    ),
    SloRule.parse(
        "retry-exhaustion", "rate(resilience_retries_exhausted_total) > 0 over 2 samples",
        component="engine", severity=SEVERITY_CRITICAL,
        description="retry budgets are running out",
    ),
    SloRule.parse(
        "rebuild-node-failures", "rate(rebuild_nodes_failed_total) > 0 over 2 samples",
        component="engine", severity=SEVERITY_WARNING,
        description="rebuild nodes are failing into fallback",
    ),
    SloRule.parse(
        "federation-sync-failures", "rate(federation_sync_failures_total) > 0 over 2 samples",
        component="federation", severity=SEVERITY_WARNING,
        description="mirror syncs are aborting",
    ),
    SloRule.parse(
        "service-queue-saturated", "service_queue_occupancy >= 0.9 for 3 samples",
        component="service", severity=SEVERITY_WARNING,
        description="admission queue near capacity; shedding imminent",
    ),
    SloRule.parse(
        "service-rejections", "rate(service_requests_rejected_total) > 0 over 2 samples",
        component="service", severity=SEVERITY_WARNING,
        description="the service is rejecting admissions",
    ),
    SloRule.parse(
        "service-breaker-open", "service_breakers_open > 0",
        component="service", severity=SEVERITY_CRITICAL,
        description="a shared-dependency circuit breaker is open",
    ),
    SloRule.parse(
        "service-deadlines-blown", "rate(service_requests_deadline_total) > 0 over 2 samples",
        component="service", severity=SEVERITY_WARNING,
        description="requests are blowing their deadlines",
    ),
    SloRule.parse(
        "service-wal-backlog", "service_wal_open_requests > 8 for 3 samples",
        component="service", severity=SEVERITY_WARNING,
        description="many admitted requests lack terminal WAL records; "
                    "a crash now would replay a deep backlog",
    ),
    SloRule.parse(
        "service-crash-recovery", "rate(service_recoveries_total) > 0 over 2 samples",
        component="service", severity=SEVERITY_WARNING,
        description="the service restarted from its WAL",
    ),
    SloRule.parse(
        "federation-failover", "rate(federation_failovers_total) > 0 over 2 samples",
        component="federation", severity=SEVERITY_WARNING,
        description="the origin failed over to a promoted mirror",
    ),
    SloRule.parse(
        "federation-fenced-writes",
        "rate(federation_fenced_writes_rejected_total) > 0 over 2 samples",
        component="federation", severity=SEVERITY_CRITICAL,
        description="a demoted origin is still trying to write "
                    "(split-brain attempt fenced off)",
    ),
)


@dataclass
class Alert:
    """One rule transition with a firing/resolved lifecycle."""

    rule: str
    component: str
    severity: str
    value: Optional[float]
    fired_at: float
    state: str = STATE_FIRING
    resolved_at: Optional[float] = None
    expression: str = ""

    @property
    def firing(self) -> bool:
        return self.state == STATE_FIRING

    def describe(self) -> str:
        tail = (
            f"resolved at {self.resolved_at:.3f}s"
            if self.resolved_at is not None
            else f"firing since {self.fired_at:.3f}s"
        )
        value = "-" if self.value is None else f"{self.value:.3f}"
        return (
            f"{self.rule} [{self.severity}] {self.component}: "
            f"{self.expression} (value {value}, {tail})"
        )

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "component": self.component,
            "severity": self.severity,
            "value": self.value,
            "state": self.state,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "expression": self.expression,
        }


class RulesEngine:
    """Evaluates rules on every sample; owns the alert lifecycle."""

    def __init__(
        self,
        sampler,
        rules: Sequence[SloRule] = DEFAULT_RULES,
    ) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise RuleError(f"duplicate rule names: {sorted(names)}")
        self.sampler = sampler
        self.rules: Tuple[SloRule, ...] = tuple(rules)
        self.telemetry = sampler.telemetry
        self._streaks: Dict[str, int] = {r.name: 0 for r in self.rules}
        #: rule name -> currently-firing alert.
        self.active: Dict[str, Alert] = {}
        #: every alert ever fired, in firing order (resolved in place).
        self.history: List[Alert] = []
        self.evaluations = 0
        # (rule, series) prebound: the sampler's series set is fixed at
        # construction, so the per-sample dict lookups can go.
        self._bound = [
            (rule, sampler.series[rule.series])
            for rule in self.rules
            if rule.series in sampler.series
        ]
        sampler.listeners.append(self.on_sample)

    # ------------------------------------------------------------------

    def on_sample(self, sampler, t: float) -> None:
        self.evaluations += 1
        streaks = self._streaks
        for rule, series in self._bound:
            breaching, value = rule.evaluate(series)
            if breaching is None:
                continue   # no data: hold streaks and alert state
            if breaching:
                streaks[rule.name] += 1
                if (
                    streaks[rule.name] >= rule.for_samples
                    and rule.name not in self.active
                ):
                    self._fire(rule, value, t)
            else:
                streaks[rule.name] = 0
                if rule.name in self.active:
                    self._resolve(rule, value, t)

    def _fire(self, rule: SloRule, value: Optional[float], t: float) -> None:
        alert = Alert(
            rule=rule.name, component=rule.component, severity=rule.severity,
            value=value, fired_at=t, expression=rule.render(),
        )
        self.active[rule.name] = alert
        self.history.append(alert)
        self.telemetry.event(
            "alert.firing", rule=rule.name, component=rule.component,
            severity=rule.severity, value=value,
        )
        m = self.telemetry.metrics
        m.counter("controlplane_alerts_fired_total").inc()
        m.gauge("controlplane_alerts_firing").set(len(self.active))

    def _resolve(self, rule: SloRule, value: Optional[float], t: float) -> None:
        alert = self.active.pop(rule.name)
        alert.state = STATE_RESOLVED
        alert.resolved_at = t
        alert.value = value
        self.telemetry.event(
            "alert.resolved", rule=rule.name, component=rule.component,
            severity=rule.severity, value=value,
        )
        m = self.telemetry.metrics
        m.counter("controlplane_alerts_resolved_total").inc()
        m.gauge("controlplane_alerts_firing").set(len(self.active))

    # ------------------------------------------------------------------

    def firing(self) -> List[Alert]:
        return sorted(self.active.values(), key=lambda a: (a.component, a.rule))

    def alert_rows(self) -> List[Tuple]:
        """(rule, component, severity, state, value, fired, resolved)."""
        rows = []
        for alert in self.history:
            rows.append((
                alert.rule, alert.component, alert.severity, alert.state,
                "-" if alert.value is None else f"{alert.value:.3f}",
                f"{alert.fired_at:.3f}",
                "-" if alert.resolved_at is None else f"{alert.resolved_at:.3f}",
            ))
        return rows

    def alerts_text(self) -> str:
        """Latest per-rule alert state, Prometheus exposition style."""
        latest: Dict[str, Alert] = {}
        for alert in self.history:
            latest[alert.rule] = alert
        if not latest:
            return "# (no alerts fired)\n"
        lines = ["# TYPE comtainer_alert gauge"]
        for name in sorted(latest):
            alert = latest[name]
            lines.append(
                f'comtainer_alert{{rule="{alert.rule}",'
                f'component="{alert.component}",'
                f'severity="{alert.severity}"}} '
                f"{1 if alert.firing else 0}"
            )
        return "\n".join(lines) + "\n"


__all__ = [
    "DEFAULT_RULES",
    "KIND_BURN_RATE",
    "KIND_THRESHOLD",
    "SEVERITY_CRITICAL",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "STATE_FIRING",
    "STATE_RESOLVED",
    "Alert",
    "RuleError",
    "RulesEngine",
    "SloRule",
]
