"""End-to-end telemetry: spans, metrics, events and their exporters.

See ``docs/OBSERVABILITY.md`` for the span model, the metric name
catalogue and the export formats.  Installation mirrors the resilience
layer: substrates (engines, registries, blob stores) carry a
``telemetry`` attribute that defaults to the shared no-op
:data:`NULL_TELEMETRY`; :func:`install_telemetry` swaps a live recorder
in and :func:`uninstall_telemetry` restores the default.
"""

from repro.telemetry.controlplane import (
    DEFAULT_RULES,
    Alert,
    ControlPlane,
    CostProfiler,
    HealthReport,
    RulesEngine,
    SloRule,
    TimeSeriesSampler,
    install_controlplane,
    score_health,
)
from repro.telemetry.export import (
    chrome_trace,
    chrome_trace_json,
    prometheus_text,
    render_span_tree,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.telemetry.spans import (
    EVENT_LOG_CAP,
    SPAN_ROOT_CAP,
    NULL_TELEMETRY,
    Event,
    NullTelemetry,
    SimulatedClock,
    Span,
    Telemetry,
)


def install_telemetry(telemetry, registry=None, engines=()) -> None:
    """Attach a recorder to a registry (and its blob store) and engines.

    Passing a :class:`NullTelemetry` is equivalent to uninstalling.
    """
    if registry is not None:
        registry.telemetry = telemetry
        registry.blobs.telemetry = telemetry
    for engine in engines:
        engine.telemetry = telemetry
        if engine.fault_injector is not None:
            engine.fault_injector.telemetry = telemetry


def uninstall_telemetry(registry=None, engines=()) -> None:
    """Restore the no-op default on a registry and engines."""
    install_telemetry(NULL_TELEMETRY, registry=registry, engines=engines)


__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_RULES",
    "EVENT_LOG_CAP",
    "SPAN_ROOT_CAP",
    "NULL_TELEMETRY",
    "Alert",
    "ControlPlane",
    "CostProfiler",
    "Counter",
    "Event",
    "Gauge",
    "HealthReport",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullTelemetry",
    "RulesEngine",
    "SimulatedClock",
    "SloRule",
    "Span",
    "Telemetry",
    "TimeSeriesSampler",
    "chrome_trace",
    "chrome_trace_json",
    "install_controlplane",
    "install_telemetry",
    "prometheus_text",
    "render_span_tree",
    "score_health",
    "uninstall_telemetry",
]
