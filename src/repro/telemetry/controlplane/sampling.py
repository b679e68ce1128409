"""Time-series sampling of the metrics registry on simulated time.

A :class:`TimeSeriesSampler` turns the point-in-time metrics registry
into bounded ring-buffer *series*: every ``cadence`` simulated seconds
it snapshots a fixed set of :class:`SeriesSpec` readings — direct
instrument scalars plus derived rates (fleet utilization, cache hit
ratio, mirror staleness, retry-exhaustion ratio).

The sampler keeps no time of its own: it reads its recorder's clock
(``telemetry.clock``), the one spans, events and the cost profiler read,
so samples and alerts sit on the spans' axis.  Nothing feeds it:
:meth:`~repro.telemetry.Telemetry.charge`, the one way simulated cost
(rebuild wave makespans, retry backoff, workload runs, mirror transfers)
enters the recorder, calls :meth:`TimeSeriesSampler.poll`, which takes
the samples due at each cadence boundary the clock has crossed since
the sampler was built.  Samples are in time order and deterministic for
a given run (no wall time anywhere, same rule as the rest of the
telemetry substrate).

A reading can be ``None`` — the instrument does not exist yet, or a
ratio's denominator is zero.  ``None`` means *no data*, not zero: the
rules engine skips such samples instead of alerting on a cold start.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import Histogram

#: Default sampling cadence (simulated seconds between samples).
DEFAULT_CADENCE = 5.0

#: Default per-series ring capacity (samples retained).
DEFAULT_CAPACITY = 512

#: Ceiling on samples emitted by a single :meth:`TimeSeriesSampler.poll`:
#: one huge time jump (a long retry-backoff budget, a giant transfer)
#: must not emit thousands of identical samples.  Skipped ticks are
#: counted.
MAX_CATCHUP = 128


@dataclass(frozen=True)
class Sample:
    """One reading: recorder-clock seconds and the value (or None)."""

    t: float
    value: Optional[float]


class Series:
    """A bounded ring of :class:`Sample` readings for one series name.

    Internally two parallel deques (timestamps, values): an append on
    the sampling hot path is two deque pushes, and :class:`Sample`
    objects only materialise when a reader asks for them.
    """

    __slots__ = ("name", "capacity", "_t", "_v", "_nonnull")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        self.name = name
        self.capacity = max(1, int(capacity))
        self._t: deque = deque(maxlen=self.capacity)
        self._v: deque = deque(maxlen=self.capacity)
        # Live count of non-None readings: an instrument that never
        # springs into existence keeps its series all-None, and the
        # burn-rate walk must not rescan a full ring of gaps per sample.
        self._nonnull = 0

    def append(self, t: float, value: Optional[float]) -> None:
        values = self._v
        if len(values) == self.capacity and values[0] is not None:
            self._nonnull -= 1
        self._t.append(t)
        values.append(value)
        if value is not None:
            self._nonnull += 1

    def latest(self) -> Optional[Sample]:
        if not self._t:
            return None
        return Sample(t=self._t[-1], value=self._v[-1])

    def latest_value(self) -> Optional[float]:
        """Newest reading; ``None`` for both *empty* and *no data*."""
        return self._v[-1] if self._v else None

    def values(self) -> List[Optional[float]]:
        return list(self._v)

    def nonnull_tail_values(self, count: int) -> List[float]:
        """Last *count* non-None values, oldest first (fewer if scarce).

        A backwards walk: burn-rate rules only ever need the newest
        ``window + 1`` readings, so this stays O(window) no matter how
        full the ring is.
        """
        if not self._nonnull:
            return []
        want = min(count, self._nonnull)
        out: List[float] = []
        for v in reversed(self._v):
            if v is not None:
                out.append(v)
                if len(out) == want:
                    break
        out.reverse()
        return out

    def tail(self, n: int) -> List[Sample]:
        if n <= 0:
            return []
        return [Sample(t=t, value=v)
                for t, v in zip(list(self._t)[-n:], list(self._v)[-n:])]

    def __len__(self) -> int:
        return len(self._t)

    def __iter__(self) -> Iterator[Sample]:
        return (Sample(t=t, value=v) for t, v in zip(self._t, self._v))


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    if denominator <= 0:
        return None
    return numerator / denominator


def _instrument_value(metrics, name: str) -> Optional[float]:
    """Scalar of an instrument, ``None`` when it was never created."""
    instrument = metrics.get(name)
    if instrument is None:
        return None
    if isinstance(instrument, Histogram):
        return instrument.sum
    return instrument.value


def _fleet_utilization(metrics) -> Optional[float]:
    # Per-wave utilization when the fleet has reported one; the
    # schedule-level figure otherwise (set once per rebuild).
    value = _instrument_value(metrics, "fleet_wave_utilization")
    if value is not None:
        return value
    return _instrument_value(metrics, "rebuild_worker_utilization")


def _cache_hit_ratio(metrics) -> Optional[float]:
    hits = metrics.value("rebuild_artifact_cache_hits_total")
    misses = metrics.value("rebuild_artifact_cache_misses_total")
    return _ratio(hits, hits + misses)


def _mirror_staleness(metrics) -> Optional[float]:
    return _instrument_value(metrics, "federation_max_generations_behind")


def _retry_exhaustion_ratio(metrics) -> Optional[float]:
    retries = metrics.value("resilience_retries_total")
    exhausted = metrics.value("resilience_retries_exhausted_total")
    return _ratio(exhausted, retries)


@dataclass(frozen=True)
class SeriesSpec:
    """What one series samples: a raw instrument or a derived reading."""

    name: str
    metric: Optional[str] = None
    derive: Optional[Callable] = None
    description: str = ""

    def read(self, metrics) -> Optional[float]:
        return self.reader()(metrics)

    def reader(self) -> Callable:
        """The reading as a single callable of the metrics registry."""
        if self.derive is not None:
            return self.derive
        if self.metric is None:
            return lambda metrics: None
        name = self.metric
        return lambda metrics: _instrument_value(metrics, name)


#: The built-in series: the derived rates the SLO rules need, plus the
#: raw counters/gauges their burn-rate forms difference over.
DEFAULT_SERIES: Tuple[SeriesSpec, ...] = (
    SeriesSpec("fleet_utilization", derive=_fleet_utilization,
               description="busy seconds / (makespan * workers), per wave"),
    SeriesSpec("cache_hit_ratio", derive=_cache_hit_ratio,
               description="artifact-cache hits / lookups"),
    SeriesSpec("mirror_generations_behind", derive=_mirror_staleness,
               description="max origin generations any mirror lags"),
    SeriesSpec("retry_exhaustion_ratio", derive=_retry_exhaustion_ratio,
               description="exhausted retry budgets / retries"),
    SeriesSpec("fleet_workers_alive", metric="fleet_workers_alive"),
    SeriesSpec("fleet_blacklisted_workers", metric="fleet_blacklisted_workers"),
    SeriesSpec("fleet_worker_crashes_total", metric="fleet_worker_crashes_total"),
    SeriesSpec("resilience_retries_exhausted_total",
               metric="resilience_retries_exhausted_total"),
    SeriesSpec("rebuild_nodes_failed_total", metric="rebuild_nodes_failed_total"),
    SeriesSpec("federation_sync_failures_total",
               metric="federation_sync_failures_total"),
    SeriesSpec("rebuild_schedule_wavefronts",
               metric="rebuild_schedule_wavefronts"),
    # Adaptation-service tier (absent — all-None — outside `serve` runs).
    SeriesSpec("service_queue_depth", metric="service_queue_depth"),
    SeriesSpec("service_queue_occupancy", metric="service_queue_occupancy",
               description="admission queue depth / capacity"),
    SeriesSpec("service_workers_in_use", metric="service_workers_in_use"),
    SeriesSpec("service_breakers_open", metric="service_breakers_open",
               description="circuit breakers currently open"),
    SeriesSpec("service_requests_rejected_total",
               metric="service_requests_rejected_total"),
    SeriesSpec("service_requests_deadline_total",
               metric="service_requests_deadline_total"),
    SeriesSpec("service_dedup_ratio", metric="service_dedup_ratio",
               description="rebuild node-work served from the shared cache"),
    # Durability tier (absent outside durable serve / federation runs).
    SeriesSpec("service_wal_records_total",
               metric="service_wal_records_total"),
    SeriesSpec("service_wal_open_requests",
               metric="service_wal_open_requests",
               description="admitted requests without a terminal WAL "
                           "record yet (restart exposure)"),
    SeriesSpec("service_recoveries_total",
               metric="service_recoveries_total"),
    SeriesSpec("federation_failovers_total",
               metric="federation_failovers_total"),
    SeriesSpec("federation_fenced_writes_rejected_total",
               metric="federation_fenced_writes_rejected_total"),
)


class TimeSeriesSampler:
    """Cadence-driven snapshots of the registry into bounded series."""

    def __init__(
        self,
        telemetry,
        cadence: float = DEFAULT_CADENCE,
        capacity: int = DEFAULT_CAPACITY,
        specs: Sequence[SeriesSpec] = DEFAULT_SERIES,
        max_catchup: int = MAX_CATCHUP,
    ) -> None:
        if cadence <= 0:
            raise ValueError(f"sampler cadence must be positive, got {cadence}")
        self.telemetry = telemetry
        self.cadence = float(cadence)
        self.specs: Tuple[SeriesSpec, ...] = tuple(specs)
        self.series: Dict[str, Series] = {
            spec.name: Series(spec.name, capacity=capacity)
            for spec in self.specs
        }
        self.max_catchup = max(1, int(max_catchup))
        # (series, reader) pairs prebound for the sampling hot path.
        self._sampled = [(self.series[spec.name], spec.reader())
                         for spec in self.specs]
        self._next_due = telemetry.clock.now + self.cadence
        self.samples_taken = 0
        self.samples_skipped = 0
        #: Called after each sample: ``listener(sampler, t)``.  The rules
        #: engine registers itself here.
        self.listeners: List[Callable] = []

    def poll(self) -> int:
        """Take the samples due by the recorder's clock; returns how many."""
        now = self.telemetry.clock.now
        emitted = 0
        while self._next_due <= now and emitted < self.max_catchup:
            self._sample_at(self._next_due)
            self._next_due += self.cadence
            emitted += 1
        if self._next_due <= now:
            # One jump crossed more cadence boundaries than the catch-up
            # budget: count the skipped ticks and realign to the future.
            skipped = int((now - self._next_due) // self.cadence) + 1
            self.samples_skipped += skipped
            self._next_due += skipped * self.cadence
        return emitted

    def force_sample(self) -> None:
        """Take one sample at the recorder's clock unconditionally.

        Used by :meth:`ControlPlane.finalize`: a fully-cached adaptation
        can charge (almost) zero simulated time, and the rules must
        still evaluate at least once per run.
        """
        self._sample_at(self.telemetry.clock.now)

    # ------------------------------------------------------------------

    def _sample_at(self, t: float) -> None:
        metrics = self.telemetry.metrics
        for series, read in self._sampled:
            series.append(t, read(metrics))
        self.samples_taken += 1
        for listener in self.listeners:
            listener(self, t)


__all__ = [
    "DEFAULT_CADENCE",
    "DEFAULT_CAPACITY",
    "DEFAULT_SERIES",
    "MAX_CATCHUP",
    "Sample",
    "Series",
    "SeriesSpec",
    "TimeSeriesSampler",
]
