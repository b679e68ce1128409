"""Hierarchical spans and the structured event log.

The telemetry substrate mirrors how the paper attributes adaptation cost
per pipeline stage (frontend recording, rebuild, redirect — Figures 9-11,
Tables 2-3): every stage opens a **span**, spans nest into a tree, and
cross-cutting layers (resilience, fault injection) attach **events** to
whatever span is active.

Time is simulated: tier-1 must run in seconds, so nothing ever calls
``time.time``.  This module provides the one clock class,
:class:`SimulatedClock`; the service, the worker fleet, the sync engine
and retry backoff each run one, and every recorder keeps its own.  Every
structural event (span start/end, event emission) steps the recorder's
clock by one tick so ordering is strict and durations are non-zero;
operations that know their simulated cost (rebuild wave makespans, retry
backoff, workload runs, mirror transfers) add it via
:meth:`Telemetry.charge`, which is what makes the exported traces show
*where the simulated seconds went*.  Spans, events, the control plane's
samples and alerts and its cost profile all read that one clock:
``charge`` is also where an installed control plane samples.

:class:`NullTelemetry` is the default everywhere and the one off switch:
it takes every call and every span write a :class:`Telemetry` takes and
records nothing, so instrumented code calls its recorder unconditionally
and no site checks ``enabled``.  Untraced runs stay byte-identical.

Both logs are bounded, so a recorder that lives as long as a service
holds a fixed amount of history: the event log keeps the newest
:data:`EVENT_LOG_CAP` events and the span log the newest
:data:`SPAN_ROOT_CAP` root spans with their subtrees.  A write at the
cap is O(1), and what falls off the old end is counted
(:attr:`Telemetry.events_dropped`, :attr:`Telemetry.spans_dropped`) so
``health`` can say the history is partial.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from repro.telemetry.metrics import MetricsRegistry, NullMetricsRegistry

logger = logging.getLogger("repro.telemetry")

#: Clock advance per structural event (span start/end, event emission).
CLOCK_TICK = 1e-6

#: The central event log is bounded; a traced chaos sweep can arm fault
#: sites thousands of times and must not grow memory without bound.
EVENT_LOG_CAP = 65536

#: Root spans kept, each with its whole subtree.  A root is appended only
#: while no span is open, so every root older than it has finished and
#: only finished trees are ever dropped.  (The service opens about 6.4
#: spans per root, so 8,192 roots come to about 52k spans.)
SPAN_ROOT_CAP = 8192

STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass
class SimulatedClock:
    """Monotonic simulated time: ``sleep`` advances instead of blocking,
    and ``step`` advances one :attr:`tick` (a recorder's span boundaries
    and events)."""

    now: float = 0.0
    tick: float = CLOCK_TICK

    def sleep(self, seconds: float) -> None:
        self.now += seconds

    def step(self) -> float:
        self.now += self.tick
        return self.now


@dataclass
class Event:
    """One structured log entry, attributed to the span it occurred in."""

    ts: float
    name: str
    span_id: Optional[int] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "ts": self.ts,
            "name": self.name,
            "span_id": self.span_id,
            "attributes": dict(self.attributes),
        }


@dataclass
class Span:
    """One timed pipeline stage, with attributes, status and children."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    status: str = STATUS_OK
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [c.to_json() for c in self.children],
        }


class _SpanContext:
    """Context manager for one span; error status is set on exception."""

    __slots__ = ("_telemetry", "_span")

    def __init__(self, telemetry: "Telemetry", span: Span) -> None:
        self._telemetry = telemetry
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self._span.status = STATUS_ERROR
            self._span.attributes.setdefault("error", str(exc))
        self._telemetry.end_span(self._span)
        return False


class Telemetry:
    """An active recorder: span tree + metrics registry + event log."""

    #: Read only where code needs a live recorder (the service measures
    #: request cost on its clock; a control plane refuses the null one),
    #: never to skip instrumentation.
    enabled = True

    #: The observability control plane attached to this recorder, if any
    #: (:class:`repro.telemetry.controlplane.ControlPlane` installs
    #: itself here); :meth:`charge` lets its sampler sample.
    controlplane = None
    #: Span-boundary cost profiler (also installed by the control plane).
    profiler = None

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock or SimulatedClock()
        self.metrics = MetricsRegistry()
        self.roots: Deque[Span] = deque(maxlen=SPAN_ROOT_CAP)
        self.events: Deque[Event] = deque(maxlen=EVENT_LOG_CAP)
        #: Events and spans (a dropped root counts its whole subtree) that
        #: fell off the old end of their bounded logs.
        self.events_dropped = 0
        self.spans_dropped = 0
        self._stack: List[Span] = []
        self._ids = itertools.count(1)

    # -- spans ----------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, **attributes: object) -> Span:
        parent = self.current
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            start=self.clock.step(),
            attributes=attributes,
        )
        if parent is not None:
            parent.children.append(span)
        else:
            if len(self.roots) == SPAN_ROOT_CAP:
                self.spans_dropped += sum(1 for _ in _depth_first(self.roots[0]))
            self.roots.append(span)
        self._stack.append(span)
        if self.profiler is not None:
            self.profiler.enter(span, span.start)
        return span

    def end_span(self, span: Span, status: Optional[str] = None) -> None:
        if status is not None:
            span.status = status
        span.end = self.clock.step()
        if self.profiler is not None:
            self.profiler.exit(span, span.end)
        # Tolerate mis-nested ends (an abandoned child after an exception):
        # pop everything above the span being ended.
        while self._stack and self._stack[-1] is not span:
            dangling = self._stack.pop()
            if dangling.end is None:
                dangling.end = span.end
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        logger.debug("span %s (%s) %.6fs", span.name, span.status, span.duration)

    def span(self, name: str, **attributes: object) -> _SpanContext:
        return _SpanContext(self, self.start_span(name, **attributes))

    # -- events and time ------------------------------------------------

    def event(self, name: str, **attributes: object) -> Optional[Event]:
        current = self.current
        evt = Event(
            ts=self.clock.step(),
            name=name,
            span_id=current.span_id if current is not None else None,
            attributes=attributes,
        )
        if len(self.events) == EVENT_LOG_CAP:
            self.events_dropped += 1
        self.events.append(evt)
        return evt

    def charge(self, seconds: float) -> None:
        """Attribute *seconds* of simulated time to the active span.

        The one way simulated cost enters the recorder, so an installed
        control plane's sampler takes here every sample the charge made
        due.
        """
        if seconds > 0.0:
            self.clock.sleep(seconds)
            if self.controlplane is not None:
                self.controlplane.sampler.poll()

    # -- introspection ---------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        """All spans, depth-first in start order."""
        return _depth_first(*self.roots)

    def find_spans(self, name: str) -> List[Span]:
        return [s for s in self.iter_spans() if s.name == name]

    def events_for(self, span: Span) -> List[Event]:
        return [e for e in self.events if e.span_id == span.span_id]

    def reset(self) -> None:
        self.roots.clear()
        self.events.clear()
        self.events_dropped = 0
        self.spans_dropped = 0
        self._stack.clear()
        self.metrics = MetricsRegistry()
        self.clock = SimulatedClock()
        # A fresh clock invalidates any attached control plane's marks.
        self.controlplane = None
        self.profiler = None


def _depth_first(*roots: Span) -> Iterator[Span]:
    """Every span of the *roots*' trees, depth-first in start order."""
    stack = list(reversed(roots))
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.children))


class _NullSpan:
    """Shared inert span: accepts writes, records nothing."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    children: List[Span] = []

    @property
    def status(self) -> str:
        return STATUS_OK

    @status.setter
    def status(self, value: str) -> None:
        pass

    def set(self, key: str, value: object) -> None:
        pass


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTelemetry:
    """The default no-op recorder: same surface, nothing stored."""

    enabled = False
    current = None
    controlplane = None
    profiler = None
    events_dropped = 0
    spans_dropped = 0

    def __init__(self) -> None:
        self.metrics = NullMetricsRegistry()
        self.roots: List[Span] = []
        self.events: List[Event] = []

    def start_span(self, name: str, **attributes: object) -> _NullSpan:
        return _NULL_SPAN

    def end_span(self, span, status: Optional[str] = None) -> None:
        pass

    def span(self, name: str, **attributes: object) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def event(self, name: str, **attributes: object) -> None:
        return None

    def charge(self, seconds: float) -> None:
        pass

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def find_spans(self, name: str) -> List[Span]:
        return []

    def events_for(self, span) -> List[Event]:
        return []

    def reset(self) -> None:
        pass


#: The process-wide default telemetry sink; installed on every engine,
#: registry and blob store until a real :class:`Telemetry` replaces it.
NULL_TELEMETRY = NullTelemetry()
