"""Circuit breakers for the service's shared dependencies.

One :class:`CircuitBreaker` guards each dependency every tenant shares —
the origin registry, the rebuild worker fleet, the federation mirrors.
The classic three-state machine runs entirely on the service's simulated
clock (no wall time, deterministic under a seed):

* **closed** — calls flow; ``failure_threshold`` *consecutive* failures
  open the breaker (one success resets the count).
* **open** — calls fail fast with a typed
  :class:`~repro.service.errors.CircuitOpenError` carrying the time
  until half-open; after ``reset_timeout`` simulated seconds the next
  admission check moves the breaker to half-open.
* **half-open** — probe traffic is admitted; ``half_open_successes``
  consecutive successes close the breaker, any failure re-opens it
  (restarting the reset timeout).

Failing fast is itself a degradation tool: the service reacts to an
open breaker by routing around the dependency (local-replica transfer,
redirect-only adaptation, skipped mirror sync) instead of queueing work
behind a dependency that is known-bad.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Tuple, TypeVar

from repro.service.errors import CircuitOpenError
from repro.telemetry import NULL_TELEMETRY, SimulatedClock

T = TypeVar("T")

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Three-state breaker on a simulated clock, with typed fail-fast."""

    def __init__(
        self,
        name: str,
        clock: SimulatedClock,
        failure_threshold: int = 3,
        reset_timeout: float = 180.0,
        half_open_successes: int = 1,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.name = name
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = float(reset_timeout)
        self.half_open_successes = max(1, half_open_successes)
        self.telemetry = telemetry
        self.state = STATE_CLOSED
        self.failures = 0          # consecutive failures while closed
        self.successes = 0         # consecutive successes while half-open
        self.opened_at = 0.0
        self.calls = 0
        self.rejections = 0
        #: Every transition as ``(simulated t, from-state, to-state)``.
        self.transitions: List[Tuple[float, str, str]] = []
        #: Optional transition hook ``listener(name, from, to, t)``, or a
        #: weak reference to one (called while its referent lives); the
        #: durable service writes WAL records (and triggers origin
        #: failover) from here.
        self.listener = None

    # ------------------------------------------------------------------

    def _move(self, state: str) -> None:
        if state == self.state:
            return
        previous = self.state
        self.transitions.append((self.clock.now, previous, state))
        self.telemetry.event(
            "breaker.transition", dependency=self.name,
            from_state=previous, to_state=state, t=self.clock.now,
        )
        self.telemetry.metrics.counter("service_breaker_transitions_total").inc()
        self.state = state
        listener = self.listener
        if isinstance(listener, weakref.ref):
            listener = listener()
        if listener is not None:
            listener(self.name, previous, state, self.clock.now)

    def retry_after(self) -> float:
        """Simulated seconds until an open breaker admits a probe."""
        if self.state != STATE_OPEN:
            return 0.0
        return max(0.0, self.opened_at + self.reset_timeout - self.clock.now)

    def allow(self) -> bool:
        """May a call proceed right now?  (Open -> half-open on timeout.)"""
        if self.state == STATE_OPEN:
            if self.clock.now >= self.opened_at + self.reset_timeout:
                self.successes = 0
                self._move(STATE_HALF_OPEN)
                return True
            return False
        return True

    def record_success(self) -> None:
        if self.state == STATE_HALF_OPEN:
            self.successes += 1
            if self.successes >= self.half_open_successes:
                self.failures = 0
                self._move(STATE_CLOSED)
        else:
            self.failures = 0

    def record_failure(self) -> None:
        if self.state == STATE_HALF_OPEN:
            # The probe failed: straight back to open, timer restarted.
            self.opened_at = self.clock.now
            self._move(STATE_OPEN)
            return
        self.failures += 1
        if self.state == STATE_CLOSED and self.failures >= self.failure_threshold:
            self.opened_at = self.clock.now
            self._move(STATE_OPEN)

    def call(self, fn: Callable[[], T]) -> T:
        """Run *fn* through the breaker (typed fail-fast when open)."""
        self.calls += 1
        if not self.allow():
            self.rejections += 1
            self.telemetry.event("breaker.rejected", dependency=self.name)
            self.telemetry.metrics.counter("service_breaker_rejections_total").inc()
            raise CircuitOpenError(self.name, retry_after=self.retry_after())
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "calls": self.calls,
            "rejections": self.rejections,
            "transitions": [
                {"t": t, "from": a, "to": b} for t, a, b in self.transitions
            ],
        }


__all__ = ["STATE_CLOSED", "STATE_HALF_OPEN", "STATE_OPEN", "CircuitBreaker"]
