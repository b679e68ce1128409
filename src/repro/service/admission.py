"""Admission control: bounded queue, WFQ, priorities, shedding, rates.

The admission layer decides three things about every arriving request,
all on simulated time and all deterministically:

**Whether it enters at all.**  The queue is capacity-bounded.  A full
queue first tries *displacement* — a strictly lower-priority queued
request is evicted (it ends typed-rejected, never silently dropped) to
make room for a higher-priority arrival — and otherwise rejects the
arrival with a typed :class:`~repro.service.errors.ServiceOverloadError`
carrying a retry-after hint.  Per-tenant token buckets
(:class:`TokenBucket`) bound sustained arrival rates before the queue is
even consulted.

**At what service level.**  Under queue pressure low-priority work is
*shed down the ladder* instead of rejected: past ``shed_watermark``
occupancy, batch arrivals are degraded to redirect-only adaptation;
past ``full_watermark``, batch falls to generic and normal to
redirect-only.  High-priority arrivals always request the full rebuild.
(The ladder's ``partial`` rung is not an admission choice — it emerges
from per-node fallback during a full rebuild.)

**In what order it leaves.**  Dequeue order is priority class first
(high, normal, batch), then weighted-fair across tenants within a
class: the eligible request of the tenant with the least *virtual time*
(accumulated service seconds / weight) goes next, FIFO within a tenant.
A noisy tenant at 10x fair load therefore delays its own backlog, not
its neighbours'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.resilience.degrade import RUNG_FULL, RUNG_GENERIC, RUNG_REDIRECT_ONLY
from repro.service.errors import ServiceOverloadError
from repro.telemetry import NULL_TELEMETRY

PRIORITY_HIGH = "high"
PRIORITY_NORMAL = "normal"
PRIORITY_BATCH = "batch"

#: Dispatch-order priority classes, best first.
PRIORITY_ORDER = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_BATCH)

_PRIORITY_RANK = {p: i for i, p in enumerate(PRIORITY_ORDER)}


def priority_rank(priority: str) -> int:
    """Smaller is better; unknown priorities sort as batch."""
    return _PRIORITY_RANK.get(priority, len(PRIORITY_ORDER) - 1)


#: The service levels admission grants are the degradation ladder's
#: rungs: a request's mode is the rung its adaptation starts at.
MODE_FULL = RUNG_FULL
MODE_REDIRECT_ONLY = RUNG_REDIRECT_ONLY
MODE_GENERIC = RUNG_GENERIC

#: The load-shedding ladder: how far an admitted request is degraded
#: before the service starts rejecting outright.
SHED_LADDER = (RUNG_FULL, RUNG_REDIRECT_ONLY, RUNG_GENERIC)


@dataclass
class TokenBucket:
    """Per-tenant rate limit on the simulated clock.

    *rate* tokens refill per simulated second up to *burst*; each
    admission takes one token.  ``retry_after`` quotes the deficit in
    simulated seconds, which the typed overload error carries back.
    """

    rate: float
    burst: float
    tokens: float = field(default=-1.0)
    updated: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("token bucket rate must be positive")
        if self.burst < 1:
            raise ValueError("token bucket burst must be >= 1")
        if self.tokens < 0:
            self.tokens = self.burst

    def _refill(self, now: float) -> None:
        if now > self.updated:
            self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = max(self.updated, now)

    def try_take(self, now: float) -> bool:
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after(self, now: float) -> float:
        """Simulated seconds until one token is available."""
        self._refill(now)
        if self.tokens >= 1.0:
            return 0.0
        return (1.0 - self.tokens) / self.rate


class AdmissionQueue:
    """The bounded, priority- and fairness-aware wait queue."""

    def __init__(
        self,
        capacity: int = 32,
        shed_watermark: float = 0.75,
        full_watermark: float = 0.9,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if not 0.0 < shed_watermark <= full_watermark <= 1.0:
            raise ValueError(
                "need 0 < shed_watermark <= full_watermark <= 1"
            )
        self.capacity = capacity
        self.shed_watermark = shed_watermark
        self.full_watermark = full_watermark
        self.telemetry = telemetry
        self._items: List = []
        self.admitted = 0
        self.displaced = 0
        self.rejected = 0
        self.shed = 0
        self.peak_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    def occupancy(self) -> float:
        return len(self._items) / self.capacity

    # ------------------------------------------------------------------

    def _shed_mode(self, priority: str) -> str:
        """The service level the current occupancy grants *priority*."""
        occupancy = self.occupancy()
        if occupancy < self.shed_watermark or priority == PRIORITY_HIGH:
            return RUNG_FULL
        if occupancy < self.full_watermark:
            return RUNG_REDIRECT_ONLY if priority == PRIORITY_BATCH else RUNG_FULL
        return RUNG_GENERIC if priority == PRIORITY_BATCH else RUNG_REDIRECT_ONLY

    def _displaceable(self, arriving_rank: int):
        """Worst strictly-lower-priority queued request (newest last)."""
        worst = None
        for item in self._items:
            rank = priority_rank(item.priority)
            if rank <= arriving_rank:
                continue
            if worst is None or (rank, item.seq) > (
                priority_rank(worst.priority), worst.seq
            ):
                worst = item
        return worst

    def admit(self, request, retry_after: float = 0.0):
        """Admit *request*; returns the displaced request (usually None).

        Sets ``request.mode`` to the shed-ladder level the current
        occupancy grants.  Raises :class:`ServiceOverloadError` when the
        queue is full and nothing displaceable is queued.  A displaced
        request is *returned*, not dropped — the caller owes it a typed
        rejection outcome.
        """
        displaced = None
        if len(self._items) >= self.capacity:
            displaced = self._displaceable(priority_rank(request.priority))
            if displaced is None:
                self.rejected += 1
                self.telemetry.metrics.counter("service_queue_rejections_total").inc()
                raise ServiceOverloadError(
                    request.tenant, "queue-full", retry_after=retry_after
                )
            self._items.remove(displaced)
            self.displaced += 1
        request.mode = self._shed_mode(request.priority)
        if request.mode != RUNG_FULL:
            request.shed = True
            self.shed += 1
        self._items.append(request)
        self.admitted += 1
        self.peak_depth = max(self.peak_depth, len(self._items))
        return displaced

    def restore(self, request) -> None:
        """Re-queue an already-admitted request (single-flight followers).

        Bypasses capacity and shedding on purpose: the request was
        admitted once and its service level is already decided.
        """
        self._items.append(request)
        self.peak_depth = max(self.peak_depth, len(self._items))

    def pop_next(self, key_fn: Callable, eligible_fn: Callable) -> Optional[object]:
        """Remove and return the best eligible request, or None.

        *key_fn* maps a request to its dispatch key (smaller wins);
        *eligible_fn* gates on resources (tenant bulkhead, worker pool).
        A linear scan keeps the structure trivial and the ordering exact;
        queue depths are bounded by ``capacity``.
        """
        best = None
        best_key = None
        for item in self._items:
            if not eligible_fn(item):
                continue
            key = key_fn(item)
            if best_key is None or key < best_key:
                best, best_key = item, key
        if best is not None:
            self._items.remove(best)
        return best

    def expire(self, predicate: Callable) -> List:
        """Remove and return every queued request matching *predicate*."""
        expired = [item for item in self._items if predicate(item)]
        for item in expired:
            self._items.remove(item)
        return expired

    def snapshot(self) -> dict:
        return {
            "depth": len(self._items),
            "capacity": self.capacity,
            "occupancy": self.occupancy(),
            "admitted": self.admitted,
            "displaced": self.displaced,
            "rejected": self.rejected,
            "shed": self.shed,
            "peak_depth": self.peak_depth,
        }


__all__ = [
    "MODE_FULL",
    "MODE_GENERIC",
    "MODE_REDIRECT_ONLY",
    "PRIORITY_BATCH",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PRIORITY_ORDER",
    "SHED_LADDER",
    "AdmissionQueue",
    "TokenBucket",
    "priority_rank",
]
