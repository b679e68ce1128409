"""Retry with exponential backoff on a simulated clock.

Real HPC build services sleep between attempts; the reproduction must not
(tier-1 runs in seconds), so backoff is charged to a
:class:`~repro.telemetry.SimulatedClock` instead of ``time.sleep``.  The
clock doubles as the resilience layer's notion of elapsed time: reports
quote ``clock.now`` as the simulated cost of the recovery.

Classification is type-based, not string-based: an exception is retryable
iff its class carries a truthy ``transient`` attribute
(:class:`repro.oci.registry.TransientTransferError`,
:class:`repro.resilience.faults.TransientFault`).  Everything else —
genuine compile failures, corrupted caches, persistent faults — is fatal
to the attempt and handled by the degradation ladder.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TypeVar

from repro.telemetry import NULL_TELEMETRY, SimulatedClock
from repro.telemetry.metrics import ATTEMPT_BUCKETS, metric_site

T = TypeVar("T")

logger = logging.getLogger("repro.resilience.retry")


class RetryBudgetExhausted(Exception):
    """The retry budget ran out before the operation succeeded."""


#: Exhaustion causes: the attempt cap was the binding constraint vs. the
#: simulated-time budget running out first.  Distinct causes get distinct
#: ``metric_site`` instrument rows — an operator tunes ``max_attempts``
#: for the one and ``budget_seconds`` for the other.
CAUSE_ATTEMPTS = "attempts"
CAUSE_BUDGET = "budget"


@dataclass
class RetryPolicy:
    """Exponential backoff with jitter, an attempt cap and a time budget."""

    max_attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.25          # +/- fraction of the nominal delay
    budget_seconds: float = 300.0  # total simulated sleep per operation

    def delay_for(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        delay = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


@dataclass
class RetryStats:
    """Retry bookkeeping, aggregated per site for the resilience report.

    *scope* attributes the spend to one tenant/request of the adaptation
    service (empty for standalone sessions); :meth:`merge` folds scoped
    per-request stats into a tenant- or service-wide aggregate, so retry
    budget accounting stays attributable end to end.
    """

    retries: Dict[str, int] = field(default_factory=dict)
    exhausted: List[str] = field(default_factory=list)
    #: ``tenant/request`` (or any caller-chosen label) this spend belongs to.
    scope: str = ""
    #: Simulated backoff seconds charged per site.
    spend: Dict[str, float] = field(default_factory=dict)
    #: ``(site, cause)`` of each exhaustion, in order (parallel to
    #: ``exhausted``; cause is CAUSE_ATTEMPTS or CAUSE_BUDGET).
    exhaustion_causes: List[tuple] = field(default_factory=list)

    def note_retry(self, site: str, delay: float = 0.0) -> None:
        self.retries[site] = self.retries.get(site, 0) + 1
        if delay:
            self.spend[site] = self.spend.get(site, 0.0) + delay

    def note_exhausted(self, site: str, cause: str = CAUSE_ATTEMPTS) -> None:
        self.exhausted.append(site)
        self.exhaustion_causes.append((site, cause))

    def exhausted_by_site(self) -> Dict[str, int]:
        """Exhaustion counts keyed on site (the report-table view of the
        per-site ``resilience_retry_exhaustion_attempts_*`` histograms)."""
        out: Dict[str, int] = {}
        for site in self.exhausted:
            out[site] = out.get(site, 0) + 1
        return out

    def exhausted_by_cause(self) -> Dict[str, int]:
        """Exhaustion counts keyed ``site/cause`` — attempt-cap and
        time-budget exhaustions reported as distinct rows."""
        out: Dict[str, int] = {}
        for site, cause in self.exhaustion_causes:
            key = f"{site}/{cause}"
            out[key] = out.get(key, 0) + 1
        return out

    def merge(self, other: "RetryStats") -> None:
        """Fold *other* (a scoped per-request stats) into this aggregate."""
        for site, count in other.retries.items():
            self.retries[site] = self.retries.get(site, 0) + count
        for site, seconds in other.spend.items():
            self.spend[site] = self.spend.get(site, 0.0) + seconds
        self.exhausted.extend(other.exhausted)
        self.exhaustion_causes.extend(other.exhaustion_causes)

    @property
    def total_spend(self) -> float:
        return sum(self.spend.values())


def is_transient(exc: BaseException) -> bool:
    """True when *exc* is worth retrying (typed, not string-matched)."""
    return bool(getattr(exc, "transient", False))


def retry_call(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    clock: SimulatedClock,
    rng: Optional[random.Random] = None,
    stats: Optional[RetryStats] = None,
    site: str = "op",
    telemetry=NULL_TELEMETRY,
) -> T:
    """Run *fn*, retrying transient failures under *policy*.

    Fatal (non-transient) errors propagate immediately.  When attempts or
    the simulated-time budget run out, the last transient error propagates
    so the caller's degradation logic sees the real cause.  Each retry
    lands a ``retry.attempt`` event on *telemetry*'s active span and the
    backoff delay is charged to its trace clock.
    """
    spent = 0.0
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except Exception as exc:
            if not is_transient(exc):
                raise
            delay = policy.delay_for(attempt, rng)
            out_of_attempts = attempt + 1 >= policy.max_attempts
            out_of_budget = spent + delay > policy.budget_seconds
            if out_of_attempts or out_of_budget:
                cause = CAUSE_ATTEMPTS if out_of_attempts else CAUSE_BUDGET
                if stats is not None:
                    stats.note_exhausted(site, cause=cause)
                telemetry.event("retry.exhausted", site=site,
                                attempts=attempt + 1, cause=cause,
                                error=str(exc))
                telemetry.metrics.counter("resilience_retries_exhausted_total").inc()
                telemetry.metrics.counter(
                    f"resilience_retries_exhausted_{cause}_total").inc()
                # Per-site-and-cause exhaustion histogram: which sites
                # burn out, after how many attempts, and whether the
                # attempt cap or the time budget was the binding
                # constraint (they are tuned independently).
                telemetry.metrics.histogram(
                    "resilience_retry_exhaustion_attempts_"
                    + metric_site(site) + "_" + cause,
                    buckets=ATTEMPT_BUCKETS,
                ).observe(attempt + 1)
                logger.warning("retry %s exhausted at %s after %d attempts",
                               cause, site, attempt + 1)
                raise
            clock.sleep(delay)
            spent += delay
            if stats is not None:
                stats.note_retry(site, delay=delay)
            telemetry.event("retry.attempt", site=site,
                            attempt=attempt + 1, delay=delay, error=str(exc))
            telemetry.metrics.counter("resilience_retries_total").inc()
            telemetry.charge(delay)
            logger.info("transient failure at %s (attempt %d): %s; "
                        "backing off %.2fs", site, attempt + 1, exc, delay)
    raise RetryBudgetExhausted(site)   # unreachable; loop always returns/raises
