"""The multi-tenant adaptation service: one shared system side, many users.

An HPC centre runs *one* adaptation pipeline and every research group
(tenant) submits extended images to it.  :class:`AdaptationService`
wraps the single-session workflow of :mod:`repro.core.workflow` in the
server-side machinery such a deployment needs, all on a **pure
timeline**: a discrete-event loop over one
:class:`~repro.telemetry.SimulatedClock`, zero wall-clock
anywhere, deterministic under a seed.  Faults and load reshape *when*
things finish, never *what bytes* they produce — the same invariant the
rest of the reproduction holds.

The moving parts, each its own module:

* admission (:mod:`repro.service.admission`) — bounded queue, priority
  classes, weighted-fair queuing across tenants, token-bucket rate
  limits, watermark-based load shedding down the degradation ladder
  (full -> redirect-only -> generic) and displacement before a typed
  :class:`~repro.service.errors.ServiceOverloadError`.  A shed request
  enters :func:`~repro.resilience.adapt_with_resilience` at the rung
  it was granted, so it walks the same ladder a full request descends.
* bulkheads — per-tenant caps on concurrent rebuild fleet workers plus
  a global worker pool: a tenant can exhaust its own compartment, never
  the ship.
* circuit breakers (:mod:`repro.service.breaker`) — around the origin
  registry, the worker fleet and the federation mirrors; an open
  breaker routes around the dependency (local-replica transfer,
  redirect-only adaptation, skipped mirror sync) instead of queueing
  behind it.
* deadlines — a request's remaining budget is threaded into the rebuild
  (``--deadline``); a blown budget is a clean typed cancellation with
  the journal resumable, and queued requests whose deadline expires are
  cancelled before ever starting.
* retry budgets — each request runs under its own scoped
  :class:`~repro.resilience.retry.RetryStats`, merged into per-tenant
  aggregates; a tenant's simulated-backoff budget caps how much retry
  time its requests may burn service-wide.
* shared artifact cache
  (:class:`~repro.core.cache.artifacts.SharedArtifactCache`) — one
  capacity-bounded LRU pool of compile outputs across all tenants, with
  single-flight dedup: concurrent identical rebuild work runs once, the
  followers re-dispatch against the leader-warmed pool.
* durability (:mod:`repro.service.wal`) — every state transition is
  appended to a write-ahead log; :meth:`AdaptationService.restart`
  replays it after a simulated crash.
* federation (optional, :class:`~repro.federation.FederatedRegistry`) —
  its origin is the service's registry; its mirrors are synced after
  each completed request, and the registry breaker opening fails the
  origin over to the freshest converged mirror.

Every *admitted* request terminates in exactly one of four typed
outcomes — ``completed``, ``degraded``, ``rejected`` (displacement) or
``deadline-exceeded`` — and the final :class:`ServiceReport` accounts
for all of them; no request is ever lost.  One method accounts each
terminal outcome, whether it happens live or is replayed from the WAL.
"""

from __future__ import annotations

import bisect
import copy
import heapq
import random
import weakref
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.apps import get_app
from repro.containers.engine import ContainerEngine
from repro.core.cache.artifacts import SharedArtifactCache
from repro.core.cache.storage import decode_rebuild, extended_tag
from repro.core.images import install_system_side_images, install_user_side_images
from repro.core.workflow import build_extended_image
from repro.oci.layout import OCILayout
from repro.oci.registry import ImageRegistry
from repro.perf.runtime import attach_perf
from repro.resilience import (
    RUNG_DEADLINE_EXCEEDED,
    RUNG_FLEET_EXHAUSTED,
    RUNG_FULL,
    RUNG_GENERIC,
    RUNG_REDIRECT_ONLY,
    ResilienceContext,
    ResiliencePolicy,
    RetryPolicy,
    RetryStats,
    adapt_with_resilience,
    resilient_transfer,
)
from repro.service.admission import (
    PRIORITY_NORMAL,
    AdmissionQueue,
    TokenBucket,
    priority_rank,
)
from repro.service.breaker import STATE_OPEN, CircuitBreaker
from repro.service.errors import CircuitOpenError, ServiceError, ServiceOverloadError
from repro.service.wal import ServiceCrash, ServiceWAL
from repro.sysmodel import SystemModel, X86_CLUSTER
from repro.telemetry import (
    NULL_TELEMETRY,
    SimulatedClock,
    Telemetry,
    install_telemetry,
)

STATUS_COMPLETED = "completed"
STATUS_DEGRADED = "degraded"
STATUS_REJECTED = "rejected"
STATUS_DEADLINE_EXCEEDED = "deadline-exceeded"

#: Every terminal state an admitted request can reach.
TERMINAL_STATUSES = (
    STATUS_COMPLETED, STATUS_DEGRADED, STATUS_REJECTED,
    STATUS_DEADLINE_EXCEEDED,
)

#: Default retry policy for service requests: modest attempts so a
#: genuinely sick dependency *fails* (feeding the circuit breaker)
#: instead of being absorbed by the single-session PERMISSIVE_RETRY's
#: near-infinite patience.
SERVICE_RETRY = RetryPolicy(max_attempts=4, budget_seconds=120.0)

#: The counter each terminal status of an executed request adds one to.
_FINISHED_COUNTERS = {
    STATUS_COMPLETED: "service_requests_completed_total",
    STATUS_DEGRADED: "service_requests_degraded_total",
    STATUS_DEADLINE_EXCEEDED: "service_requests_deadline_total",
}

#: The system-side image flavor every tenant engine installs and adapts to.
FLAVOR = "vendor"

#: Simulated seconds of fixed per-dispatch overhead (scheduling,
#: container setup); keeps zero-cost cache-warm requests from finishing
#: in literally zero time.
DISPATCH_OVERHEAD = 0.05


def _nearest_rank(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of an ascending list; 0.0 for
    an empty one."""
    if not ordered:
        return 0.0
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.999999) - 1))]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 for an empty list."""
    return _nearest_rank(sorted(values), q)


@dataclass
class AdaptationRequest:
    """One tenant's ask: adapt *app* for the service's system."""

    tenant: str
    app: str
    priority: str = PRIORITY_NORMAL
    #: End-to-end budget in simulated seconds from ``submit_at``; what is
    #: left at dispatch becomes the rebuild's ``--deadline``.
    deadline: Optional[float] = None
    jobs: int = 2
    submit_at: float = 0.0
    seq: int = 0
    request_id: str = ""
    #: Service level granted at admission (shedding may lower it): the
    #: ladder rung the request's adaptation starts at.
    mode: str = RUNG_FULL
    shed: bool = False
    #: Set when the request was parked behind an identical in-flight
    #: leader and re-dispatched against the leader-warmed shared cache.
    deduped: bool = False
    eff_jobs: int = 1


@dataclass
class RequestOutcome:
    """The typed terminal record of one request."""

    request_id: str
    tenant: str
    app: str
    priority: str
    mode: str
    status: str = STATUS_COMPLETED
    rung: Optional[str] = None
    ref: Optional[str] = None
    error: Optional[str] = None
    retry_after: Optional[float] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: float = 0.0
    cost: float = 0.0
    latency: float = 0.0
    deduped: bool = False
    shed: bool = False
    reasons: List[str] = field(default_factory=list)
    retry_spend: float = 0.0
    retry_causes: Dict[str, int] = field(default_factory=dict)
    cache_hit_nodes: int = 0
    executed_nodes: int = 0
    reused_nodes: int = 0
    #: Plan-level short-circuit fired: the rebuild pruned every command
    #: group against the tenant's previous adaptation and executed
    #: nothing — the repeat-tenant fast path.
    incremental_fast_path: bool = False
    #: Restored from the WAL by a restart rather than produced by this
    #: process's own event loop (the terminal status happened *before*
    #: the crash and must not be re-earned).
    recovered: bool = False
    report: object = None
    _layout: Optional[Tuple[OCILayout, str]] = None

    def to_json(self) -> dict:
        return {name: copy.copy(getattr(self, name)) for name in _OUTCOME_JSON}

    @classmethod
    def from_json(cls, data: dict) -> "RequestOutcome":
        """The inverse of :meth:`to_json`; total over partial records —
        a missing field takes its default (``""`` for the ids, normal
        priority, full mode for the required ones)."""
        values = {"request_id": "", "tenant": "", "app": "",
                  "priority": PRIORITY_NORMAL, "mode": RUNG_FULL}
        values.update((name, copy.copy(data[name]))
                      for name in _OUTCOME_JSON if name in data)
        return cls(**values)


#: The :class:`RequestOutcome` fields a terminal WAL record carries: all
#: but the live rebuild report and layout handle.
_OUTCOME_JSON = tuple(f.name for f in fields(RequestOutcome)
                      if f.name not in ("report", "_layout"))


@dataclass
class TenantState:
    """Per-tenant runtime: engine, bulkhead, budgets, fairness state."""

    name: str
    weight: float = 1.0
    #: Bulkhead: max concurrent rebuild fleet workers this tenant may
    #: hold out of the service's global pool.
    max_workers: int = 2
    retry_budget: float = 600.0
    bucket: Optional[TokenBucket] = None
    engine: ContainerEngine = None
    recorder: object = None
    vtime: float = 0.0
    served_seconds: float = 0.0
    retry_spent: float = 0.0
    budget_exhausted: bool = False
    workers_in_use: int = 0
    stats: RetryStats = None
    submitted: int = 0
    completed: int = 0
    degraded: int = 0
    rejected: int = 0
    deadline_exceeded: int = 0
    #: Latencies of completed and degraded requests, kept ascending as
    #: they land (:meth:`note_latency`), so a summary sorts nothing.
    latencies: List[float] = field(default_factory=list)

    def note_latency(self, latency: float) -> None:
        bisect.insort(self.latencies, latency)

    def summary(self) -> dict:
        return {
            "tenant": self.name,
            "weight": self.weight,
            "max_workers": self.max_workers,
            "submitted": self.submitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "p50": _nearest_rank(self.latencies, 0.50),
            "p99": _nearest_rank(self.latencies, 0.99),
            "retry_spend": self.retry_spent,
            "retry_budget": self.retry_budget,
            "vtime": self.vtime,
        }


@dataclass
class ServiceReport:
    """Everything one :meth:`AdaptationService.run` did, accounted."""

    outcomes: List[RequestOutcome]
    tenants: Dict[str, dict]
    breakers: Dict[str, dict]
    queue: dict
    cache: dict
    simulated_seconds: float = 0.0
    deduped_requests: int = 0
    mirror_syncs: int = 0
    mirror_sync_failures: int = 0
    #: Terminal outcomes restored from the WAL by a restart.
    recovered_requests: int = 0
    #: In-flight (dispatched, non-terminal) requests a restart resumed.
    resumed_requests: int = 0
    #: Origin failover promotions this service triggered.
    failovers: int = 0
    #: :meth:`ServiceWAL.stats` of the backing log.
    wal: dict = field(default_factory=dict)

    def by_status(self) -> Dict[str, int]:
        counts: Dict[str, int] = {status: 0 for status in TERMINAL_STATUSES}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    @property
    def dedup_ratio(self) -> float:
        """Fraction of rebuild node-work served from the shared cache."""
        hits = sum(o.cache_hit_nodes for o in self.outcomes)
        executed = sum(o.executed_nodes for o in self.outcomes)
        total = hits + executed
        return hits / total if total else 0.0

    def to_json(self) -> dict:
        return {
            "outcomes": [o.to_json() for o in self.outcomes],
            "tenants": dict(self.tenants),
            "breakers": dict(self.breakers),
            "queue": dict(self.queue),
            "cache": dict(self.cache),
            "by_status": self.by_status(),
            "dedup_ratio": self.dedup_ratio,
            "deduped_requests": self.deduped_requests,
            "mirror_syncs": self.mirror_syncs,
            "mirror_sync_failures": self.mirror_sync_failures,
            "simulated_seconds": self.simulated_seconds,
            "recovered_requests": self.recovered_requests,
            "resumed_requests": self.resumed_requests,
            "failovers": self.failovers,
            "wal": dict(self.wal),
        }

    def summary(self) -> str:
        counts = self.by_status()
        bits = [
            f"{len(self.outcomes)} requests in {self.simulated_seconds:.1f}s "
            f"simulated: "
            + ", ".join(f"{counts[s]} {s}" for s in TERMINAL_STATUSES if counts[s])
        ]
        if self.deduped_requests:
            bits.append(f"{self.deduped_requests} deduped in flight")
        if self.dedup_ratio:
            bits.append(f"{self.dedup_ratio:.0%} of rebuild work from shared cache")
        if self.recovered_requests:
            bits.append(f"{self.recovered_requests} outcome(s) recovered from WAL")
        if self.resumed_requests:
            bits.append(f"{self.resumed_requests} in-flight request(s) resumed")
        if self.failovers:
            bits.append(f"{self.failovers} origin failover(s)")
        open_breakers = [n for n, b in self.breakers.items()
                        if b["state"] != "closed"]
        if open_breakers:
            bits.append("breakers not closed: " + ", ".join(sorted(open_breakers)))
        return "; ".join(bits)


def _request_from(record: dict) -> AdaptationRequest:
    """An ``admit`` or ``submit`` WAL record back as a request; a submit
    record carries no granted ``mode``/``shed``, so it comes back full."""
    return AdaptationRequest(
        tenant=record.get("tenant", ""), app=record.get("app", ""),
        priority=record.get("priority", PRIORITY_NORMAL),
        deadline=record.get("deadline"), jobs=int(record.get("jobs", 2)),
        submit_at=float(record.get("submit_at", 0.0)),
        seq=int(record.get("seq", 0)),
        request_id=record.get("request_id", ""),
        mode=record.get("mode", RUNG_FULL),
        shed=bool(record.get("shed", False)),
    )


class AdaptationService:
    """Discrete-event, multi-tenant front end over the adaptation pipeline.

    Always durable: every state transition lands in :attr:`wal` first.
    """

    def __init__(
        self,
        system: SystemModel = X86_CLUSTER,
        workers: int = 8,
        queue_capacity: int = 32,
        seed: int = 0,
        injector=None,
        telemetry=NULL_TELEMETRY,
        cache_capacity: int = 512,
        breaker_threshold: int = 3,
        breaker_reset: float = 180.0,
        durable: bool = True,
        federation=None,
    ) -> None:
        if not durable:
            raise ServiceError("the adaptation service is always durable")
        self.system = system
        self.workers = max(1, workers)
        self.seed = seed
        self.injector = injector
        #: Constructor shape a :meth:`restart` rebuilds the process from
        #: (everything except the telemetry recorder).
        self._config = {
            "system": system, "workers": workers,
            "queue_capacity": queue_capacity, "seed": seed,
            "injector": injector, "cache_capacity": cache_capacity,
            "breaker_threshold": breaker_threshold,
            "breaker_reset": breaker_reset, "federation": federation,
        }
        # Request cost is measured as telemetry-clock progress (rebuild
        # makespans, retry backoff, workload runs all charge it), so the
        # service needs a *live* recorder even when the caller brought none.
        self.telemetry = telemetry if telemetry.enabled else Telemetry()
        if injector is not None:
            # The tenant engines borrow the injector per request, after
            # their recorders are installed: every fault it fires is
            # recorded here.
            injector.telemetry = self.telemetry
        #: The service timeline every event runs on.
        self.clock = SimulatedClock()
        self.policy = ResiliencePolicy.permissive(
            seed=seed, injector=injector, retry=SERVICE_RETRY
        )
        # With a federation, the service's origin registry *is* the
        # federation's: the registry breaker's half-open probes route
        # through whichever registry the federation currently calls origin.
        self.registry = (ImageRegistry() if federation is None
                         else federation.origin)
        self._attach(self.registry)
        self.user_engine = ContainerEngine(arch=system.arch)
        install_user_side_images(self.user_engine)
        install_telemetry(self.telemetry, engines=[self.user_engine])
        self.queue = AdmissionQueue(
            capacity=queue_capacity, telemetry=self.telemetry
        )
        self.shared_cache = SharedArtifactCache(
            capacity=cache_capacity, telemetry=self.telemetry
        )
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                name, clock=self.clock, failure_threshold=breaker_threshold,
                reset_timeout=breaker_reset, telemetry=self.telemetry,
            )
            for name in ("registry", "fleet", "mirrors")
        }
        self.tenants: Dict[str, TenantState] = {}
        self.outcomes: List[RequestOutcome] = []
        # Running sums of the outcomes' node counts (the dedup gauge).
        self._cache_hit_nodes = 0
        self._executed_nodes = 0
        self.workers_in_use = 0
        self.deduped_requests = 0
        self.mirror_syncs = 0
        self.mirror_sync_failures = 0
        self._arrivals: List[AdaptationRequest] = []
        self._seq = 0
        self._extended: Dict[str, Tuple[OCILayout, str]] = {}
        self._tenant_layouts: Dict[Tuple[str, str], Tuple[OCILayout, str]] = {}
        self._leaders: Dict[Tuple[str, str], int] = {}
        self._followers: Dict[Tuple[str, str], List[AdaptationRequest]] = {}
        self._cost_sum = 0.0
        self._cost_n = 0
        # -- durability (the service WAL) ------------------------------
        self.wal = ServiceWAL(seed=seed, injector=injector)
        self.crashed = False
        self._replaying = False
        self.recovered_requests = 0
        self.resumed_requests = 0
        self._resumed_ids: set = set()
        self._open_ids: set = set()
        # -- federation (origin failover, mirror sync) -----------------
        self.federation = federation
        self.failovers = 0
        # The service holds its breakers, so each holds the service's
        # hook weakly: a discarded service is then no reference cycle.
        for breaker in self.breakers.values():
            breaker.listener = weakref.WeakMethod(self._on_breaker_transition)

    # -- tenancy and submission -----------------------------------------

    def add_tenant(
        self,
        name: str,
        weight: float = 1.0,
        max_workers: int = 2,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        retry_budget: float = 600.0,
    ) -> TenantState:
        """Register a tenant: its own engine (bulkhead), budget, bucket."""
        if name in self.tenants:
            raise ServiceError(f"tenant {name!r} already registered")
        engine = ContainerEngine(arch=self.system.arch)
        install_system_side_images(engine, self.system, FLAVOR)
        recorder = attach_perf(engine, self.system)
        install_telemetry(self.telemetry, engines=[engine])
        bucket = None
        if rate is not None:
            bucket = TokenBucket(rate=rate, burst=burst if burst is not None
                                 else max(1.0, 2.0 * rate))
        state = TenantState(
            name=name, weight=max(weight, 1e-6),
            max_workers=max(1, min(max_workers, self.workers)),
            retry_budget=retry_budget, bucket=bucket,
            engine=engine, recorder=recorder,
            stats=RetryStats(scope=name),
        )
        self.tenants[name] = state
        self._wal("tenant", name=name, weight=state.weight,
                  max_workers=state.max_workers, rate=rate, burst=burst,
                  retry_budget=retry_budget)
        return state

    def submit(
        self,
        tenant: str,
        app: str,
        at: float = 0.0,
        priority: str = PRIORITY_NORMAL,
        deadline: Optional[float] = None,
        jobs: int = 2,
    ) -> AdaptationRequest:
        """Schedule an arrival at simulated time *at*; admission happens
        when the event loop reaches it."""
        if tenant not in self.tenants:
            raise ServiceError(f"unknown tenant {tenant!r}")
        get_app(app)   # typed KeyError now, not mid-run
        self._seq += 1
        request = AdaptationRequest(
            tenant=tenant, app=app, priority=priority, deadline=deadline,
            jobs=max(1, jobs), submit_at=float(at), seq=self._seq,
            request_id=f"{tenant}/r{self._seq}",
        )
        self._arrivals.append(request)
        self._wal("submit", request_id=request.request_id, tenant=tenant,
                  app=app, priority=priority, deadline=deadline,
                  jobs=request.jobs, submit_at=request.submit_at,
                  seq=request.seq)
        return request

    def _attach(self, registry: ImageRegistry) -> None:
        """Point *registry* and its blob store at this service's injector
        (when it has one) and recorder."""
        if self.injector is not None:
            registry.fault_injector = self.injector
            registry.blobs.fault_injector = self.injector
        install_telemetry(self.telemetry, registry=registry)

    # -- durability: WAL, crash, restart ---------------------------------

    def _wal(self, kind: str, **values) -> None:
        """Durably append one WAL record (no-op while replaying)."""
        if self._replaying:
            return
        record = {"rec": kind, "t": float(self.clock.now)}
        record.update(values)
        self.wal.append(record)
        self.telemetry.metrics.counter("service_wal_records_total").inc()

    def _wal_terminal(self, outcome: RequestOutcome,
                      charged: float = 0.0) -> None:
        """The commit point of one request: exactly one terminal record
        per request_id ever reaches the log (a torn terminal line is
        dropped by salvage, so the restart re-earns it — once)."""
        self._open_ids.discard(outcome.request_id)
        self._wal("terminal", request_id=outcome.request_id,
                  charged=float(charged), outcome=outcome.to_json())

    def _on_breaker_transition(self, name: str, from_state: str,
                               to_state: str, t: float) -> None:
        self._wal("breaker", breaker=name, from_state=from_state,
                  to_state=to_state)
        if (name == "registry" and to_state == STATE_OPEN
                and self.federation is not None and not self._replaying):
            self._failover_origin()

    def _failover_origin(self) -> None:
        """The registry breaker opened against a federated origin: fail
        the origin over to the freshest converged mirror, so the
        breaker's half-open probe lands on the promoted origin."""
        from repro.federation import FederationError

        fed = self.federation
        try:
            promotion = fed.fail_over()
        except FederationError as exc:
            self.telemetry.event("service.failover_unavailable",
                                 error=str(exc))
            return
        self.registry = fed.origin
        if self.injector is not None:
            # The injector stays attached to the *failed* origin; the
            # promoted one is a healthy replica.
            self.registry.fault_injector = None
        install_telemetry(self.telemetry, registry=self.registry)
        self.failovers += 1
        self._wal("failover", elected=promotion.elected,
                  fence=promotion.fence_token)
        self.telemetry.event("service.origin_failover",
                             elected=promotion.elected,
                             fence=promotion.fence_token)
        self.telemetry.metrics.counter("service_failovers_total").inc()

    def restart(self, telemetry=NULL_TELEMETRY) -> "AdaptationService":
        """The next process: salvage the WAL, replay it, resume.

        Only the WAL's flushed bytes and the durable stores (origin
        registry, the federation's mirrors, mounted layouts) survive a
        crash.  Returns a *new* :class:`AdaptationService` whose queue
        order, tenant token buckets, breaker states and terminal
        outcomes are reconstructed from the salvaged log; requests that
        were admitted (or in flight) without a terminal record are
        re-queued and will re-dispatch against the surviving mounted
        layouts — their rebuild journals and ``+coMre`` manifests mean
        the re-execution prunes every checkpointed node.  The new
        process shares this one's injector, and a consumed
        ``service.crash`` spec never fires again, so a multi-crash chain
        is several specs on one injector.
        """
        service = AdaptationService(telemetry=telemetry, **self._config)
        service.wal = ServiceWAL.from_bytes(self.wal.flushed_bytes,
                                            injector=self.injector)
        service._recover(self)
        return service

    def _recover(self, prior: "AdaptationService") -> None:
        """Adopt the durable stores of the crashed process and replay."""
        if self.federation is None:
            self.registry = prior.registry
            self._attach(self.registry)
        self._extended = dict(prior._extended)
        self._tenant_layouts = dict(prior._tenant_layouts)
        self._replay()

    def _replay(self) -> None:
        """Reconstruct volatile state from the salvaged WAL records."""
        wal = self.wal
        admits: Dict[str, dict] = {}
        submits: Dict[str, dict] = {}
        terminals: List[dict] = []
        terminal_ids: set = set()
        dispatched: set = set()
        last_t = 0.0
        self._replaying = True
        try:
            for record in wal.records:
                t = float(record.get("t", 0.0))
                last_t = max(last_t, t)
                kind = record.get("rec")
                if kind == "tenant":
                    name = record.get("name", "")
                    if name and name not in self.tenants:
                        self.add_tenant(
                            name, weight=record.get("weight", 1.0),
                            max_workers=record.get("max_workers", 2),
                            rate=record.get("rate"),
                            burst=record.get("burst"),
                            retry_budget=record.get("retry_budget", 600.0),
                        )
                elif kind == "submit":
                    submits[record.get("request_id", "")] = record
                elif kind == "admit":
                    admits[record.get("request_id", "")] = record
                    # Replaying the successful takes at their original
                    # times reproduces the bucket's exact token level
                    # (refill is linear-capped, so skipped failed takes
                    # change nothing).
                    self._retake_token(record.get("tenant", ""), t)
                elif kind == "dispatch":
                    dispatched.add(record.get("request_id", ""))
                elif kind == "breaker":
                    breaker = self.breakers.get(record.get("breaker", ""))
                    to_state = record.get("to_state")
                    if breaker is not None and isinstance(to_state, str):
                        breaker.transitions.append(
                            (t, str(record.get("from_state")), to_state))
                        breaker.state = to_state
                        if to_state == STATE_OPEN:
                            breaker.opened_at = t
                        # Consecutive-failure/success counters restart at
                        # zero: the state machine position is durable, the
                        # streak is not.
                        breaker.failures = 0
                        breaker.successes = 0
                elif kind == "terminal":
                    rid = record.get("request_id", "")
                    if rid and rid not in terminal_ids:
                        terminal_ids.add(rid)
                        terminals.append(record)
                        data = record.get("outcome") or {}
                        if (data.get("status") == STATUS_REJECTED
                                and rid not in admits and "rate-limited"
                                not in data.get("reasons", [])):
                            # Queue-full: the arrival took its token
                            # before the queue refused it.
                            self._retake_token(data.get("tenant", ""), t)
                elif kind == "absorb":
                    memo = self._tenant_layouts.get(
                        (record.get("tenant", ""), record.get("app", "")))
                    if memo is not None:
                        self.shared_cache.absorb_layout(
                            memo[0], record.get("dist_tag", memo[1]))
                elif kind == "sync":
                    if record.get("ok", False):
                        self.mirror_syncs += 1
                    else:
                        self.mirror_sync_failures += 1
            self._restore_terminals(terminals, admits)
            self._requeue_open(admits, submits, terminal_ids, dispatched)
            seqs = [int(r.get("seq", 0)) for r in admits.values()]
            seqs += [int(r.get("seq", 0)) for r in submits.values()]
            self._seq = max(seqs + [self._seq])
            if last_t > self.clock.now:
                self.clock.sleep(last_t - self.clock.now)
        finally:
            self._replaying = False
        wal.restarts += 1
        self._wal("restart", recovered=self.recovered_requests,
                  resumed=self.resumed_requests,
                  torn_dropped=wal.torn_records_dropped)
        self.telemetry.metrics.counter("service_recoveries_total").inc()
        self.telemetry.event(
            "service.restarted", recovered=self.recovered_requests,
            requeued=len(self._open_ids), resumed=self.resumed_requests,
            torn_dropped=wal.torn_records_dropped,
        )
        self._gauges()

    def _retake_token(self, tenant_name: str, t: float) -> None:
        tenant = self.tenants.get(tenant_name)
        if tenant is not None and tenant.bucket is not None:
            tenant.bucket.try_take(t)

    def _restore_terminals(self, terminals: List[dict],
                           admits: Dict[str, dict]) -> None:
        """Terminal records are facts: restore outcomes + accounting."""
        for record in terminals:
            data = {"status": STATUS_REJECTED, **(record.get("outcome") or {})}
            status = data["status"]
            if status not in TERMINAL_STATUSES:
                continue
            rid = data.get("request_id") or record.get("request_id", "")
            outcome = RequestOutcome.from_json(
                {**data, "request_id": rid, "recovered": True})
            self._tally(outcome, float(record.get("charged", 0.0)))
            self.recovered_requests += 1
            tenant = self.tenants.get(outcome.tenant)
            if tenant is None:
                continue
            tenant.retry_spent += outcome.retry_spend
            # Arrival-level rejections (rate-limited, queue-full) never
            # got an admit record, but their arrival was counted.
            if status == STATUS_REJECTED and rid not in admits:
                tenant.submitted += 1

    def _requeue_open(self, admits: Dict[str, dict], submits: Dict[str, dict],
                      terminal_ids: set, dispatched: set) -> None:
        """Admitted-but-non-terminal requests re-enter the queue with
        their granted service level; unprocessed arrivals re-arrive."""
        open_requests: List[AdaptationRequest] = []
        for rid, record in admits.items():
            tenant = self.tenants.get(record.get("tenant", ""))
            if tenant is None:
                continue
            tenant.submitted += 1
            if rid not in terminal_ids:
                open_requests.append(_request_from(record))
        for request in sorted(open_requests, key=lambda r: r.seq):
            self.queue.restore(request)
            self._open_ids.add(request.request_id)
            if request.request_id in dispatched:
                # In flight at the crash: its durable effects (rebuild
                # journal, +coMre manifest) are already in the mounted
                # layout, so the re-dispatch executes zero checkpointed
                # nodes.
                self.resumed_requests += 1
                self._resumed_ids.add(request.request_id)
        for rid, record in submits.items():
            if (rid not in admits and rid not in terminal_ids
                    and record.get("tenant", "") in self.tenants):
                self._arrivals.append(_request_from(record))

    # -- the event loop --------------------------------------------------

    def run(self, crash_at: Optional[float] = None) -> ServiceReport:
        """Drain every submitted arrival through the timeline; report.

        A :class:`ServiceCrash` — a fired ``service.crash`` probe at a
        WAL append, or the first timeline advance at or past *crash_at*
        — propagates out of here with :attr:`crashed` set; call
        :meth:`restart` to build the next process from the WAL and
        ``run()`` it again.
        """
        if self.crashed:
            raise ServiceError("service crashed; restart() it first")
        try:
            return self._run_loop(crash_at)
        except ServiceCrash:
            self.crashed = True
            raise

    def _run_loop(self, crash_at: Optional[float]) -> ServiceReport:
        arrivals = sorted(self._arrivals, key=lambda r: (r.submit_at, r.seq))
        self._arrivals = []
        # The user side publishes extended images ahead of serving; their
        # build cost is not any one request's latency.
        for request in arrivals:
            self._prepare_extended(request.app)
        running: List[Tuple[float, int, AdaptationRequest, RequestOutcome]] = []
        index = 0
        while index < len(arrivals) or running or len(self.queue):
            times = []
            if running:
                times.append(running[0][0])
            if index < len(arrivals):
                times.append(arrivals[index].submit_at)
            if times:
                self._advance_to(max(self.clock.now, min(times)), crash_at)
            now = self.clock.now
            while running and running[0][0] <= now:
                _, _, request, outcome = heapq.heappop(running)
                self._finish(request, outcome)
            while index < len(arrivals) and arrivals[index].submit_at <= now:
                self._admit(arrivals[index])
                index += 1
            self._expire_queued()
            dispatched_any = False
            while True:
                request = self.queue.pop_next(self._wfq_key, self._eligible)
                if request is None:
                    break
                dispatched_any = True
                finish, outcome = self._dispatch(request)
                if finish is not None:
                    heapq.heappush(running, (finish, request.seq, request, outcome))
            self._gauges()
            if not times and len(self.queue) and not dispatched_any and not running:
                raise ServiceError(
                    "admission deadlock: queued work cannot be scheduled "
                    "(a request needs more workers than exist?)"
                )
        return self._report()

    # -- timeline helpers ------------------------------------------------

    def _advance_to(self, t: float, crash_at: Optional[float]) -> None:
        crash = crash_at is not None and t >= crash_at
        if crash:
            # Die mid-advance: the clock stops at the crash point, the WAL
            # keeps only what was flushed before it.
            t = max(self.clock.now, crash_at)
        dt = t - self.clock.now
        if dt > 0:
            self.clock.sleep(dt)
        if crash:
            raise ServiceCrash(len(self.wal.records), torn=False)

    def _retry_after_hint(self) -> float:
        average = (self._cost_sum / self._cost_n) if self._cost_n else 30.0
        return max(1.0, average * (len(self.queue) + 1) / self.workers)

    def _wfq_key(self, request: AdaptationRequest):
        tenant = self.tenants[request.tenant]
        return (priority_rank(request.priority), tenant.vtime, request.seq)

    def _effective_jobs(self, request: AdaptationRequest) -> int:
        tenant = self.tenants[request.tenant]
        if request.mode != RUNG_FULL:
            return 1   # no rebuild fleet below the full rung
        return max(1, min(request.jobs, tenant.max_workers, self.workers))

    def _eligible(self, request: AdaptationRequest) -> bool:
        tenant = self.tenants[request.tenant]
        eff = self._effective_jobs(request)
        return (
            tenant.workers_in_use + eff <= tenant.max_workers
            and self.workers_in_use + eff <= self.workers
        )

    # -- admission -------------------------------------------------------

    def _admit(self, request: AdaptationRequest) -> None:
        tele = self.telemetry
        tenant = self.tenants[request.tenant]
        tenant.submitted += 1
        tele.metrics.counter("service_requests_submitted_total").inc()
        if tenant.bucket is not None and not tenant.bucket.try_take(self.clock.now):
            error = ServiceOverloadError(
                request.tenant, "rate-limited",
                retry_after=tenant.bucket.retry_after(self.clock.now),
            )
            tele.metrics.counter("service_rate_limited_total").inc()
            self._reject(request, error)
            return
        try:
            displaced = self.queue.admit(
                request, retry_after=self._retry_after_hint()
            )
        except ServiceOverloadError as error:
            self._reject(request, error)
            return
        # The admission is durable only once this record lands: the shed
        # level granted here is the service level a restart re-queues at.
        self._open_ids.add(request.request_id)
        self._wal("admit", request_id=request.request_id,
                  tenant=request.tenant, app=request.app,
                  priority=request.priority, deadline=request.deadline,
                  jobs=request.jobs, submit_at=request.submit_at,
                  seq=request.seq, mode=request.mode, shed=request.shed)
        if displaced is not None:
            self._reject(displaced, ServiceOverloadError(
                displaced.tenant, "displaced",
                retry_after=self._retry_after_hint(),
            ))
        if request.shed:
            tele.event("service.shed", request=request.request_id,
                       mode=request.mode,
                       occupancy=round(self.queue.occupancy(), 3))
            tele.metrics.counter("service_requests_shed_total").inc()
        self._gauges()

    def _reject(self, request: AdaptationRequest,
                error: ServiceOverloadError) -> None:
        outcome = RequestOutcome(
            request_id=request.request_id, tenant=request.tenant,
            app=request.app, priority=request.priority, mode=request.mode,
            status=STATUS_REJECTED, error=str(error),
            retry_after=error.retry_after, submitted_at=request.submit_at,
            finished_at=self.clock.now, shed=request.shed,
        )
        outcome.reasons.append(error.reason)
        self._tally(outcome)
        self._wal_terminal(outcome)
        tele = self.telemetry
        tele.event("service.rejected", request=request.request_id,
                   reason=error.reason,
                   retry_after=round(error.retry_after, 3))
        tele.metrics.counter("service_requests_rejected_total").inc()

    def _expire_queued(self) -> None:
        now = self.clock.now
        expired = self.queue.expire(
            lambda r: r.deadline is not None and now >= r.submit_at + r.deadline
        )
        for request in expired:
            outcome = RequestOutcome(
                request_id=request.request_id, tenant=request.tenant,
                app=request.app, priority=request.priority,
                mode=request.mode, status=STATUS_DEADLINE_EXCEEDED,
                rung=RUNG_DEADLINE_EXCEEDED,
                submitted_at=request.submit_at, finished_at=now,
                latency=now - request.submit_at, shed=request.shed,
            )
            outcome.reasons.append("deadline expired while queued")
            self._tally(outcome)
            self._wal_terminal(outcome)
            self.telemetry.event("service.deadline_expired_queued",
                                 request=request.request_id)
            self.telemetry.metrics.counter("service_requests_deadline_total").inc()

    # -- dispatch and execution ------------------------------------------

    def _dispatch(self, request: AdaptationRequest):
        tenant = self.tenants[request.tenant]
        work = (request.app, request.mode)
        if request.mode == RUNG_FULL and work in self._leaders:
            # Single-flight: identical rebuild work is already in flight.
            # Park the follower; it re-dispatches when the leader lands
            # (and then runs against the leader-warmed shared cache).
            self._followers.setdefault(work, []).append(request)
            self.deduped_requests += 1
            self._wal("park", request_id=request.request_id,
                      app=request.app)
            self.telemetry.event("service.singleflight",
                                 request=request.request_id,
                                 app=request.app)
            self.telemetry.metrics.counter("service_singleflight_followers_total").inc()
            return None, None
        request.eff_jobs = self._effective_jobs(request)
        tenant.workers_in_use += request.eff_jobs
        self.workers_in_use += request.eff_jobs
        outcome = self._execute(request, tenant)
        outcome.started_at = self.clock.now
        if request.mode == RUNG_FULL and outcome.status != STATUS_REJECTED:
            self._leaders[work] = request.seq
        finish = self.clock.now + DISPATCH_OVERHEAD + outcome.cost
        # Written *after* _execute returns: this record asserts the
        # request's durable effects (rebuild journal, +coMre manifest in
        # the mounted layout) exist, which is what lets a restart resume
        # it with zero checkpointed nodes re-executed.  A crash before
        # this line leaves only the admit record — a clean cold re-run.
        self._wal("dispatch", request_id=request.request_id,
                  eff_jobs=request.eff_jobs, mode=request.mode,
                  cost=outcome.cost, finish=finish)
        return finish, outcome

    def _request_ctx(self, request: AdaptationRequest,
                     tenant: TenantState) -> ResilienceContext:
        remaining = max(0.0, tenant.retry_budget - tenant.retry_spent)
        base = self.policy.retry
        if remaining <= 0.0:
            retry = replace(base, max_attempts=1, budget_seconds=0.0)
        else:
            retry = replace(base,
                            budget_seconds=min(base.budget_seconds, remaining))
        policy = replace(self.policy, retry=retry, injector=self.injector)
        return ResilienceContext(
            policy=policy, injector=self.injector,
            stats=RetryStats(scope=request.request_id),
            rng=random.Random(
                f"comtainer-service:{self.seed}:{request.request_id}"),
            telemetry=self.telemetry,
        )

    def _execute(self, request: AdaptationRequest,
                 tenant: TenantState) -> RequestOutcome:
        tele = self.telemetry
        outcome = RequestOutcome(
            request_id=request.request_id, tenant=request.tenant,
            app=request.app, priority=request.priority, mode=request.mode,
            submitted_at=request.submit_at, shed=request.shed,
            deduped=request.deduped,
        )
        ctx = self._request_ctx(request, tenant)
        tenant.engine.resilience = ctx
        tenant.engine.fault_injector = self.injector
        before = tele.clock.now
        try:
            with tele.span("service.request", request=request.request_id,
                           tenant=request.tenant, app=request.app,
                           mode=request.mode):
                self._perform(request, tenant, ctx, outcome)
        finally:
            outcome.cost = tele.clock.now - before
            self._account(request, tenant, ctx, outcome)
        return outcome

    def _perform(self, request: AdaptationRequest, tenant: TenantState,
                 ctx: ResilienceContext, outcome: RequestOutcome) -> None:
        remaining = None
        if request.deadline is not None:
            remaining = request.submit_at + request.deadline - self.clock.now
            if remaining <= 0:
                outcome.status = STATUS_DEADLINE_EXCEEDED
                outcome.rung = RUNG_DEADLINE_EXCEEDED
                outcome.reasons.append("deadline expired before dispatch")
                return
        mode = request.mode
        fleet = self.breakers["fleet"]
        if mode == RUNG_FULL and not fleet.allow():
            mode = RUNG_REDIRECT_ONLY
            outcome.reasons.append(
                f"fleet circuit open; degraded to redirect-only "
                f"(half-open in {fleet.retry_after():.0f}s)"
            )
        layout, dist_tag, transfer_note = self._tenant_layout(request, ctx)
        if transfer_note:
            outcome.reasons.append(transfer_note)
        full = mode == RUNG_FULL
        if full:
            self.shared_cache.seed_layout(layout, dist_tag)
        # A shed (or fleet-degraded) request enters the ladder at its
        # granted rung, below the rebuild attempts.
        report = adapt_with_resilience(
            tenant.engine, layout, self.system, ctx=ctx,
            recorder=tenant.recorder, flavor=FLAVOR,
            ref=f"{request.tenant}/{request.app}:adapted",
            jobs=request.eff_jobs, deadline=remaining, rung=mode,
        )
        outcome.report = report
        outcome.rung = report.rung
        outcome.ref = report.ref
        if report.rung == RUNG_DEADLINE_EXCEEDED:
            outcome.status = STATUS_DEADLINE_EXCEEDED
        elif report.rung == RUNG_FULL:
            # Full-rung bytes served around an unhealthy registry are
            # degraded.
            outcome.status = (STATUS_DEGRADED if transfer_note
                              else STATUS_COMPLETED)
        else:
            outcome.status = STATUS_DEGRADED
            outcome.reasons.extend(report.reasons)
        if not full:
            return
        outcome._layout = (layout, dist_tag)
        # The fleet breaker sees rebuild *outcomes*: a rung at or
        # below fleet-exhausted means the parallel fleet could not
        # deliver the requested rebuild.
        if report.rung in (RUNG_FLEET_EXHAUSTED, RUNG_REDIRECT_ONLY,
                           RUNG_GENERIC):
            fleet.record_failure()
        elif report.rung == RUNG_FULL:
            fleet.record_success()
        try:
            meta = decode_rebuild(layout, dist_tag)[0]
            outcome.cache_hit_nodes = len(meta.get("cache_hits", []))
            outcome.executed_nodes = len(meta.get("executed_nodes", []))
            outcome.reused_nodes = len(meta.get("reused_nodes", []))
            pruned = len(meta.get("pruned_nodes", []))
            if pruned and outcome.executed_nodes == 0:
                # Repeat tenant, unchanged request: the plan diff
                # pruned everything and no node executed.
                outcome.incremental_fast_path = True
                outcome.reasons.append(
                    f"incremental fast path: {pruned} nodes pruned, "
                    "0 executed"
                )
                self.telemetry.metrics.counter(
                    "service_incremental_fast_path_total").inc()
        except Exception:
            pass   # no rebuild manifest on the lowest rungs

    def _account(self, request: AdaptationRequest, tenant: TenantState,
                 ctx: ResilienceContext, outcome: RequestOutcome) -> None:
        spend = ctx.stats.total_spend
        outcome.retry_spend = spend
        outcome.retry_causes = ctx.stats.exhausted_by_cause()
        tenant.retry_spent += spend
        tenant.stats.merge(ctx.stats)
        if (tenant.retry_budget > 0 and not tenant.budget_exhausted
                and tenant.retry_spent >= tenant.retry_budget):
            tenant.budget_exhausted = True
            self.telemetry.event("service.retry_budget_exhausted",
                                 tenant=tenant.name,
                                 spent=round(tenant.retry_spent, 3),
                                 budget=tenant.retry_budget)
            self.telemetry.metrics.counter("service_retry_budget_exhausted_total").inc()

    def _finish(self, request: AdaptationRequest,
                outcome: RequestOutcome) -> None:
        tenant = self.tenants[request.tenant]
        tenant.workers_in_use -= request.eff_jobs
        self.workers_in_use -= request.eff_jobs
        outcome.finished_at = self.clock.now
        outcome.latency = outcome.finished_at - request.submit_at
        charged = outcome.cost + DISPATCH_OVERHEAD
        self._tally(outcome, charged)
        tele = self.telemetry
        tele.metrics.counter(_FINISHED_COUNTERS[outcome.status]).inc()
        self._wal_terminal(outcome, charged=charged)
        tele.event("service.finished", request=request.request_id,
                   status=outcome.status, rung=outcome.rung or "",
                   latency=round(outcome.latency, 3))
        # Single-flight epilogue: absorb the leader's compile outputs into
        # the shared pool *at completion time* (cache benefits must not
        # flow backwards on the timeline), then release the followers.
        work = (request.app, request.mode)
        if self._leaders.get(work) == request.seq:
            del self._leaders[work]
            if outcome._layout is not None and outcome.status in (
                    STATUS_COMPLETED, STATUS_DEGRADED):
                self.shared_cache.absorb_layout(*outcome._layout)
                self._wal("absorb", tenant=request.tenant, app=request.app,
                          dist_tag=outcome._layout[1])
            for follower in self._followers.pop(work, []):
                follower.deduped = True
                self.queue.restore(follower)
        if (outcome.status == STATUS_COMPLETED and self.federation is not None
                and self.federation.mirrors):
            self._sync_mirrors(request.app)
        self._update_dedup_gauge()

    # -- shared dependencies ---------------------------------------------

    def _prepare_extended(self, app: str) -> Tuple[OCILayout, str]:
        if app not in self._extended:
            self._extended[app] = build_extended_image(
                self.user_engine, get_app(app)
            )
        return self._extended[app]

    def _tenant_layout(self, request: AdaptationRequest,
                       ctx: ResilienceContext):
        """The tenant's system-side layout for the app, breaker-guarded.

        The happy path transfers through the shared origin registry and
        memoizes per (tenant, app).  When the registry breaker is open
        (or the transfer exhausts its retries) the service degrades to a
        direct copy of the pristine user-side layout — bytes identical,
        but *not* memoized, so a later request probes the registry again
        once the breaker half-opens.
        """
        key = (request.tenant, request.app)
        memo = self._tenant_layouts.get(key)
        if memo is not None:
            return memo[0], memo[1], None
        source, dist_tag = self._prepare_extended(request.app)
        tags = (dist_tag, extended_tag(dist_tag))
        repository = f"{request.tenant}/repro/{request.app}"
        breaker = self.breakers["registry"]
        try:
            remote = breaker.call(lambda: resilient_transfer(
                self.registry, source, repository, tags, ctx=ctx,
            ))
            if self.federation is not None:
                # The transfer pushed straight into the origin registry,
                # bypassing the federation's generation counter.
                self.federation.record_origin_write()
            self._tenant_layouts[key] = (remote, dist_tag)
            return remote, dist_tag, None
        except CircuitOpenError as exc:
            note = f"registry circuit open; served from local replica ({exc})"
        except Exception as exc:
            note = (f"registry transfer failed ({exc}); "
                    f"served from local replica")
        self.telemetry.event("service.local_replica",
                             request=request.request_id, app=request.app)
        self.telemetry.metrics.counter("service_local_replica_transfers_total").inc()
        replica = OCILayout()
        for tag in tags:
            resolved = source.resolve(tag)
            replica.add_manifest(resolved.manifest, resolved.config,
                                 resolved.layers, tag=tag)
        return replica, dist_tag, note

    def _sync_mirrors(self, app: str) -> None:
        """Converge every federation mirror on the origin after a
        completed request, through the ``mirrors`` breaker: the sync
        engine moves only what changed, verified, and each mirror's sync
        retries a transient fault under the service's retry policy,
        resuming from its ledger (a failed sync resumes there next
        time too).  The retries' jitter is seeded per sync."""
        n = self.mirror_syncs + self.mirror_sync_failures
        ctx = ResilienceContext(
            policy=self.policy, injector=self.injector,
            stats=RetryStats(scope=f"mirror-sync-{n}"),
            rng=random.Random(f"comtainer-service:{self.seed}:mirror-sync:{n}"),
            telemetry=self.telemetry,
        )
        try:
            self.breakers["mirrors"].call(
                lambda: self.federation.sync_all(ctx=ctx))
            self.mirror_syncs += 1
            self._wal("sync", app=app, ok=True)
            self.telemetry.metrics.counter("service_mirror_syncs_total").inc()
        except Exception as exc:
            self.mirror_sync_failures += 1
            self._wal("sync", app=app, ok=False)
            self.telemetry.event("service.mirror_sync_failed",
                                 app=app, error=str(exc))
            self.telemetry.metrics.counter("service_mirror_sync_failures_total").inc()

    # -- observability ----------------------------------------------------

    def _gauges(self) -> None:
        m = self.telemetry.metrics
        m.gauge("service_queue_depth").set(float(len(self.queue)))
        m.gauge("service_queue_occupancy").set(self.queue.occupancy())
        m.gauge("service_workers_in_use").set(float(self.workers_in_use))
        m.gauge("service_breakers_open").set(float(sum(
            1 for b in self.breakers.values() if b.state == STATE_OPEN
        )))
        # WAL lag: admitted requests whose terminal record has not landed
        # yet — the restart exposure right now.
        m.gauge("service_wal_open_requests").set(float(len(self._open_ids)))

    def _tally(self, outcome: RequestOutcome, charged: float = 0.0) -> None:
        """Account one terminal outcome, live or replayed from the WAL:
        keep it, add its node counts to the sums, and count its status,
        latency and *charged* service seconds against its tenant."""
        self.outcomes.append(outcome)
        self._cache_hit_nodes += outcome.cache_hit_nodes
        self._executed_nodes += outcome.executed_nodes
        tenant = self.tenants.get(outcome.tenant)
        if tenant is None:
            return
        status = outcome.status
        if status == STATUS_COMPLETED:
            tenant.completed += 1
        elif status == STATUS_DEGRADED:
            tenant.degraded += 1
        elif status == STATUS_REJECTED:
            tenant.rejected += 1
        else:
            tenant.deadline_exceeded += 1
        if status in (STATUS_COMPLETED, STATUS_DEGRADED):
            tenant.note_latency(outcome.latency)
        if charged > 0.0:
            tenant.served_seconds += charged
            tenant.vtime += charged / tenant.weight
            self._cost_sum += charged
            self._cost_n += 1

    def _update_dedup_gauge(self) -> None:
        hits, executed = self._cache_hit_nodes, self._executed_nodes
        if hits + executed:
            self.telemetry.metrics.gauge("service_dedup_ratio").set(
                hits / (hits + executed)
            )

    def _report(self) -> ServiceReport:
        return ServiceReport(
            outcomes=list(self.outcomes),
            tenants={name: state.summary()
                     for name, state in sorted(self.tenants.items())},
            breakers={name: breaker.to_json()
                      for name, breaker in self.breakers.items()},
            queue=self.queue.snapshot(),
            cache=self.shared_cache.stats(),
            simulated_seconds=self.clock.now,
            deduped_requests=self.deduped_requests,
            mirror_syncs=self.mirror_syncs,
            mirror_sync_failures=self.mirror_sync_failures,
            recovered_requests=self.recovered_requests,
            resumed_requests=self.resumed_requests,
            failovers=self.failovers,
            wal=self.wal.stats(),
        )


__all__ = [
    "DISPATCH_OVERHEAD",
    "SERVICE_RETRY",
    "STATUS_COMPLETED",
    "STATUS_DEADLINE_EXCEEDED",
    "STATUS_DEGRADED",
    "STATUS_REJECTED",
    "TERMINAL_STATUSES",
    "AdaptationRequest",
    "AdaptationService",
    "RequestOutcome",
    "ServiceCrash",
    "ServiceReport",
    "ServiceWAL",
    "TenantState",
    "percentile",
]
