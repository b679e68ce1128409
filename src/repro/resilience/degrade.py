"""The graceful-degradation ladder and the resilience report.

coMtainer's promise is that the system side adapts images "without any
user involvement" — which must include the days when the vendor compiler
segfaults on one translation unit or the registry flakes mid-pull.  The
extended image by construction contains a runnable generic dist image, so
there is always *something* to serve; the ladder makes the fallback
explicit and reportable instead of an unhandled exception:

    rung 1  full            rebuild with every requested optimization
                            (native toolchain, LTO, PGO loop), redirect
    rung 2  partial         rebuild with per-node fallback to the generic
                            artifact and/or optimizations dropped, redirect
    rung 3  fleet-exhausted the parallel worker fleet died (every worker
                            crashed or was blacklisted); the rebuild was
                            re-run serially on a fresh single worker
    rung 4  redirect-only   no rebuild; generic binaries with the system's
                            optimized runtime libraries linked in via
                            compat symlinks (library-only adaptation)
    rung 5  generic         the untouched dist image from the layout

Every session ends on some rung with a runnable image and a
:class:`ResilienceReport` naming the rung and why each higher rung was
abandoned.  The default :class:`ResiliencePolicy` is ``strict``: no
retries, no fallback, no journal — exactly today's fail-loud behaviour.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.integrity import find_integrity_error
from repro.resilience.deadline import find_deadline_exceeded
from repro.resilience.faults import FaultInjector
from repro.resilience.fleet import find_fleet_exhausted
from repro.resilience.retry import RetryPolicy, RetryStats, retry_call
from repro.telemetry import NULL_TELEMETRY, SimulatedClock

logger = logging.getLogger("repro.resilience")

RUNG_FULL = "full"
RUNG_PARTIAL = "partial"
RUNG_FLEET_EXHAUSTED = "fleet-exhausted"
RUNG_REDIRECT_ONLY = "redirect-only"
RUNG_GENERIC = "generic"

#: Best to worst; every resilient session terminates on exactly one.
RUNG_ORDER = (RUNG_FULL, RUNG_PARTIAL, RUNG_FLEET_EXHAUSTED,
              RUNG_REDIRECT_ONLY, RUNG_GENERIC)

#: Terminal *cancellation* outcome, deliberately outside RUNG_ORDER: a
#: blown per-request deadline stops the ladder (descending would spend
#: more of a budget that is already gone).  The journal holds every
#: checkpointed group, so a later request resumes the rebuild.
RUNG_DEADLINE_EXCEEDED = "deadline-exceeded"

#: Default retry policy for permissive sessions.  Transient faults have
#: bounded per-key bursts, but a composite operation (one push touches
#: many blobs) can absorb up to max_burst faults *per key* — so the
#: attempt count must be provisioned for the whole composite, not a
#: single call.  Backoff runs on the simulated clock, so the generous
#: limits cost nothing on the happy path and guarantee that transfers
#: (whose faults are transient by the fault model) always complete.
PERMISSIVE_RETRY = RetryPolicy(max_attempts=128, budget_seconds=1e6)


@dataclass
class ResiliencePolicy:
    """How much autonomy the system side has when things go wrong.

    ``strict`` (the default) preserves the original fail-loud semantics;
    ``permissive`` enables retry/backoff, per-node fallback, checkpoint
    journaling and the degradation ladder.
    """

    mode: str = "strict"               # "strict" | "permissive"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    injector: Optional[FaultInjector] = None
    journal: bool = True               # checkpoint rebuilds into the layout
    fallback: bool = True              # failed nodes fall back to generic
    seed: int = 0                      # jitter determinism

    @property
    def strict(self) -> bool:
        return self.mode != "permissive"

    @staticmethod
    def permissive(
        seed: int = 0,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        journal: bool = True,
        fallback: bool = True,
    ) -> "ResiliencePolicy":
        return ResiliencePolicy(
            mode="permissive",
            retry=retry or PERMISSIVE_RETRY,
            injector=injector,
            journal=journal,
            fallback=fallback,
            seed=seed,
        )


@dataclass
class ResilienceContext:
    """Runtime state of one policy installation (clock, stats, rng)."""

    policy: ResiliencePolicy
    injector: Optional[FaultInjector] = None
    clock: SimulatedClock = field(default_factory=SimulatedClock)
    stats: RetryStats = field(default_factory=RetryStats)
    rng: random.Random = None
    #: Telemetry recorder retries/degradations report into; the no-op
    #: default keeps untraced sessions free of bookkeeping.
    telemetry: object = NULL_TELEMETRY

    def __post_init__(self) -> None:
        if self.injector is None:
            self.injector = self.policy.injector
        if self.rng is None:
            self.rng = random.Random(f"comtainer-retry-jitter:{self.policy.seed}")

    def retry(self, fn, site: str):
        """Run *fn* under this context's retry policy."""
        return retry_call(
            fn,
            policy=self.policy.retry,
            clock=self.clock,
            rng=self.rng,
            stats=self.stats,
            site=site,
            telemetry=self.telemetry,
        )


@dataclass
class ResilienceReport:
    """What the session achieved and what it had to give up."""

    tag: str
    rung: str = RUNG_FULL
    ref: Optional[str] = None
    #: Why each abandoned higher rung failed, best rung first.
    reasons: List[str] = field(default_factory=list)
    retries: Dict[str, int] = field(default_factory=dict)
    #: Retry budgets burnt to the end, keyed on site (the report-table
    #: view of the per-site exhaustion histograms in the metrics
    #: registry, ``resilience_retry_exhaustion_attempts_<site>_<cause>``).
    retry_exhaustions: Dict[str, int] = field(default_factory=dict)
    #: Exhaustions keyed ``site/cause`` — whether the attempt cap or the
    #: simulated-time budget was the binding constraint.
    retry_exhaustion_causes: Dict[str, int] = field(default_factory=dict)
    failed_nodes: List[str] = field(default_factory=list)
    fallback_paths: List[str] = field(default_factory=list)
    restored_nodes: List[str] = field(default_factory=list)
    faults_seen: Dict[str, int] = field(default_factory=dict)
    simulated_seconds: float = 0.0
    #: Typed corruption detections hit during the session (str of each
    #: :class:`repro.integrity.IntegrityError`), best rung first.
    integrity_errors: List[str] = field(default_factory=list)
    #: Digests the repair engine restored to a verified state.
    repaired_digests: List[str] = field(default_factory=list)
    #: Digests left quarantined (corrupt, no source could repair them).
    quarantined_digests: List[str] = field(default_factory=list)
    #: Worker-fleet accounting accumulated over the session's rebuilds
    #: (:meth:`repro.resilience.fleet.FleetStats.to_json` shape): crashes,
    #: reassignments, speculative wins, blacklisted workers, ...
    worker_stats: Dict[str, object] = field(default_factory=dict)
    #: Set (to the typed error's message) when the session was cancelled
    #: on a blown per-request deadline; the rung is then
    #: :data:`RUNG_DEADLINE_EXCEEDED` and ``ref`` is None.
    deadline_exceeded: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "rung": self.rung,
            "ref": self.ref,
            "reasons": list(self.reasons),
            "retries": dict(self.retries),
            "retry_exhaustions": dict(self.retry_exhaustions),
            "retry_exhaustion_causes": dict(self.retry_exhaustion_causes),
            "failed_nodes": list(self.failed_nodes),
            "fallback_paths": list(self.fallback_paths),
            "restored_nodes": list(self.restored_nodes),
            "faults_seen": dict(self.faults_seen),
            "simulated_seconds": self.simulated_seconds,
            "integrity_errors": list(self.integrity_errors),
            "repaired_digests": list(self.repaired_digests),
            "quarantined_digests": list(self.quarantined_digests),
            "worker_stats": dict(self.worker_stats),
            "deadline_exceeded": self.deadline_exceeded,
        }

    def summary(self) -> str:
        bits = [f"{self.tag}: rung={self.rung} ref={self.ref}"]
        if self.deadline_exceeded:
            bits.append(self.deadline_exceeded)
        if self.fallback_paths:
            bits.append(f"{len(self.fallback_paths)} artifacts fell back to generic")
        if self.restored_nodes:
            bits.append(f"{len(self.restored_nodes)} nodes resumed from journal")
        if self.retries:
            bits.append(f"{sum(self.retries.values())} retries")
        if self.integrity_errors:
            bits.append(f"{len(self.integrity_errors)} corruptions detected")
        if self.repaired_digests:
            bits.append(f"{len(self.repaired_digests)} blobs repaired")
        if self.quarantined_digests:
            bits.append(f"{len(self.quarantined_digests)} blobs quarantined")
        ws = self.worker_stats
        if ws.get("crashes"):
            bits.append(f"{ws['crashes']} worker crashes")
        if ws.get("reassignments"):
            bits.append(f"{ws['reassignments']} group reassignments")
        if ws.get("speculative_wins"):
            bits.append(f"{ws['speculative_wins']} speculative wins")
        if ws.get("blacklisted"):
            bits.append(f"{len(ws['blacklisted'])} workers blacklisted")
        return "; ".join(bits)


def install_resilience(policy, registry=None, engines=()) -> ResilienceContext:
    """Wire a policy into a registry and one or more engines.

    Strict policies install nothing (behaviour stays byte-identical);
    permissive ones attach the fault injector to the registry (push/pull
    and its blob store) and to each engine (``container.run`` arming plus
    the in-rebuild retry/journal context).
    """
    ctx = ResilienceContext(policy=policy)
    if policy.strict:
        return ctx
    if registry is not None:
        registry.fault_injector = ctx.injector
        registry.blobs.fault_injector = ctx.injector
    for engine in engines:
        engine.fault_injector = ctx.injector
        engine.resilience = ctx
    return ctx


def uninstall_resilience(registry=None, engines=()) -> None:
    """Detach a previously installed policy (tests share long-lived engines)."""
    if registry is not None:
        registry.fault_injector = None
        registry.blobs.fault_injector = None
    for engine in engines:
        engine.fault_injector = None
        engine.resilience = None


def resilient_transfer(registry, layout, name, tags, ctx=None, repair=None):
    """Push *tags* of *layout* through *registry* and pull them back.

    This is the distribution step of Figure 5 (user side -> repository ->
    system side).  Under a permissive context every push and pull is
    retried on transient transfer errors; under a strict (or absent)
    context the behaviour is the plain one-shot transfer.

    A pull that fails on a typed ``IntegrityError`` (the transfer
    corrupted a blob in the registry) is self-healing in permissive mode:
    the push *source* layout still holds the pristine bytes, so the
    corrupt registry blobs are repaired from it and the pull retried once.
    """
    from repro.oci.layout import OCILayout

    remote = OCILayout()
    for tag in tags:
        reference = f"{name}:{tag}"

        def push(tag=tag, reference=reference):
            return registry.push_layout(reference, layout, tag=tag)

        def pull(reference=reference):
            return registry.pull(reference)

        if ctx is None or ctx.policy.strict:
            push()
            resolved = pull()
        else:
            ctx.retry(push, site="registry.push")
            try:
                resolved = ctx.retry(pull, site="registry.pull")
            except Exception as exc:
                if find_integrity_error(exc) is None:
                    raise
                from repro.integrity.repair import RepairEngine

                engine = repair or RepairEngine().add_layout(
                    layout, label="push-source"
                )
                outcomes = [
                    engine.repair_blob(registry.blobs, finding.digest, ctx=ctx)
                    for finding in registry.blobs.verify_integrity()
                ]
                if not any(o.repaired for o in outcomes):
                    raise
                logger.warning(
                    "transfer of %s corrupted %d registry blobs; repaired "
                    "from push source", reference, len(outcomes),
                )
                resolved = ctx.retry(pull, site="registry.pull")
        remote.add_manifest(resolved.manifest, resolved.config, resolved.layers, tag=tag)
    return remote


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------

def redirect_only_adapt(engine, layout, dist_tag, system, flavor, ref, ctx) -> str:
    """Rung 4: generic binaries + the system's optimized runtime libraries.

    Mirrors the paper's library-only adaptation (Figure 3 ``libo``): the
    recorded library paths of the *unmodified* binaries re-resolve through
    compat symlinks to the vendor-optimized code.  No rebuild container,
    no compile nodes — only filesystem surgery, so persistent
    ``container.run`` faults cannot reach this rung.
    """
    from repro.core.backend.replacement import replace_installed_libraries
    from repro.core.images import install_system_side_images
    from repro.oci import mediatypes

    install_system_side_images(engine, system, flavor)
    base = ctx.retry(
        lambda: engine.load_from_layout(layout, dist_tag, ref=f"{ref}.generic-base"),
        site="layout.load",
    )
    ctr = engine.from_image(base, name=f"resil-redirect-{dist_tag}")
    try:
        replace_installed_libraries(engine, ctr, system)
        ctr.config.labels[mediatypes.ANNOTATION_COMTAINER_RUNG] = RUNG_REDIRECT_ONLY
        engine.commit(ctr, ref=ref, comment="coMtainer redirect-only (degraded)")
        return ref
    finally:
        engine.remove_container(ctr.name)


def _note_integrity(report, exc, layout, repair, ctx, tele) -> bool:
    """Record a typed corruption behind *exc*; attempt repair if possible.

    Returns True when the repair engine restored at least one blob (the
    caller should retry the failed rung once — the data fault is gone).
    """
    ierr = find_integrity_error(exc)
    if ierr is None:
        return False
    report.integrity_errors.append(str(ierr))
    tele.event("integrity.detected", site=ierr.site, digest=ierr.digest,
               detail=ierr.detail)
    tele.metrics.counter("resilience_integrity_errors_total").inc()
    if repair is None:
        return False
    outcomes = repair.repair_layout(layout, ctx=ctx)
    fixed = [o.digest for o in outcomes
             if o.repaired and o.detail != "already intact"]
    report.repaired_digests.extend(fixed)
    report.quarantined_digests = [
        f.digest for f in layout.blobs.quarantined()
    ]
    if fixed:
        logger.warning("repaired %d corrupt blobs after %s", len(fixed), ierr)
    return bool(fixed)


def adapt_with_resilience(
    engine,
    layout,
    system,
    ctx: Optional[ResilienceContext] = None,
    recorder=None,
    lto: bool = False,
    pgo_workload: Optional[str] = None,
    flavor: str = "vendor",
    ref: Optional[str] = None,
    nodes: int = 16,
    repair=None,
    jobs: int = 1,
    speculate: bool = True,
    max_worker_failures: int = 3,
    deadline: Optional[float] = None,
    rung: str = RUNG_FULL,
) -> ResilienceReport:
    """System-side adaptation that always terminates with a runnable image.

    With a strict (or absent) context this is exactly
    :func:`repro.core.workflow.system_side_adapt` — errors propagate.
    With a permissive context the ladder walks rungs until one holds,
    starting at *rung*: ``redirect-only`` skips the rebuild attempts and
    ``generic`` skips the redirect-only rung too (the adaptation
    service's load shedding enters the ladder there).  The strict path
    ignores *rung*.
    When a :class:`repro.integrity.repair.RepairEngine` is supplied, a
    rung that fails on a typed ``IntegrityError`` gets one repair pass
    over the layout and one retry before the ladder descends.  A parallel
    rebuild (``jobs > 1``) whose worker fleet is exhausted by injected
    worker faults gets exactly one serial retry on a fresh single-worker
    fleet before optimizations are dropped; success through that retry
    lands on the ``fleet-exhausted`` rung.

    *deadline* (simulated seconds per rebuild phase) makes a blown
    budget *terminal*: the ladder stops with
    ``rung == RUNG_DEADLINE_EXCEEDED``, ``ref`` None, and the journal
    resumable — it never descends, because every lower rung would spend
    more of a budget that is already gone.
    """
    from repro.core import workflow as wf
    from repro.core.cache.storage import decode_rebuild, find_dist_tag

    dist_tag = find_dist_tag(layout)
    ref = ref or f"{dist_tag}:adapted"
    report = ResilienceReport(tag=dist_tag)
    tele = getattr(engine, "telemetry", NULL_TELEMETRY)

    if ctx is None or ctx.policy.strict:
        report.ref = wf.system_side_adapt(
            engine, layout, system, recorder=recorder, lto=lto,
            pgo_workload=pgo_workload, flavor=flavor, ref=ref, nodes=nodes,
            jobs=jobs, speculate=speculate,
            max_worker_failures=max_worker_failures, deadline=deadline,
        )
        report.rung = RUNG_FULL
        return report

    extra_args: List[str] = []
    if ctx.policy.journal:
        extra_args.append("--journal")
    if ctx.policy.fallback:
        extra_args.append("--fallback")

    # Fleet accounting accumulates across every rebuild the ladder runs
    # (see rebuild_in_container's merge); start the session from zero.
    engine.fleet_stats = None

    # Rungs 1-3: rebuild + redirect.  First with the requested
    # optimizations, then — if a parallel worker fleet died — once more
    # serially, then (if the optimizations were the problem) plain.
    attempts = []
    if rung == RUNG_FULL:
        attempts.append((lto, pgo_workload, "optimized rebuild", jobs))
        if lto or pgo_workload is not None:
            attempts.append((False, None, "plain rebuild", jobs))
    adapted_ref = None
    degraded_options = False
    serial_fleet_added = False
    used_serial_fleet = False
    index = 0
    while index < len(attempts):
        attempt_lto, attempt_pgo, label, attempt_jobs = attempts[index]
        index += 1

        def run_attempt(a_lto=attempt_lto, a_pgo=attempt_pgo,
                        a_jobs=attempt_jobs):
            return wf.system_side_adapt(
                engine, layout, system, recorder=recorder, lto=a_lto,
                pgo_workload=a_pgo, flavor=flavor, ref=ref, nodes=nodes,
                extra_rebuild_args=extra_args, jobs=a_jobs,
                speculate=speculate, max_worker_failures=max_worker_failures,
                deadline=deadline,
            )

        for repair_round in range(2):
            try:
                adapted_ref = ctx.retry(run_attempt, site="adapt")
                degraded_options = (attempt_lto, attempt_pgo) != (lto, pgo_workload)
                used_serial_fleet = attempt_jobs == 1 and attempt_jobs != jobs
                break
            except Exception as exc:
                blown = find_deadline_exceeded(exc)
                if blown is not None:
                    # Terminal cancellation, not degradation: stop the
                    # ladder with the journal resumable.
                    report.deadline_exceeded = str(blown)
                    report.rung = RUNG_DEADLINE_EXCEEDED
                    report.reasons.append(f"{label} cancelled: {blown}")
                    tele.event("degradation.deadline_exceeded",
                               tag=dist_tag, label=label,
                               spent=blown.spent, budget=blown.budget)
                    logger.warning("%s of %s cancelled on deadline: %s",
                                   label, dist_tag, blown)
                    index = len(attempts)
                    break
                fixed = _note_integrity(
                    report, exc, layout,
                    repair if repair_round == 0 else None, ctx, tele,
                )
                if fixed:
                    report.reasons.append(
                        f"{label} hit corruption, repaired and retrying: {exc}"
                    )
                    continue
                exhausted = find_fleet_exhausted(exc)
                if (exhausted is not None and attempt_jobs > 1
                        and not serial_fleet_added):
                    # The parallel fleet died; a fresh serial fleet can
                    # still finish the same rebuild (resuming from the
                    # journal), so try that before dropping optimizations.
                    serial_fleet_added = True
                    attempts.insert(
                        index, (attempt_lto, attempt_pgo,
                                "serial-fleet rebuild", 1)
                    )
                    report.reasons.append(
                        f"{label} exhausted the worker fleet, retrying "
                        f"serially: {exc}"
                    )
                    tele.event("degradation.fleet_exhausted", tag=dist_tag,
                               wave=exhausted.wave_index,
                               pending=len(exhausted.pending))
                    logger.warning(
                        "%s of %s exhausted the worker fleet, retrying "
                        "serially: %s", label, dist_tag, exc)
                    break
                report.reasons.append(f"{label} failed: {exc}")
                tele.event("degradation.attempt_failed", tag=dist_tag,
                           label=label, error=str(exc))
                logger.warning("%s of %s failed, degrading: %s",
                               label, dist_tag, exc)
                break
        if adapted_ref is not None:
            break

    if adapted_ref is not None:
        meta = decode_rebuild(layout, dist_tag)[0]
        report.ref = adapted_ref
        report.failed_nodes = list(meta.get("failed_nodes", []))
        report.fallback_paths = list(meta.get("fallback_paths", []))
        report.restored_nodes = list(meta.get("journal_restored", []))
        degraded = bool(report.failed_nodes or report.fallback_paths) or degraded_options
        if used_serial_fleet:
            report.rung = RUNG_FLEET_EXHAUSTED
        else:
            report.rung = RUNG_PARTIAL if degraded else RUNG_FULL
    elif report.deadline_exceeded is None:
        if rung != RUNG_GENERIC:
            # Rung 4: redirect-only (library-only adaptation, no rebuild).
            try:
                report.ref = redirect_only_adapt(
                    engine, layout, dist_tag, system, flavor, ref, ctx
                )
                report.rung = RUNG_REDIRECT_ONLY
            except Exception as exc:
                _note_integrity(report, exc, layout, repair, ctx, tele)
                report.reasons.append(f"redirect-only failed: {exc}")
                tele.event("degradation.attempt_failed", tag=dist_tag,
                           label="redirect-only", error=str(exc))
                logger.warning(
                    "redirect-only of %s failed, serving generic: %s",
                    dist_tag, exc)
        if report.ref is None:
            # Rung 5: the untouched generic dist image.  Loads straight
            # from the already-transferred layout, so nothing can stop it.
            report.ref = ctx.retry(
                lambda: engine.load_from_layout(layout, dist_tag, ref=ref),
                site="layout.load",
            )
            report.rung = RUNG_GENERIC

    # Abandoned recovery attempts must not strand partial state.
    layout.gc()
    report.retries = dict(ctx.stats.retries)
    report.retry_exhaustions = ctx.stats.exhausted_by_site()
    report.retry_exhaustion_causes = ctx.stats.exhausted_by_cause()
    fleet_stats = getattr(engine, "fleet_stats", None)
    if fleet_stats is not None:
        report.worker_stats = fleet_stats.to_json()
    if ctx.injector is not None:
        report.faults_seen = ctx.injector.summary()
    report.simulated_seconds = ctx.clock.now
    tele.event("degradation.rung", tag=dist_tag, rung=report.rung,
               ref=report.ref or "", reasons=len(report.reasons))
    tele.metrics.counter(
        f"resilience_rung_{report.rung.replace('-', '_')}_total").inc()
    if report.rung != RUNG_FULL:
        logger.warning("adaptation of %s degraded to rung %r",
                       dist_tag, report.rung)
    return report
