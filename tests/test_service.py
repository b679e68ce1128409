"""Unit tests for the multi-tenant adaptation service tier.

Admission control (queue, shedding, displacement, token buckets),
circuit breakers on simulated time, WFQ ordering, bulkhead eligibility,
deadline expiry in the queue, and the service report's accounting
invariant: every admitted request ends in exactly one typed terminal
status.
"""

import pytest

from repro.containers import ContainerEngine
from repro.core.images import install_system_side_images
from repro.federation import FederatedRegistry
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    ResilienceContext,
    ResiliencePolicy,
    SimulatedClock,
    redirect_only_adapt,
)
from repro.service import (
    MODE_FULL,
    MODE_GENERIC,
    MODE_REDIRECT_ONLY,
    PRIORITY_BATCH,
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    STATUS_COMPLETED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DEGRADED,
    STATUS_REJECTED,
    TERMINAL_STATUSES,
    AdaptationRequest,
    AdaptationService,
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpenError,
    ServiceError,
    ServiceOverloadError,
    TokenBucket,
    percentile,
    priority_rank,
)
from repro.sysmodel import X86_CLUSTER
from repro.telemetry import Telemetry

pytestmark = pytest.mark.service


def req(tenant="t", app="minimd", priority=PRIORITY_NORMAL, seq=0, **kw):
    return AdaptationRequest(tenant=tenant, app=app, priority=priority,
                             seq=seq, request_id=f"{tenant}/r{seq}", **kw)


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refill_on_simulated_time(self):
        bucket = TokenBucket(rate=2.0, burst=2)
        bucket.try_take(0.0)
        bucket.try_take(0.0)
        assert not bucket.try_take(0.1)
        assert bucket.try_take(1.0)    # 2/s refill

    def test_retry_after_quotes_deficit(self):
        bucket = TokenBucket(rate=0.5, burst=1)
        assert bucket.try_take(0.0)
        assert bucket.retry_after(0.0) == pytest.approx(2.0)
        assert bucket.retry_after(1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestPriorities:
    def test_rank_order(self):
        assert (priority_rank(PRIORITY_HIGH)
                < priority_rank(PRIORITY_NORMAL)
                < priority_rank(PRIORITY_BATCH))

    def test_unknown_priority_sorts_as_batch(self):
        assert priority_rank("??") == priority_rank(PRIORITY_BATCH)


class TestAdmissionQueue:
    def test_admits_below_watermark_at_full_service(self):
        queue = AdmissionQueue(capacity=10)
        request = req(seq=1)
        assert queue.admit(request) is None
        assert request.mode == MODE_FULL and not request.shed

    def test_sheds_batch_past_watermark(self):
        queue = AdmissionQueue(capacity=4, shed_watermark=0.5,
                               full_watermark=0.75)
        queue.admit(req(seq=1))
        queue.admit(req(seq=2))
        shed = req(priority=PRIORITY_BATCH, seq=3)
        queue.admit(shed)
        assert shed.mode == MODE_REDIRECT_ONLY and shed.shed

    def test_sheds_normal_only_past_full_watermark(self):
        queue = AdmissionQueue(capacity=4, shed_watermark=0.25,
                               full_watermark=0.75)
        queue.admit(req(seq=1))
        mid = req(seq=2)
        queue.admit(mid)
        assert mid.mode == MODE_FULL        # normal rides out the first band
        queue.admit(req(seq=3))
        deep_normal = req(seq=4)
        deep_batch = req(priority=PRIORITY_BATCH, seq=5)
        queue.admit(deep_normal)            # occupancy 0.75
        assert deep_normal.mode == MODE_REDIRECT_ONLY
        # capacity reached: batch arrival displaces nothing (all >= rank)
        with pytest.raises(ServiceOverloadError):
            queue.admit(deep_batch)

    def test_high_priority_never_shed(self):
        queue = AdmissionQueue(capacity=2, shed_watermark=0.5,
                               full_watermark=0.5)
        queue.admit(req(seq=1))
        vip = req(priority=PRIORITY_HIGH, seq=2)
        queue.admit(vip)
        assert vip.mode == MODE_FULL

    def test_queue_full_raises_typed_with_retry_after(self):
        queue = AdmissionQueue(capacity=1)
        queue.admit(req(seq=1))
        with pytest.raises(ServiceOverloadError) as info:
            queue.admit(req(seq=2), retry_after=12.5)
        assert info.value.reason == "queue-full"
        assert info.value.retry_after == pytest.approx(12.5)
        assert queue.rejected == 1

    def test_displacement_evicts_worst_lower_priority(self):
        queue = AdmissionQueue(capacity=2)
        old_batch = req(priority=PRIORITY_BATCH, seq=1)
        new_batch = req(priority=PRIORITY_BATCH, seq=2)
        queue.admit(old_batch)
        queue.admit(new_batch)
        vip = req(priority=PRIORITY_HIGH, seq=3)
        displaced = queue.admit(vip)
        assert displaced is new_batch       # newest of the worst class
        assert queue.displaced == 1
        assert len(queue) == 2

    def test_equal_priority_cannot_displace(self):
        queue = AdmissionQueue(capacity=1)
        queue.admit(req(seq=1))
        with pytest.raises(ServiceOverloadError):
            queue.admit(req(seq=2))

    def test_restore_bypasses_capacity_and_shedding(self):
        queue = AdmissionQueue(capacity=1)
        queue.admit(req(seq=1))
        follower = req(seq=2)
        queue.restore(follower)
        assert len(queue) == 2
        assert follower.mode == MODE_FULL

    def test_pop_next_orders_by_key_and_respects_eligibility(self):
        queue = AdmissionQueue(capacity=8)
        a, b, c = req(seq=1), req(seq=2), req(seq=3)
        for item in (a, b, c):
            queue.admit(item)
        popped = queue.pop_next(lambda r: r.seq, lambda r: r is not a)
        assert popped is b
        assert len(queue) == 2

    def test_expire_removes_matching(self):
        queue = AdmissionQueue(capacity=8)
        a, b = req(seq=1), req(seq=2)
        queue.admit(a)
        queue.admit(b)
        gone = queue.expire(lambda r: r.seq == 1)
        assert gone == [a] and len(queue) == 1

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=4, shed_watermark=0.9, full_watermark=0.5)


class TestCircuitBreaker:
    def make(self, **kw):
        clock = SimulatedClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_timeout", 60.0)
        return clock, CircuitBreaker("dep", clock=clock, **kw)

    def test_opens_after_consecutive_failures(self):
        _, breaker = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN

    def test_success_resets_consecutive_count(self):
        _, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_open_fails_fast_with_typed_error(self):
        clock, breaker = self.make(failure_threshold=1)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError) as info:
            breaker.call(lambda: "never")
        assert info.value.dependency == "dep"
        assert info.value.retry_after == pytest.approx(60.0)
        clock.sleep(25.0)
        assert breaker.retry_after() == pytest.approx(35.0)

    def test_half_open_after_reset_then_close_on_probe(self):
        clock, breaker = self.make(failure_threshold=1)
        breaker.record_failure()
        assert not breaker.allow()
        clock.sleep(60.0)
        assert breaker.allow()
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_success()
        assert breaker.state == STATE_CLOSED

    def test_failed_probe_reopens_and_restarts_timer(self):
        clock, breaker = self.make(failure_threshold=1)
        breaker.record_failure()
        clock.sleep(60.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.retry_after() == pytest.approx(60.0)

    def test_call_counts_and_transitions(self):
        clock, breaker = self.make(failure_threshold=2)
        def boom():
            raise RuntimeError("x")
        for _ in range(2):
            with pytest.raises(RuntimeError):
                breaker.call(boom)
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: 1)
        clock.sleep(60.0)
        assert breaker.call(lambda: 41 + 1) == 42
        hops = [(a, b) for _, a, b in breaker.transitions]
        assert hops == [(STATE_CLOSED, STATE_OPEN),
                        (STATE_OPEN, STATE_HALF_OPEN),
                        (STATE_HALF_OPEN, STATE_CLOSED)]
        assert breaker.rejections == 1


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile([7.0], 0.99) == 7.0


class TestServiceAdmission:
    """Service-level behaviours that don't need a real rebuild."""

    def test_unknown_tenant_and_app_are_typed(self):
        service = AdaptationService(workers=2)
        with pytest.raises(ServiceError):
            service.submit("ghost", "minimd")
        service.add_tenant("t")
        with pytest.raises(KeyError):
            service.submit("t", "not-an-app")
        with pytest.raises(ServiceError):
            service.add_tenant("t")

    def test_service_is_always_durable(self):
        with pytest.raises(ServiceError):
            AdaptationService(workers=2, durable=False)

    def test_rate_limited_rejection_is_typed(self):
        service = AdaptationService(workers=2, seed=0)
        service.add_tenant("t", rate=0.001, burst=1)
        service.submit("t", "minimd", at=0.0)
        service.submit("t", "minimd", at=0.0)
        report = service.run()
        statuses = sorted(o.status for o in report.outcomes)
        assert statuses.count(STATUS_REJECTED) == 1
        rejected = next(o for o in report.outcomes
                        if o.status == STATUS_REJECTED)
        assert "rate-limited" in rejected.reasons
        assert rejected.retry_after > 0

    def test_queued_deadline_expires_before_start(self):
        service = AdaptationService(workers=1, seed=0)
        service.add_tenant("t", max_workers=1)
        service.submit("t", "minimd", at=0.0)
        # Queued behind the first; its budget is far smaller than the
        # leader's makespan, so it must expire without ever starting.
        service.submit("t", "hpccg", at=0.0, deadline=0.01)
        report = service.run()
        expired = [o for o in report.outcomes
                   if o.status == STATUS_DEADLINE_EXCEEDED]
        assert len(expired) == 1
        assert expired[0].started_at is None
        assert expired[0].app == "hpccg"

    def test_every_admitted_request_gets_typed_terminal(self):
        service = AdaptationService(workers=2, seed=3, queue_capacity=3)
        service.add_tenant("a", max_workers=2)
        service.add_tenant("b", max_workers=2)
        for i in range(4):
            service.submit("a", "minimd", at=0.0)
            service.submit("b", "hpccg", at=0.0)
        report = service.run()
        assert len(report.outcomes) == 8
        assert all(o.status in TERMINAL_STATUSES for o in report.outcomes)
        counts = report.by_status()
        assert sum(counts.values()) == 8

    def test_bulkhead_caps_concurrent_tenant_workers(self):
        service = AdaptationService(workers=4, seed=0)
        service.add_tenant("hog", max_workers=1)
        observed = []
        original = service._dispatch
        def spy(request):
            result = original(request)
            observed.append(service.tenants["hog"].workers_in_use)
            return result
        service._dispatch = spy
        for _ in range(3):
            service.submit("hog", "minimd", at=0.0, jobs=4)
        service.run()
        assert observed and max(observed) <= 1

    def test_report_json_round_trips(self):
        import json
        service = AdaptationService(workers=2, seed=1)
        service.add_tenant("t")
        service.submit("t", "minimd", at=0.0)
        report = service.run()
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["by_status"][STATUS_COMPLETED] == 1
        assert blob["tenants"]["t"]["completed"] == 1
        assert set(blob["breakers"]) == {"registry", "fleet", "mirrors"}
        assert report.summary()

    def test_single_request_completes_full(self):
        service = AdaptationService(workers=2, seed=0)
        service.add_tenant("t")
        service.submit("t", "minimd", at=0.0)
        report = service.run()
        outcome = report.outcomes[0]
        assert outcome.status == STATUS_COMPLETED
        assert outcome.rung == "full"
        assert outcome.ref == "t/minimd:adapted"
        assert outcome.latency > 0
        assert service.tenants["t"].engine.has_image(outcome.ref)


class TestServiceControlPlane:
    def test_overload_surfaces_service_alerts_and_health(self):
        from repro.telemetry import Telemetry
        from repro.telemetry.controlplane import ControlPlane

        telemetry = Telemetry()
        controlplane = ControlPlane(telemetry)
        service = AdaptationService(workers=2, seed=1, telemetry=telemetry,
                                    queue_capacity=2)
        service.add_tenant("t")
        for i in range(8):
            service.submit("t", "minimd", at=float(i) * 0.01)
        report = service.run()
        controlplane.finalize()
        assert report.by_status()[STATUS_REJECTED] > 0
        fired = {alert.rule for alert in controlplane.rules.history}
        assert "service-rejections" in fired
        health = controlplane.health()
        by_name = {c.name: c for c in health.components}
        assert by_name["service"].status != "healthy"

    def test_samples_follow_the_recorder_clock(self):
        # The requests' costs advance the recorder's clock and the
        # sampler reads it; neither the fleet nor the service's idle
        # gaps feed it a second time.
        from repro.telemetry.controlplane import ControlPlane

        telemetry = Telemetry()
        controlplane = ControlPlane(telemetry)
        service = AdaptationService(workers=4, seed=1, telemetry=telemetry)
        service.add_tenant("a")
        service.add_tenant("b")
        apps = ("hpccg", "minimd", "lulesh", "hpccg", "minife", "lulesh")
        for i, app in enumerate(apps):
            service.submit("ab"[i % 2], app, at=1.5 * i)
        service.run()
        sampler = controlplane.sampler
        times = [s.t for s in sampler.series["fleet_utilization"]]
        assert times and times[-1] <= telemetry.clock.now
        assert sampler.samples_taken == int(
            telemetry.clock.now // sampler.cadence)


class TestShedRequestsWalkTheLadder:
    """A request shed by admission enters the resilience ladder at the
    rung it was granted."""

    def test_a_shed_request_keeps_its_image_and_counts_its_rung(self):
        telemetry = Telemetry()
        service = AdaptationService(workers=2, seed=0, queue_capacity=4,
                                    telemetry=telemetry)
        service.add_tenant("acme", max_workers=2)
        service.add_tenant("beta", max_workers=2)
        for tenant, app in (("acme", "hpccg"), ("acme", "minife"),
                            ("beta", "minimd")):
            service.submit(tenant, app, at=0.0)
        # The fourth arrival finds the queue at the shed watermark (3/4).
        service.submit("beta", "hpccg", at=0.0, priority=PRIORITY_BATCH)
        report = service.run()
        [shed] = [o for o in report.outcomes if o.shed]
        assert (shed.mode, shed.status, shed.rung, shed.ref) == (
            MODE_REDIRECT_ONLY, STATUS_DEGRADED, "redirect-only",
            "beta/hpccg:adapted")
        # The same image redirect_only_adapt makes on its own.
        layout, dist_tag = service._tenant_layouts[("beta", "hpccg")]
        engine = ContainerEngine(arch=X86_CLUSTER.arch)
        install_system_side_images(engine, X86_CLUSTER, "vendor")
        ctx = ResilienceContext(policy=ResiliencePolicy.permissive())
        alone = redirect_only_adapt(engine, layout, dist_tag, X86_CLUSTER,
                                    "vendor", "alone:adapted", ctx)
        adapted = service.tenants["beta"].engine.image(shed.ref)
        assert adapted.layer_key() == engine.image(alone).layer_key()
        # Counted like any other degradation.
        metrics = telemetry.metrics
        assert metrics.counter("resilience_rung_redirect_only_total").value == 1
        rungs = [e.attributes["rung"] for e in telemetry.events
                 if e.name == "degradation.rung"]
        assert sorted(rungs) == ["full", "full", "full", "redirect-only"]


class TestServiceFederationMirrors:
    """A federation's mirrors converge after each completed request,
    through the ``mirrors`` breaker and the WAL's ``sync`` records."""

    def test_each_completion_syncs_and_a_failed_sync_is_counted(self):
        injector = FaultInjector()
        federation = FederatedRegistry(injector=injector)
        for name in ("edge-0", "edge-1"):
            federation.add_mirror(name)
        service = AdaptationService(workers=2, seed=0, federation=federation)
        service.add_tenant("acme", max_workers=2)
        service.submit("acme", "hpccg", at=0.0)
        report = service.run()
        assert report.outcomes[0].status == STATUS_COMPLETED
        assert (report.mirror_syncs, report.mirror_sync_failures) == (1, 0)
        assert all(federation.converged(mirror)
                   for mirror in federation.mirrors.values())
        assert "acme/repro/hpccg" in {
            ref.split(":")[0] for ref in
            federation.mirror("edge-1").registry.manifest_map()}

        injector.specs.append(FaultSpec(site="mirror.sync", kind="persistent"))
        service.submit("acme", "minife", at=service.clock.now)
        report = service.run()
        assert report.outcomes[-1].status == STATUS_COMPLETED
        assert (report.mirror_syncs, report.mirror_sync_failures) == (1, 1)
        assert service.breakers["mirrors"].failures == 1
        syncs = [r for r in service.wal.records if r["rec"] == "sync"]
        assert [r["ok"] for r in syncs] == [True, False]

        restarted = service.restart()
        assert (restarted.mirror_syncs, restarted.mirror_sync_failures) == (1, 1)

    def test_a_transient_sync_fault_is_retried(self):
        injector = FaultInjector()
        injector.specs.append(FaultSpec(site="mirror.sync", times=2))
        federation = FederatedRegistry(injector=injector)
        federation.add_mirror("edge-0")
        service = AdaptationService(workers=2, seed=0, federation=federation)
        service.add_tenant("acme", max_workers=2)
        service.submit("acme", "hpccg", at=0.0)
        report = service.run()
        assert (report.mirror_syncs, report.mirror_sync_failures) == (1, 0)
        assert federation.divergences(federation.mirror("edge-0")) == []
        metrics = service.telemetry.metrics
        assert metrics.counter("resilience_retries_total").value == 2

    def test_a_persistent_sync_fault_opens_the_breaker(self):
        injector = FaultInjector()
        injector.specs.append(FaultSpec(site="mirror.sync", kind="persistent"))
        federation = FederatedRegistry(injector=injector)
        federation.add_mirror("edge-0")
        service = AdaptationService(workers=2, seed=0, federation=federation,
                                    breaker_threshold=2)
        service.add_tenant("acme", max_workers=2)
        for i, app in enumerate(("hpccg", "minife", "minimd")):
            service.submit("acme", app, at=100.0 * i)
        report = service.run()
        assert [o.status for o in report.outcomes] == [STATUS_COMPLETED] * 3
        assert (report.mirror_syncs, report.mirror_sync_failures) == (0, 3)
        breaker = service.breakers["mirrors"]
        assert breaker.state == STATE_OPEN and breaker.calls == 3
        assert breaker.rejections == 1

    def test_a_noisy_faulty_serve_run_leaves_no_mirror_behind(self, monkeypatch,
                                                             capsys):
        """The ``serve`` run that once failed 32 of 36 syncs (one
        transient chunk or sync fault each) and opened the breaker."""
        import repro.federation
        from repro import cli

        made = []

        class Federation(FederatedRegistry):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(repro.federation, "FederatedRegistry", Federation)
        argv = ["serve", "--tenants", "3", "--requests", "3", "--noisy",
                "--fault-rate", "0.05", "--seed", "5", "--mirrors", "2"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "breaker : mirrors closed" in out
        federation, = made
        assert len(federation.mirrors) == 2
        for mirror in federation.mirrors.values():
            assert federation.divergences(mirror) == []


class TestInjectedFaultsReachTelemetry:
    """The tenant engines borrow the service's injector per request; what
    it fires still lands on the service's recorder."""

    def test_the_service_records_every_fault_its_injector_fires(self):
        injector = FaultInjector(seed=3, rate=0.2, worker_crash_rate=0.1,
                                 worker_flaky_rate=0.1)
        service = AdaptationService(workers=2, seed=0, injector=injector)
        service.add_tenant("t", max_workers=2)
        for i in range(3):
            service.submit("t", "hpccg", at=float(i))
        service.run()
        raised = [r for r in injector.log if r.kind in ("transient", "persistent")]
        worker = [r for r in injector.log if r.kind == "worker"]
        assert raised and worker
        telemetry = service.telemetry
        metrics = telemetry.metrics
        assert metrics.counter("resilience_faults_fired_total").value == len(raised)
        assert metrics.counter("resilience_worker_faults_total").value == len(worker)
        names = [e.name for e in telemetry.events]
        assert names.count("fault.fired") == len(raised)
        assert names.count("fault.worker") == len(worker)
