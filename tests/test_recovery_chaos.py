"""Durable-recovery chaos suite (ISSUE 10 acceptance criteria).

Crash/restart sweeps over the service write-ahead log plus the
generation-fenced origin-failover tier:

* **Exactly-once terminal statuses** — for every WAL record boundary
  (torn and clean), a crash there followed by a restart leaves every
  admitted request with exactly one typed terminal status, and the
  status multiset matches the crash-free baseline.
* **Zero checkpointed re-execution** — a request whose dispatch record
  survived the crash resumes through its ``+coMre`` manifest and
  re-executes no rebuild node; its adapted image is byte-identical to
  the crash-free run's.
* **Multi-crash chains** — the invariant survives repeated crashes,
  including crashes during the recovered run.
* **Origin failover** — a persistent origin outage opens the registry
  breaker, promotes the freshest converged mirror behind a fence epoch,
  rejects every stale-fence write, and serves digest-identical pulls
  through the promoted origin; the demoted origin rejoins as a mirror
  and converges.

Everything runs on the seeded simulated timeline: crashes reshape
*when* records hit the log, never what the recovered service computes.
A crash at a WAL record is a scripted ``service.crash`` fault
(:func:`crash_injector`); a crash at a simulated time is
``run(crash_at=T)``.  A crash can land during workload *setup* (a tenant
or submit append); the sweep models the clients' side of that contract
by re-submitting exactly the workload tail whose submit records never
reached the log.
"""

import pytest

from repro.federation import FederatedRegistry, FencedWriteError
from repro.resilience import FaultInjector, FaultSpec
from repro.service import (
    STATE_CLOSED,
    STATE_OPEN,
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    TERMINAL_STATUSES,
    AdaptationService,
    ServiceCrash,
)

pytestmark = [pytest.mark.recovery, pytest.mark.service]


APPS_UNDER_TEST = ("hpccg", "minimd", "lulesh")

TENANTS = ("acme", "beta")


def workload_entries(apps=APPS_UNDER_TEST):
    """Two tenants, a mixed-app arrival pattern with a late repeat."""
    return [
        ("acme", apps[0], 0.0),
        ("beta", apps[1], 1.0),
        ("acme", apps[2], 2.0),
        ("acme", apps[0], 30.0),
    ]


def standard_workload(service, apps=APPS_UNDER_TEST):
    for name in TENANTS:
        service.add_tenant(name, max_workers=4)
    for tenant, app, at in workload_entries(apps):
        service.submit(tenant, app, at=at)


def crash_point(n, torn):
    """The ``service.crash`` key of the *n*-th WAL append (1-based, the
    whole log counted), torn or clean."""
    return f"wal/{n}/{'torn' if torn else 'clean'}"


def crash_injector(*points):
    """An injector that kills the service once at each WAL append key in
    *points* (see :func:`crash_point`) and injects nothing else."""
    return FaultInjector(specs=[
        FaultSpec(site="service.crash", match=point) for point in points])


def recover_and_finish(service, apps=APPS_UNDER_TEST):
    """Restart a crashed service and replay the client side: tenants
    and submits whose records died with the crash are re-issued (the
    salvaged ``seq`` counter keeps the request ids identical)."""
    restarted = service.restart()
    for name in TENANTS:
        if name not in restarted.tenants:
            restarted.add_tenant(name, max_workers=4)
    done = sum(1 for r in restarted.wal.records if r["rec"] == "submit")
    for tenant, app, at in workload_entries(apps)[done:]:
        restarted.submit(tenant, app, at=at)
    return restarted


def run_baseline(seed=11, apps=APPS_UNDER_TEST):
    """Crash-free reference run: statuses + adapted layer digests."""
    service = AdaptationService(workers=4, seed=seed)
    standard_workload(service, apps)
    report = service.run()
    keys = {}
    for outcome in report.outcomes:
        if outcome.status in (STATUS_COMPLETED, STATUS_DEGRADED):
            image = service.tenants[outcome.tenant].engine.image(
                f"{outcome.tenant}/{outcome.app}:adapted")
            keys[(outcome.tenant, outcome.app)] = image.layer_key()
    return report, keys


def status_multiset(report):
    return sorted((o.request_id, o.status) for o in report.outcomes)


def assert_exactly_once(service, report, baseline_report):
    """The core invariant: one terminal per admitted request, matching
    the crash-free run."""
    counts = service.wal.terminal_counts()
    assert counts, "no terminal records survived"
    assert set(counts.values()) == {1}, f"duplicated terminals: {counts}"
    assert status_multiset(report) == status_multiset(baseline_report)
    for outcome in report.outcomes:
        assert outcome.status in TERMINAL_STATUSES


def assert_byte_identity(service, report, baseline_keys):
    """Every rebuild the restarted process ran is byte-identical to the
    crash-free run (recovered outcomes never re-ran, so they have no
    post-restart image to compare)."""
    for outcome in report.outcomes:
        if outcome.recovered:
            continue
        if outcome.status not in (STATUS_COMPLETED, STATUS_DEGRADED):
            continue
        image = service.tenants[outcome.tenant].engine.image(
            f"{outcome.tenant}/{outcome.app}:adapted")
        assert image.layer_key() == baseline_keys[
            (outcome.tenant, outcome.app)], outcome.request_id


class TestCrashAtEveryRecordBoundary:
    """Sweep a crash over every WAL append, torn and clean."""

    def reference_records(self, seed=11):
        service = AdaptationService(workers=4, seed=seed)
        standard_workload(service)
        service.run()
        return service.wal.records

    @pytest.mark.parametrize("torn", [True, False])
    def test_exactly_once_at_every_boundary(self, torn):
        records = self.reference_records()
        assert len(records) >= 10
        baseline_report, baseline_keys = run_baseline()
        for crash_after in range(1, len(records) + 1):
            injector = crash_injector(crash_point(crash_after, torn))
            service = AdaptationService(workers=4, seed=11, injector=injector)
            with pytest.raises(ServiceCrash):
                standard_workload(service)
                service.run()
            assert injector.fired("service.crash")
            restarted = recover_and_finish(service)
            report = restarted.run()
            assert_exactly_once(restarted, report, baseline_report)
            assert_byte_identity(restarted, report, baseline_keys)

    def test_crash_points_cover_all_phases(self):
        """The sweep really crosses mid-queue, mid-dispatch and
        mid-terminal appends (the scenario floor in the acceptance
        criteria), not just one record kind."""
        kinds = {record["rec"] for record in self.reference_records()}
        assert {"submit", "admit", "dispatch", "terminal"} <= kinds


class TestCrashAcrossApps:
    """Timepoint crashes across >= 3 app specs."""

    @pytest.mark.parametrize("apps", [
        ("hpccg", "minimd", "lulesh"),
        ("minimd", "comd", "hpccg"),
        ("lulesh", "hpccg", "minife"),
    ])
    @pytest.mark.parametrize("crash_at", [0.5, 1.5, 2.5])
    def test_timepoint_crash_restart(self, apps, crash_at):
        baseline_report, baseline_keys = run_baseline(apps=apps)
        service = AdaptationService(workers=4, seed=11)
        standard_workload(service, apps)
        with pytest.raises(ServiceCrash):
            service.run(crash_at=crash_at)
        restarted = recover_and_finish(service, apps=apps)
        report = restarted.run()
        assert_exactly_once(restarted, report, baseline_report)
        assert_byte_identity(restarted, report, baseline_keys)


class TestZeroReExecution:
    """A surviving dispatch record means the resumed request re-executes
    nothing: its rebuild comes entirely from the checkpointed state."""

    def test_resumed_request_executes_zero_nodes(self):
        reference = AdaptationService(workers=4, seed=11)
        standard_workload(reference)
        reference.run()
        dispatch_indices = [
            i for i, record in enumerate(reference.wal.records)
            if record["rec"] == "dispatch"
        ]
        assert dispatch_indices
        resumed_seen = 0
        for index in dispatch_indices:
            # Crash on the append *after* the dispatch record flushed.
            service = AdaptationService(
                workers=4, seed=11,
                injector=crash_injector(crash_point(index + 2, True)))
            with pytest.raises(ServiceCrash):
                standard_workload(service)
                service.run()
            dispatched_open = {
                record["request_id"]
                for record in service.wal.records
                if record["rec"] == "dispatch"
            } - set(service.wal.terminal_counts())
            restarted = recover_and_finish(service)
            report = restarted.run()
            assert restarted.wal.terminal_counts()
            for outcome in report.outcomes:
                if outcome.request_id in dispatched_open:
                    resumed_seen += 1
                    assert outcome.executed_nodes == 0, outcome.request_id
                    assert outcome.reused_nodes > 0
        assert resumed_seen > 0

    def test_restart_never_exceeds_baseline_work(self):
        baseline_report, _ = run_baseline()
        baseline_nodes = sum(
            o.executed_nodes for o in baseline_report.outcomes)
        service = AdaptationService(workers=4, seed=11)
        standard_workload(service)
        with pytest.raises(ServiceCrash):
            service.run(crash_at=2.5)
        restarted = recover_and_finish(service)
        report = restarted.run()
        restarted_nodes = sum(o.executed_nodes for o in report.outcomes)
        assert restarted_nodes <= baseline_nodes


class TestMultiCrashChains:
    """Exactly-once across chains of crashes, including crashes during
    the recovered run."""

    def test_two_crashes_then_clean_run(self):
        baseline_report, baseline_keys = run_baseline()
        service = AdaptationService(
            workers=4, seed=11, injector=crash_injector(crash_point(6, True)))
        with pytest.raises(ServiceCrash):
            standard_workload(service)
            service.run()
        second = recover_and_finish(service)
        with pytest.raises(ServiceCrash):
            second.run(crash_at=2.5)
        third = recover_and_finish(second)
        report = third.run()
        assert third.wal.restarts == 2
        assert_exactly_once(third, report, baseline_report)
        assert_byte_identity(third, report, baseline_keys)

    def test_crash_chain_sweep(self):
        """Seeded chain sweep: crash at record k, then at record k+5 of
        the continued log, then finish clean."""
        baseline_report, _ = run_baseline()
        for first in (4, 8, 12):
            # Both crash points on one injector: the restarted process
            # shares it, and the first spec is consumed when it fires.
            injector = crash_injector(crash_point(first, first % 2 == 0),
                                      crash_point(first + 5, True))
            service = AdaptationService(workers=4, seed=11, injector=injector)
            with pytest.raises(ServiceCrash):
                standard_workload(service)
                service.run()
            second = recover_and_finish(service)
            try:
                report = second.run()
                final = second
            except ServiceCrash:
                final = recover_and_finish(second)
                report = final.run()
            assert_exactly_once(final, report, baseline_report)


class TestTornTerminalWrite:
    """A terminal record torn mid-write is the hard case: the request
    finished, but its commit point is gone — it must re-run and end
    with exactly one valid terminal."""

    def test_torn_terminal_reruns_exactly_once(self):
        reference = AdaptationService(workers=4, seed=11)
        standard_workload(reference)
        reference.run()
        terminal_indices = [
            i for i, record in enumerate(reference.wal.records)
            if record["rec"] == "terminal"
        ]
        assert terminal_indices
        baseline_report, baseline_keys = run_baseline()
        for index in terminal_indices:
            service = AdaptationService(
                workers=4, seed=11,
                injector=crash_injector(crash_point(index + 1, True)))
            with pytest.raises(ServiceCrash):
                standard_workload(service)
                service.run()
            restarted = recover_and_finish(service)
            # The torn terminal line was dropped by salvage.
            assert restarted.wal.torn_records_dropped >= 1
            report = restarted.run()
            assert_exactly_once(restarted, report, baseline_report)
            assert_byte_identity(restarted, report, baseline_keys)


def bucket_level(service, tenant, t):
    """The tenant's token count refilled to simulated time *t*."""
    bucket = service.tenants[tenant].bucket
    bucket.retry_after(t)   # refills to t
    return bucket.tokens


class TestTokenReplay:
    """A queue-full rejection took its token before the queue refused
    the arrival; a restart must not hand that token back."""

    def test_restart_keeps_tokens_spent_on_queue_full(self):
        service = AdaptationService(workers=1, queue_capacity=2, seed=0)
        service.add_tenant("acme", rate=0.01, burst=8)
        for _ in range(6):
            service.submit("acme", "hpccg", at=0.0)
        with pytest.raises(ServiceCrash):
            service.run(crash_at=0.5)
        assert any(o.reasons == ["queue-full"] for o in service.outcomes)
        before = bucket_level(service, "acme", 0.5)
        assert before == pytest.approx(2.005)
        restarted = service.restart()
        assert bucket_level(restarted, "acme", 0.5) == pytest.approx(before)


def make_image(seed=b"payload-", reps=600, path="/app/bin"):
    from repro.oci.blobs import Blob
    from repro.oci.image import ImageConfig, Manifest
    from repro.oci.layer import Layer, LayerEntry
    from repro.vfs import InlineContent

    layer = Layer().add(
        LayerEntry.file(path, InlineContent(seed * reps), mode=0o755)
    )
    config = ImageConfig(
        architecture="amd64", env=["PATH=/usr/bin"], entrypoint=[path]
    )
    config.diff_ids.append(layer.digest)
    manifest = Manifest(
        config=config.descriptor(),
        layers=[Blob.from_layer(layer).descriptor()],
    )
    return manifest, config, layer


def seeded_federation(apps=("hpccg",), mirrors=("edge-a", "edge-b")):
    """Origin + converged mirrors holding one image per app."""
    fed = FederatedRegistry()
    for app in apps:
        manifest, config, layer = make_image(seed=app.encode() + b"-")
        fed.push(f"{app}:dist", manifest, config, [layer])
    for name in mirrors:
        fed.add_mirror(name)
        fed.sync_mirror(name)
    return fed


class TestOriginFailover:
    """Acceptance: digest-identical pulls through the promoted origin,
    zero accepted stale-fence writes."""

    def test_failover_sweep(self):
        for apps in (("hpccg",), ("minimd", "hpccg"), ("lulesh",)):
            fed = seeded_federation(apps=apps)
            before = {
                app: fed.origin.manifest_digest(f"{app}:dist")
                for app in apps
            }
            stale = fed.fenced_writer()
            promotion = fed.fail_over()
            assert promotion.elected == "edge-a"   # deterministic election
            assert promotion.fence_token == 1
            # Zero accepted stale-fence writes: the demoted writer is
            # rejected, counted, and changes nothing.
            generation = fed.generation
            with pytest.raises(FencedWriteError):
                stale.tag_manifest(f"{apps[0]}:stale", before[apps[0]])
            assert fed.fenced_rejections == 1
            assert fed.generation == generation
            for app in apps:
                assert f"{app}:stale" not in fed.origin.manifest_map()
                # Promoted-origin pulls digest-identical to pre-failure.
                assert fed.origin.manifest_digest(
                    f"{app}:dist") == before[app]
                assert fed.pull(f"{app}:dist") is not None
            report = fed.rejoin_demoted()
            assert report is not None
            assert not fed.audit().get("demoted-origin-0")

    def test_fresh_writer_outlives_fence(self):
        fed = seeded_federation()
        fed.fail_over()
        writer = fed.fenced_writer()
        generation = fed.generation
        digest = fed.origin.manifest_digest("hpccg:dist")
        writer.tag_manifest("hpccg:blessed", digest)
        assert fed.generation == generation + 1
        assert not writer.stale


class TestServiceAutoFailover:
    """The registry breaker's open transition triggers mirror promotion;
    half-open probes route through the promoted origin."""

    def build(self, injector=None):
        fed = seeded_federation(apps=("hpccg",))
        if injector is not None:
            fed.origin.fault_injector = injector
        service = AdaptationService(
            workers=4, seed=11, federation=fed,
            breaker_threshold=2, injector=injector)
        service.add_tenant("acme", max_workers=4)
        return service, fed

    def test_breaker_open_promotes_mirror(self):
        injector = FaultInjector(seed=3, specs=[
            FaultSpec(site="registry.push", kind="persistent", match="")])
        service, fed = self.build(injector)
        for i in range(4):
            service.submit("acme", "hpccg", at=5.0 * i)
        # Past the 180s reset so the breaker half-opens and probes
        # through the promoted origin.
        service.submit("acme", "hpccg", at=250.0)
        report = service.run()
        assert fed.failovers == 1
        assert report.failovers == 1
        assert service.registry is fed.origin
        assert service.registry.fault_injector is None
        transitions = service.breakers["registry"].transitions
        assert any(to == STATE_OPEN for _, _, to in transitions)
        assert service.breakers["registry"].state == STATE_CLOSED
        # The late request completed through the promoted origin.
        late = [o for o in report.outcomes if o.submitted_at >= 250.0]
        assert late and late[0].status == STATUS_COMPLETED
        # And the failover is itself a durable WAL record.
        assert b'"failover"' in service.wal.flushed_bytes
