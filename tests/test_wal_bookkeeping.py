"""The service's WAL queries, dedup gauge and tenant latencies, kept as
records land.

:class:`repro.service.ServiceWAL` folds each kept record into its
per-kind counts, terminal counts and open-request set,
:class:`repro.service.AdaptationService` keeps running sums of its
outcomes' node counts, and each tenant keeps its latencies sorted.  Each
must equal the scan over the whole history that it replaces (kept here as
the reference), after every append and every salvage of the
crash-at-every-record-boundary sweeps, and none may read the history
again.
"""

import random

import pytest

from repro import durable
from repro.resilience import FaultInjector
from repro.service import (
    PRIORITY_BATCH,
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    STATUS_COMPLETED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DEGRADED,
    STATUS_REJECTED,
    AdaptationService,
    ServiceCrash,
    ServiceWAL,
    percentile,
)
from repro.service.service import TenantState
from repro.telemetry import Telemetry
from tests.test_recovery_chaos import (
    crash_injector,
    crash_point,
    recover_and_finish,
    standard_workload,
)
from tests.test_recovery_fuzz import DAMAGE_MODELS, mutate

pytestmark = [pytest.mark.recovery, pytest.mark.service]


def scanned(wal):
    """``(stats, terminal counts, open request ids)`` of *wal*, each by a
    scan of every record."""
    terminals = {}
    for record in wal.records:
        if record.get("rec") == "terminal":
            rid = record.get("request_id", "")
            terminals[rid] = terminals.get(rid, 0) + 1
    open_ids = []
    for record in wal.records:
        rid = record.get("request_id", "")
        if (record.get("rec") in ("admit", "dispatch") and rid
                and rid not in terminals and rid not in open_ids):
            open_ids.append(rid)
    kinds = {}
    for record in wal.records:
        kind = record.get("rec", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
    stats = {
        "records": len(wal.records),
        "bytes": len(wal.flushed_bytes),
        "torn_records_dropped": wal.torn_records_dropped,
        "restarts": wal.restarts,
        "open_requests": len(open_ids),
        "by_kind": kinds,
    }
    return stats, terminals, open_ids


def assert_queries_match_scans(wal):
    stats, terminals, open_ids = scanned(wal)
    assert wal.stats() == stats
    assert list(wal.stats()["by_kind"]) == list(stats["by_kind"])
    assert list(wal.terminal_counts().items()) == list(terminals.items())
    assert wal.open_request_ids() == open_ids
    assert wal.open_request_count() == len(open_ids)


@pytest.fixture
def checked(monkeypatch):
    """Check every WAL's queries after each append and each salvage;
    returns the list of checked logs."""
    seen = []
    append = ServiceWAL.append
    from_bytes = ServiceWAL.__dict__["from_bytes"].__func__

    def checked_append(self, record):
        try:
            return append(self, record)
        finally:
            assert_queries_match_scans(self)
            seen.append(self)

    def checked_from_bytes(cls, data, injector=None):
        wal = from_bytes(cls, data, injector=injector)
        assert_queries_match_scans(wal)
        seen.append(wal)
        return wal

    monkeypatch.setattr(ServiceWAL, "append", checked_append)
    monkeypatch.setattr(ServiceWAL, "from_bytes", classmethod(checked_from_bytes))
    return seen


class NoIteration(list):
    """A list that fails whoever iterates it."""

    def __iter__(self):
        raise AssertionError("the whole history was read")


class TestWalQueriesEqualTheScans:
    @pytest.mark.parametrize("torn", [True, False], ids=["torn", "clean"])
    def test_at_every_record_boundary(self, checked, torn):
        reference = AdaptationService(workers=4, seed=11)
        standard_workload(reference)
        reference.run()
        boundaries = len(reference.wal.records)
        for crash_after in range(1, boundaries + 1):
            service = AdaptationService(
                workers=4, seed=11,
                injector=crash_injector(crash_point(crash_after, torn)))
            with pytest.raises(ServiceCrash):
                standard_workload(service)
                service.run()
            restarted = recover_and_finish(service)
            restarted.run()
            assert_queries_match_scans(restarted.wal)
        assert len(checked) > 2 * boundaries

    @pytest.mark.parametrize("model", DAMAGE_MODELS)
    def test_after_each_damaged_salvage(self, checked, model):
        service = AdaptationService(workers=4, seed=11)
        standard_workload(service)
        service.run()
        data = service.wal.flushed_bytes
        for seed in range(10):
            wal = ServiceWAL.from_bytes(mutate(data, random.Random(seed), model))
            wal.append({"rec": "admit", "t": 99.0, "request_id": "late/r0"})
            wal.append({"rec": "terminal", "t": 99.5, "request_id": "late/r0"})

    def test_queries_iterate_no_record(self):
        service = AdaptationService(workers=4, seed=11)
        standard_workload(service)
        service.run()
        wal = service.wal
        expected = (wal.stats(), wal.terminal_counts(), wal.open_request_ids())
        wal.records = NoIteration(wal.records)
        assert (wal.stats(), wal.terminal_counts(),
                wal.open_request_ids()) == expected
        assert wal.open_request_count() == len(expected[2])

    def test_a_terminal_closes_its_request_for_good(self):
        wal = ServiceWAL()
        for kind in ("admit", "terminal", "dispatch", "admit"):
            wal.append({"rec": kind, "t": 0.0, "request_id": "a/r0"})
        wal.append({"rec": "admit", "t": 0.0, "request_id": "a/r1"})
        assert wal.open_request_ids() == ["a/r1"]
        assert wal.terminal_counts() == {"a/r0": 1}

    def test_a_non_string_request_id_is_dropped_by_salvage(self):
        record = durable.seal({"rec": "terminal", "t": 0.0, "request_id": ["a", "r0"]})
        salvaged = ServiceWAL.from_bytes(
            ServiceWAL().flushed_bytes + durable.line(record))
        assert salvaged.records == []
        assert salvaged.torn_records_dropped == 1


def dedup_ratio(outcomes):
    hits = sum(o.cache_hit_nodes for o in outcomes)
    executed = sum(o.executed_nodes for o in outcomes)
    return hits / (hits + executed)


class TestDedupGauge:
    def test_equals_the_sum_over_every_outcome_at_each_finish(self, monkeypatch):
        update = AdaptationService._update_dedup_gauge
        readings = []

        def checked_update(self):
            update(self)
            gauge = self.telemetry.metrics.gauge("service_dedup_ratio")
            assert gauge.value == dedup_ratio(self.outcomes)
            readings.append(gauge.value)

        monkeypatch.setattr(AdaptationService, "_update_dedup_gauge", checked_update)
        service = AdaptationService(workers=4, seed=11,
                                    injector=crash_injector(crash_point(12, False)),
                                    telemetry=Telemetry())
        with pytest.raises(ServiceCrash):
            standard_workload(service)
            service.run()
        restarted = service.restart(telemetry=Telemetry())
        restarted.submit("beta", "hpccg", at=40.0)    # a shared-cache hit
        restarted.run()
        assert any(o.recovered for o in restarted.outcomes)
        assert len(readings) >= 3 and 0.0 < readings[-1] < 1.0

    def test_reads_only_new_outcomes(self):
        telemetry = Telemetry()
        service = AdaptationService(workers=4, seed=11, telemetry=telemetry)
        standard_workload(service)
        service.run()
        expected = dedup_ratio(service.outcomes)
        gauge = telemetry.metrics.gauge("service_dedup_ratio")
        gauge.set(-1.0)
        service.outcomes = NoIteration(service.outcomes)
        service._update_dedup_gauge()
        assert gauge.value == expected


class TestTenantLatencies:
    """A tenant's p50 and p99 equal :func:`percentile` of its latencies in
    arrival order, though its summary sorts nothing."""

    @pytest.mark.parametrize("seed", range(5))
    def test_summary_equals_percentile_of_the_unsorted_latencies(self, seed):
        rng = random.Random(seed)
        tenant = TenantState(name="t")
        arrived = []
        for _ in range(60):
            latency = round(rng.expovariate(0.2), rng.choice((0, 1, 3)))
            tenant.note_latency(latency)
            arrived.append(latency)
            summary = tenant.summary()
            assert summary["p50"] == percentile(arrived, 0.50)
            assert summary["p99"] == percentile(arrived, 0.99)
        assert tenant.latencies == sorted(arrived)

    def test_a_restart_restores_them(self):
        service = AdaptationService(workers=4, seed=11,
                                    injector=crash_injector(crash_point(18, False)))
        with pytest.raises(ServiceCrash):
            standard_workload(service)
            service.run()
        restarted = recover_and_finish(service)
        restarted.run()
        assert any(o.recovered for o in restarted.outcomes)
        for name, tenant in restarted.tenants.items():
            arrived = [o.latency for o in restarted.outcomes if o.tenant == name
                       and o.status in (STATUS_COMPLETED, STATUS_DEGRADED)]
            assert arrived
            summary = tenant.summary()
            assert summary["p50"] == percentile(arrived, 0.50)
            assert summary["p99"] == percentile(arrived, 0.99)


def accounting(service):
    """Every tenant's accounting and the service's cost sums."""
    tenants = {
        name: (t.submitted, t.completed, t.degraded, t.rejected,
               t.deadline_exceeded, list(t.latencies), t.vtime,
               t.served_seconds, t.retry_spent)
        for name, t in service.tenants.items()
    }
    return tenants, service._cost_sum, service._cost_n


class TestReplayEqualsLive:
    """A restart of a finished service restores every tenant's accounting
    exactly, bit for bit: the WAL's terminal records replay through the
    same tally that counted them live."""

    # Seeds whose runs reject and expire requests and spend retry time.
    @pytest.mark.parametrize("seed", (0, 1, 2, 4))
    def test_a_restart_restores_the_accounting(self, seed):
        rng = random.Random(seed)
        service = AdaptationService(workers=2, seed=seed, queue_capacity=3,
                                    injector=FaultInjector(seed=seed, rate=0.1))
        service.add_tenant("a", weight=2.0, max_workers=2)
        service.add_tenant("b", max_workers=1, rate=0.1, burst=2)
        for _ in range(10):
            service.submit(
                rng.choice("ab"), rng.choice(("hpccg", "minife", "minimd", "comd")),
                at=rng.uniform(0.0, 10.0),
                priority=rng.choice((PRIORITY_HIGH, PRIORITY_NORMAL,
                                     PRIORITY_NORMAL, PRIORITY_BATCH)),
                deadline=rng.choice((None, None, 1.0, 4.0)))
        counts = service.run().by_status()
        assert counts[STATUS_REJECTED] and counts[STATUS_DEADLINE_EXCEEDED]
        assert accounting(service.restart()) == accounting(service)
