"""Unit tests for the fault-tolerant rebuild worker fleet.

Covers the fleet timeline simulation (crash/lease/reassignment math,
speculation, blacklisting, exhaustion), the injector's worker fault
family and its sweep controls (``disarm``/``reset``), the journal's
lease lines, and the zero-executed-group guards on
:class:`ScheduleReport`.
"""

import pytest

from repro import durable
from repro.core.backend.scheduler import ScheduleReport, WaveStats, lpt_schedule
from repro.oci.layout import OCILayout
from repro.resilience import (
    WORKER_SITES,
    FaultInjector,
    FaultSpec,
    FleetExhaustedError,
    FleetStats,
    HeartbeatMonitor,
    PersistentFault,
    RebuildJournal,
    WorkerFleet,
    find_fleet_exhausted,
)
from repro.resilience.retry import SimulatedClock


def _entries(costs):
    return [(f"g{i}", cost) for i, cost in enumerate(costs)]


class TestFaultFreeEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    def test_wave_matches_lpt_schedule_exactly(self, jobs):
        costs = [3.0, 1.0, 2.0, 5.0, 4.0, 0.5]
        fleet = WorkerFleet(jobs=jobs)
        outcome = fleet.run_wave(0, _entries(costs))
        expected, _ = lpt_schedule(costs, jobs)
        assert outcome.makespan == pytest.approx(expected)
        assert set(outcome.completed) == {f"g{i}" for i in range(len(costs))}
        assert not outcome.exhausted
        assert not fleet.stats.any_faults
        assert fleet.stats.workers_alive == jobs
        # The fleet clock advanced by exactly the wave makespan.
        assert fleet.clock.now == pytest.approx(expected)

    def test_empty_wave_is_free(self):
        fleet = WorkerFleet(jobs=4)
        outcome = fleet.run_wave(0, [])
        assert outcome.makespan == 0.0
        assert outcome.completed == {}
        assert fleet.clock.now == 0.0

    def test_inert_injector_consumes_no_randomness(self):
        """With no worker specs and zero worker rates, dispatching a wave
        must not touch the injector's seeded stream — pre-fleet chaos
        sweeps must replay identically with the fleet in place."""
        injector = FaultInjector(seed=7, rate=0.5)
        before = injector._rng.getstate()
        fleet = WorkerFleet(jobs=4, injector=injector)
        fleet.run_wave(0, _entries([1.0, 2.0, 3.0]))
        assert injector._rng.getstate() == before
        assert injector.log == []


class TestCrashRecovery:
    def test_crash_expires_lease_and_reassigns(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.crash", match="", times=1)]
        )
        fleet = WorkerFleet(jobs=2, injector=injector)
        outcome = fleet.run_wave(0, _entries([4.0]))
        # w0 dies at 0.5 * 4.0 = 2.0; the lease expires a full timeout
        # (5.0 * 3) later; w1 picks the group up at 17.0 and finishes at
        # 21.0 — crash recovery is charged to the makespan.
        assert outcome.makespan == pytest.approx(21.0)
        assert outcome.completed["g0"] == pytest.approx(21.0)
        assert outcome.owners["g0"] == "w0"
        assert not fleet.workers[0].alive
        assert fleet.workers[1].alive
        assert fleet.stats.crashes == 1
        assert fleet.stats.lease_expirations == 1
        assert fleet.stats.reassignments == 1
        assert fleet.stats.workers_alive == 1
        expired = fleet.monitor.expired
        assert len(expired) == 1 and expired[0].worker == "w0"

    def test_peers_unaffected_by_crash(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.crash", match="g0", times=1)]
        )
        fleet = WorkerFleet(jobs=2, injector=injector)
        outcome = fleet.run_wave(0, _entries([4.0, 2.0]))
        # The peer completes normally on w1 at 2.0; the crashed group is
        # reassigned to w1 once the lease expires (detect = 17.0).
        assert outcome.completed["g1"] == pytest.approx(2.0)
        assert outcome.completed["g0"] == pytest.approx(21.0)
        assert outcome.makespan == pytest.approx(21.0)

    def test_exhaustion_when_every_worker_dies(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.crash", match="", times=-1)]
        )
        fleet = WorkerFleet(jobs=2, injector=injector)
        outcome = fleet.run_wave(3, _entries([4.0, 2.0]))
        assert outcome.exhausted
        assert set(outcome.pending) == {"g0", "g1"}
        assert fleet.stats.exhausted_waves == 1
        assert fleet.stats.workers_alive == 0
        err = FleetExhaustedError(3, outcome.pending, fleet.stats)
        assert err.transient is False
        assert "wavefront 3" in str(err)
        assert err.pending == outcome.pending


class TestFlakyBlacklist:
    def test_flaky_attempt_burns_cost_and_strikes(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.flaky", match="", times=1)]
        )
        fleet = WorkerFleet(jobs=2, injector=injector)
        outcome = fleet.run_wave(0, _entries([2.0]))
        # w0 burns the full cost, fails, and the retry lands on w1 (the
        # failing worker is excluded) no earlier than the failure time.
        assert outcome.completed["g0"] == pytest.approx(4.0)
        assert outcome.makespan == pytest.approx(4.0)
        assert fleet.workers[0].strikes == 1
        assert fleet.workers[0].alive and not fleet.workers[0].blacklisted
        assert fleet.stats.flaky_failures == 1
        assert fleet.stats.reassignments == 1

    def test_repeatedly_flaky_worker_is_blacklisted(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.flaky", match="", times=1)]
        )
        fleet = WorkerFleet(jobs=2, injector=injector, max_worker_failures=1)
        fleet.run_wave(0, _entries([2.0]))
        assert fleet.workers[0].blacklisted
        assert not fleet.workers[0].active
        assert fleet.stats.blacklisted == ["w0"]
        assert fleet.stats.workers_alive == 1

    def test_blacklisting_everyone_exhausts_the_fleet(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.flaky", match="", times=-1)]
        )
        fleet = WorkerFleet(jobs=1, injector=injector, max_worker_failures=1)
        outcome = fleet.run_wave(0, _entries([2.0]))
        assert outcome.exhausted
        assert outcome.pending == ["g0"]
        assert fleet.stats.blacklisted == ["w0"]


class TestSpeculation:
    def test_speculative_duplicate_wins(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.straggle", match="", times=1)]
        )
        fleet = WorkerFleet(jobs=2, injector=injector)
        outcome = fleet.run_wave(0, _entries([4.0]))
        # Straggler detected at 2x cost (8.0); the duplicate starts on w1
        # at 8.0 and finishes at 12.0 — well before the straggler's 16.0.
        assert outcome.makespan == pytest.approx(12.0)
        assert outcome.completed["g0"] == pytest.approx(12.0)
        assert fleet.stats.straggles == 1
        assert fleet.stats.speculative_launches == 1
        assert fleet.stats.speculative_wins == 1

    def test_no_speculate_waits_out_the_straggler(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.straggle", match="", times=1)]
        )
        fleet = WorkerFleet(jobs=2, injector=injector, speculate=False)
        outcome = fleet.run_wave(0, _entries([4.0]))
        assert outcome.makespan == pytest.approx(16.0)
        assert fleet.stats.speculative_launches == 0

    def test_straggler_can_beat_a_late_duplicate(self):
        # The busy peer (13.0) means the duplicate would start at 13.0 and
        # finish at 17.0, after the straggler's own 16.0: the launch is
        # charged, but first-complete-wins goes to the original.
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.straggle", match="g1", times=1)]
        )
        fleet = WorkerFleet(jobs=2, injector=injector)
        outcome = fleet.run_wave(0, _entries([13.0, 4.0]))
        assert outcome.completed["g1"] == pytest.approx(16.0)
        assert outcome.makespan == pytest.approx(16.0)
        assert fleet.stats.speculative_launches == 1
        assert fleet.stats.speculative_wins == 0

    def test_straggler_with_no_other_worker_runs_slow(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.straggle", match="", times=1)]
        )
        fleet = WorkerFleet(jobs=1, injector=injector)
        outcome = fleet.run_wave(0, _entries([4.0]))
        assert outcome.makespan == pytest.approx(16.0)
        assert fleet.stats.speculative_launches == 0


class TestHeartbeatMonitor:
    def test_lease_timeout_is_interval_times_misses(self):
        monitor = HeartbeatMonitor(heartbeat_interval=2.0, misses_allowed=4)
        assert monitor.lease_timeout == pytest.approx(8.0)

    def test_grant_expire_release(self):
        clock = SimulatedClock()
        monitor = HeartbeatMonitor(clock=clock)
        lease = monitor.grant("g0", "w1", now=3.0, wave=2)
        assert lease.deadline == pytest.approx(3.0 + monitor.lease_timeout)
        assert monitor.active["g0"] is lease
        assert monitor.expire("g0") is lease
        assert monitor.expired == [lease]
        assert "g0" not in monitor.active
        monitor.grant("g1", "w0", now=0.0, wave=0)
        monitor.release("g1")
        assert monitor.active == {}
        assert monitor.expire("g1") is None


class TestWorkerEvents:
    def test_non_worker_site_rejected(self):
        injector = FaultInjector()
        with pytest.raises(ValueError):
            injector.worker_event("rebuild.node", "w0/x")

    def test_scripted_spec_fires_and_decrements(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.crash", match="g0", times=1)]
        )
        assert injector.worker_event("worker.crash", "w0/g0")
        assert not injector.worker_event("worker.crash", "w0/g0")
        assert [r.kind for r in injector.log] == ["worker"]

    def test_negative_times_fires_forever(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.flaky", match="", times=-1)]
        )
        assert all(
            injector.worker_event("worker.flaky", f"w0/g{i}") for i in range(3)
        )

    def test_seeded_rate_fires_deterministically(self):
        keys = [f"w{i}/g{i}" for i in range(32)]
        first = FaultInjector(seed=11, worker_crash_rate=0.5)
        second = FaultInjector(seed=11, worker_crash_rate=0.5)
        outcomes = [first.worker_event("worker.crash", k) for k in keys]
        assert any(outcomes) and not all(outcomes)
        assert outcomes == [
            second.worker_event("worker.crash", k) for k in keys
        ]

    def test_worker_sites_are_complete(self):
        assert WORKER_SITES == {"worker.crash", "worker.straggle",
                                "worker.flaky"}


class TestDisarmReset:
    def test_disarm_silences_one_site(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="rebuild.node", kind="persistent", match="")]
        )
        injector.disarm("rebuild.node")
        injector.arm("rebuild.node", "n1")   # must not raise
        injector.rearm("rebuild.node")
        with pytest.raises(PersistentFault):
            injector.arm("rebuild.node", "n1")

    def test_disarm_silences_worker_events(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.crash", match="", times=-1)]
        )
        injector.disarm("worker.crash")
        assert not injector.worker_event("worker.crash", "w0/g0")
        injector.rearm("worker.crash")
        assert injector.worker_event("worker.crash", "w0/g0")

    def test_reset_restores_consumed_spec_budget(self):
        injector = FaultInjector(
            specs=[FaultSpec(site="worker.flaky", match="", times=1)]
        )
        assert injector.worker_event("worker.flaky", "w0/g0")
        assert not injector.worker_event("worker.flaky", "w0/g0")
        assert injector.reset() is injector
        assert injector.worker_event("worker.flaky", "w0/g0")
        assert len(injector.log) == 1   # the log was cleared too

    def test_reset_replays_the_seeded_stream(self):
        injector = FaultInjector(seed=3, worker_straggle_rate=0.4)
        keys = [f"w0/g{i}" for i in range(20)]
        first = [injector.worker_event("worker.straggle", k) for k in keys]
        injector.reset()
        # reset() without arguments replays the identical fault pattern.
        assert [
            injector.worker_event("worker.straggle", k) for k in keys
        ] == first
        assert any(first)

    def test_reset_reconfigures_rates_and_clears_state(self):
        injector = FaultInjector(seed=1, rate=0.5)
        injector.disarm("worker.crash")
        injector.enabled = False
        injector.reset(seed=9, rate=0.0, worker_crash_rate=1.0)
        assert injector.enabled
        assert injector.seed == 9
        assert injector.rate == 0.0
        assert injector.worker_event("worker.crash", "w0/g0")

    def test_unset_rates_revert_to_constructed_values(self):
        # A shared sweep injector must not leak one iteration's rates
        # into the next: reset(seed=...) alone reverts everything else.
        injector = FaultInjector(seed=1, rate=0.1)
        injector.reset(seed=2, rate=0.9, worker_flaky_rate=1.0)
        injector.reset(seed=3)
        assert injector.rate == 0.1
        assert injector.worker_flaky_rate == 0.0
        assert not injector.worker_event("worker.flaky", "w0/g0")


class TestFleetStats:
    def test_merge_accumulates_across_rebuilds(self):
        a = FleetStats(jobs=2, workers_alive=1, crashes=1, straggles=2,
                       reassignments=3, speculative_launches=1,
                       speculative_wins=1, blacklisted=["w0"])
        b = FleetStats(jobs=1, workers_alive=1, crashes=0, flaky_failures=2,
                       reassignments=1, blacklisted=["w0", "w1"])
        merged = a.merge(b)
        assert merged.jobs == 2
        assert merged.workers_alive == 1   # latest fleet's survivors
        assert merged.crashes == 1
        assert merged.straggles == 2
        assert merged.flaky_failures == 2
        assert merged.reassignments == 4
        assert merged.blacklisted == ["w0", "w1"]
        assert merged.any_faults

    def test_summary_line_and_json(self):
        stats = FleetStats(jobs=4, workers_alive=3, crashes=1,
                           speculative_launches=2, speculative_wins=1)
        line = stats.summary_line()
        assert "fleet jobs=4" in line
        assert "crashes=1" in line
        assert "speculative-wins=1/2" in line
        assert stats.to_json()["blacklisted"] == []


class TestFindFleetExhausted:
    def test_walks_cause_chains(self):
        inner = FleetExhaustedError(1, ["g0"], FleetStats(jobs=2))
        middle = RuntimeError("rebuild failed")
        middle.__cause__ = inner
        outer = RuntimeError("adapt failed")
        outer.__context__ = middle
        assert find_fleet_exhausted(outer) is inner

    def test_returns_none_without_exhaustion(self):
        assert find_fleet_exhausted(RuntimeError("x")) is None

    def test_survives_cyclic_context(self):
        a = RuntimeError("a")
        b = RuntimeError("b")
        a.__context__ = b
        b.__context__ = a
        assert find_fleet_exhausted(a) is None


class TestScheduleReportGuards:
    def test_zero_executed_plan_reports_vacuous_ratios(self):
        # A fully-cached (warm artifact cache) or empty rebuild executes
        # nothing: speedup and utilization must not divide by zero.
        report = ScheduleReport(jobs=8, groups_total=5, groups_executed=0)
        report.waves.append(
            WaveStats(index=0, width=5, executed=0, makespan=0.0, busy=0.0)
        )
        assert report.speedup == 1.0
        assert report.utilization == 1.0
        assert report.to_json()["speedup"] == 1.0
        assert "speedup=1.00x" in report.summary_line()

    def test_executed_plan_keeps_real_ratios(self):
        report = ScheduleReport(jobs=2, groups_total=2, groups_executed=2,
                                makespan_seconds=5.0, serial_seconds=10.0)
        report.waves.append(
            WaveStats(index=0, width=2, executed=2, makespan=5.0, busy=10.0)
        )
        assert report.speedup == pytest.approx(2.0)
        assert report.utilization == pytest.approx(1.0)

    def test_fleet_stats_serialized_in_report(self):
        report = ScheduleReport(jobs=2)
        assert report.to_json()["fleet"] is None
        report.fleet = FleetStats(jobs=2, workers_alive=2)
        assert report.to_json()["fleet"]["jobs"] == 2


class TestJournalLeases:
    def test_lease_lines_round_trip(self):
        layout = OCILayout()
        journal = RebuildJournal(layout, "app.dist")
        journal.record_lease("abc123", "w1", 2, nodes=["o1", "o2"],
                             expires=41.5)
        journal.flush()
        reloaded = RebuildJournal(layout, "app.dist")
        assert reloaded.torn_entries_dropped == 0
        leases = reloaded.leases()
        assert leases["abc123"]["worker"] == "w1"
        assert leases["abc123"]["wave"] == 2
        assert leases["abc123"]["nodes"] == ["o1", "o2"]

    def test_cleared_lease_does_not_persist(self):
        layout = OCILayout()
        journal = RebuildJournal(layout, "app.dist")
        journal.record_lease("abc", "w0", 0)
        journal.record_lease("def", "w1", 0)
        journal.clear_lease("abc")
        journal.flush()
        assert set(RebuildJournal(layout, "app.dist").leases()) == {"def"}
        journal.clear_leases()
        journal.flush()
        assert RebuildJournal(layout, "app.dist").leases() == {}

    def test_invalid_lease_line_counts_as_dropped(self):
        layout = OCILayout()
        journal = RebuildJournal(layout, "app.dist")
        journal._leases["bad"] = durable.seal({"lease": "bad", "wave": 1})  # no worker
        journal.record_lease("good", "w0", 0)
        journal.flush()
        reloaded = RebuildJournal(layout, "app.dist")
        assert set(reloaded.leases()) == {"good"}
        assert reloaded.torn_entries_dropped == 1
