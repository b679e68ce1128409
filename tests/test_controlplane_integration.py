"""The control plane wired through the real substrates.

* **Fleet chaos**: a seeded worker-crash wave drives the crash counter
  and per-wave utilization series; the built-in SLO rules fire, and
  fault-free waves afterwards deterministically resolve them.  Health
  scoring flips the fleet component and recovers it.
* **Mirror staleness**: a never-synced mirror left behind extra origin
  generations fires ``mirror-staleness``; syncing it resolves the alert
  and the federation/mirror components recover.
* **Sync charge**: a sync's transfer time reaches the recorder, so its
  ``mirror.sync`` span lasts that time and the profiler's ``transfer``
  phase holds it.
* **Digest parity**: for *every* app spec, an adaptation with the full
  control plane enabled (sampler + rules + profiler) produces images
  byte-identical to an untraced ``NullTelemetry`` run.
* **Profiler reconciliation**: on several apps the collapsed-stack
  totals equal the recorder clock's elapsed nanoseconds exactly (±0).
"""

import pytest

from repro.apps import APPS
from repro.core.workflow import ComtainerSession
from repro.federation import FederatedRegistry
from repro.resilience import FaultInjector, WorkerFleet
from repro.telemetry import ControlPlane, Telemetry
from repro.telemetry.spans import CLOCK_TICK
from repro.telemetry.controlplane.health import (
    STATUS_CRITICAL,
    STATUS_DEGRADED,
    STATUS_HEALTHY,
)
from tests.test_federation import make_image

pytestmark = pytest.mark.telemetry


def _entries(costs, prefix="g"):
    return [(f"{prefix}{i}", cost) for i, cost in enumerate(costs)]


class TestFleetChaosAlerts:
    def test_crash_wave_fires_fleet_alerts_and_clean_waves_resolve(self):
        tele = Telemetry()
        cp = ControlPlane(tele, cadence=1.0)
        injector = FaultInjector(seed=0, worker_crash_rate=0.1)
        fleet = WorkerFleet(jobs=4, injector=injector, telemetry=tele)

        # Each wave's makespan is charged after the wave, as the rebuild
        # charges it.
        tele.charge(fleet.run_wave(0, _entries([2.0] * 8)).makespan)
        assert tele.metrics.value("fleet_worker_crashes_total") > 0
        assert tele.metrics.value("fleet_workers_alive") >= 2
        assert cp.sampler.samples_taken > 0
        # The crash burn-rate alert fired when the counter jumped (and
        # resolves within the wave once the window slides past the
        # step); the lease-timeout drag keeps utilization firing.
        assert any(
            a.rule == "fleet-worker-crashes" for a in cp.rules.history
        )
        assert "fleet-utilization-low" in cp.rules.active
        report = cp.health()
        assert report.component("fleet").status == STATUS_DEGRADED
        assert report.exit_code == 1

        # Fault-free waves on the surviving workers: the crash counter
        # stays still and the schedule packs again, so every fleet
        # alert deterministically resolves.
        fleet.injector = None
        for wave in range(1, 4):
            outcome = fleet.run_wave(
                wave, _entries([2.0] * 8, prefix=f"w{wave}-"))
            tele.charge(outcome.makespan)
        cp.finalize()
        assert not any(a.component == "fleet" for a in cp.rules.firing())
        fleet_alerts = [
            a for a in cp.rules.history if a.component == "fleet"
        ]
        assert fleet_alerts and all(not a.firing for a in fleet_alerts)
        report = cp.health()
        fleet_health = report.component("fleet")
        assert fleet_health.status == STATUS_HEALTHY
        assert any("recovered" in r for r in fleet_health.reasons)
        assert report.exit_code == 0

    def test_chaos_run_replays_identically_for_the_same_seed(self):
        def run():
            tele = Telemetry()
            cp = ControlPlane(tele, cadence=1.0)
            fleet = WorkerFleet(
                jobs=4,
                injector=FaultInjector(seed=0, worker_crash_rate=0.1),
                telemetry=tele,
            )
            tele.charge(fleet.run_wave(0, _entries([2.0] * 8)).makespan)
            cp.finalize()
            return [
                (a.rule, a.state, a.fired_at, a.value)
                for a in cp.rules.history
            ], cp.sampler.samples_taken

        assert run() == run()


class TestMirrorStalenessAlerts:
    def test_stale_mirror_fires_and_syncing_resolves(self):
        tele = Telemetry()
        cp = ControlPlane(tele, cadence=0.01)
        # Throttled bandwidth so one sync spans several sampling ticks.
        fed = FederatedRegistry(telemetry=tele, bandwidth=1e5)
        fed.add_mirror("edge-0")
        fed.add_mirror("edge-1")
        manifest, config, layer = make_image()
        fed.push("app:v1", manifest, config, [layer])
        fed.sync_mirror("edge-1")
        # The sync engine's per-chunk charge advanced the recorder.
        assert tele.clock.now >= fed.clock.now > 0
        assert cp.sampler.samples_taken > 0

        # Two more origin generations edge-0 never sees: it is now
        # generation+1 = 4 behind, past the staleness SLO of 2.
        for v in (2, 3):
            fed.push(f"app:v{v}", manifest, config, [layer])
        fed.sync_mirror("edge-1")        # recomputes the staleness gauge
        tele.charge(cp.sampler.cadence)
        assert "mirror-staleness" in cp.rules.active
        report = cp.health(federation=fed, audit=True)
        assert report.component("federation").status == STATUS_DEGRADED
        # Stale (degraded) AND audit-divergent (critical): worst wins.
        assert report.component("mirror:edge-0").status == STATUS_CRITICAL
        assert report.component("mirror:edge-1").status == STATUS_HEALTHY
        assert report.exit_code == 1

        fed.sync_mirror("edge-0")
        tele.charge(cp.sampler.cadence)
        assert "mirror-staleness" not in cp.rules.active
        (alert,) = [
            a for a in cp.rules.history if a.rule == "mirror-staleness"
        ]
        assert not alert.firing and alert.resolved_at is not None
        report = cp.health(federation=fed, audit=True)
        assert report.component("federation").status == STATUS_HEALTHY
        assert report.component("mirror:edge-0").status == STATUS_HEALTHY


class TestSyncChargesTheRecorder:
    def test_a_sync_span_lasts_its_transfer_time(self):
        tele = Telemetry()
        cp = ControlPlane(tele)
        fed = FederatedRegistry(telemetry=tele, bandwidth=1e5)
        fed.add_mirror("edge-0")
        manifest, config, layer = make_image()
        fed.push("app:v1", manifest, config, [layer])
        report = fed.sync_mirror("edge-0")
        cp.finalize()

        transfer = report.bytes_on_wire / 1e5
        assert report.bytes_on_wire > 0
        assert report.simulated_seconds == pytest.approx(transfer)
        (span,) = tele.find_spans("mirror.sync")
        # Its own end, each span opened in it (start and end) and each
        # event in it step the clock one tick.
        inner = [s for s in tele.iter_spans()
                 if span.start < s.start <= span.end]
        events = [e for e in tele.events if span.start < e.ts <= span.end]
        ticks = 1 + 2 * len(inner) + len(events)
        assert span.duration == pytest.approx(transfer + ticks * CLOCK_TICK,
                                              abs=1e-12)
        totals = cp.profiler.phase_totals_ns()
        assert totals["transfer"] \
            == round(span.end * 1e9) - round(span.start * 1e9)


class TestDigestParity:
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_full_control_plane_never_perturbs_artifacts(self, app):
        untraced = ComtainerSession()            # NULL_TELEMETRY default
        tele = Telemetry()
        ControlPlane(tele, cadence=0.5)
        observed = ComtainerSession(telemetry=tele)

        ref_u = untraced.adapt(app)
        ref_o = observed.adapt(app)
        tele.controlplane.finalize()

        assert ref_u == ref_o
        img_u = untraced.system_engine.images[ref_u]
        img_o = observed.system_engine.images[ref_o]
        assert img_u.layer_key() == img_o.layer_key()
        assert img_u.config.to_json() == img_o.config.to_json()
        # The untraced run really had no control plane anywhere near it.
        assert untraced.telemetry.controlplane is None
        assert untraced.telemetry.profiler is None


class TestProfilerReconciliation:
    @pytest.mark.parametrize("app", ["hpccg", "minimd", "lulesh"])
    def test_collapsed_stack_totals_equal_clock_elapsed_exactly(self, app):
        tele = Telemetry()
        cp = ControlPlane(tele, cadence=0.5)
        session = ComtainerSession(telemetry=tele)
        session.adapt(app)
        cp.finalize()

        prof = cp.profiler
        assert prof.total_ns() == round(tele.clock.now * 1e9)
        lines = prof.collapsed_stack().splitlines()
        assert sum(int(line.rsplit(" ", 1)[1]) for line in lines) \
            == prof.total_ns()
        # The pipeline's big phases all attracted real cost.
        totals = prof.phase_totals_ns()
        for phase in ("frontend", "compile", "transfer"):
            assert totals.get(phase, 0) > 0, f"no cost in {phase!r}"

    def test_sampler_saw_the_adaptation_and_rules_evaluated(self):
        tele = Telemetry()
        cp = ControlPlane(tele, cadence=0.5)
        ComtainerSession(telemetry=tele).adapt("hpccg")
        cp.finalize()
        assert cp.sampler.samples_taken > 1
        assert cp.rules.evaluations == cp.sampler.samples_taken
        utilization = cp.sampler.series["fleet_utilization"].values()
        assert any(v is not None for v in utilization)
