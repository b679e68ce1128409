"""Unit tests for the observability control plane.

Covers the sampler (cadence boundaries, ring bounding, catch-up cap,
None-as-no-data), the SLO rule language (parsing, canonical rendering,
threshold vs burn-rate evaluation), the alert lifecycle (streaks,
firing/resolved transitions, telemetry events and counters), the
span-boundary cost profiler (exact integer-nanosecond reconciliation,
phase classification, dangling-span unwinding), health scoring, and the
install/uninstall/inertness contract.
"""

import pytest

from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.controlplane import (
    ControlPlane,
    CostProfiler,
    RuleError,
    RulesEngine,
    Series,
    SloRule,
    TimeSeriesSampler,
    classify_phase,
    score_health,
)
from repro.telemetry.controlplane.health import (
    STATUS_CRITICAL,
    STATUS_DEGRADED,
    STATUS_HEALTHY,
    STATUS_UNKNOWN,
)
from repro.telemetry.controlplane.rules import (
    SEVERITY_CRITICAL,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    STATE_RESOLVED,
)

pytestmark = pytest.mark.telemetry


UTIL_LOW = SloRule.parse(
    "util-low", "fleet_utilization < 0.5 for 3 samples",
    component="fleet", severity=SEVERITY_WARNING,
)
CRASH_RATE = SloRule.parse(
    "crashes", "rate(fleet_worker_crashes_total) > 0 over 2 samples",
    component="fleet", severity=SEVERITY_CRITICAL,
)


def controlplane(cadence=1.0, rules=(UTIL_LOW, CRASH_RATE), **kwargs):
    tele = Telemetry()
    cp = ControlPlane(tele, cadence=cadence, rules=rules, **kwargs)
    return tele, cp


def charge(tele, seconds):
    """Charge *seconds* to *tele*; the samples its control plane took."""
    sampler = tele.controlplane.sampler
    before = sampler.samples_taken
    tele.charge(seconds)
    return sampler.samples_taken - before


class TestSeries:
    def test_ring_drops_oldest_beyond_capacity(self):
        series = Series("s", capacity=4)
        for i in range(10):
            series.append(float(i), float(i))
        assert len(series) == 4
        assert series.values() == [6.0, 7.0, 8.0, 9.0]
        assert series.latest().value == 9.0
        assert [s.t for s in series.tail(2)] == [8.0, 9.0]

    def test_none_values_are_retained_as_gaps(self):
        series = Series("s")
        series.append(1.0, None)
        series.append(2.0, 3.0)
        assert series.values() == [None, 3.0]


class TestSampler:
    def test_samples_only_on_cadence_boundaries(self):
        tele, cp = controlplane(cadence=1.0)
        assert charge(tele, 0.5) == 0
        assert charge(tele, 0.4) == 0
        assert charge(tele, 0.2) == 1   # crosses t=1.0
        assert charge(tele, 3.0) == 3   # t=2, 3, 4
        assert cp.sampler.samples_taken == 4
        ts = [s.t for s in cp.sampler.series["fleet_utilization"]]
        assert ts == [1.0, 2.0, 3.0, 4.0]

    def test_absent_instrument_samples_as_none_then_value(self):
        tele, cp = controlplane(cadence=1.0)
        tele.charge(1.0)
        tele.metrics.gauge("fleet_wave_utilization").set(0.75)
        tele.charge(1.0)
        assert cp.sampler.series["fleet_utilization"].values() == [None, 0.75]

    def test_catchup_cap_bounds_one_giant_jump(self):
        tele, cp = controlplane(cadence=1.0)
        cp.sampler.max_catchup = 5
        assert charge(tele, 100.0) == 5
        assert cp.sampler.samples_skipped == 95
        # Realigned: the next second emits exactly one sample again.
        assert charge(tele, 1.0) == 1
        assert cp.sampler.samples_taken == 6

    def test_poll_emits_overdue_without_claiming_time(self):
        tele = Telemetry()
        sampler = TimeSeriesSampler(tele, cadence=1.0)
        tele.clock.sleep(2.5)      # the clock moved with no charge to poll
        assert sampler.poll() == 2
        assert sampler.poll() == 0
        assert tele.clock.now == 2.5

    def test_ticks_alone_never_sample(self):
        tele, cp = controlplane(cadence=1.0)
        tele.clock.sleep(0.9999995)
        with tele.span("build"):
            tele.event("tick")
        assert tele.clock.now > 1.0
        assert cp.sampler.samples_taken == 0
        assert charge(tele, 1e-9) == 1

    def test_cadence_counts_from_the_clock_at_install(self):
        tele = Telemetry()
        tele.charge(0.75)
        cp = ControlPlane(tele, cadence=1.0, rules=())
        assert charge(tele, 0.5) == 0
        assert charge(tele, 0.5) == 1
        assert [s.t for s in cp.sampler.series["fleet_utilization"]] == [1.75]

    def test_finalize_takes_the_due_samples_then_one_at_the_clock(self):
        tele, cp = controlplane(cadence=1.0)
        tele.clock.sleep(2.5)
        cp.finalize()
        ts = [s.t for s in cp.sampler.series["fleet_utilization"]]
        assert ts == [1.0, 2.0, 2.5]

    def test_force_sample_is_unconditional(self):
        tele, cp = controlplane(cadence=100.0)
        cp.sampler.force_sample()
        assert cp.sampler.samples_taken == 1

    def test_non_positive_cadence_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(Telemetry(), cadence=0.0)


class TestRuleLanguage:
    def test_threshold_parse_and_render_round_trip(self):
        rule = SloRule.parse("r", "fleet_utilization < 0.5 for 3 samples")
        assert rule.kind == "threshold"
        assert rule.for_samples == 3 and rule.window == 1
        assert rule.render() == "fleet_utilization < 0.5 for 3 samples"
        again = SloRule.parse("r", rule.render())
        assert again == rule

    def test_burn_rate_parse_and_render_round_trip(self):
        rule = SloRule.parse(
            "r", "rate(crashes_total) >= 2 over 4 samples for 2 samples"
        )
        assert rule.kind == "burn_rate"
        assert (rule.op, rule.threshold) == (">=", 2.0)
        assert (rule.window, rule.for_samples) == (4, 2)
        assert SloRule.parse("r", rule.render()) == rule

    @pytest.mark.parametrize("text", [
        "", "utilization", "x <", "< 0.5", "x ~ 1", "rate(x < 1",
        "x < 0.5 over samples", "x < 0.5 for 0x3 samples",
    ])
    def test_unparseable_expressions_raise(self, text):
        with pytest.raises(RuleError):
            SloRule.parse("bad", text)

    def test_invalid_fields_raise(self):
        with pytest.raises(RuleError):
            SloRule(name="r", series="s", op="~", threshold=1.0)
        with pytest.raises(RuleError):
            SloRule(name="r", series="s", op="<", threshold=1.0,
                    for_samples=0)

    def test_threshold_evaluates_latest_sample(self):
        rule = SloRule.parse("r", "s < 0.5")
        series = Series("s")
        assert rule.evaluate(series) == (None, None)
        series.append(1.0, None)
        assert rule.evaluate(series) == (None, None)
        series.append(2.0, 0.25)
        assert rule.evaluate(series) == (True, 0.25)
        series.append(3.0, 0.75)
        assert rule.evaluate(series) == (False, 0.75)

    def test_burn_rate_differences_over_window(self):
        rule = SloRule.parse("r", "rate(c) > 0 over 2 samples")
        series = Series("c")
        for t, v in enumerate([0.0, 0.0, 0.0, 4.0]):
            series.append(float(t), v)
        breaching, value = rule.evaluate(series)
        assert breaching and value == pytest.approx(2.0)   # (4-0)/2

    def test_burn_rate_first_reading_counts_from_zero_baseline(self):
        # A counter that springs into existence already non-zero must
        # still register as an increase.
        rule = SloRule.parse("r", "rate(c) > 0 over 2 samples")
        series = Series("c")
        series.append(1.0, 3.0)
        breaching, value = rule.evaluate(series)
        assert breaching and value == pytest.approx(1.5)

    def test_burn_rate_skips_none_gaps(self):
        rule = SloRule.parse("r", "rate(c) > 0 over 2 samples")
        series = Series("c")
        for t, v in enumerate([None, 2.0, None, 2.0]):
            series.append(float(t), v)
        breaching, value = rule.evaluate(series)   # (2-0)/2 over non-None
        assert breaching and value == pytest.approx(1.0)


class TestAlertLifecycle:
    def test_threshold_fires_after_streak_and_resolves(self):
        tele, cp = controlplane(cadence=1.0)
        tele.metrics.gauge("fleet_wave_utilization").set(0.2)
        tele.charge(2.0)
        assert not cp.rules.active        # streak 2 of 3: not yet
        tele.charge(1.0)
        assert [a.rule for a in cp.rules.firing()] == ["util-low"]
        alert = cp.rules.active["util-low"]
        assert alert.fired_at == 3.0 and alert.value == 0.2
        tele.metrics.gauge("fleet_wave_utilization").set(0.9)
        tele.charge(1.0)
        assert not cp.rules.active
        (resolved,) = cp.rules.history
        assert resolved.state == STATE_RESOLVED
        assert resolved.resolved_at == 4.0 and resolved.value == 0.9

    def test_one_sample_blip_below_streak_never_fires(self):
        tele, cp = controlplane(cadence=1.0)
        gauge = tele.metrics.gauge("fleet_wave_utilization")
        gauge.set(0.2)
        tele.charge(2.0)
        gauge.set(0.9)                    # recovery resets the streak
        tele.charge(1.0)
        gauge.set(0.2)
        tele.charge(2.0)
        assert not cp.rules.active and not cp.rules.history

    def test_burn_rate_alert_resolves_when_counter_stops_moving(self):
        tele, cp = controlplane(cadence=1.0)
        tele.metrics.counter("fleet_worker_crashes_total").inc(2)
        tele.charge(1.0)
        assert "crashes" in cp.rules.active
        tele.charge(3.0)                   # window slides past the step
        assert "crashes" not in cp.rules.active
        (alert,) = cp.rules.history
        assert alert.state == STATE_RESOLVED

    def test_transitions_emit_events_and_counters(self):
        tele, cp = controlplane(cadence=1.0)
        tele.metrics.gauge("fleet_wave_utilization").set(0.2)
        tele.charge(3.0)
        tele.metrics.gauge("fleet_wave_utilization").set(0.9)
        tele.charge(1.0)
        assert [e.name for e in tele.events if e.name.startswith("alert.")] \
            == ["alert.firing", "alert.resolved"]
        m = tele.metrics
        assert m.value("controlplane_alerts_fired_total") == 1
        assert m.value("controlplane_alerts_resolved_total") == 1
        assert m.value("controlplane_alerts_firing") == 0

    def test_alerts_text_renders_latest_state_per_rule(self):
        tele, cp = controlplane(cadence=1.0)
        assert cp.rules.alerts_text() == "# (no alerts fired)\n"
        tele.metrics.gauge("fleet_wave_utilization").set(0.2)
        tele.charge(3.0)
        text = cp.rules.alerts_text()
        assert "# TYPE comtainer_alert gauge" in text
        assert ('comtainer_alert{rule="util-low",component="fleet",'
                'severity="warning"} 1') in text
        tele.metrics.gauge("fleet_wave_utilization").set(0.9)
        tele.charge(1.0)
        assert 'severity="warning"} 0' in cp.rules.alerts_text()

    def test_duplicate_rule_names_rejected(self):
        tele = Telemetry()
        sampler = TimeSeriesSampler(tele, cadence=1.0)
        with pytest.raises(RuleError):
            RulesEngine(sampler, rules=(UTIL_LOW, UTIL_LOW))


class TestCostProfiler:
    def test_attribution_reconciles_with_the_clock_exactly(self):
        tele, cp = controlplane(cadence=1.0)
        with tele.span("build"):
            tele.charge(2.0)
        with tele.span("rebuild"):
            with tele.span("rebuild.node", phase="link"):
                tele.charge(1.5)
            with tele.span("rebuild.node", phase="compile"):
                tele.charge(3.0)
        cp.finalize()
        prof = cp.profiler
        assert prof.total_ns() == round(tele.clock.now * 1e9)
        totals = prof.phase_totals()
        assert totals["frontend"] == pytest.approx(2.0, abs=1e-4)
        assert totals["link"] == pytest.approx(1.5, abs=1e-4)
        assert totals["compile"] == pytest.approx(3.0, abs=1e-4)

    def test_collapsed_stack_lines_sum_to_the_total(self):
        tele, cp = controlplane(cadence=1.0)
        with tele.span("build"):
            tele.charge(0.5)
            with tele.span("engine.commit"):
                tele.charge(0.25)
        cp.finalize()
        lines = cp.profiler.collapsed_stack().splitlines()
        assert lines == sorted(lines)
        parsed = [line.rsplit(" ", 1) for line in lines]
        assert sum(int(ns) for _, ns in parsed) == cp.profiler.total_ns()
        assert "build;engine.commit;frontend" in dict(parsed)

    def test_phase_rides_as_leaf_frame_distinguishing_same_stack(self):
        tele, cp = controlplane(cadence=1.0)
        with tele.span("rebuild"):
            with tele.span("rebuild.node", phase="compile"):
                tele.charge(1.0)
            with tele.span("rebuild.node", phase="link"):
                tele.charge(2.0)
        cp.finalize()
        stacks = dict(
            line.rsplit(" ", 1)
            for line in cp.profiler.collapsed_stack().splitlines()
        )
        assert int(stacks["rebuild;rebuild.node;compile"]) >= 10 ** 9
        assert int(stacks["rebuild;rebuild.node;link"]) >= 2 * 10 ** 9

    def test_time_outside_spans_lands_in_idle(self):
        tele, cp = controlplane(cadence=1.0)
        tele.charge(4.0)
        cp.finalize()
        assert cp.profiler.phase_totals()["idle"] == pytest.approx(4.0, abs=1e-4)
        assert cp.profiler.total_ns() == round(tele.clock.now * 1e9)

    def test_dangling_children_unwind_with_their_parent(self):
        tele, cp = controlplane(cadence=1.0)
        parent = tele.start_span("rebuild")
        tele.start_span("rebuild.node")      # never ended explicitly
        tele.charge(1.0)
        tele.end_span(parent)                # sweeps the dangling child
        tele.charge(0.5)
        cp.finalize()
        assert cp.profiler.total_ns() == round(tele.clock.now * 1e9)
        assert cp.profiler.phase_totals()["idle"] == pytest.approx(0.5, abs=1e-4)

    def test_hot_rows_rank_by_cost_with_shares(self):
        tele, cp = controlplane(cadence=1.0)
        with tele.span("build"):
            tele.charge(1.0)
        with tele.span("redirect"):
            tele.charge(3.0)
        cp.finalize()
        rows = cp.profiler.hot_rows(2)
        assert rows[0][0] == "redirect" and rows[0][1] == "link"
        assert rows[0][3] > rows[1][3]
        assert sum(r[3] for r in cp.profiler.hot_rows(100)) \
            == pytest.approx(1.0)

    def test_classify_phase_precedence(self):
        assert classify_phase("anything", {"phase": "verify"}, "compile") \
            == "verify"
        assert classify_phase("mirror.sync", {}, None) == "transfer"
        assert classify_phase("container.run", None, "compile") == "compile"
        assert classify_phase("mystery", None, None) == "other"

    def test_nonzero_origin_excludes_preexisting_time(self):
        tele = Telemetry()
        tele.charge(5.0)                     # before the profiler attaches
        cp = ControlPlane(tele, cadence=1.0)
        with tele.span("build"):
            tele.charge(1.0)
        cp.finalize()
        assert cp.profiler.total_ns() \
            == round(tele.clock.now * 1e9) - round(5.0 * 1e9)


class FakeFsck:
    def __init__(self, clean=True, findings=(), missing=(), failed=(),
                 repaired=()):
        self.findings = list(findings)
        self.missing = list(missing)
        self.failed = list(failed)
        self.repaired = list(repaired)
        self._clean = clean

    @property
    def clean(self):
        return self._clean


class TestHealthScoring:
    def test_no_samples_means_all_unknown_and_exit_zero(self):
        report = score_health(None)
        assert all(c.status == STATUS_UNKNOWN for c in report.components)
        assert report.overall == STATUS_UNKNOWN
        assert report.exit_code == 0
        rows = report.status_rows()
        assert rows[-1][0] == "overall"

    def test_out_of_band_failures_make_their_component_critical(self):
        # A hard failure the caller saw (an exhausted fleet, a crashed
        # adaptation) outranks everything, even on a no-sample report.
        report = score_health(
            None, failures={"fleet": "rebuild aborted: fleet exhausted"}
        )
        fleet = report.component("fleet")
        assert fleet.status == STATUS_CRITICAL
        assert any("rebuild aborted" in r for r in fleet.reasons)
        assert report.overall == STATUS_CRITICAL
        assert report.exit_code == 1
        # Other components stay unknown, untouched by the failure.
        assert report.component("engine").status == STATUS_UNKNOWN

    def test_firing_severities_map_to_statuses(self):
        rules = (
            SloRule.parse("warn", "fleet_utilization < 0.5",
                          component="fleet", severity=SEVERITY_WARNING),
            SloRule.parse("crit", "retry_exhaustion_ratio > 0",
                          component="engine", severity=SEVERITY_CRITICAL),
            SloRule.parse("note", "cache_hit_ratio < 0.2",
                          component="cache", severity=SEVERITY_INFO),
        )
        tele, cp = controlplane(cadence=1.0, rules=rules)
        tele.metrics.gauge("fleet_wave_utilization").set(0.2)
        tele.metrics.counter("resilience_retries_total").inc()
        tele.metrics.counter("resilience_retries_exhausted_total").inc()
        tele.metrics.counter("rebuild_artifact_cache_misses_total").inc()
        tele.charge(1.0)
        report = cp.health()
        assert report.component("fleet").status == STATUS_DEGRADED
        assert report.component("engine").status == STATUS_CRITICAL
        # info annotates without escalating.
        cache = report.component("cache")
        assert cache.status == STATUS_HEALTHY and cache.reasons
        assert report.overall == STATUS_CRITICAL
        assert report.exit_code == 1

    def test_resolved_alerts_annotate_as_recovered(self):
        tele, cp = controlplane(
            cadence=1.0,
            rules=(SloRule.parse("warn", "fleet_utilization < 0.5",
                                 component="fleet"),),
        )
        tele.metrics.gauge("fleet_wave_utilization").set(0.2)
        tele.charge(1.0)
        tele.metrics.gauge("fleet_wave_utilization").set(0.9)
        tele.charge(1.0)
        report = cp.health()
        fleet = report.component("fleet")
        assert fleet.status == STATUS_HEALTHY
        assert any("recovered" in r for r in fleet.reasons)

    def test_unclean_fsck_is_engine_critical(self):
        tele, cp = controlplane(cadence=1.0)
        tele.charge(1.0)
        report = cp.health(fsck=FakeFsck(clean=False, findings=[1, 2],
                                         missing=[3]))
        engine = report.component("engine")
        assert engine.status == STATUS_CRITICAL
        assert "2 corrupt" in engine.reasons[0]

    def test_dropped_telemetry_is_a_note_on_the_overall_row(self):
        from repro.telemetry import EVENT_LOG_CAP, SPAN_ROOT_CAP

        tele, cp = controlplane(cadence=1.0)
        tele.charge(1.0)
        healthy = cp.health()
        assert "dropped" not in healthy.status_rows()[-1][2]
        for _ in range(SPAN_ROOT_CAP + 2):
            with tele.span("request"):
                pass
        for _ in range(EVENT_LOG_CAP + 3):
            tele.event("tick")
        report = cp.health()
        assert (report.spans_dropped, report.events_dropped) == (2, 3)
        assert report.status_rows()[-1][2].endswith(
            "telemetry logs full: 2 span(s), 3 event(s) dropped")
        assert report.to_json()["spans_dropped"] == 2
        # A note, never an escalation.
        assert report.overall == healthy.overall
        assert [c.status for c in report.components] == [
            c.status for c in healthy.components]

    def test_clean_fsck_with_repairs_annotates_only(self):
        tele, cp = controlplane(cadence=1.0)
        tele.charge(1.0)
        report = cp.health(fsck=FakeFsck(clean=True, repaired=[1]))
        engine = report.component("engine")
        assert engine.status == STATUS_HEALTHY
        assert "repaired" in engine.reasons[0]


class TestInstallContract:
    def test_null_telemetry_refused(self):
        with pytest.raises(ValueError):
            ControlPlane(NULL_TELEMETRY)

    def test_null_telemetry_carries_no_hooks(self):
        assert NULL_TELEMETRY.controlplane is None
        assert NULL_TELEMETRY.profiler is None

    def test_install_attaches_and_uninstall_detaches(self):
        tele, cp = controlplane()
        assert tele.controlplane is cp
        assert tele.profiler is cp.profiler
        cp.uninstall()
        assert tele.controlplane is None and tele.profiler is None
        # Listeners are gone too: a sample no longer evaluates rules.
        before = cp.rules.evaluations
        cp.sampler.force_sample()
        assert cp.rules.evaluations == before

    def test_reset_detaches_the_control_plane(self):
        tele, cp = controlplane()
        tele.reset()
        assert tele.controlplane is None and tele.profiler is None

    def test_finalize_is_idempotent_and_forces_one_sample(self):
        tele, cp = controlplane(cadence=100.0)
        cp.finalize()
        cp.finalize()
        assert cp.sampler.samples_taken == 1
        assert cp.rules.evaluations == 1

    def test_profile_false_skips_the_profiler(self):
        tele = Telemetry()
        cp = ControlPlane(tele, profile=False)
        assert cp.profiler is None and tele.profiler is None
        with tele.span("build"):
            tele.charge(1.0)
        cp.finalize()           # must not blow up without a profiler
