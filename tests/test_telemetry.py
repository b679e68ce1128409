"""Unit tests for the telemetry substrate: spans, metrics, exporters.

These test the recorder in isolation — no engines, no registries.  The
pipeline-level wiring (span trees over a real adaptation, byte counters
on the OCI stores) lives in ``test_telemetry_integration.py``.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

import repro
from repro.telemetry import (
    EVENT_LOG_CAP,
    NULL_TELEMETRY,
    SPAN_ROOT_CAP,
    MetricError,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTelemetry,
    Telemetry,
    chrome_trace,
    chrome_trace_json,
    prometheus_text,
    render_span_tree,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.spans import STATUS_ERROR, STATUS_OK

pytestmark = pytest.mark.telemetry


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tele = Telemetry()
        with tele.span("root") as root:
            with tele.span("child-a"):
                with tele.span("grandchild"):
                    pass
            with tele.span("child-b"):
                pass
        assert [s.name for s in tele.roots] == ["root"]
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert root.children[0].children[0].name == "grandchild"
        assert [s.name for s in tele.iter_spans()] == [
            "root", "child-a", "grandchild", "child-b",
        ]

    def test_durations_are_positive_and_nested(self):
        tele = Telemetry()
        with tele.span("outer") as outer:
            with tele.span("inner") as inner:
                tele.charge(2.5)
        assert inner.duration >= 2.5
        assert outer.duration > inner.duration
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_attributes_via_kwargs_and_set(self):
        tele = Telemetry()
        with tele.span("stage", app="lammps") as span:
            span.set("ref", "lammps:adapted")
        assert span.attributes == {"app": "lammps", "ref": "lammps:adapted"}

    def test_exception_marks_span_error_and_reraises(self):
        tele = Telemetry()
        with pytest.raises(ValueError):
            with tele.span("doomed"):
                raise ValueError("boom")
        (span,) = tele.roots
        assert span.status == "error"
        assert span.attributes["error"] == "boom"
        assert span.finished

    def test_mis_nested_end_closes_dangling_children(self):
        tele = Telemetry()
        outer = tele.start_span("outer")
        tele.start_span("abandoned")
        tele.end_span(outer)   # never ended the child explicitly
        assert outer.finished
        assert outer.children[0].finished
        assert tele.current is None

    def test_events_attach_to_the_active_span(self):
        tele = Telemetry()
        with tele.span("stage") as span:
            tele.event("retry.attempt", site="transfer", attempt=1)
        orphan = tele.event("fault.armed", site="pull")
        (evt,) = tele.events_for(span)
        assert evt.name == "retry.attempt"
        assert evt.attributes["site"] == "transfer"
        assert orphan.span_id is None

    def test_event_log_is_bounded(self):
        tele = Telemetry()
        for i in range(EVENT_LOG_CAP + 100):
            tele.event("tick", i=i)
        assert len(tele.events) == EVENT_LOG_CAP
        # Oldest entries were evicted, newest kept.
        assert tele.events[-1].attributes["i"] == EVENT_LOG_CAP + 99
        assert tele.events[0].attributes["i"] == 100
        assert tele.events_dropped == 100
        tele.reset()
        assert tele.events_dropped == 0

    def test_span_log_keeps_the_newest_roots_and_counts_their_trees(self):
        tele = Telemetry()
        for i in range(SPAN_ROOT_CAP + 10):
            with tele.span("request", i=i):
                with tele.span("rebuild"):
                    with tele.span("rebuild.node"):
                        pass
                if i % 2:
                    with tele.span("redirect"):
                        pass
        assert len(tele.roots) == SPAN_ROOT_CAP
        assert tele.roots[0].attributes["i"] == 10
        assert tele.roots[-1].attributes["i"] == SPAN_ROOT_CAP + 9
        # Ten roots dropped: each of three spans, the odd five one more.
        assert tele.spans_dropped == 10 * 3 + 5
        assert tele.events_dropped == 0
        assert sum(1 for _ in tele.iter_spans()) == (
            SPAN_ROOT_CAP * 3 + SPAN_ROOT_CAP // 2)
        tele.reset()
        assert tele.spans_dropped == 0

    def test_find_spans_and_reset(self):
        tele = Telemetry()
        with tele.span("rebuild"):
            with tele.span("rebuild.node"):
                pass
            with tele.span("rebuild.node"):
                pass
        assert len(tele.find_spans("rebuild.node")) == 2
        tele.metrics.counter("x_total").inc()
        tele.reset()
        assert list(tele.roots) == []
        assert list(tele.events) == []
        assert len(tele.metrics) == 0
        assert tele.clock.now == 0.0


class TestMetrics:
    def test_counter_increments_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total")
        c.inc()
        c.inc(4)
        assert reg.value("ops_total") == 5
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert reg.value("depth") == 7

    def test_histogram_buckets_and_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("size_bytes", buckets=(10, 100, 1000))
        for v in (5, 50, 50, 500, 5000):
            h.observe(v)
        assert h.count == 5
        assert h.sum == 5605
        assert h.cumulative() == [
            (10, 1), (100, 3), (1000, 4), (float("inf"), 5),
        ]

    def test_histogram_rejects_degenerate_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.histogram("empty", buckets=())
        with pytest.raises(MetricError):
            reg.histogram("dupes", buckets=(1, 1, 2))

    def test_get_or_create_is_idempotent_but_kind_checked(self):
        reg = MetricsRegistry()
        assert reg.counter("n_total") is reg.counter("n_total")
        with pytest.raises(MetricError):
            reg.gauge("n_total")

    def test_value_defaults_and_histogram_sum(self):
        reg = MetricsRegistry()
        assert reg.value("missing", default=-1.0) == -1.0
        reg.histogram("h", buckets=(1,)).observe(3)
        assert reg.value("h") == 3

    def test_snapshot_is_json_friendly(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(2)
        reg.histogram("b_bytes", buckets=(1024,)).observe(10)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["a_total"] == 2
        assert snap["b_bytes"]["count"] == 1
        assert snap["b_bytes"]["buckets"]["+Inf"] == 1


class TestNullTelemetry:
    def test_records_nothing(self):
        tele = NullTelemetry()
        assert not tele.enabled
        with tele.span("ignored", app="x") as span:
            span.set("k", "v")
            tele.event("ignored.event")
            tele.charge(100.0)
        assert tele.roots == []
        assert tele.events == []
        assert list(tele.iter_spans()) == []
        assert tele.find_spans("ignored") == []
        assert len(tele.metrics) == 0

    def test_null_metrics_swallow_everything(self):
        tele = NULL_TELEMETRY
        tele.metrics.counter("c_total").inc(5)
        tele.metrics.gauge("g").set(3)
        tele.metrics.histogram("h").observe(9)
        assert tele.metrics.snapshot() == {}
        assert tele.metrics.value("c_total") == 0.0

    def test_exceptions_still_propagate(self):
        tele = NullTelemetry()
        with pytest.raises(RuntimeError):
            with tele.span("doomed"):
                raise RuntimeError("still visible")


def _public_methods(cls):
    return {
        name for name, member in inspect.getmembers(cls)
        if not name.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, property))
    }


def _arguments(function):
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(function).parameters.values()]


class TestNullRecorderStandsIn:
    """Instrumented code calls its recorder unconditionally, so the null
    recorder must take every call and write a live one takes."""

    @pytest.mark.parametrize("live, null", [
        (Telemetry, NullTelemetry),
        (MetricsRegistry, NullMetricsRegistry),
    ])
    def test_every_public_method_takes_the_same_arguments(self, live, null):
        for name in sorted(_public_methods(live)):
            assert hasattr(null, name), name
            member = getattr(live, name)
            if isinstance(member, property):
                continue
            assert _arguments(member) == _arguments(getattr(null, name)), name

    @pytest.mark.parametrize("instrument", [Counter, Gauge, Histogram])
    def test_every_instrument_write_is_accepted(self, instrument):
        null = NULL_TELEMETRY.metrics.counter("any_total")
        for name in ("inc", "dec", "set", "observe"):
            if hasattr(instrument, name):
                assert (_arguments(getattr(instrument, name))
                        == _arguments(getattr(type(null), name))), name
                getattr(null, name)(1.0)
        assert null.value == 0.0

    def test_span_writes_are_accepted_and_ignored(self):
        with NULL_TELEMETRY.span("anything", app="x") as span:
            span.status = STATUS_ERROR
            span.set("exit_code", 1)
        assert span.status == STATUS_OK
        started = NULL_TELEMETRY.start_span("commit")
        started.status = STATUS_ERROR
        NULL_TELEMETRY.end_span(started, status=STATUS_ERROR)
        assert started.status == STATUS_OK
        assert list(NULL_TELEMETRY.iter_spans()) == []

    def test_every_span_attribute_a_call_site_writes_is_accepted(self):
        # Scan the instrumented code (outside the recorder itself) for
        # attribute writes on any ``...span`` variable.
        root = Path(repro.__file__).parent
        written = set()
        for path in root.rglob("*.py"):
            if "telemetry" in path.relative_to(root).parts:
                continue
            written.update(re.findall(r"\b\w*span\.(\w+)\s*=(?!=)",
                                      path.read_text(encoding="utf-8")))
        assert "status" in written
        span = NULL_TELEMETRY.start_span("probe")
        for attr in sorted(written):
            before = getattr(span, attr)
            setattr(span, attr, "written")
            assert getattr(span, attr) == before, attr


class TestExport:
    def _sample(self):
        tele = Telemetry()
        with tele.span("adapt", app="lammps"):
            with tele.span("build"):
                tele.event("fault.armed", site="transfer")
            with tele.span("rebuild") as span:
                tele.charge(1.5)
                span.set("nodes", 3)
        tele.metrics.counter("oci_blob_bytes_written_total").inc(4096)
        tele.metrics.gauge("oci_blob_store_blobs").set(7)
        tele.metrics.histogram("oci_blob_size_bytes",
                               buckets=(1024, 65536)).observe(2048)
        return tele

    def test_span_tree_renderer(self):
        text = render_span_tree(self._sample())
        lines = text.splitlines()
        assert lines[0].startswith("adapt")
        assert "app=lammps" in lines[0]
        assert any(l.strip().startswith("build") for l in lines)
        assert any("* fault.armed" in l for l in lines)
        assert any("nodes=3" in l for l in lines)
        assert render_span_tree(Telemetry()) == "(no spans recorded)"

    def test_chrome_trace_round_trips_through_json(self):
        doc = json.loads(chrome_trace_json(self._sample()))
        events = doc["traceEvents"]
        phases = {e["name"]: e["ph"] for e in events}
        assert phases["adapt"] == "X"
        assert phases["fault.armed"] == "i"
        # Timestamps sorted, microsecond-scaled, durations non-negative.
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 for e in spans)
        rebuild = next(e for e in spans if e["name"] == "rebuild")
        assert rebuild["dur"] >= 1.5e6
        assert rebuild["args"]["status"] == "ok"

    def test_chrome_trace_of_empty_recording(self):
        doc = chrome_trace(Telemetry())
        assert doc["traceEvents"] == []
        json.loads(chrome_trace_json(Telemetry()))

    def test_prometheus_text_format(self):
        text = prometheus_text(self._sample().metrics)
        assert "# TYPE oci_blob_bytes_written_total counter" in text
        assert "oci_blob_bytes_written_total 4096" in text
        assert "oci_blob_store_blobs 7" in text
        assert '# TYPE oci_blob_size_bytes histogram' in text
        assert 'oci_blob_size_bytes_bucket{le="1024"} 0' in text
        assert 'oci_blob_size_bytes_bucket{le="65536"} 1' in text
        assert 'oci_blob_size_bytes_bucket{le="+Inf"} 1' in text
        assert "oci_blob_size_bytes_sum 2048" in text
        assert "oci_blob_size_bytes_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_text_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == "# (no metrics recorded)\n"


class TestExportEdgeCases:
    def test_histogram_overflow_lands_in_inf_bucket_only(self):
        m = MetricsRegistry()
        h = m.histogram("h", buckets=(1.0, 10.0))
        h.observe(5.0)
        h.observe(1e12)        # beyond every finite bound
        text = prometheus_text(m)
        assert 'h_bucket{le="1"} 0' in text
        assert 'h_bucket{le="10"} 1' in text
        assert 'h_bucket{le="+Inf"} 2' in text
        assert "h_count 2" in text

    def test_zero_length_span_exports_with_zero_duration(self):
        tele = Telemetry()
        span = tele.start_span("instant")
        tele.end_span(span)
        doc = chrome_trace(tele)
        (event,) = [e for e in doc["traceEvents"] if e["name"] == "instant"]
        assert event["ph"] == "X"
        # One clock tick start->end; never negative, json-clean.
        assert 0 <= event["dur"] <= 10
        json.loads(chrome_trace_json(tele))

    def test_unicode_attributes_survive_the_trace_round_trip(self):
        tele = Telemetry()
        with tele.span("build", app="héllo-wörld", note="步骤①"):
            tele.event("fault.armed", key="ключ")
        doc = json.loads(chrome_trace_json(tele))
        args = {e["name"]: e["args"] for e in doc["traceEvents"]}
        assert args["build"]["app"] == "héllo-wörld"
        assert args["build"]["note"] == "步骤①"
        assert args["fault.armed"]["key"] == "ключ"

    def test_unicode_never_breaks_span_tree_rendering(self):
        tele = Telemetry()
        with tele.span("build", app="héllo-wörld"):
            pass
        assert "héllo-wörld" in render_span_tree(tele)


class TestMetricSiteFolding:
    def test_distinct_sites_never_fold_to_the_same_name(self):
        from repro.telemetry.metrics import metric_site

        # "mirror.sync" and "mirror_sync" both fold to "mirror_sync":
        # the second-comer must get a disambiguated name, not silently
        # share the first one's instruments.
        dotted = metric_site("mirror.sync")
        flat = metric_site("mirror_sync")
        assert dotted != flat

    def test_resolution_is_stable_across_repeat_calls(self):
        from repro.telemetry.metrics import metric_site

        first = metric_site("transfer.chunk")
        assert metric_site("transfer.chunk") == first
        collided = metric_site("transfer/chunk")
        assert metric_site("transfer/chunk") == collided
        assert collided != first

    def test_folded_names_stay_prometheus_legal(self):
        from repro.telemetry.metrics import metric_site
        import re

        for site in ("a.b", "a-b", "a/b", "a_b"):
            assert re.fullmatch(r"[a-zA-Z_][a-zA-Z0-9_]*", metric_site(site))
