"""Evaluation harness: regenerate every table and figure of the paper.

Each ``figureNN_rows`` / ``tableNN_rows`` function returns structured rows
(and, where the paper reports numbers, a paper-reference column) so the
benchmarks under ``benchmarks/`` and the examples can print the same
series the paper does.  ``render_table`` turns rows into aligned text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import get_app
from repro.apps.specs import CROSSISA_APPS, MIB, TABLE3_APPS
from repro.containers import ContainerEngine
from repro.core.cache.storage import decode_cache, extended_tag
from repro.core.crossisa import CrossIsaReport, analyze_cross_isa
from repro.core.workflow import (
    ComtainerSession,
    build_extended_image,
    build_original_image,
    library_only_adapt,
    measure_schemes,
    run_workload,
)
from repro.perf import WORKLOADS, attach_perf, predict_time, scheme_traits
from repro.perf.schemes import MOTIVATION_SCHEMES
from repro.sysmodel import AARCH64_CLUSTER, SYSTEMS, X86_CLUSTER, SystemModel


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Align columns; floats rendered with 3 decimals.

    Cells may contain newlines: a multi-line cell contributes its widest
    line to the column width and its row renders as multiple output
    lines, with the other columns padded.
    """
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def cell_lines(text: str) -> List[str]:
        return text.split("\n") if text else [""]

    def cell_width(text: str) -> int:
        return max(len(line) for line in cell_lines(text))

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(cell_width(headers[i]),
            *(cell_width(r[i]) for r in text_rows)) if text_rows
        else cell_width(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in text_rows:
        split = [cell_lines(cell) for cell in row]
        height = max(len(cell) for cell in split)
        for line_no in range(height):
            lines.append("  ".join(
                (split[i][line_no] if line_no < len(split[i]) else "")
                .ljust(widths[i])
                for i in range(len(row))
            ))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Telemetry: measured stage breakdowns and adaptation reports
# (docs/OBSERVABILITY.md)
# ---------------------------------------------------------------------------

def telemetry_stage_rows(telemetry) -> List[Tuple[str, int, float]]:
    """(stage, span count, total simulated seconds) per span name.

    This is the measured decomposition the paper's evaluation needs
    (where do adaptation time and bytes go): span self-plus-children
    durations aggregated across the recorded forest, sorted by cost.
    """
    counts: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    for span in telemetry.iter_spans():
        counts[span.name] = counts.get(span.name, 0) + 1
        seconds[span.name] = seconds.get(span.name, 0.0) + span.duration
    return [
        (name, counts[name], seconds[name])
        for name in sorted(counts, key=lambda n: -seconds[n])
    ]


def render_adaptation_report(telemetry) -> str:
    """The exportable adaptation report: stages, transfer cost, caching.

    Combines the measured stage breakdown with the OCI byte/cache-hit
    counters so evaluation tables cite what the pipeline actually did
    instead of recomputing sizes after the fact.
    """
    m = telemetry.metrics
    lines = [render_table(["stage", "spans", "simulated s"],
                          telemetry_stage_rows(telemetry))]

    reads = m.value("oci_blob_reads_total")
    hits = m.value("oci_blob_cache_hits_total")
    writes = m.value("oci_blob_cache_misses_total") + hits
    transfer_rows = [
        ("registry pushes", int(m.value("registry_pushes_total")),
         int(m.value("registry_push_bytes_total"))),
        ("registry pulls", int(m.value("registry_pulls_total")),
         int(m.value("registry_pull_bytes_total"))),
        ("blob writes", int(writes), int(m.value("oci_blob_bytes_written_total"))),
        ("blob reads", int(reads), int(m.value("oci_blob_bytes_read_total"))),
    ]
    lines.append("")
    lines.append(render_table(["transfer", "ops", "bytes"], transfer_rows))

    hit_ratio = hits / writes if writes else 0.0
    artifact_hits = int(m.value("rebuild_artifact_cache_hits_total"))
    artifact_lookups = artifact_hits + int(
        m.value("rebuild_artifact_cache_misses_total")
    )
    artifact_ratio = artifact_hits / artifact_lookups if artifact_lookups else 0.0
    summary_rows = [
        ("blob cache hit ratio", f"{hit_ratio:.1%}"),
        ("artifact cache hits",
         f"{artifact_hits}/{artifact_lookups} ({artifact_ratio:.1%})"),
        ("artifact cache stores",
         int(m.value("rebuild_artifact_cache_stores_total"))),
        ("artifact cache evictions",
         int(m.value("rebuild_artifact_cache_evictions_total"))),
        ("rebuild nodes executed", int(m.value("rebuild_nodes_executed_total"))),
        ("rebuild nodes reused", int(m.value("rebuild_nodes_reused_total"))),
        ("rebuild nodes restored", int(m.value("rebuild_nodes_restored_total"))),
        ("rebuild nodes failed", int(m.value("rebuild_nodes_failed_total"))),
        ("retries", int(m.value("resilience_retries_total"))),
        ("worker crashes", int(m.value("fleet_worker_crashes_total"))),
        ("lease reassignments", int(m.value("fleet_reassignments_total"))),
        ("speculative wins",
         f"{int(m.value('fleet_speculative_wins_total'))}/"
         f"{int(m.value('fleet_speculative_launches_total'))}"),
        ("workers blacklisted", int(m.value("fleet_blacklisted_workers"))),
        ("events logged", len(telemetry.events)),
    ]
    lines.append("")
    lines.append(render_table(["adaptation", "value"], summary_rows))

    controlplane = getattr(telemetry, "controlplane", None)
    if controlplane is not None and controlplane.rules.history:
        lines.append("")
        lines.append(render_alerts(controlplane.rules))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Observability control plane: alerts, health, hot paths
# (docs/OBSERVABILITY.md)
# ---------------------------------------------------------------------------

def render_alerts(rules_engine) -> str:
    """One :class:`repro.telemetry.controlplane.RulesEngine`'s alert
    history as aligned text (firing first, then resolved, in fire order)."""
    rows = rules_engine.alert_rows()
    if not rows:
        return "(no alerts fired)"
    return render_table(
        ("alert", "component", "severity", "state", "value",
         "fired", "resolved"),
        rows,
    )


def health_status_rows(report) -> List[Tuple[str, str, str]]:
    """``coMtainer health`` rows for one
    :class:`repro.telemetry.controlplane.HealthReport`."""
    return report.status_rows()


def render_health_report(report) -> str:
    return render_table(
        ("component", "status", "evidence"), health_status_rows(report)
    )


def hot_path_rows(profiler, k: int = 10) -> List[Tuple[str, str, float, str]]:
    """(stack, phase, seconds, share) top-K rows for one
    :class:`repro.telemetry.controlplane.CostProfiler`."""
    return [
        (stack, phase, seconds, f"{share:.1%}")
        for stack, phase, seconds, share in profiler.hot_rows(k)
    ]


def render_hot_paths(profiler, k: int = 10) -> str:
    rows = hot_path_rows(profiler, k)
    if not rows:
        return "(no cost attributed)"
    lines = [render_table(("hot path", "phase", "simulated s", "share"), rows)]
    phase_rows = sorted(
        profiler.phase_totals().items(), key=lambda kv: -kv[1]
    )
    lines.append("")
    lines.append(render_table(("phase", "simulated s"), phase_rows))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Resilience reports (docs/RESILIENCE.md)
# ---------------------------------------------------------------------------

def render_resilience_report(report, telemetry=None) -> str:
    """One :class:`repro.resilience.ResilienceReport` as aligned text.

    With *telemetry* (an active recorder carrying a control plane), SLO
    alerts that fired during the adaptation are appended, so the
    degradation story and the alert story read side by side.
    """
    rows = [
        ("rung", report.rung),
        ("image", report.ref or "-"),
        ("retries", sum(report.retries.values())),
        ("retry budgets exhausted", sum(report.retry_exhaustions.values())),
        ("failed nodes", len(report.failed_nodes)),
        ("fallback artifacts", len(report.fallback_paths)),
        ("journal-restored nodes", len(report.restored_nodes)),
        ("corruptions detected", len(report.integrity_errors)),
        ("blobs repaired", len(report.repaired_digests)),
        ("blobs quarantined", len(report.quarantined_digests)),
        ("simulated backoff (s)", report.simulated_seconds),
    ]
    if report.deadline_exceeded:
        rows.insert(2, ("deadline_exceeded", report.deadline_exceeded))
    stats = report.worker_stats
    if stats:
        rows.extend([
            ("worker crashes", int(stats.get("crashes", 0))),
            ("group reassignments", int(stats.get("reassignments", 0))),
            ("speculative wins",
             f"{int(stats.get('speculative_wins', 0))}/"
             f"{int(stats.get('speculative_launches', 0))}"),
            ("workers blacklisted", len(stats.get("blacklisted", ()))),
        ])
    lines = [render_table((f"adaptation of {report.tag}", "value"), rows)]
    causes = getattr(report, "retry_exhaustion_causes", None)
    if causes:
        # Causes are keyed ``site/cause`` (attempt cap vs. time budget),
        # so the two exhaustion modes show as distinct rows.
        for key in sorted(causes):
            lines.append(f"  exhausted: {key} x{causes[key]}")
    else:
        for site in sorted(report.retry_exhaustions):
            lines.append(
                f"  exhausted: {site} x{report.retry_exhaustions[site]}"
            )
    for reason in report.reasons:
        lines.append(f"  degraded: {reason}")
    controlplane = getattr(telemetry, "controlplane", None)
    if controlplane is not None:
        for alert in controlplane.rules.history:
            lines.append(f"  alert   : {alert.describe()}")
    return "\n".join(lines)


def service_tenant_rows(report) -> List[Tuple]:
    """(tenant, submitted, done, degraded, rejected, deadline, p50, p99)
    rows for one :class:`repro.service.ServiceReport`."""
    return [
        (
            t["tenant"], t["submitted"], t["completed"], t["degraded"],
            t["rejected"], t["deadline_exceeded"], t["p50"], t["p99"],
        )
        for t in report.tenants.values()
    ]


def render_service_report(report, telemetry=None) -> str:
    """One :class:`repro.service.ServiceReport` as aligned text.

    Per-tenant outcome/latency rows, then the shared-infrastructure
    story: breakers (with their transition history), queue pressure,
    the cross-tenant cache, and — with *telemetry* carrying a control
    plane — the SLO alerts that fired during the run.
    """
    counts = report.by_status()
    lines = [render_table(
        ("tenant", "submitted", "completed", "degraded", "rejected",
         "deadline", "p50 (s)", "p99 (s)"),
        service_tenant_rows(report),
    )]
    lines.append("")
    retry_hints = [
        o.retry_after for o in report.outcomes
        if o.status == "rejected" and o.retry_after is not None
    ]
    rows = [
        ("requests", len(report.outcomes)),
        ("completed", counts.get("completed", 0)),
        ("degraded", counts.get("degraded", 0)),
        ("rejected", counts.get("rejected", 0)),
        ("retry-after hint (s)",
         f"{min(retry_hints):.1f}-{max(retry_hints):.1f}"
         if retry_hints else "-"),
        ("deadline-exceeded", counts.get("deadline-exceeded", 0)),
        ("deduped in flight", report.deduped_requests),
        ("shared-cache dedup", f"{report.dedup_ratio:.1%}"),
        ("queue peak depth",
         f"{report.queue['peak_depth']}/{report.queue['capacity']}"),
        ("queue shed", report.queue["shed"]),
        ("queue displaced", report.queue["displaced"]),
        ("mirror syncs", f"{report.mirror_syncs} "
                         f"({report.mirror_sync_failures} failed)"),
        ("simulated seconds", report.simulated_seconds),
    ]
    rows.append(("WAL records", f"{report.wal['records']} "
                                f"({report.wal['bytes']} bytes, "
                                f"{report.wal['torn_records_dropped']} "
                                f"torn dropped)"))
    rows.append(("WAL restarts survived", report.wal["restarts"]))
    if getattr(report, "recovered_requests", 0):
        rows.append(("recovered from WAL", report.recovered_requests))
    if getattr(report, "resumed_requests", 0):
        rows.append(("in-flight resumed", report.resumed_requests))
    if getattr(report, "failovers", 0):
        rows.append(("origin failovers", report.failovers))
    lines.append(render_table(("service", "value"), rows))
    for outcome in report.outcomes:
        if outcome.status == "rejected" and outcome.retry_after is not None:
            reason = outcome.reasons[0] if outcome.reasons else "rejected"
            lines.append(f"  rejected: {outcome.request_id} ({reason}; "
                         f"retry after {outcome.retry_after:.1f}s)")
    for name in sorted(report.breakers):
        breaker = report.breakers[name]
        lines.append(f"  breaker : {name} {breaker['state']}"
                     f" ({breaker['calls']} calls,"
                     f" {breaker['rejections']} fail-fast)")
        for hop in breaker["transitions"]:
            lines.append(f"    t={hop['t']:.1f}s {hop['from']} -> {hop['to']}")
    controlplane = getattr(telemetry, "controlplane", None)
    if controlplane is not None:
        for alert in controlplane.rules.history:
            lines.append(f"  alert   : {alert.describe()}")
    return "\n".join(lines)


def fsck_rows(report) -> List[Tuple[str, object]]:
    """(category, count/detail) rows for one ``coMtainer fsck`` pass."""
    return [
        ("scanned", report.scanned),
        ("corrupt (initial)", len(report.initial_findings)),
        ("corrupt (remaining)", len(report.findings)),
        ("quarantined", len(report.quarantined)),
        ("repaired", len(report.repaired)),
        ("repair failures", len(report.failed)),
        ("missing referenced", len(report.missing)),
        ("orphaned", len(report.orphaned)),
        ("verdict", "clean" if report.clean else "CORRUPT"),
    ]


def render_fsck_report(report) -> str:
    """One :class:`repro.integrity.fsck.FsckReport` as aligned text."""
    lines = [render_table((f"fsck {report.target}", "value"), fsck_rows(report))]
    for finding in report.findings:
        lines.append(f"  corrupt : {finding}")
    for outcome in report.repaired:
        lines.append(f"  repaired: {outcome.digest} (from {outcome.source})")
    for outcome in report.failed:
        lines.append(f"  FAILED  : {outcome.digest} ({outcome.detail})")
    for digest in report.missing:
        lines.append(f"  missing : {digest}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Federation (docs/RESILIENCE.md — registry tier)
# ---------------------------------------------------------------------------

def sync_report_rows(reports) -> List[Tuple]:
    """(mirror, refs, blobs, chunks fetched/resumed/corrupt, bytes, s)
    rows for a batch of :class:`repro.federation.sync.SyncReport`."""
    rows = []
    for r in reports:
        rows.append((
            r.mirror,
            "up to date" if r.up_to_date else ", ".join(r.references_promoted),
            r.blobs_fetched,
            f"{r.chunks_fetched}/{r.chunks_resumed}/{r.chunks_corrupted}",
            r.bytes_on_wire,
            r.simulated_seconds,
        ))
    return rows


def render_sync_reports(reports) -> str:
    return render_table(
        ("mirror", "promoted", "blobs",
         "chunks f/r/c", "bytes on wire", "sim s"),
        sync_report_rows(reports),
    )


def federation_status_rows(federation) -> List[Tuple]:
    """``coMtainer mirror status`` rows for one federation."""
    return [
        (
            s.name, s.generations_behind, s.references, s.blobs,
            s.ledger_chunks, s.in_flight_blobs, s.syncs,
        )
        for s in federation.status_rows()
    ]


def render_federation_status(federation) -> str:
    return render_table(
        ("mirror", "behind", "refs", "blobs",
         "ledger chunks", "in-flight", "syncs"),
        federation_status_rows(federation),
    )


def render_federation_fsck_report(report) -> str:
    """One :class:`repro.integrity.fsck.FederationFsckReport` as text."""
    lines = [render_fsck_report(report.origin)]
    for name in sorted(report.replicas):
        lines.append("")
        lines.append(render_fsck_report(report.replicas[name]))
    lines.append("")
    divergent = {n: p for n, p in report.divergences.items() if p}
    if not divergent:
        lines.append("federation: every replica converged with the origin")
    else:
        lines.append(f"federation: {len(divergent)} replica(s) DIVERGENT")
        for name in sorted(divergent):
            for problem in divergent[name]:
                lines.append(f"  {name}: {problem}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 3 — motivation: single-node LULESH, incremental optimizations
# ---------------------------------------------------------------------------

#: Paper-reported reductions for the motivation experiment.
FIG3_PAPER = {
    "x86": {"cxxo_vs_original": 0.50, "lto_vs_prev": 0.175, "pgo_vs_prev": 0.096},
    "arm": {"cxxo_vs_original": 0.72},
}


def figure3_rows(system: SystemModel) -> List[Tuple[str, float, float]]:
    """(scheme, seconds, reduction vs original) for single-node LULESH."""
    rows: List[Tuple[str, float, float]] = []
    base = None
    for scheme in MOTIVATION_SCHEMES:
        traits = scheme_traits("lulesh", system, scheme)
        seconds = predict_time("lulesh", system, traits, nodes=1)
        if base is None:
            base = seconds
        rows.append((scheme, seconds, 1.0 - seconds / base))
    return rows


def figure3_pipeline_rows(
    session: ComtainerSession,
) -> List[Tuple[str, float]]:
    """Pipeline-level motivation: original vs library-only vs adapted vs
    optimized images, executed on one node."""
    rows: List[Tuple[str, float]] = []
    engine = session.system_engine
    original = session.original_image("lulesh")
    libo_ref = library_only_adapt(engine, original, session.system)
    for label, ref, vendor in [
        ("original", original, False),
        ("libo", libo_ref, True),
        ("adapted", session.adapted_image("lulesh"), True),
        ("optimized", session.optimized_image("lulesh"), True),
    ]:
        report = run_workload(
            engine, ref, "lulesh", session.recorder, nodes=1, vendor_mpirun=vendor
        )
        rows.append((label, report.seconds))
    return rows


# ---------------------------------------------------------------------------
# Table 1 / Table 2 — testbed and workloads
# ---------------------------------------------------------------------------

def table1_rows() -> List[Tuple[str, str, str]]:
    x86, arm = X86_CLUSTER, AARCH64_CLUSTER
    return [
        ("CPU", f"{x86.cpu.sockets} x {x86.cpu.name} @ {x86.cpu.freq_ghz}GHz",
         f"{arm.cpu.sockets} x {arm.cpu.name} @ {arm.cpu.freq_ghz}GHz"),
        ("RAM", f"{x86.ram_gb}GB", f"{arm.ram_gb}GB"),
        ("OS", x86.os_name, arm.os_name),
        ("Nodes", str(x86.nodes), str(arm.nodes)),
    ]


def table2_rows() -> List[Tuple[str, str, int]]:
    rows = []
    for name in sorted(WORKLOADS):
        profile = WORKLOADS[name]
        rows.append((profile.app, profile.input_name, profile.loc))
    return rows


# ---------------------------------------------------------------------------
# Figure 9 — performance retention (the headline result)
# ---------------------------------------------------------------------------

@dataclass
class Figure9Result:
    system: str
    #: workload -> scheme -> seconds, through the full pipeline
    times: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def averages(self) -> Dict[str, float]:
        schemes = ("original", "native", "adapted", "optimized")
        n = len(self.times)
        return {
            s: sum(t[s] for t in self.times.values()) / n for s in schemes
        }

    def improvement(self, workload: str) -> float:
        t = self.times[workload]
        return t["original"] / t["native"] - 1.0


def figure9_run(
    session: ComtainerSession, workloads: Optional[List[str]] = None
) -> Figure9Result:
    """Measure all four schemes for every workload through the pipeline."""
    result = Figure9Result(system=session.system.key)
    for name in sorted(workloads or WORKLOADS):
        result.times[name] = measure_schemes(session, name)
    return result


def figure9_rows(result: Figure9Result) -> List[Tuple]:
    rows = []
    for name in sorted(result.times):
        t = result.times[name]
        paper_ratio = WORKLOADS[name].target_ratio[result.system]
        rows.append((
            name, t["original"], t["native"], t["adapted"], t["optimized"],
            t["original"] / t["native"], paper_ratio,
        ))
    return rows


# ---------------------------------------------------------------------------
# Figure 10 — relative execution time to native
# ---------------------------------------------------------------------------

def figure10_rows(result: Figure9Result) -> List[Tuple[str, float, float]]:
    """(workload, adapted/native, optimized/native)."""
    rows = []
    for name in sorted(result.times):
        t = result.times[name]
        rows.append((name, t["adapted"] / t["native"], t["optimized"] / t["native"]))
    return rows


#: Paper outliers of Figure 10 (reduction of optimized vs native).
FIG10_PAPER_OUTLIERS = {
    ("x86", "openmx.pt13"): 0.304,
    ("x86", "lammps.chain"): -0.121,
    ("arm", "lammps.lj"): 0.177,
    ("arm", "hpcg"): -0.149,
}


# ---------------------------------------------------------------------------
# Table 3 — image and cache layer sizes
# ---------------------------------------------------------------------------

def table3_rows(
    engines: Optional[Dict[str, ContainerEngine]] = None,
    apps: Sequence[str] = TABLE3_APPS,
) -> List[Tuple]:
    """(app, x86 MiB, paper, arm MiB, paper, cache MiB, paper)."""
    engines = engines or {
        "amd64": ContainerEngine(arch="amd64"),
        "arm64": ContainerEngine(arch="arm64"),
    }
    rows = []
    for app in apps:
        spec = get_app(app)
        sizes = {}
        cache_mib = None
        for arch, engine in engines.items():
            ref = build_original_image(engine, spec, tag=f"{app}:{arch}")
            sizes[arch] = engine.image_filesystem(ref).total_size() / MIB
            if cache_mib is None:
                layout, dist_tag = build_extended_image(engine, spec)
                extended = layout.resolve(extended_tag(dist_tag))
                cache_mib = extended.layers[-1].payload_size / MIB
        rows.append((
            app,
            sizes["amd64"], spec.image_size["amd64"],
            sizes["arm64"], spec.image_size["arm64"],
            cache_mib, spec.cache_size,
        ))
    return rows


# ---------------------------------------------------------------------------
# Figure 11 — cross-ISA build script changes
# ---------------------------------------------------------------------------

def figure11_reports(
    engine: Optional[ContainerEngine] = None,
    apps: Sequence[str] = CROSSISA_APPS,
    target_isa: str = "aarch64",
) -> List[CrossIsaReport]:
    engine = engine or ContainerEngine(arch="amd64")
    reports = []
    for app in apps:
        layout, dist_tag = build_extended_image(engine, get_app(app))
        models, sources, _ = decode_cache(layout, dist_tag)
        reports.append(analyze_cross_isa(models, sources, target_isa, app=app))
    return reports


def figure11_rows(reports: Sequence[CrossIsaReport]) -> List[Tuple]:
    """(app, coM +lines, coM -lines, xbuild +lines, xbuild -lines)."""
    rows = []
    for report in reports:
        c_add, c_del = report.comtainer_changes
        x_add, x_del = report.xbuild_changes
        rows.append((report.app, c_add, c_del, x_add, x_del))
    return rows
