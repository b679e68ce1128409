"""Telemetry — the recorder must cost (almost) nothing.

Three claims, all measured on a cold ``coMtainer-rebuild``:

* the default :data:`NULL_TELEMETRY` path is the baseline — the null
  recorder is the one off switch, so the untraced arm runs the same
  instrumented code and pays for the null recorder's no-op calls (span
  context managers, ``counter().inc()`` and the like);
* even a *fully traced* run (spans on every stage and compile node, byte
  counters on every blob) stays within 5% of that baseline;
* so does a traced run with the whole observability control plane live
  (time-series sampler + SLO rules evaluated on every sample + the
  span-boundary cost profiler) — ``make obs-bench``.
"""

import time

import pytest

from repro.apps import get_app
from repro.containers import ContainerEngine
from repro.core.cache.storage import decode_rebuild, extended_tag
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import install_system_side_images, sysenv_ref
from repro.core.workflow import build_extended_image
from repro.oci.layout import OCILayout
from repro.perf import attach_perf
from repro.reporting import render_table
from repro.sysmodel import X86_CLUSTER
from repro.telemetry import Telemetry, install_telemetry, uninstall_telemetry

ROUNDS = 9


def _fresh_copy(layout, dist_tag):
    fresh = OCILayout()
    for tag in (dist_tag, extended_tag(dist_tag)):
        resolved = layout.resolve(tag)
        fresh.add_manifest(resolved.manifest, resolved.config, resolved.layers,
                           tag=tag)
    return fresh


def _one_cold_rebuild(engine, layout, dist_tag):
    """One timed cold rebuild; returns (seconds, meta)."""
    fresh = _fresh_copy(layout, dist_tag)
    ctr = engine.from_image(sysenv_ref("x86"), name="tele-bench",
                            mounts={IO_MOUNT: fresh})
    try:
        t0 = time.perf_counter()
        engine.run(ctr, ["coMtainer-rebuild"]).check()
        elapsed = time.perf_counter() - t0
    finally:
        engine.remove_container("tele-bench")
    return elapsed, decode_rebuild(fresh, dist_tag)[0]


def _ab_overhead(engine, layout, dist_tag, arm, disarm):
    """Interleaved A/B rounds; returns (null_s, armed_s, overhead, metas).

    The workload is ~60ms and the machine's round-to-round noise is a
    few percent either way — larger than the effect being measured, and
    it drifts.  Back-to-back null/armed pairs see the same drift, so the
    median of the per-pair ratios isolates the real overhead where a
    best-of-N or a plain mean mis-ranks it.
    """
    ratios = []
    null_times = []
    armed_times = []
    meta_null = meta_armed = None
    for _ in range(ROUNDS):
        null_s, meta_null = _one_cold_rebuild(engine, layout, dist_tag)
        arm()
        try:
            armed_s, meta_armed = _one_cold_rebuild(engine, layout, dist_tag)
        finally:
            disarm()
        null_times.append(null_s)
        armed_times.append(armed_s)
        ratios.append(armed_s / null_s)
    ratios.sort()
    overhead = ratios[len(ratios) // 2] - 1.0
    null_s = sum(null_times) / len(null_times)
    armed_s = sum(armed_times) / len(armed_times)
    return null_s, armed_s, overhead, (meta_null, meta_armed)


def test_telemetry_happy_path_overhead(benchmark, emit):
    user = ContainerEngine(arch="amd64")
    layout, dist_tag = build_extended_image(user, get_app("lammps"))
    engine = ContainerEngine(arch="amd64")
    attach_perf(engine, X86_CLUSTER)
    install_system_side_images(engine, X86_CLUSTER)

    # Null baseline (the shipped default) vs a live recorder spanning
    # every node and counter, interleaved round for round.
    tele = Telemetry()
    null_s, traced_s, overhead, (meta_null, meta_traced) = _ab_overhead(
        engine, layout, dist_tag,
        arm=lambda: install_telemetry(tele, engines=[engine]),
        disarm=lambda: uninstall_telemetry(engines=[engine]),
    )
    rows = [
        ("null (default)", f"{null_s:.4f}", "-",
         len(meta_null["executed_nodes"])),
        ("traced", f"{traced_s:.4f}", f"{overhead:+.1%}",
         len(meta_traced["executed_nodes"])),
    ]
    emit("telemetry_overhead",
         render_table(["telemetry", "seconds (mean of 9)", "overhead",
                       "executed"], rows))

    # Same work either way, and tracing really recorded the rebuild.
    assert meta_null["executed_nodes"] == meta_traced["executed_nodes"]
    assert tele.find_spans("rebuild.node")
    assert tele.metrics.value("rebuild_nodes_executed_total") > 0
    # The happy path stays within the 5% budget.
    assert overhead < 0.05, (
        f"telemetry costs {overhead:.1%} on the happy path "
        f"(null {null_s:.4f}s vs traced {traced_s:.4f}s)"
    )

    benchmark.pedantic(
        _one_cold_rebuild,
        args=(engine, layout, dist_tag),
        rounds=1, iterations=1,
    )


def test_controlplane_overhead(benchmark, emit):
    """Sampler + rules + profiler enabled end to end: still under 5%."""
    from repro.telemetry import ControlPlane

    user = ContainerEngine(arch="amd64")
    layout, dist_tag = build_extended_image(user, get_app("lammps"))
    engine = ContainerEngine(arch="amd64")
    attach_perf(engine, X86_CLUSTER)
    install_system_side_images(engine, X86_CLUSTER)

    tele = Telemetry()
    # An aggressive cadence so the sampler and rules genuinely run many
    # times during the rebuild (hundreds of samples, thousands of rule
    # evaluations), not once at finalize.
    controlplane = ControlPlane(tele, cadence=0.1)
    null_s, observed_s, overhead, (meta_null, meta_observed) = _ab_overhead(
        engine, layout, dist_tag,
        arm=lambda: install_telemetry(tele, engines=[engine]),
        disarm=lambda: uninstall_telemetry(engines=[engine]),
    )
    controlplane.finalize()

    rows = [
        ("null (default)", f"{null_s:.4f}", "-",
         len(meta_null["executed_nodes"])),
        ("control plane", f"{observed_s:.4f}", f"{overhead:+.1%}",
         len(meta_observed["executed_nodes"])),
        ("samples taken", controlplane.sampler.samples_taken, "-", "-"),
        ("rule evaluations",
         controlplane.rules.evaluations * len(controlplane.rules.rules),
         "-", "-"),
        ("profiled stacks", len(controlplane.profiler.hot_rows(10 ** 6)),
         "-", "-"),
    ]
    emit("controlplane_overhead",
         render_table(["control plane", "seconds (mean of 9)", "overhead",
                       "executed"], rows))

    assert meta_null["executed_nodes"] == meta_observed["executed_nodes"]
    # The control plane really ran: samples, rules and profiled cost.
    assert controlplane.sampler.samples_taken > 1
    assert controlplane.rules.evaluations == controlplane.sampler.samples_taken
    assert controlplane.profiler.total_ns() > 0
    assert controlplane.profiler.total_ns() == round(tele.clock.now * 1e9)
    assert overhead < 0.05, (
        f"control plane costs {overhead:.1%} "
        f"(null {null_s:.4f}s vs observed {observed_s:.4f}s)"
    )

    benchmark.pedantic(
        _one_cold_rebuild,
        args=(engine, layout, dist_tag),
        rounds=1, iterations=1,
    )
