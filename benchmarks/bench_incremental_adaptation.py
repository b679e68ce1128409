"""Incremental adaptation — the plan-level short-circuit must pay off.

"The rebuilding and redirecting can be performed many times during the
image's lifetime" (§4.1).  PRs before this one made repeat rebuilds skip
node *execution*; the plan diff in :mod:`repro.perf.incremental` now
prunes unchanged command groups before they even reach the scheduler, so
a warm identical re-adaptation runs zero nodes in zero waves.  Three
claims, measured on LAMMPS (the largest app):

* warm identical re-adaptation is at least 5x faster than a cold one
  (median of interleaved cold/warm pairs, same drift both sides);
* a one-node change (``--lto --lto-scope=<node>``) re-executes only that
  node and its transitive dependents — siblings stay pruned;
* a repeat tenant on the adaptation service lands on the incremental
  fast path (``incremental_fast_path`` outcome flag).

Each test also drops a machine-readable ``.json`` next to the rendered
table in ``benchmarks/results/``.
"""

import json
import os
import time

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

ROUNDS = 9
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _fresh_copy(layout, dist_tag):
    fresh = OCILayout()
    for tag in (dist_tag, extended_tag(dist_tag)):
        resolved = layout.resolve(tag)
        fresh.add_manifest(resolved.manifest, resolved.config, resolved.layers,
                           tag=tag)
    return fresh


def _timed_rebuild(engine, layout, args):
    """One timed rebuild; returns (seconds, stdout)."""
    ctr = engine.from_image(sysenv_ref("x86"), name="inc-bench",
                            mounts={IO_MOUNT: layout})
    try:
        t0 = time.perf_counter()
        out = engine.run(ctr, ["coMtainer-rebuild"] + args).check().stdout
        return time.perf_counter() - t0, out
    finally:
        engine.remove_container("inc-bench")


def _emit_json(name, payload):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _setup():
    user = ContainerEngine(arch="amd64")
    layout, dist_tag = build_extended_image(user, get_app("lammps"))
    engine = ContainerEngine(arch="amd64")
    attach_perf(engine, X86_CLUSTER)
    install_system_side_images(engine, X86_CLUSTER)
    return engine, layout, dist_tag


def test_incremental_speedup(benchmark, emit):
    """Cold vs warm-identical vs one-node-changed."""
    engine, layout, dist_tag = _setup()

    # Interleaved cold/warm pairs: each round replays the cold rebuild on
    # a fresh layout, then the warm one on the now-populated layout, so
    # machine drift hits both sides of every ratio equally.
    ratios, cold_times, warm_times = [], [], []
    meta_cold = meta_warm = None
    warm_out = ""
    for _ in range(ROUNDS):
        fresh = _fresh_copy(layout, dist_tag)
        cold_s, _ = _timed_rebuild(engine, fresh, ["--adapter=vendor"])
        meta_cold = decode_rebuild(fresh, dist_tag)[0]
        warm_s, warm_out = _timed_rebuild(engine, fresh, ["--adapter=vendor"])
        meta_warm = decode_rebuild(fresh, dist_tag)[0]
        cold_times.append(cold_s)
        warm_times.append(warm_s)
        ratios.append(warm_s / cold_s)
    ratios.sort()
    speedup = 1.0 / ratios[len(ratios) // 2]
    cold_s = sum(cold_times) / len(cold_times)
    warm_s = sum(warm_times) / len(warm_times)

    # One node changed: LTO scoped to a single object re-executes that
    # node and its dependents only; everything else stays pruned.
    fresh = _fresh_copy(layout, dist_tag)
    _timed_rebuild(engine, fresh, ["--adapter=vendor"])
    base = decode_rebuild(fresh, dist_tag)[0]
    target = sorted(n for n in base["executed_nodes"] if n.endswith(".o"))[0]
    one_s, _ = _timed_rebuild(
        engine, fresh,
        ["--adapter=vendor", "--lto", f"--lto-scope={target}"])
    meta_one = decode_rebuild(fresh, dist_tag)[0]

    rows = [
        ("cold", f"{cold_s:.4f}", len(meta_cold["executed_nodes"]),
         len(meta_cold["pruned_nodes"])),
        ("warm (identical)", f"{warm_s:.4f}",
         len(meta_warm["executed_nodes"]), len(meta_warm["pruned_nodes"])),
        (f"one node changed ({target})", f"{one_s:.4f}",
         len(meta_one["executed_nodes"]), len(meta_one["pruned_nodes"])),
        ("warm speedup (median of 9)", f"{speedup:.1f}x", "-", "-"),
    ]
    emit("incremental_adaptation",
         render_table(["rebuild", "seconds (mean of 9)", "executed",
                       "pruned"], rows))
    _emit_json("incremental_adaptation", {
        "app": "lammps",
        "rounds": ROUNDS,
        "cold_seconds_mean": cold_s,
        "warm_seconds_mean": warm_s,
        "warm_speedup_median": speedup,
        "cold_executed": len(meta_cold["executed_nodes"]),
        "warm_executed": len(meta_warm["executed_nodes"]),
        "warm_pruned": len(meta_warm["pruned_nodes"]),
        "one_node_target": target,
        "one_node_executed": len(meta_one["executed_nodes"]),
        "one_node_pruned": len(meta_one["pruned_nodes"]),
    })

    # Cold runs everything; warm prunes everything and schedules nothing.
    assert meta_cold["pruned_nodes"] == []
    assert meta_warm["executed_nodes"] == []
    assert len(meta_warm["pruned_nodes"]) == len(meta_cold["executed_nodes"])
    assert "wavefronts=0" in warm_out
    assert "plan diff pruned" in warm_out
    # The changed node ran; its untouched siblings did not.
    assert target in meta_one["executed_nodes"]
    assert 0 < len(meta_one["executed_nodes"]) < len(base["executed_nodes"])
    assert len(meta_one["pruned_nodes"]) > 0
    # The headline claim: at least 5x on the warm identical path.
    assert speedup >= 5.0, (
        f"warm re-adaptation only {speedup:.1f}x faster than cold "
        f"(cold {cold_s:.4f}s vs warm {warm_s:.4f}s)"
    )

    benchmark.pedantic(
        _timed_rebuild,
        args=(engine, _fresh_copy(layout, dist_tag), ["--adapter=vendor"]),
        rounds=1, iterations=1,
    )


def test_service_repeat_tenant_fast_path(emit):
    """A repeat tenant's identical request rides the incremental path."""
    from repro.service import AdaptationService

    service = AdaptationService(workers=1, seed=0)
    service.add_tenant("t")
    service.submit("t", "lammps", at=0.0)
    service.submit("t", "lammps", at=1000.0)
    report = service.run()
    first, second = report.outcomes

    rows = [
        ("first request", f"{first.latency:.2f}", first.executed_nodes,
         first.reused_nodes, first.incremental_fast_path),
        ("repeat request", f"{second.latency:.2f}", second.executed_nodes,
         second.reused_nodes, second.incremental_fast_path),
    ]
    emit("service_repeat_tenant",
         render_table(["request", "latency (sim s)", "executed", "reused",
                       "fast path"], rows))
    _emit_json("service_repeat_tenant", {
        "app": "lammps",
        "first_latency": first.latency,
        "repeat_latency": second.latency,
        "first_executed": first.executed_nodes,
        "repeat_executed": second.executed_nodes,
        "repeat_fast_path": second.incremental_fast_path,
    })

    assert first.status == "completed" and second.status == "completed"
    assert not first.incremental_fast_path
    assert first.executed_nodes > 0
    assert second.incremental_fast_path
    assert second.executed_nodes == 0
    assert second.reused_nodes == first.executed_nodes
    assert second.latency < first.latency
