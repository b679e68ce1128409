"""What the harness measures: workloads, end-to-end metrics and layers.

Everything a later change is judged by is declared here once: the
workload names and op budgets, each end-to-end metric with its unit,
direction and regression bound, and the layer table that maps every
``repro`` subpackage to the public boundaries the tracer wraps and the
workloads that should exercise it most.  ``BENCHMARK.json`` at the repo
root mirrors these tables (a self-test keeps the two in step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: ``--seconds`` the op budgets below are sized for.  A run's op count is
#: ``ops * seconds / REFERENCE_SECONDS``: fixed work per setting, so two
#: commits measured with the same ``--seconds`` do exactly the same ops.
REFERENCE_SECONDS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "cold-adapt", 250,
        "never-seen app specs through build, push, pull, rebuild and "
        "redirect: every pipeline layer does real work, nothing is reusable",
    ),
    Workload(
        "warm-readapt", 1200,
        "repeat adaptations of primed apps, 70% identical and 30% with one "
        "LTO scope changed: plan diff, CoW clone and redirect, no compiles",
    ),
    Workload(
        "serve-burst", 150,
        "6-request bursts into one durable multi-tenant service with a "
        "Zipf app mix: admission, WFQ, WAL, telemetry, shared cache dedup",
    ),
    Workload(
        "mirror-sync", 600,
        "one changed patch layer in a fixed 88-ref catalogue, synced to 8 "
        "mirrors: sync planning, chunked transfer, verify-then-promote",
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}")


def op_count(name: str, seconds: float) -> int:
    """Ops one run of *name* performs at *seconds* (at least 1)."""
    return max(1, round(workload(name).ops * seconds / REFERENCE_SECONDS))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str            # "higher" or "lower"
    #: Allowed worsening of the median before a change counts as a
    #: regression: a share of the parent's median, or an absolute amount
    #: when ``absolute`` is set.
    bound: float
    #: An absolute bound suits a metric that is 0 on a healthy run
    #: (``error_rate``).  BENCHMARK.json only takes relative bounds, so
    #: such a metric is left out there and the run result's ``failed``
    #: count carries it instead.
    absolute: bool = False


#: Each bound is at least three times the largest run-to-run spread
#: (interquartile range over median, 10 seeds per workload) measured on
#: the reference 2-vCPU sandbox; see README.md.  ``setup_s`` spreads
#: widest, so it gets the largest bound.
END_TO_END: Tuple[Metric, ...] = (
    Metric("throughput_ops_s", "ops/s", "higher", 0.15),
    Metric("latency_p50_ms", "ms", "lower", 0.15),
    Metric("latency_p90_ms", "ms", "lower", 0.22),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.20),
    Metric("error_rate", "ratio", "lower", 0.0, absolute=True),
)

#: Fresh processes each run's set-up is timed in; ``setup_s`` is their
#: median (one of them is the process that then runs the timed ops).
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Layer:
    name: str
    #: ``(module, qualified attribute)`` of every public boundary wrapped.
    boundaries: Tuple[Tuple[str, str], ...]
    #: Workloads that do the most work in this layer; a traced run of one
    #: of them that records 0 calls here means a wrapper was bypassed.
    most: Tuple[str, ...]
    #: The end-to-end metric this layer's cost should move.
    moves: str


def _attrs(module: str, *names: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((module, name) for name in names)


LAYERS: Tuple[Layer, ...] = (
    Layer("simbin",
          _attrs("repro.simbin", "read_artifact_payload",
                 "read_program_marker", "artifact_payload"),
          ("cold-adapt",), "cold-adapt throughput"),
    Layer("toolchain",
          _attrs("repro.toolchain.cli", "parse_command_line")
          + _attrs("repro.toolchain.drivers", "CompilerDriver.execute")
          + _attrs("repro.toolchain.archiver", "run_ar"),
          ("cold-adapt",), "cold-adapt p50"),
    Layer("core.frontend",
          _attrs("repro.core.frontend.build", "analyze_build_container")
          + _attrs("repro.core.frontend.parser", "graph_from_trace"),
          ("cold-adapt",), "cold-adapt p50"),
    Layer("vfs",
          _attrs("repro.vfs.filesystem", *(
              f"VirtualFilesystem.{m}" for m in (
                  "read_file", "write_file", "makedirs", "exists",
                  "get_node", "clone", "copy_tree", "overlay"))),
          ("warm-readapt",), "warm-readapt p50"),
    Layer("pkg",
          _attrs("repro.pkg.apt", "AptFacade.install")
          + _attrs("repro.pkg.database", "DpkgDatabase.write_to")
          + _attrs("repro.pkg.resolver", "resolve_install"),
          ("warm-readapt", "serve-burst"), "warm-readapt p50"),
    Layer("oci",
          _attrs("repro.oci.layer", "Layer.to_tar_bytes",
                 "Layer.from_tar_bytes")
          + _attrs("repro.oci.apply", "apply_layer", "flatten_layers")
          + _attrs("repro.oci.diff", "diff_filesystems", "layer_from_tree")
          + _attrs("repro.oci.blobs", "BlobStore.put", "BlobStore.get")
          + _attrs("repro.oci.layout", "OCILayout.add_manifest",
                   "OCILayout.resolve"),
          ("cold-adapt",), "cold-adapt and warm-readapt p50"),
    Layer("oci.registry",
          _attrs("repro.oci.registry", *(
              f"ImageRegistry.{m}" for m in (
                  "push", "push_layout", "pull", "pull_to_layout"))),
          ("mirror-sync",), "cold-adapt p90, mirror-sync"),
    Layer("containers",
          _attrs("repro.containers.engine", *(
              f"ContainerEngine.{m}" for m in (
                  "run", "from_image", "commit", "build_stages",
                  "push_to_layout"))),
          ("cold-adapt",), "all p50"),
    Layer("core.backend",
          _attrs("repro.core.backend.rebuild", "rebuild_in_container")
          + _attrs("repro.core.backend.redirect", "redirect_in_container")
          + _attrs("repro.core.backend.replacement", "apply_replacements"),
          ("cold-adapt",), "cold-adapt and warm-readapt p50"),
    Layer("core.backend.scheduler",
          _attrs("repro.core.backend.scheduler", "plan_command_groups",
                 "compute_wavefronts", "lpt_schedule"),
          ("cold-adapt",), "cold-adapt p50"),
    Layer("resilience.fleet",
          _attrs("repro.resilience.fleet", "WorkerFleet.run_wave"),
          ("serve-burst",), "cold-adapt and serve-burst"),
    Layer("perf.incremental",
          _attrs("repro.perf.incremental", "compute_plan_fingerprints",
                 "diff_plan"),
          ("warm-readapt",), "warm-readapt p50"),
    Layer("core.cache",
          _attrs("repro.core.cache.artifacts", *(
              f"RebuildArtifactCache.{m}" for m in ("lookup", "store",
                                                    "flush")))
          + _attrs("repro.core.cache.storage", "encode_rebuild_layer",
                   "decode_rebuild", "decode_rebuild_plan")
          + _attrs("repro.core.cache.artifacts",
                   "SharedArtifactCache.absorb_layout",
                   "SharedArtifactCache.seed_layout"),
          ("serve-burst",), "serve-burst throughput"),
    Layer("service",
          _attrs("repro.service.service", "AdaptationService.run")
          + _attrs("repro.service.admission", *(
              f"AdmissionQueue.{m}" for m in ("admit", "pop_next",
                                              "expire"))),
          ("serve-burst",), "serve-burst throughput"),
    Layer("service.wal",
          _attrs("repro.service.wal", "ServiceWAL.append"),
          ("serve-burst",), "serve-burst throughput"),
    Layer("telemetry",
          _attrs("repro.telemetry.spans", *(
              f"Telemetry.{m}" for m in ("start_span", "end_span", "event")))
          + _attrs("repro.telemetry.metrics", *(
              f"MetricsRegistry.{m}" for m in ("counter", "gauge",
                                               "histogram"))),
          ("serve-burst",), "serve-burst p50"),
    Layer("federation",
          _attrs("repro.federation.sync", "SyncEngine.sync")
          + _attrs("repro.federation.registry", *(
              f"FederatedRegistry.{m}" for m in ("push", "sync_all",
                                                 "converged"))),
          ("mirror-sync",), "mirror-sync throughput"),
)

LAYER_NAMES = tuple(layer.name for layer in LAYERS)

#: Per-layer metric suffixes, each ``<layer>.<suffix>``: (suffix, unit,
#: better).
LAYER_SUFFIXES: Tuple[Tuple[str, str, str], ...] = (
    ("calls_per_op", "count", "lower"),
    ("self_ms_per_op", "ms", "lower"),
    ("errors", "count", "lower"),
)

#: Whole-run per-layer metrics beside the per-layer triples.  The four
#: ratios are read from public outputs, so they repeat exactly per seed.
EXTRA_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("unattributed.self_ms_per_op", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("perf.incremental.pruned_ratio", "ratio", "higher"),
    ("service.dedup_ratio", "ratio", "higher"),
    ("federation.bytes_per_op", "B", "lower"),
)

RATIO_METRICS = tuple(name for name, _, _ in EXTRA_LAYER_METRICS[2:])


def per_layer_metrics() -> Tuple[Tuple[str, str, str], ...]:
    """Every per-layer metric as (name, unit, better), in report order."""
    return tuple(
        (f"{layer}.{suffix}", unit, better)
        for layer in LAYER_NAMES for suffix, unit, better in LAYER_SUFFIXES
    ) + EXTRA_LAYER_METRICS


def per_layer_units() -> Dict[str, str]:
    return {name: unit for name, unit, _ in per_layer_metrics()}


#: Largest tolerated traced/untraced slowdown before the traced run fails.
MAX_TRACE_OVERHEAD = 0.30
