"""``comtainer-demo``: a small CLI over the reproduction.

Subcommands::

    comtainer-demo schemes  <workload> [--system x86|arm]   # Figure 9 row
    comtainer-demo adapt    <app>      [--system ...] [--lto] [--pgo WKLD]
                                       [--jobs N] [--no-speculate]
                                       [--max-worker-failures N]
    comtainer-demo trace    <app>      [--out trace.json]  # traced adapt
    comtainer-demo analyze  <app>                          # process models
    comtainer-demo crossisa <app>      [--target aarch64]  # Figure 11 row
    comtainer-demo inspect  <app>      [--extended]        # layer stack
    comtainer-demo fsck     <dir>      [--repair] [--source DIR] [--app APP]
                                       [--federation]
    comtainer-demo mirror   sync|status <app> [--mirrors N] [--fault-rate R]
                                       [--seed S] [--chunk-size BYTES]
    comtainer-demo health   <app>      [--system ...] [--jobs N]
                                       [--mirrors N] [--stale-mirrors N]
                                       [--fault-rate R] [--seed S]
                                       [--cadence S] [--top K]
    comtainer-demo serve    [--tenants N] [--requests N] [--workers N]
                            [--noisy] [--fault-rate R] [--seed S]
                            [--deadline S] [--mirrors N]   # service demo
    comtainer-demo tables                                  # Tables 1 & 2

Global flags: ``--trace`` prints the span tree after the command,
``--trace-out FILE`` writes Chrome trace-event JSON, ``--metrics`` dumps
the Prometheus-style metrics registry (plus alert states when the
control plane ran), ``--slo`` samples metrics and evaluates the built-in
SLO rules during any command, ``--profile-out FILE`` writes the cost
profiler's collapsed-stack text, and ``-v``/``-q`` raise/lower the
stdlib-logging level (default WARNING).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from repro.sysmodel import SYSTEMS


def configure_logging(verbose: int = 0, quiet: int = 0) -> int:
    """Map ``-v``/``-q`` counts onto a stdlib-logging level (default WARNING)."""
    level = logging.WARNING + 10 * quiet - 10 * verbose
    level = max(logging.DEBUG, min(logging.CRITICAL, level))
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("repro").setLevel(level)
    return level


def _wants_telemetry(args: argparse.Namespace) -> bool:
    return bool(args.trace or args.trace_out or args.metrics
                or args.slo or args.profile_out
                or args.command in ("trace", "health"))


def _wants_controlplane(args: argparse.Namespace) -> bool:
    return bool(args.slo or args.profile_out or args.command == "health")


def _session(system_key: str, telemetry=None, jobs: int = 1,
             speculate: bool = True, max_worker_failures: int = 3):
    from repro.core.workflow import ComtainerSession

    return ComtainerSession(system=SYSTEMS[system_key], telemetry=telemetry,
                            jobs=jobs, speculate=speculate,
                            max_worker_failures=max_worker_failures)


def cmd_schemes(args: argparse.Namespace) -> int:
    from repro.core.workflow import measure_schemes
    from repro.reporting import render_table

    session = _session(args.system, telemetry=args.telemetry)
    times = measure_schemes(session, args.workload)
    rows = [(scheme, seconds) for scheme, seconds in times.items()]
    print(render_table(["scheme", "time (s)"], rows))
    return 0


def cmd_adapt(args: argparse.Namespace) -> int:
    from repro.apps import get_app
    from repro.core.workflow import build_extended_image, system_side_adapt
    from repro.containers import ContainerEngine
    from repro.perf import attach_perf
    from repro.reporting import render_resilience_report
    from repro.resilience import find_deadline_exceeded
    from repro.resilience.degrade import (
        RUNG_DEADLINE_EXCEEDED,
        ResilienceReport,
    )
    from repro.telemetry import install_telemetry

    system = SYSTEMS[args.system]
    user = ContainerEngine(arch=system.arch)
    engine = ContainerEngine(arch=system.arch)
    install_telemetry(args.telemetry, engines=[user, engine])
    layout, dist_tag = build_extended_image(user, get_app(args.app))
    recorder = attach_perf(engine, system)
    # With a deadline the rebuild runs journaled, so a cancellation
    # leaves a resumable checkpoint instead of lost work.
    extra = ["--journal"] if args.deadline is not None else None
    try:
        ref = system_side_adapt(
            engine, layout, system, recorder=recorder,
            lto=args.lto, pgo_workload=args.pgo, ref=f"{args.app}:adapted",
            jobs=args.jobs, speculate=args.speculate,
            max_worker_failures=args.max_worker_failures,
            extra_rebuild_args=extra, deadline=args.deadline,
        )
    except Exception as exc:
        blown = find_deadline_exceeded(exc)
        if blown is None:
            raise
        report = ResilienceReport(
            tag=dist_tag, rung=RUNG_DEADLINE_EXCEEDED, ref=None,
            deadline_exceeded=str(blown),
            reasons=[f"adaptation cancelled: {blown}"],
        )
        print(render_resilience_report(report, telemetry=args.telemetry))
        print("journal checkpoint kept: re-run to resume the rebuild")
        return 1
    print(f"adapted image: {ref}")
    print(f"layout tags  : {layout.tags()}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """A traced end-to-end adaptation plus the measured stage breakdown."""
    from repro.reporting import render_table, telemetry_stage_rows

    session = _session(args.system, telemetry=args.telemetry, jobs=args.jobs,
                       speculate=args.speculate,
                       max_worker_failures=args.max_worker_failures)
    ref = session.adapt(args.app, workload=args.workload)
    print(f"adapted image: {ref}")
    print()
    print(render_table(["stage", "spans", "simulated s"],
                       telemetry_stage_rows(args.telemetry)))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.apps import get_app
    from repro.containers import ContainerEngine
    from repro.core.cache.storage import decode_cache
    from repro.core.workflow import build_extended_image
    from repro.telemetry import install_telemetry

    user = ContainerEngine(arch="amd64")
    install_telemetry(args.telemetry, engines=[user])
    layout, dist_tag = build_extended_image(user, get_app(args.app))
    models, sources, _ = decode_cache(layout, dist_tag)
    print(json.dumps(models.summary(), indent=2, default=str))
    print(f"cached sources: {len(sources)}")
    return 0


def cmd_crossisa(args: argparse.Namespace) -> int:
    from repro.apps import get_app
    from repro.containers import ContainerEngine
    from repro.core.cache.storage import decode_cache
    from repro.core.crossisa import analyze_cross_isa
    from repro.core.workflow import build_extended_image

    user = ContainerEngine(arch="amd64")
    layout, dist_tag = build_extended_image(user, get_app(args.app))
    models, sources, _ = decode_cache(layout, dist_tag)
    report = analyze_cross_isa(models, sources, args.target, app=args.app)
    c_add, c_del = report.comtainer_changes
    x_add, x_del = report.xbuild_changes
    print(f"app              : {report.app}")
    print(f"can cross        : {report.can_cross}")
    print(f"ISA-flag commands: {report.flag_lines}")
    print(f"inline asm       : {report.asm_guarded} guarded, "
          f"{report.asm_unguarded} unguarded")
    print(f"coMtainer changes: +{c_add}/-{c_del}")
    print(f"xbuild changes   : +{x_add}/-{x_del}")
    return 0 if report.can_cross else 1


def cmd_inspect(args: argparse.Namespace) -> int:
    from repro.apps import get_app
    from repro.containers import ContainerEngine
    from repro.core.cache.storage import extended_tag
    from repro.core.workflow import build_extended_image
    from repro.oci.inspect import inspect_image

    user = ContainerEngine(arch="amd64")
    layout, dist_tag = build_extended_image(user, get_app(args.app))
    tag = extended_tag(dist_tag) if args.extended else dist_tag
    summary = inspect_image(layout.resolve(tag))
    print(f"image: {tag}")
    print(summary.render())
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Verify a saved OCI layout directory; with ``--repair``, heal it.

    With ``--federation`` the path is treated as the origin and every
    ``--source`` directory as a replica: each member is scanned (and,
    with ``--repair``, healed from the others) and replica divergence
    from the origin is audited.

    Exit code 0 means every object verified (possibly after repair);
    1 means unrepaired corruption or divergence remains.  A ``--source``
    that cannot be read is skipped with one stderr line naming it, so the
    exit code is the target's verdict.
    """
    from repro.integrity.fsck import fsck_directory, load_source
    from repro.integrity.repair import RepairEngine
    from repro.reporting import render_fsck_report

    if args.federation:
        from repro.integrity.fsck import fsck_federation_directories
        from repro.reporting import render_federation_fsck_report

        report = fsck_federation_directories(
            args.path, list(args.source), repair=args.repair,
            telemetry=args.telemetry,
        )
        print(render_federation_fsck_report(report))
        return report.exit_code

    repair = None
    if args.repair:
        repair = RepairEngine(telemetry=args.telemetry)
        for source in args.source:
            layout = load_source(source)
            if layout is not None:
                repair.add_layout(layout, label=source)
        if args.app:
            from repro.apps import get_app
            from repro.containers import ContainerEngine
            from repro.core.workflow import build_extended_image

            repair.add_regenerator(
                lambda: build_extended_image(
                    ContainerEngine(arch="amd64"), get_app(args.app)
                )[0],
                label=f"regenerate:{args.app}",
            )
    report = fsck_directory(args.path, repair=repair, telemetry=args.telemetry)
    print(render_fsck_report(report))
    return report.exit_code


def cmd_mirror(args: argparse.Namespace) -> int:
    """``mirror sync``/``mirror status``/``mirror promote``: fan an
    app's extended image out to N edge mirrors through the incremental
    sync engine.

    With ``--fault-rate`` the transfer path runs under seeded chaos
    (transient aborts + in-flight chunk corruption); syncs are retried
    until every mirror converges, exercising the resumable ledger.
    ``promote`` additionally fails the origin, elects the freshest
    converged mirror under a new fence epoch, demonstrates a stale-fence
    write being rejected, and reconciles the demoted origin back in as a
    mirror.  Exit code 0 means every mirror ended digest-identical with
    the (possibly promoted) origin.
    """
    from repro.apps import get_app
    from repro.containers import ContainerEngine
    from repro.core.workflow import build_extended_image
    from repro.federation import DEFAULT_CHUNK_SIZE, FederatedRegistry
    from repro.reporting import render_federation_status, render_sync_reports
    from repro.resilience.faults import FaultInjector

    user = ContainerEngine(arch="amd64")
    layout, dist_tag = build_extended_image(user, get_app(args.app))
    injector = None
    if args.fault_rate > 0:
        injector = FaultInjector(
            seed=args.seed, rate=args.fault_rate,
            corruption_rate=args.fault_rate / 2,
            sites=frozenset({"mirror.sync", "transfer.chunk"}),
            corruption_sites=frozenset({"transfer.chunk"}),
        )
    fed = FederatedRegistry(
        injector=injector, telemetry=args.telemetry,
        chunk_size=args.chunk_size or DEFAULT_CHUNK_SIZE,
    )
    fed.push_layout(f"{args.app}:dist", layout, tag=dist_tag)
    for i in range(args.mirrors):
        fed.add_mirror(f"edge-{i}")

    if args.action in ("sync", "promote"):
        reports = {}
        for name in sorted(fed.mirrors):
            for _ in range(200):
                try:
                    reports[name] = fed.sync_mirror(name)
                    break
                except Exception as exc:
                    logging.getLogger("repro.cli").info(
                        "sync of %s interrupted, resuming: %s", name, exc)
        print(render_sync_reports(reports.values()))
        print()
    if args.action == "promote":
        from repro.federation import FencedWriteError

        reference = f"{args.app}:dist"
        fed.pull(reference)   # pre-failure pull must work
        before = fed.origin.manifest_digest(reference)
        stale_writer = fed.fenced_writer()
        promotion = fed.fail_over()
        print(f"origin failed; promoted {promotion.elected} at "
              f"generation {promotion.generation} "
              f"(fence epoch {promotion.fence_token})")
        for note in promotion.notes:
            print(f"  {note}")
        try:
            stale_writer.push_layout(reference, layout, tag=dist_tag)
            print("  ERROR: stale-fence write was accepted")
            return 1
        except FencedWriteError as exc:
            print(f"  stale-fence write rejected: {exc}")
        fed.pull(reference)   # post-promotion pull must work too
        after = fed.origin.manifest_digest(reference)
        print(f"  promoted-origin pull digest-identical: {before == after}")
        fed.rejoin_demoted()
        print(f"  demoted origin rejoined as mirror "
              f"({len(fed.mirrors)} mirrors)")
        print()
    print(render_federation_status(fed))
    problems = {n: p for n, p in fed.audit().items() if p}
    if args.action in ("sync", "promote"):
        if problems:
            for name in sorted(problems):
                for problem in problems[name]:
                    print(f"  {name}: {problem}")
            return 1
        print(f"all {len(fed.mirrors)} mirrors converged "
              f"(origin generation {fed.generation})")
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """``coMtainer health``: one adaptation + mirror fan-out under the
    observability control plane, scored into per-component statuses.

    The run adapts *app* on ``--jobs`` rebuild workers (optionally under
    seeded worker chaos via ``--fault-rate``), then pushes the extended
    image through a federated registry with ``--mirrors`` edges of which
    ``--stale-mirrors`` are deliberately left behind the origin.  The
    sampled series drive the built-in SLO rules; alerts, component
    health, and the hot-path cost profile are printed.  Exit code 0
    means every component scored healthy (or unknown), 1 otherwise.
    """
    from repro.apps import get_app
    from repro.containers import ContainerEngine
    from repro.core.workflow import build_extended_image, system_side_adapt
    from repro.federation import FederatedRegistry
    from repro.perf import attach_perf
    from repro.reporting import (
        render_alerts,
        render_health_report,
        render_hot_paths,
    )
    from repro.resilience.faults import FaultInjector
    from repro.resilience.fleet import FleetExhaustedError
    from repro.telemetry import install_telemetry

    system = SYSTEMS[args.system]
    user = ContainerEngine(arch=system.arch)
    engine = ContainerEngine(arch=system.arch)
    if args.fault_rate > 0:
        engine.fault_injector = FaultInjector(
            seed=args.seed,
            worker_crash_rate=args.fault_rate,
            worker_flaky_rate=args.fault_rate,
        )
    install_telemetry(args.telemetry, engines=[user, engine])
    layout, dist_tag = build_extended_image(user, get_app(args.app))
    recorder = attach_perf(engine, system)
    failures = {}
    ref = None
    try:
        ref = system_side_adapt(
            engine, layout, system, recorder=recorder,
            ref=f"{args.app}:adapted", jobs=args.jobs,
        )
    except FleetExhaustedError as exc:
        # Chaos killed every rebuild worker: that IS a health finding,
        # not a crash — score it and keep reporting.
        failures["fleet"] = f"rebuild aborted: {exc}"

    fed = FederatedRegistry(telemetry=args.telemetry)
    fed.push_layout(f"{args.app}:dist", layout, tag=dist_tag)
    for i in range(args.mirrors):
        fed.add_mirror(f"edge-{i}")
    stale = {f"edge-{i}" for i in range(min(args.stale_mirrors, args.mirrors))}
    if stale:
        # Extra origin generations the stale mirrors will never see, so
        # they land past the staleness SLO (never-synced lag is
        # generation+1).
        for _ in range(2):
            fed.push_layout(f"{args.app}:dist", layout, tag=dist_tag)
    for name in sorted(fed.mirrors):
        if name not in stale:
            fed.sync_mirror(name)

    controlplane = args.telemetry.controlplane
    controlplane.finalize()
    report = controlplane.health(federation=fed, audit=True,
                                 failures=failures)
    print(f"adapted image: {ref if ref else '(rebuild failed)'}")
    print()
    print(render_health_report(report))
    print()
    print(render_alerts(controlplane.rules))
    print()
    print(render_hot_paths(controlplane.profiler, k=args.top))
    return report.exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    """``coMtainer serve``: a seeded multi-tenant chaos workload through
    the adaptation service.

    ``--tenants`` tenants submit ``--requests`` requests each, arrival
    times and priorities drawn deterministically from ``--seed``, over
    an app pool small enough to exercise the shared cache's single-
    flight dedup.  ``--noisy`` makes tenant 0 submit at 10x the fair
    rate (the WFQ scheduler contains the damage); ``--fault-rate``
    arms seeded transfer/worker faults so the circuit breakers and the
    degradation ladder have something to do.  The service journals to a
    write-ahead log; ``--crash-at T`` kills the simulated process at T
    seconds and restarts it from the WAL — recovered/resumed requests
    show in the report.
    Exit code 1 when any admitted request is lost (never expected),
    else 0.
    """
    import random as _random

    from repro.reporting import render_service_report
    from repro.resilience import FaultInjector
    from repro.service import (
        PRIORITY_BATCH,
        PRIORITY_HIGH,
        PRIORITY_NORMAL,
        AdaptationService,
        ServiceCrash,
        TERMINAL_STATUSES,
    )

    system = SYSTEMS[args.system]
    injector = None
    if args.fault_rate > 0:
        injector = FaultInjector(
            seed=args.seed,
            rate=args.fault_rate,
            worker_crash_rate=args.fault_rate / 2,
            worker_flaky_rate=args.fault_rate / 2,
        )
    service = AdaptationService(
        system=system,
        workers=args.workers,
        seed=args.seed,
        injector=injector,
        queue_capacity=args.queue_capacity,
        telemetry=args.telemetry if args.telemetry.enabled else None,
    )
    apps = [a.strip() for a in args.apps.split(",") if a.strip()]
    rng = _random.Random(f"comtainer-serve:{args.seed}")
    for i in range(args.tenants):
        service.add_tenant(
            f"tenant-{i}",
            weight=2.0 if i == 0 else 1.0,
            max_workers=max(1, args.workers // 2),
        )
    if args.mirrors:
        for i in range(args.mirrors):
            service.add_mirror(f"edge-{i}")
    priorities = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_NORMAL,
                  PRIORITY_BATCH)
    for i in range(args.tenants):
        count = args.requests * (10 if args.noisy and i == 0 else 1)
        for _ in range(count):
            service.submit(
                f"tenant-{i}",
                rng.choice(apps),
                at=rng.uniform(0.0, args.duration),
                priority=rng.choice(priorities),
                deadline=args.deadline,
            )
    try:
        report = service.run(crash_at=args.crash_at)
    except ServiceCrash as crash:
        print(f"{crash} at t={service.clock.now:.1f}s; "
              f"restarting from the WAL...")
        service = service.restart(
            telemetry=args.telemetry if args.telemetry.enabled else None)
        report = service.run()
    print(render_service_report(report, telemetry=service.telemetry))
    submitted = sum(t["submitted"] for t in report.tenants.values())
    lost = submitted - len(report.outcomes)
    untyped = [o for o in report.outcomes if o.status not in TERMINAL_STATUSES]
    if lost or untyped:
        print(f"LOST REQUESTS: {lost} unaccounted, {len(untyped)} untyped")
        return 1
    print(f"\nall {submitted} admitted requests accounted for "
          f"({report.summary()})")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    from repro.reporting import render_table, table1_rows, table2_rows

    print(render_table(["", "x86_64", "aarch64"], table1_rows()))
    print()
    print(render_table(["App", "Wkld", "LoC"], table2_rows()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comtainer-demo",
        description="coMtainer (SC'25) reproduction demo CLI",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more logging (-v INFO, -vv DEBUG)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less logging (-q ERROR, -qq CRITICAL)")
    parser.add_argument("--trace", action="store_true",
                        help="record telemetry and print the span tree")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write Chrome trace-event JSON to FILE")
    parser.add_argument("--metrics", action="store_true",
                        help="print the Prometheus-style metrics dump")
    parser.add_argument("--slo", action="store_true",
                        help="sample metrics on the control-plane cadence "
                             "and evaluate the built-in SLO rules")
    parser.add_argument("--profile-out", metavar="FILE", default=None,
                        help="write the cost profiler's collapsed-stack "
                             "text (phase as leaf frame, ns values) to FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schemes", help="measure a workload under all schemes")
    p.add_argument("workload")
    p.add_argument("--system", choices=sorted(SYSTEMS), default="x86")
    p.set_defaults(fn=cmd_schemes)

    p = sub.add_parser("adapt", help="run the coMtainer workflow for an app")
    p.add_argument("app")
    p.add_argument("--system", choices=sorted(SYSTEMS), default="x86")
    p.add_argument("--lto", action="store_true")
    p.add_argument("--pgo", metavar="WORKLOAD", default=None)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel rebuild workers (simulated makespan)")
    p.add_argument("--speculate", dest="speculate", action="store_true",
                   default=True,
                   help="speculatively duplicate straggler groups (default)")
    p.add_argument("--no-speculate", dest="speculate", action="store_false",
                   help="disable speculative re-execution of stragglers")
    p.add_argument("--max-worker-failures", type=int, default=3, metavar="N",
                   help="flaky strikes before a rebuild worker is blacklisted")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="simulated-seconds budget per rebuild; a miss is "
                        "reported as deadline_exceeded (journal resumable), "
                        "not a traceback")
    p.set_defaults(fn=cmd_adapt)

    p = sub.add_parser("trace", help="traced adaptation + stage breakdown")
    p.add_argument("app")
    p.add_argument("--system", choices=sorted(SYSTEMS), default="x86")
    p.add_argument("--workload", metavar="WORKLOAD", default=None,
                   help="run the optimized (LTO+PGO) pipeline for WORKLOAD")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write Chrome trace-event JSON to FILE")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel rebuild workers (simulated makespan)")
    p.add_argument("--speculate", dest="speculate", action="store_true",
                   default=True,
                   help="speculatively duplicate straggler groups (default)")
    p.add_argument("--no-speculate", dest="speculate", action="store_false",
                   help="disable speculative re-execution of stragglers")
    p.add_argument("--max-worker-failures", type=int, default=3, metavar="N",
                   help="flaky strikes before a rebuild worker is blacklisted")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("analyze", help="show an app's process models")
    p.add_argument("app")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("crossisa", help="cross-ISA feasibility analysis")
    p.add_argument("app")
    p.add_argument("--target", choices=["x86-64", "aarch64"], default="aarch64")
    p.set_defaults(fn=cmd_crossisa)

    p = sub.add_parser("inspect", help="inspect an app image's layer stack")
    p.add_argument("app")
    p.add_argument("--extended", action="store_true",
                   help="inspect the +coM extended image instead")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("fsck", help="verify (and repair) a saved OCI layout")
    p.add_argument("path", help="layout directory written by OCILayout.save")
    p.add_argument("--repair", action="store_true",
                   help="quarantine corrupt blobs, repair from the given "
                        "sources, and atomically rewrite the directory")
    p.add_argument("--source", action="append", metavar="DIR", default=[],
                   help="replica layout directory to repair from (repeatable)")
    p.add_argument("--app", default=None,
                   help="app whose extended image is regenerated as a "
                        "last-resort repair source")
    p.add_argument("--federation", action="store_true",
                   help="treat PATH as the origin and every --source as a "
                        "replica; audit (and with --repair, heal) replica "
                        "divergence")
    p.set_defaults(fn=cmd_fsck)

    p = sub.add_parser(
        "mirror",
        help="federated registry demo: sync N edge mirrors and show status",
    )
    p.add_argument("action", choices=["sync", "status", "promote"])
    p.add_argument("app")
    p.add_argument("--mirrors", type=int, default=3, metavar="N",
                   help="edge mirrors to fan the origin out to (default 3)")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-injection seed (with --fault-rate)")
    p.add_argument("--fault-rate", type=float, default=0.0, metavar="R",
                   help="transient fault rate at mirror.sync/transfer.chunk "
                        "(corruption injected at R/2)")
    p.add_argument("--chunk-size", type=int, default=None, metavar="BYTES",
                   help="transfer chunk size (default 64 KiB)")
    p.set_defaults(fn=cmd_mirror)

    p = sub.add_parser(
        "health",
        help="adaptation + mirror fan-out scored into component health",
    )
    p.add_argument("app")
    p.add_argument("--system", choices=sorted(SYSTEMS), default="x86")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="parallel rebuild workers (default 2)")
    p.add_argument("--mirrors", type=int, default=2, metavar="N",
                   help="edge mirrors to fan the origin out to (default 2)")
    p.add_argument("--stale-mirrors", type=int, default=0, metavar="N",
                   help="mirrors deliberately left behind the origin")
    p.add_argument("--fault-rate", type=float, default=0.0, metavar="R",
                   help="seeded rebuild-worker crash/flake rate")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-injection seed (with --fault-rate)")
    p.add_argument("--cadence", type=float, default=None, metavar="S",
                   help="sampling cadence in simulated seconds")
    p.add_argument("--top", type=int, default=10, metavar="K",
                   help="hot-path rows to print (default 10)")
    p.set_defaults(fn=cmd_health)

    p = sub.add_parser(
        "serve",
        help="multi-tenant adaptation service under a seeded chaos workload",
    )
    p.add_argument("--system", choices=sorted(SYSTEMS), default="x86")
    p.add_argument("--tenants", type=int, default=3, metavar="N",
                   help="tenants submitting work (default 3)")
    p.add_argument("--requests", type=int, default=4, metavar="N",
                   help="requests per tenant (default 4)")
    p.add_argument("--workers", type=int, default=8, metavar="N",
                   help="global rebuild worker pool (default 8)")
    p.add_argument("--queue-capacity", type=int, default=16, metavar="N",
                   help="admission queue capacity (default 16)")
    p.add_argument("--duration", type=float, default=60.0, metavar="S",
                   help="arrival window in simulated seconds (default 60)")
    p.add_argument("--deadline", type=float, default=None, metavar="S",
                   help="per-request deadline in simulated seconds")
    p.add_argument("--apps", default="minimd,hpccg,comd", metavar="A,B,...",
                   help="app pool arrivals draw from")
    p.add_argument("--noisy", action="store_true",
                   help="tenant 0 submits at 10x the fair rate")
    p.add_argument("--mirrors", type=int, default=0, metavar="N",
                   help="federation mirrors synced after completions")
    p.add_argument("--fault-rate", type=float, default=0.0, metavar="R",
                   help="seeded transient transfer/worker fault rate")
    p.add_argument("--seed", type=int, default=0,
                   help="workload and fault-injection seed")
    p.add_argument("--crash-at", type=float, default=None, metavar="T",
                   help="crash the simulated process at T seconds and "
                        "restart it from the WAL")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("tables", help="print Tables 1 and 2")
    p.set_defaults(fn=cmd_tables)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.telemetry import (
        NULL_TELEMETRY,
        Telemetry,
        chrome_trace_json,
        prometheus_text,
        render_span_tree,
    )

    args = build_parser().parse_args(argv)
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    args.telemetry = Telemetry() if _wants_telemetry(args) else NULL_TELEMETRY
    if _wants_controlplane(args):
        from repro.telemetry import ControlPlane

        cadence = getattr(args, "cadence", None)
        if cadence is None and args.command == "health":
            cadence = 0.5
        kwargs = {} if cadence is None else {"cadence": cadence}
        ControlPlane(args.telemetry, **kwargs)
    rc = args.fn(args)
    controlplane = args.telemetry.controlplane
    if controlplane is not None:
        controlplane.finalize()
    if args.trace:
        print()
        print(render_span_tree(args.telemetry))
    trace_out = args.trace_out or getattr(args, "out", None)
    if trace_out:
        with open(trace_out, "w", encoding="utf-8") as fh:
            fh.write(chrome_trace_json(args.telemetry))
        print(f"trace written: {trace_out}")
    if args.profile_out:
        with open(args.profile_out, "w", encoding="utf-8") as fh:
            fh.write(controlplane.profiler.collapsed_stack())
        print(f"profile written: {args.profile_out}")
    if args.slo and args.command != "health":
        from repro.reporting import render_alerts

        print()
        print(render_alerts(controlplane.rules))
    if args.metrics:
        print()
        print(prometheus_text(args.telemetry.metrics), end="")
        if controlplane is not None:
            print(controlplane.rules.alerts_text(), end="")
    return rc


if __name__ == "__main__":
    sys.exit(main())
