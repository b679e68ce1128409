"""``coMtainer-rebuild``: system-side rebuilding (Figure 5, right).

Runs in a rebuild container created from the Sysenv image, with the
extended image's layout mounted.  Decodes the cache, plans package
replacement, prepares the environment, re-executes the (transformed)
build graph with the system's native toolchain, and appends the rebuild
layer as the ``<tag>+coMre`` manifest.

The graph is executed through the wavefront scheduler
(:mod:`repro.core.backend.scheduler`): commands are deduplicated into
groups, layered into dependency wavefronts, and simulated time is charged
as the per-wavefront *makespan* over ``--jobs`` workers.  Execution order
is jobs-independent, so the rebuilt layer digest never depends on the
worker count.  A :class:`repro.core.cache.artifacts.RebuildArtifactCache`
can serve command groups a previous rebuild already ran from the same
inputs — warm PGO loops, repeated adapts, other cluster nodes.

One key decides every skip: the group's plan fingerprint
(:func:`repro.perf.incremental.compute_plan_fingerprints`), its
transformed-command digest folded over its leaf sources' contents and its
producers' fingerprints.  The plan diff prunes on it, the journal restores
on it and the artifact cache is keyed on it, so a skipped group's outputs
are exactly the bytes executing it would produce.

Each wavefront is dispatched onto a simulated worker fleet
(:mod:`repro.resilience.fleet`) in three phases: *resolve* (poison /
journal / cache decisions, in deterministic wavefront order),
*simulate* (the fleet timeline decides which groups complete and what the
wave costs, absorbing injected worker crashes, stragglers and flakes via
lease expiry, reassignment and speculation), then *execute* (each
completed group runs exactly once, again in wavefront order).  Faults can
therefore reshape simulated time but never bytes: the rebuilt layer is
byte-identical under any seeded worker fault pattern and any ``--jobs``.

The rebuild's inputs besides a previous ``+coMre`` are one key,
:func:`rebuild_inputs`: the container's image (its layer digests,
recorded at creation), each pool repository's name and digest, the
adapter (by identity; the memo entries hold it), every
:class:`RebuildOptions` field and the ``+coM`` manifest digest.  While
the container is unwritten they fix every path the plan reads (the
runtime install, the replacements and the sources follow from them), so
the plan memo keys on them; a container written before the program
starts (a PGO ``use`` rebuild's profile) forms no key and plans afresh.

A *fully pruned* rebuild (the plan diff left no dirty group, so no wave
ran) is a pure function of what it reads, so the ``+coMre`` image it
produces is memoised (a 64-entry :class:`repro.memo.LruMemo`) on the
same inputs, ``--fallback`` and the previous ``+coMre``'s plan key (each
node output's path and content digest, and its ``node_fingerprints``:
all the rebuild reads of it, computed once per decoded stack by
:func:`repro.core.cache.storage.rebuilt_stack`).  The rest of the
previous ``meta.json`` records how that rebuild ran, which no rebuild
reads, so the first identical re-adaptation after a cold run already
stores what the next one hits.  The flags that only shape a schedule
(``--jobs``, ``--journal``, ``--no-cache``, ``--deadline``,
``--speculate``, ``--max-worker-failures``) are not read for bytes by a
run with no wave.  A hit skips the decode, :func:`rebuild_in_container`,
the layer encode and the manifest stacking, and nothing else: every tag
resolve, verified read, blob write and fault arm happens in the same
order, and :func:`recorded_schedule`, which a run with waves records
through too, emits the same spans, events, counters and gauges.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.containers.container import Container, ProgramError
from repro.integrity import IntegrityError
from repro.core.adapters.base import RebuildOptions, SystemAdapter
from repro.core.backend.replacement import (
    apply_replacements,
    container_key,
    install_container_runtime,
)
from repro.core.backend.scheduler import ScheduleReport, WaveStats
from repro.resilience.fleet import FleetExhaustedError, WorkerFleet
from repro.core.cache.artifacts import RebuildArtifactCache
from repro.core.cache.storage import (
    CacheError,
    decoded_cache,
    encode_rebuild_layer,
    extended_tag,
    find_dist_tag,
    rebuild_plan,
    rebuilt_image,
    rebuilt_stack,
    rebuilt_tag,
    resolve_extended,
)
from repro.perf import incremental
from repro.memo import LruMemo
from repro.oci.layout import OCILayout, ResolvedImage
from repro.vfs import RegularFile
from repro.vfs.content import FileContent


class RebuildError(Exception):
    pass


#: What a fully pruned rebuild produced: (adapter, ``+coMre`` manifest,
#: config and layers, meta, critical path, command groups), keyed on
#: exactly what the rebuild reads (module docstring).
_REBUILD_MEMO = LruMemo(64, name="rebuild")


@contextmanager
def recorded_schedule(
    engine,
    report: ScheduleReport,
    journal=None,
    *,
    dirty: int = 0,
    pruned: Sequence[str] = (),
    executed: Sequence[str] = (),
    restored: Sequence[str] = (),
    failed: Sequence[str] = (),
    cache_hits: Sequence[str] = (),
    speculate: bool = True,
    max_worker_failures: int = 3,
) -> Iterator[WorkerFleet]:
    """The worker fleet a rebuild dispatches its waves onto inside the
    block, and every telemetry record of its schedule, in order.

    Before the block: the prune counters and the ``rebuild.plan_pruned``
    event (when *report* counts pruned groups) and the stale-lease check
    of *journal*.  After it, even when it raises: the fleet accounting
    (``engine.fleet_stats`` and the fleet counters).  After it, when it
    returns: the node counters, the schedule gauges and one event per
    pruned, restored and cache-served node.  The node lists are read
    when the block has filled them.  A fully pruned rebuild runs no wave,
    so a replay of one (``coMtainer-rebuild``'s memo hit) records exactly
    what it recorded by running an empty block.
    """
    tele = engine.telemetry
    m = tele.metrics
    if report.groups_pruned:
        m.counter("rebuild_groups_pruned_total").inc(report.groups_pruned)
        m.counter("rebuild_nodes_pruned_total").inc(len(pruned))
        tele.event("rebuild.plan_pruned", groups=report.groups_pruned,
                   nodes=len(pruned), dirty=dirty)
    fleet = WorkerFleet(
        jobs=report.jobs, injector=getattr(engine, "fault_injector", None),
        telemetry=tele, speculate=speculate,
        max_worker_failures=max_worker_failures,
    )
    report.fleet = fleet.stats
    if journal is not None:
        stale = journal.leases()
        if stale:
            # A previous rebuild died mid-wavefront with these groups in
            # flight.  Their outputs were never checkpointed, so they
            # simply re-execute in the block; surface and clear the
            # evidence.
            report.stale_leases = len(stale)
            tele.event("fleet.stale_leases", count=len(stale))
            journal.clear_leases()
    try:
        yield fleet
    finally:
        # Fleet accounting must survive exhaustion: the degradation
        # ladder reads it off the engine to populate the resilience
        # report's worker stats (accumulating across the ladder's
        # attempts — adapt_with_resilience resets it first).
        stats = fleet.stats
        prior = getattr(engine, "fleet_stats", None)
        engine.fleet_stats = stats if prior is None else prior.merge(stats)
        # Crashes, workers-alive and blacklist gauges are recorded per
        # wave by WorkerFleet.run_wave (the control plane's series need
        # them mid-run); only the whole-run counters land here.
        m.counter("fleet_reassignments_total").inc(stats.reassignments)
        m.counter("fleet_straggles_detected_total").inc(stats.straggles)
        m.counter("fleet_lease_expirations_total").inc(stats.lease_expirations)
        m.counter("fleet_speculative_launches_total").inc(stats.speculative_launches)
        m.counter("fleet_speculative_wins_total").inc(stats.speculative_wins)
    report.groups_executed = sum(w.executed for w in report.waves)
    m.counter("rebuild_nodes_executed_total").inc(len(executed))
    m.counter("rebuild_nodes_reused_total").inc(len(pruned))
    m.counter("rebuild_nodes_restored_total").inc(len(restored))
    m.counter("rebuild_nodes_failed_total").inc(len(failed))
    m.counter("rebuild_nodes_cache_hits_total").inc(len(cache_hits))
    m.gauge("rebuild_schedule_jobs").set(report.jobs)
    m.gauge("rebuild_schedule_wavefronts").set(len(report.waves))
    m.gauge("rebuild_schedule_max_width").set(report.max_width)
    m.gauge("rebuild_schedule_makespan_seconds").set(report.makespan_seconds)
    m.gauge("rebuild_schedule_serial_seconds").set(report.serial_seconds)
    m.gauge("rebuild_schedule_critical_path_seconds").set(report.critical_path_seconds)
    m.gauge("rebuild_schedule_speedup").set(report.speedup)
    m.gauge("rebuild_worker_utilization").set(report.utilization)
    for node_id in pruned:
        tele.event("rebuild.node_reused", node=node_id)
    for node_id in restored:
        tele.event("rebuild.node_restored", node=node_id)
    for node_id in cache_hits:
        tele.event("rebuild.node_cache_hit", node=node_id)


def rebuild_inputs(
    engine, container: Container, adapter: SystemAdapter,
    options: RebuildOptions, extended: ResolvedImage,
) -> Optional[tuple]:
    """The key of the rebuild's inputs (module docstring); None for a
    container written since creation."""
    key = container_key(container, engine.repository_pool_for(container))
    return key and key + (id(adapter), options.key(), extended.digest)


def rebuild_in_container(
    engine,
    container: Container,
    extended: ResolvedImage,
    dist_tag: str,
    adapter: SystemAdapter,
    options: RebuildOptions,
    previous: Optional[Tuple[Dict[str, FileContent], Dict[str, str]]] = None,
    journal=None,
    fallback_fs=None,
    jobs: int = 1,
    artifact_cache: Optional[RebuildArtifactCache] = None,
    speculate: bool = True,
    max_worker_failures: int = 3,
    deadline: Optional[float] = None,
) -> Tuple[dict, Dict[str, FileContent], Dict[str, int], Dict[str, FileContent],
           ScheduleReport]:
    """Execute the transformed build of *extended*, the resolved extended
    image of *dist_tag*; returns ``(meta, files, modes, node_files,
    schedule)``.

    The models and sources are the decode memo's own, read in place
    (adapters transform steps into new ones, §4.2), and the plan is
    memoised on :func:`rebuild_inputs`; a cache layer that does not
    decode raises :class:`RebuildError`.

    *previous* is a prior rebuild's (node outputs, plan fingerprints), as
    :func:`repro.core.cache.storage.decode_rebuild_plan` reads them.  The
    new plan is fingerprinted (:mod:`repro.perf.incremental`) and diffed
    against them, and every group whose fingerprint is unchanged is
    pruned before wavefront computation — its outputs replay from the
    previous rebuild layer and it never enters the scheduler or the
    worker fleet.  Rebuilds "can be performed many times during the
    image's lifetime" (§4.1) without paying full cost: a warm identical
    re-adaptation executes zero nodes and schedules zero waves.

    *journal* is an optional :class:`repro.resilience.RebuildJournal`:
    each successful command's outputs are checkpointed into the layout
    under their plan fingerprint, and an interrupted rebuild resumes by
    restoring journaled groups whose fingerprint still matches, instead
    of recompiling.

    *fallback_fs* (the extended image's filesystem) enables per-node
    graceful degradation: a node that keeps failing is skipped (its
    dependents are poisoned, its wavefront peers are not) and its dist
    artifact falls back to the generic build from the cache layer.
    Without it (the default) any node failure raises — strict behaviour.

    *jobs* is the simulated worker count: it only changes the charged
    makespan and the schedule report, never the execution order or the
    produced bytes.  *artifact_cache* serves the outputs of earlier
    rebuilds' groups under their plan fingerprint; hits execute nothing.

    *speculate* enables duplicate execution of detected stragglers on the
    worker fleet (first completion wins); *max_worker_failures* is the
    flaky-strike budget before a worker is blacklisted.  Both shape only
    the simulated timeline.  When injected worker faults kill or
    blacklist every worker, :class:`FleetExhaustedError` is raised after
    journaling leases for the unfinished groups.

    *deadline* is a simulated-seconds budget for this rebuild, checked
    against the fleet clock between wavefronts: a blown budget raises
    :class:`repro.resilience.DeadlineExceededError` after the completed
    wave's checkpoints landed, so a journaled rebuild resumes from where
    the deadline cut it off.
    """
    inputs = rebuild_inputs(engine, container, adapter, options, extended)
    try:
        models, sources = decoded_cache(extended, dist_tag)
    except Exception as exc:
        raise RebuildError(str(exc)) from exc
    fs = container.fs
    pool = engine.repository_pool_for(container)
    rctx = getattr(engine, "resilience", None)
    injector = getattr(engine, "fault_injector", None)
    tele = engine.telemetry
    jobs = max(1, int(jobs))

    # 1. Package replacement plan + environment preparation (the install
    # is memoised while the container is still its image).
    plan = adapter.plan_replacements(models.image, pool)
    apt, _ = install_container_runtime(container, pool, models.image.packages, plan)
    links = apply_replacements(fs, apt, plan)

    # 2. Materialize the cached sources at their original build paths.
    for path, content in sources.items():
        fs.write_file(path, content, create_parents=True)

    # PGO profile *data* is a build input: salt the command digests with
    # its content so new profile bytes at the same path invalidate reuse.
    profile_salt = ""
    if options.pgo == "use" and options.pgo_profile_path:
        profile_node = fs.try_get_node(options.pgo_profile_path)
        if isinstance(profile_node, RegularFile):
            profile_salt = profile_node.content.digest

    # 3. Plan: dedup commands into groups (one command can produce several
    # nodes — multi-source compiles; LTO scope is command-granular), layer
    # the group DAG into dependency wavefronts, cost each group, and
    # fingerprint each group: its command digest folded over its
    # transitive input digests, node-order independent.  Planned once per
    # distinct input; the plan is shared, so nothing below writes to it.
    build_plan, fingerprints = incremental.plan_rebuild(
        inputs, models.graph, adapter, options, fs, profile_salt
    )

    executed: List[str] = []
    restored: List[str] = []
    failed_nodes: List[str] = []
    cache_hits: List[str] = []
    node_commands: Dict[str, str] = {}
    prev_outputs, prev_fingerprints = previous or ({}, {})
    failed_keys: set = set()   # command keys that failed (poison dependents)
    report = ScheduleReport(
        jobs=jobs,
        critical_path_seconds=build_plan.critical_path_seconds,
        groups_total=len(build_plan.groups),
    )

    # Plan-level short-circuit: prune every group the previous run already
    # produced from identical inputs (equal fingerprints).  Pruned groups
    # replay their outputs here and never enter the scheduler; the
    # fingerprints always land in meta so the *next* run can diff against
    # them.  Fingerprints and pruning decisions are jobs-independent.
    pruned_nodes: List[str] = []
    waves_to_run = build_plan.waves
    dirty = 0
    if prev_fingerprints:
        plan_diff = incremental.diff_plan(
            build_plan, fingerprints, prev_fingerprints, prev_outputs
        )
        for group in plan_diff.pruned:
            for node_id in group.node_ids:
                node_commands[node_id] = group.digest
            for n in group.nodes:
                fs.write_file(n.path, prev_outputs[n.path],
                              mode=0o755, create_parents=True)
            pruned_nodes.extend(group.node_ids)
        if plan_diff.pruned:
            waves_to_run = plan_diff.waves
            report.groups_pruned = len(plan_diff.pruned)
            dirty = len(plan_diff.dirty)

    def checkpoint(group) -> None:
        for n in group.nodes:
            out = fs.try_get_node(n.path)
            if isinstance(out, RegularFile):
                journal.record(n.id, fingerprints[n.id], n.path, out.content,
                               out.mode)
        journal.flush()

    def resolve_group(group) -> bool:
        """Decide one command group's fate; returns ``True`` when it must
        actually execute (else it was restored/cached/poisoned).

        The resolution order — poison check, journal restore, artifact
        cache, execute — is deterministic and identical for every
        ``jobs`` value and every worker fault pattern.  Restore and cache
        both key on the plan fingerprint, so neither can return outputs
        of other inputs; groups the plan diff pruned never get here.
        """
        for node_id in group.node_ids:
            node_commands[node_id] = group.digest
        # A failed command poisons its dependents: their inputs will never
        # exist, so they fail without execution (and without consuming the
        # wavefront's retry budget).  Peers in the same wavefront are
        # untouched.  failed_keys is only populated under --fallback.
        if any(dep_key in failed_keys for dep_key in group.dep_groups):
            failed_nodes.extend(group.node_ids)
            failed_keys.add(group.key)
            return False
        # Checkpointed by an interrupted previous run?  Restore from the
        # journal instead of recompiling — but only when the fingerprint
        # still matches (same command, options and transitive inputs).
        if journal is not None and all(
            journal.digest_of(n.id) == fingerprints[n.id] for n in group.nodes
        ):
            for n in group.nodes:
                content, mode = journal.output_for(n.id)
                fs.write_file(n.path, content, mode=mode, create_parents=True)
            restored.extend(group.node_ids)
            return False
        if artifact_cache is not None:
            hit = artifact_cache.lookup(fingerprints[group.node_ids[0]])
            if hit is not None:
                for _, path, content, mode in hit:
                    fs.write_file(path, content, mode=mode, create_parents=True)
                cache_hits.extend(group.node_ids)
                if journal is not None:
                    checkpoint(group)
                return False
        return True

    def execute_group(group) -> None:
        """Really run one command group the fleet simulation completed."""
        first = group.nodes[0]
        step = group.step
        fs.makedirs(step.cwd)
        env = container.environment()
        env.update(step.env)

        def run_once():
            if injector is not None:
                injector.arm("rebuild.node", first.id)
            result = engine.exec_in(container, step.argv, env=env, cwd=step.cwd)
            if not result.ok:
                raise RebuildError(
                    f"rebuild of {first.id} failed: "
                    f"{result.stderr or result.stdout}"
                )

        def run_node():
            if rctx is not None:
                rctx.retry(run_once, site="rebuild.node")
            else:
                run_once()

        # One span per executed compile command; `nodes` names every
        # sibling output of a multi-source compile.  The phase attribute
        # steers the cost profiler: archive and driver-link commands are
        # link time, `-c` compiles are compile time.
        if step.is_archiver or "-c" not in step.argv:
            phase = "link"
        else:
            phase = "compile"
        try:
            with tele.span(
                "rebuild.node",
                node=first.id,
                nodes=group.node_ids,
                command=step.argv[0] if step.argv else "",
                phase=phase,
            ):
                run_node()
        except Exception:
            if fallback_fs is None:
                raise
            failed_nodes.extend(group.node_ids)
            failed_keys.add(group.key)
            return
        executed.extend(group.node_ids)
        if journal is not None:
            checkpoint(group)
        if artifact_cache is not None:
            outputs = [
                (n.id, n.path, out.content, out.mode)
                for n in group.nodes
                if isinstance(out := fs.try_get_node(n.path), RegularFile)
            ]
            if outputs:
                artifact_cache.store(fingerprints[first.id], outputs)

    def dispatch_wave(wave_index: int, wave) -> Tuple[float, int, float]:
        pending = [group for group in wave if resolve_group(group)]
        outcome = fleet.run_wave(
            wave_index, [(g.digest, g.cost) for g in pending]
        )
        if journal is not None and pending:
            # Leases go durable before any group of the wave executes, so
            # a crash mid-wavefront leaves exact in-flight evidence; each
            # group's own checkpoint clears its lease again.
            for g in pending:
                journal.record_lease(
                    g.digest, outcome.owners.get(g.digest, ""), wave_index,
                    nodes=g.node_ids, expires=fleet.clock.now,
                )
            journal.flush()
        completed = 0
        busy = 0.0
        for g in pending:
            if g.digest in outcome.completed:
                if journal is not None:
                    journal.clear_lease(g.digest)
                execute_group(g)
                completed += 1
                busy += g.cost
        if outcome.exhausted:
            raise FleetExhaustedError(wave_index, outcome.pending, fleet.stats)
        return outcome.makespan, completed, busy

    # 4. Dispatch wavefront by wavefront onto the worker fleet.  Per wave:
    # resolve (deterministic order), simulate (the fleet decides which
    # groups complete and what the wave costs under injected worker
    # faults), execute (each completed group, once, in wavefront order).
    # 5. Then collect the rebuilt artifacts.
    files: Dict[str, FileContent] = {}
    modes: Dict[str, int] = {}
    fallback_paths: List[str] = []
    node_files: Dict[str, FileContent] = {}
    with recorded_schedule(
        engine, report, journal, dirty=dirty, pruned=pruned_nodes,
        executed=executed, restored=restored, failed=failed_nodes,
        cache_hits=cache_hits, speculate=speculate,
        max_worker_failures=max_worker_failures,
    ) as fleet:
        for wave_index, wave in enumerate(waves_to_run):
            if deadline is not None and fleet.clock.now >= deadline:
                # Cancelled cleanly between wavefronts: every completed
                # group is checkpointed (journal resumable), no group of
                # this wave has started.
                from repro.resilience.deadline import DeadlineExceededError

                tele.event("rebuild.deadline_exceeded",
                           wave=wave_index, spent=fleet.clock.now,
                           budget=deadline)
                tele.metrics.counter("rebuild_deadline_exceeded_total").inc()
                if journal is not None:
                    journal.flush()
                raise DeadlineExceededError(
                    spent=fleet.clock.now, budget=deadline,
                    site="rebuild.wave", wave_index=wave_index,
                )
            with tele.span(
                "rebuild.wavefront", index=wave_index, width=len(wave)
            ) as wave_span:
                makespan, completed, busy = dispatch_wave(wave_index, wave)
                tele.charge(makespan)
                wave_span.set("executed", completed)
                wave_span.set("makespan_seconds", makespan)
                tele.metrics.histogram("rebuild_wavefront_width").observe(
                    len(wave)
                )
            report.waves.append(WaveStats(
                index=wave_index,
                width=len(wave),
                executed=completed,
                makespan=makespan,
                busy=busy,
            ))
            report.makespan_seconds += makespan
            report.serial_seconds += busy

        # Every BUILD file of the dist image.
        for dist_path, node_id in models.image.build_outputs().items():
            node = models.graph.try_get(node_id)
            if node is None:
                continue
            rebuilt = fs.try_get_node(node.path)
            if not isinstance(rebuilt, RegularFile):
                # Per-node degradation: serve the generic artifact from the
                # extended image for anything the rebuild could not produce.
                if fallback_fs is not None:
                    generic = fallback_fs.try_get_node(dist_path)
                    if isinstance(generic, RegularFile):
                        files[dist_path] = generic.content
                        modes[dist_path] = generic.mode
                        fallback_paths.append(dist_path)
                        continue
                raise RebuildError(f"rebuilt artifact missing: {node.path}")
            files[dist_path] = rebuilt.content
            modes[dist_path] = rebuilt.mode

        # Every produced node's output, for incremental future rebuilds.
        for node in models.graph:
            if node.step is None:
                continue
            produced = fs.try_get_node(node.path)
            if isinstance(produced, RegularFile):
                node_files[node.path] = produced.content

    # The schedule report stays OUT of meta: meta bytes feed the rebuild
    # layer digest, which must be identical for every --jobs value.  The
    # lists below are resolution-ordered, which is jobs-independent.
    meta = {
        "adapter": adapter.name,
        "system": adapter.system.key,
        "options": options.to_json(),
        "replacements": [r.to_json() for r in plan],
        "compat_links": links,
        "runtime_packages": list(models.image.packages),
        "entrypoint": list(models.image.entrypoint),
        "executed_nodes": executed,
        "reused_nodes": pruned_nodes,
        "node_commands": node_commands,
        "node_fingerprints": fingerprints,
        "pruned_nodes": pruned_nodes,
        "failed_nodes": failed_nodes,
        "fallback_paths": fallback_paths,
        "journal_restored": restored,
        "cache_hits": cache_hits,
    }
    return meta, files, modes, node_files, report


def comtainer_rebuild_entry(ctx) -> int:
    """The ``coMtainer-rebuild`` program (runs in the rebuild container)."""
    from repro.core.adapters.builtin import get_adapter
    from repro.core.frontend.build import IO_MOUNT
    from repro.sysmodel import system_for_arch

    layout = ctx.container.mount_at(IO_MOUNT)
    if not isinstance(layout, OCILayout):
        raise ProgramError(f"coMtainer-rebuild: no OCI layout mounted at {IO_MOUNT}")

    options, adapter_name, flags = _parse_args(ctx.argv[1:])
    system = system_for_arch(ctx.container.arch)
    adapter = get_adapter(adapter_name, system)

    try:
        dist_tag = find_dist_tag(layout)
    except CacheError as exc:
        raise ProgramError(f"coMtainer-rebuild: {exc}")
    try:
        extended = resolve_extended(layout, dist_tag)
    except IntegrityError:
        # A corrupt cache blob must stay *typed* all the way out of
        # engine.run: ProgramError would be flattened into RunResult
        # stderr, severing the chain the repair engine keys on.
        raise
    except Exception as exc:
        raise ProgramError(f"coMtainer-rebuild: {exc}")
    journal = None
    if flags["journal"]:
        from repro.resilience.journal import RebuildJournal

        journal = RebuildJournal(layout, dist_tag)
    artifact_cache = (
        RebuildArtifactCache(layout, dist_tag, telemetry=ctx.engine.telemetry)
        if flags["cache"] else None
    )
    tag = rebuilt_tag(dist_tag)
    previous = rebuilt_stack(layout.resolve(tag)) if layout.has_tag(tag) else None
    inputs = rebuild_inputs(ctx.engine, ctx.container, adapter, options, extended)
    key = stored = None
    if inputs is not None and previous is not None and previous.plan_key is not None:
        key = inputs + (flags["fallback"], previous.plan_key)
        stored = _REBUILD_MEMO.get(key)
    if stored is None:
        try:
            meta, files, modes, node_files, schedule = rebuild_in_container(
                ctx.engine, ctx.container, extended, dist_tag,
                adapter, options, previous=rebuild_plan(previous),
                journal=journal,
                # The extended image carries the generic dist content, so
                # it doubles as the per-node fallback source.
                fallback_fs=extended.filesystem() if flags["fallback"] else None,
                jobs=flags["jobs"], artifact_cache=artifact_cache,
                speculate=flags["speculate"],
                max_worker_failures=flags["max_worker_failures"],
                deadline=flags["deadline"],
            )
        except RebuildError as exc:
            raise ProgramError(f"coMtainer-rebuild: {exc}")
        layer = encode_rebuild_layer(meta, files, modes, node_files=node_files)
        image = rebuilt_image(layout, dist_tag, layer)
        layout.add_manifest(*image, tag=tag)
        if key is not None and schedule.fully_pruned:
            _REBUILD_MEMO.put(key, (adapter, image, meta,
                                    schedule.critical_path_seconds,
                                    schedule.groups_total))
    else:
        # A fully pruned run of these inputs already produced this
        # image: record its schedule (no wave runs), read the extended
        # image the layer stacks on, and store the image again.
        _, image, meta, critical_path, groups = stored
        schedule = ScheduleReport(jobs=flags["jobs"],
                                  critical_path_seconds=critical_path,
                                  groups_total=groups, groups_pruned=groups)
        with recorded_schedule(
            ctx.engine, schedule, journal, pruned=meta["pruned_nodes"],
            speculate=flags["speculate"],
            max_worker_failures=flags["max_worker_failures"],
        ):
            pass
        layout.resolve(extended_tag(dist_tag))
        layout.add_manifest(*image, tag=tag)
    if artifact_cache is not None:
        # Persisted only after a *successful* rebuild: an aborted run must
        # leave the layout exactly as the journal/fault machinery expects.
        artifact_cache.flush()
    if journal is not None:
        # A completed rebuild supersedes its checkpoints; from here the
        # +coMre node outputs are the incremental-reuse source.
        journal.clear()
    ctx.writeline(
        f"coMtainer-rebuild: rebuilt {len(meta['executed_nodes'])} nodes "
        f"({len(meta['reused_nodes'])} reused) "
        f"with adapter {adapter.name!r}, tagged {tag}"
    )
    ctx.writeline(f"coMtainer-rebuild: {schedule.summary_line()}")
    if schedule.groups_pruned:
        ctx.writeline(
            f"coMtainer-rebuild: incremental plan diff pruned "
            f"{schedule.groups_pruned} unchanged command groups "
            f"({len(meta['pruned_nodes'])} nodes) before scheduling"
        )
    # The fleet line is separate from the schedule line so `speedup=...x`
    # stays the schedule line's tail (stdout consumers parse it).
    if schedule.fleet is not None and schedule.fleet.any_faults:
        ctx.writeline(f"coMtainer-rebuild: {schedule.fleet.summary_line()}")
    if schedule.stale_leases:
        ctx.writeline(
            f"coMtainer-rebuild: cleared {schedule.stale_leases} stale "
            "worker leases (previous rebuild died mid-wavefront)"
        )
    if meta["cache_hits"]:
        ctx.writeline(
            f"coMtainer-rebuild: {len(meta['cache_hits'])} nodes served "
            "from the artifact cache"
        )
    if meta["journal_restored"]:
        ctx.writeline(
            f"coMtainer-rebuild: resumed {len(meta['journal_restored'])} "
            "nodes from the checkpoint journal"
        )
    if meta["failed_nodes"]:
        ctx.writeline(
            f"coMtainer-rebuild: {len(meta['failed_nodes'])} nodes failed; "
            f"{len(meta['fallback_paths'])} artifacts fell back to generic"
        )
    for replacement in meta["replacements"]:
        ctx.writeline(
            f"coMtainer-rebuild: replaced {replacement['generic']} "
            f"-> {replacement['optimized']}"
        )
    return 0


#: The numeric flags: option -> (``flags`` key, parser).
_NUMBER_FLAGS = {
    "--max-worker-failures": ("max_worker_failures", int),
    "--jobs": ("jobs", int),
    "--deadline": ("deadline", float),
}


def _positive(flag: str, value: str, parse):
    """*value* parsed by *parse*; a ProgramError unless it is a finite
    number above zero (so ``nan`` and ``inf`` are rejected too)."""
    try:
        number = parse(value)
    except ValueError:
        number = None
    if number is None or not 0 < number < math.inf:
        raise ProgramError(f"coMtainer-rebuild: bad {flag} value {value!r}")
    return number


def _parse_args(args: List[str]) -> Tuple[RebuildOptions, str, Dict[str, object]]:
    options = RebuildOptions()
    adapter_name = "vendor"
    flags: Dict[str, object] = {
        "journal": False, "fallback": False, "cache": True, "jobs": 1,
        "speculate": True, "max_worker_failures": 3, "deadline": None,
    }
    i = 0
    while i < len(args):
        arg = args[i]
        if arg == "--lto":
            options.lto = True
        elif arg == "--journal":
            flags["journal"] = True
        elif arg == "--fallback":
            flags["fallback"] = True
        elif arg == "--no-cache":
            flags["cache"] = False
        elif arg == "--speculate":
            flags["speculate"] = True
        elif arg == "--no-speculate":
            flags["speculate"] = False
        elif "=" in arg and arg.split("=", 1)[0] in _NUMBER_FLAGS:
            flag, value = arg.split("=", 1)
            key, parse = _NUMBER_FLAGS[flag]
            flags[key] = _positive(flag, value, parse)
        elif arg.startswith("--lto-scope="):
            options.lto = True
            options.lto_scope = [s for s in arg.split("=", 1)[1].split(",") if s]
        elif arg.startswith("--pgo="):
            options.pgo = arg.split("=", 1)[1]
        elif arg.startswith("--pgo-profile="):
            options.pgo_profile_path = arg.split("=", 1)[1]
        elif arg == "--relax-isa":
            options.relax_isa = True
        elif arg.startswith("--adapter="):
            adapter_name = arg.split("=", 1)[1]
        else:
            raise ProgramError(f"coMtainer-rebuild: unknown option {arg!r}")
        i += 1
    if options.pgo not in ("off", "instrument", "use"):
        raise ProgramError(f"coMtainer-rebuild: bad --pgo value {options.pgo!r}")
    return options, adapter_name, flags
