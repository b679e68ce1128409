"""Parallel wavefront scheduling of the rebuild graph.

``coMtainer-rebuild`` re-executes the transformed build graph.  The graph
is naturally parallel — every translation unit of a wavefront is
independent — so instead of walking ``topo_order()`` one node at a time,
the rebuild is planned here as:

1. **Command groups**: commands are deduplicated by their original
   ``(argv, cwd)`` identity; one group owns every sibling output of a
   multi-source compile and carries the transformed step, its digest
   (salted with the PGO profile content), and its group-level
   dependencies (the groups producing its inputs).
2. **Wavefronts**: Kahn layering over the group DAG.  Every group in a
   wavefront has all producing groups in earlier wavefronts, so the
   groups of one wavefront can run concurrently.
3. **List scheduling**: each wavefront's *executed* groups are assigned
   LPT-style (longest processing time first) onto ``jobs`` simulated
   workers; the wavefront's simulated cost is the **makespan** — the
   maximum worker load — not the serial sum.

Scheduling only affects *simulated time accounting and telemetry*.  The
execution order of groups is always the deterministic wavefront order
(waves in dependency order, groups within a wave in first-topo-visit
order) regardless of ``jobs``, so the rebuilt layer digest is
byte-identical for any ``--jobs`` value — acceptance criterion of the
parallel rebuild work.  Failure semantics are likewise jobs-independent:
a failed group explicitly poisons the groups that depend on it (they are
marked failed without executing), while its wavefront peers are
unaffected.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.models.build_graph import BuildGraph, BuildNode
from repro.perf.buildcost import command_cost_seconds, estimate_node_bytes


def command_digest(argv: List[str], cwd: str) -> str:
    """Stable digest of one transformed command (argv + cwd)."""
    return hashlib.sha256(
        json.dumps([argv, cwd], sort_keys=True).encode()
    ).hexdigest()[:24]


@dataclass
class CommandGroup:
    """One deduplicated command and every sibling node it produces."""

    key: tuple                     # original (tuple(argv), cwd) identity
    nodes: List[BuildNode]         # sibling outputs, first-topo-visit order
    order: int                     # first-visit rank (intra-wave ordering)
    step: object = None            # transformed CompilationStep
    digest: str = ""               # transformed-command digest (+PGO salt)
    dep_ids: List[str] = field(default_factory=list)   # union of node deps
    dep_groups: Set[tuple] = field(default_factory=set)  # producing groups
    cost: float = 0.0              # simulated seconds on a free worker

    @property
    def node_ids(self) -> List[str]:
        return [n.id for n in self.nodes]


@dataclass
class WaveStats:
    """Accounting for one executed wavefront."""

    index: int
    width: int                     # groups in the wavefront
    executed: int                  # groups that actually ran
    makespan: float                # max simulated worker load
    busy: float                    # sum of executed costs

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "width": self.width,
            "executed": self.executed,
            "makespan": self.makespan,
            "busy": self.busy,
        }


@dataclass
class ScheduleReport:
    """What the wavefront schedule did, for telemetry and stdout.

    Never serialized into the rebuild layer's ``meta.json`` — the report
    depends on ``jobs``, and meta bytes feed the layer digest, which must
    be identical for every ``--jobs`` value.
    """

    jobs: int = 1
    waves: List[WaveStats] = field(default_factory=list)
    makespan_seconds: float = 0.0      # sum of wavefront makespans
    serial_seconds: float = 0.0        # sum of executed-group costs
    critical_path_seconds: float = 0.0
    groups_total: int = 0
    groups_executed: int = 0
    #: Fleet accounting (:class:`repro.resilience.fleet.FleetStats`) when
    #: the rebuild ran on the worker fleet; jobs-dependent, so — like the
    #: rest of the report — never serialized into meta.
    fleet: Optional[object] = None
    #: Stale lease records found on a ``--journal`` resume: groups a
    #: previous rebuild had in flight when it died mid-wavefront.
    stale_leases: int = 0
    #: Command groups the incremental plan diff short-circuited before
    #: wavefront computation — they never entered the scheduler at all.
    groups_pruned: int = 0

    @property
    def fully_pruned(self) -> bool:
        """Whether the plan diff pruned every command group, so no wave
        ran and no node executed, restored, hit the cache or failed."""
        return 0 < self.groups_total == self.groups_pruned

    @property
    def max_width(self) -> int:
        return max((w.width for w in self.waves), default=0)

    @property
    def speedup(self) -> float:
        # A plan with nothing to execute (fully cached, fully journaled,
        # or empty) has no meaningful ratio; report the vacuous 1.0
        # instead of dividing by a zero makespan.
        if self.groups_executed == 0 or self.makespan_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.makespan_seconds

    @property
    def utilization(self) -> float:
        """Busy worker-seconds over provisioned worker-seconds."""
        if self.groups_executed == 0:
            return 1.0   # vacuous: no work was provisioned for
        capacity = self.jobs * self.makespan_seconds
        if capacity <= 0.0:
            return 1.0
        return min(1.0, sum(w.busy for w in self.waves) / capacity)

    def to_json(self) -> dict:
        return {
            "jobs": self.jobs,
            "wavefronts": len(self.waves),
            "max_width": self.max_width,
            "makespan_seconds": self.makespan_seconds,
            "serial_seconds": self.serial_seconds,
            "critical_path_seconds": self.critical_path_seconds,
            "speedup": self.speedup,
            "utilization": self.utilization,
            "groups_total": self.groups_total,
            "groups_executed": self.groups_executed,
            "groups_pruned": self.groups_pruned,
            "fleet": self.fleet.to_json() if self.fleet is not None else None,
            "stale_leases": self.stale_leases,
            "waves": [w.to_json() for w in self.waves],
        }

    def summary_line(self) -> str:
        return (
            f"schedule jobs={self.jobs} wavefronts={len(self.waves)} "
            f"width={self.max_width} makespan={self.makespan_seconds:.3f}s "
            f"serial={self.serial_seconds:.3f}s speedup={self.speedup:.2f}x"
        )


@dataclass
class RebuildPlan:
    """The full schedule: groups, wavefronts, and per-group costs."""

    groups: List[CommandGroup]
    waves: List[List[CommandGroup]]
    by_key: Dict[tuple, CommandGroup]

    @property
    def critical_path_seconds(self) -> float:
        """Longest cost-weighted dependency chain through the groups —
        the makespan lower bound no worker count can beat."""
        finish: Dict[tuple, float] = {}
        for wave in self.waves:
            for group in wave:
                upstream = max(
                    (finish.get(dep, 0.0) for dep in group.dep_groups),
                    default=0.0,
                )
                finish[group.key] = upstream + group.cost
        return max(finish.values(), default=0.0)


def plan_command_groups(
    graph: BuildGraph,
    adapter,
    options,
    profile_salt: str = "",
    source_size: Optional[Callable[[str], int]] = None,
) -> RebuildPlan:
    """Partition the graph into command groups and dependency wavefronts.

    *adapter*/*options* transform each group's representative step once
    (command-granular, like the sequential rebuild did); *profile_salt*
    is folded into each digest so new PGO profile bytes invalidate reuse.
    *source_size* sizes leaf nodes for the cost model (defaults to zero,
    which keeps planning usable in tests without materialized sources).
    """
    # Sibling index in graph-iteration order: the scope representative
    # scan must see siblings in the same order the sequential rebuild's
    # per-node graph scan did.
    graph_order_siblings: Dict[tuple, List[BuildNode]] = {}
    for n in graph:
        if n.step is not None:
            key = (tuple(n.step.argv), n.step.cwd)
            graph_order_siblings.setdefault(key, []).append(n)

    scope = set(options.lto_scope or [])
    by_key: Dict[tuple, CommandGroup] = {}
    groups: List[CommandGroup] = []
    producer: Dict[str, tuple] = {}      # node id -> producing group key
    topo = graph.topo_order()
    for node in topo:
        if node.step is None:
            continue
        key = (tuple(node.step.argv), node.step.cwd)
        group = by_key.get(key)
        if group is None:
            group = CommandGroup(key=key, nodes=[], order=len(groups))
            by_key[key] = group
            groups.append(group)
        group.nodes.append(node)
        producer[node.id] = key

    sizes = estimate_node_bytes(graph, source_size or (lambda path: 0))
    for group in groups:
        # LTO scope is command-granular: the command is in scope when any
        # sibling output is, so transform with an in-scope representative.
        scope_id = group.nodes[0].id
        if scope and scope_id not in scope:
            for sibling in graph_order_siblings[group.key]:
                if sibling.id in scope:
                    scope_id = sibling.id
                    break
        argv, cwd = group.key
        group.step = adapter.transform_step(
            group.nodes[0].step, options, node_id=scope_id
        )
        group.digest = command_digest(
            group.step.argv + ([profile_salt] if profile_salt else []),
            group.step.cwd,
        )
        seen: Set[str] = set()
        for node in group.nodes:
            for dep in node.deps:
                if dep in seen:
                    continue
                seen.add(dep)
                group.dep_ids.append(dep)
                dep_key = producer.get(dep)
                if dep_key is not None and dep_key != group.key:
                    group.dep_groups.add(dep_key)
        input_bytes = sum(sizes.get(dep, 0) for dep in group.dep_ids)
        group.cost = command_cost_seconds(
            group.step, input_bytes, lto=options.lto, pgo=options.pgo
        )

    waves = compute_wavefronts(groups)
    return RebuildPlan(groups=groups, waves=waves, by_key=by_key)


def compute_wavefronts(groups: Sequence[CommandGroup]) -> List[List[CommandGroup]]:
    """Kahn layering of the group DAG; intra-wave order is first-visit
    order, so the result is deterministic and jobs-independent.

    Layering is computed *within* the given set: dependency edges to
    groups outside it are treated as satisfied.  For a full plan that is
    a no-op; for a plan the incremental engine pruned, it means clean
    upstream groups never hold a dirty group back.
    """
    keys = {group.key for group in groups}
    pending: Dict[tuple, int] = {}
    dependents: Dict[tuple, List[CommandGroup]] = {}
    for group in groups:
        inner = [dep for dep in group.dep_groups if dep in keys]
        pending[group.key] = len(inner)
        for dep in inner:
            dependents.setdefault(dep, []).append(group)
    wave = sorted(
        (g for g in groups if pending[g.key] == 0), key=lambda g: g.order
    )
    waves: List[List[CommandGroup]] = []
    placed = 0
    while wave:
        waves.append(wave)
        placed += len(wave)
        ready: List[CommandGroup] = []
        for group in wave:
            for dependent in dependents.get(group.key, ()):
                pending[dependent.key] -= 1
                if pending[dependent.key] == 0:
                    ready.append(dependent)
        wave = sorted(ready, key=lambda g: g.order)
    if placed != len(groups):
        # A cycle among command groups; topo_order would have raised
        # already for node cycles, but guard the group projection too.
        stuck = [g.nodes[0].id for g in groups if pending[g.key] > 0]
        raise ValueError(f"command-group dependency cycle involving {stuck}")
    return waves


def lpt_schedule(costs: Sequence[float], jobs: int) -> Tuple[float, List[float]]:
    """List-schedule *costs* onto *jobs* workers, longest first.

    Returns ``(makespan, per-worker loads)``.  Deterministic: ties break
    on submission index and the lowest-loaded (then lowest-numbered)
    worker wins.  With ``jobs=1`` the makespan is exactly the serial sum.
    """
    workers = [0.0] * max(1, int(jobs))
    if not costs:
        return 0.0, workers
    ranked = sorted(enumerate(costs), key=lambda item: (-item[1], item[0]))
    for _, cost in ranked:
        slot = min(range(len(workers)), key=lambda j: (workers[j], j))
        workers[slot] += cost
    return max(workers), workers
