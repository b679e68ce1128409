"""Plan-level incremental re-adaptation: fingerprint, diff, prune.

The paper's §4.1 expects rebuild/redirect to run "many times during the
image's lifetime".  This module makes the repeat runs cheap: before a
rebuild enters the wavefront scheduler, its plan is fingerprinted and
diffed against the fingerprints the previous run persisted in the rebuild
layer's ``meta.json``.  Command groups whose transitive inputs are
unchanged are *pruned* — their outputs are replayed from the previous
rebuild layer and they never reach ``compute_wavefronts`` or the worker
fleet.  A warm identical re-adaptation therefore executes zero nodes and
schedules zero waves, while producing outputs byte-identical to a cold
rebuild (the simulated toolchain is deterministic, so equal fingerprints
imply equal outputs).

A group's fingerprint is :func:`repro.core.cache.artifacts.cache_key` of
its transformed command digest over its sorted dependency material, where
a leaf source dependency contributes its content digest and a produced
dependency contributes the fingerprint of its producing group.  The fold
makes dirtiness transitive (any upstream change reaches every dependent)
and the internal sort makes the fingerprint independent of node
declaration order.  It is the one key that lets a rebuild skip a group:
the diff prunes on it, the checkpoint journal restores on it and the
artifact cache is keyed on it.

A rebuild plans through :func:`plan_rebuild`, which runs
:func:`~repro.core.backend.scheduler.plan_command_groups` and
:func:`compute_plan_fingerprints` once per key: ``coMtainer-rebuild``
keys it on the rebuild's inputs, which fix everything planning reads, so
re-adapting with unchanged inputs takes the plan and fingerprints a
previous rebuild of this process computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.backend.scheduler import (
    CommandGroup,
    RebuildPlan,
    compute_wavefronts,
    plan_command_groups,
)
from repro.core.cache.artifacts import cache_key
from repro.core.models.build_graph import BuildGraph
from repro.memo import LruMemo
from repro.vfs import RegularFile, VirtualFilesystem

#: Dirty-reason labels, in the order the diff checks them.
REASON_NEW = "new-node"              # no fingerprint in the previous run
REASON_CHANGED = "input-changed"     # command or transitive input differs
REASON_MISSING = "output-missing"    # previous run kept no bytes to replay


def compute_plan_fingerprints(
    plan: RebuildPlan, graph: BuildGraph, fs: VirtualFilesystem
) -> Dict[str, str]:
    """Per-node plan fingerprints for *plan* against materialized sources.

    Walks the plan in wavefront (dependency) order so every produced
    dependency's group fingerprint is available when a dependent folds it
    in.  Leaf sources are read from *fs* — callers fingerprint after
    sources are materialized, before anything executes.
    """
    group_fp: Dict[tuple, str] = {}
    node_fp: Dict[str, str] = {}
    producer: Dict[str, tuple] = {}
    for group in plan.groups:
        for node_id in group.node_ids:
            producer[node_id] = group.key
    source_digests: Dict[str, str] = {}
    for wave in plan.waves:
        for group in wave:
            pairs: List[tuple] = []
            for dep in group.dep_ids:
                dep_key = producer.get(dep)
                if dep_key == group.key:
                    # Sibling output of this very command: already covered
                    # by the group digest itself.
                    continue
                if dep_key is not None:
                    pairs.append((dep, "node:" + group_fp[dep_key]))
                    continue
                dep_node = graph.try_get(dep)
                path = dep_node.path if dep_node is not None else dep
                digest = source_digests.get(path)
                if digest is None:
                    leaf = fs.try_get_node(path)
                    digest = (
                        leaf.content.digest
                        if isinstance(leaf, RegularFile)
                        else "absent"
                    )
                    source_digests[path] = digest
                pairs.append((path, "src:" + digest))
            fp = cache_key(group.digest, pairs)
            group_fp[group.key] = fp
            for node_id in group.node_ids:
                node_fp[node_id] = fp
    return node_fp


#: Finished plans and fingerprints of :func:`plan_rebuild`, as many as the
#: decode memo keeps models.
_PLAN_MEMO = LruMemo(64, name="plan")


def plan_rebuild(
    key: Optional[tuple], graph: BuildGraph, adapter, options,
    fs: VirtualFilesystem, profile_salt: str = "",
) -> Tuple[RebuildPlan, Dict[str, str]]:
    """The rebuild's command plan and plan fingerprints, computed once
    per *key*; with no key, computed afresh and not stored.

    The caller's key fixes everything planning reads: *graph*, *adapter*
    (the entry holds it, so a key that holds its identity stays unique),
    *options*, *profile_salt* and every path of *fs* planning reads
    (each node without a step, which the cost model sizes, and each
    dependency no node produces, which the fingerprints hash).  A call
    that raises stores nothing.  A hit shares the stored plan, which
    holds the nodes of the graph it planned and which the rebuild only
    reads, and copies the fingerprints, which go into ``meta.json``.
    """
    entry = None if key is None else _PLAN_MEMO.get(key)
    if entry is None:

        def source_size(path: str) -> int:
            leaf = fs.try_get_node(path)
            return leaf.content.size if isinstance(leaf, RegularFile) else 0

        plan = plan_command_groups(graph, adapter, options,
                                   profile_salt=profile_salt,
                                   source_size=source_size)
        entry = (plan, compute_plan_fingerprints(plan, graph, fs), adapter)
        if key is not None:
            _PLAN_MEMO.put(key, entry)
    return entry[0], dict(entry[1])


@dataclass
class PlanDiff:
    """Outcome of diffing a plan against the previous run's fingerprints."""

    pruned: List[CommandGroup] = field(default_factory=list)
    dirty: List[CommandGroup] = field(default_factory=list)
    waves: List[List[CommandGroup]] = field(default_factory=list)
    #: First dirty reason per dirty group, keyed by the group's first node.
    reasons: Dict[str, str] = field(default_factory=dict)

    @property
    def pruned_node_ids(self) -> List[str]:
        return [nid for group in self.pruned for nid in group.node_ids]

    @property
    def fully_pruned(self) -> bool:
        return not self.dirty


def diff_plan(
    plan: RebuildPlan,
    fingerprints: Mapping[str, str],
    prev_fingerprints: Mapping[str, str],
    prev_outputs: Mapping[str, object],
) -> PlanDiff:
    """Split *plan* into pruned (clean) and dirty command groups.

    A group is clean when every node's fingerprint matches the previous
    run *and* the previous run kept bytes for every node output (so the
    output can be replayed without executing).  Everything else is dirty:
    new nodes have no previous fingerprint, removed nodes simply leave
    stale fingerprints behind that nothing looks up, and any command-text
    or option change alters the transformed digest — and, through the
    fingerprint fold, every transitive dependent.

    Dirty groups get fresh wavefronts computed among themselves only;
    clean upstream groups are treated as satisfied dependencies.
    """
    diff = PlanDiff()
    for group in plan.groups:
        reason: Optional[str] = None
        for node in group.nodes:
            prev = prev_fingerprints.get(node.id)
            if prev is None:
                reason = REASON_NEW
            elif prev != fingerprints.get(node.id):
                reason = REASON_CHANGED
            elif node.path not in prev_outputs:
                reason = REASON_MISSING
            if reason is not None:
                break
        if reason is None:
            diff.pruned.append(group)
        else:
            diff.dirty.append(group)
            diff.reasons[group.nodes[0].id] = reason
    diff.waves = compute_wavefronts(diff.dirty) if diff.dirty else []
    return diff
