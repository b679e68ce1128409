"""The four end-to-end workloads.

Each workload is a closed loop with one client: op *i* starts when op
*i-1* has returned.  Its constructor is the set-up (engines, images,
priming, and every op input drawn from the seed); :meth:`run` is one
timed op; :meth:`check` validates that op's output outside the timed
region and returns the record folded into the run's ``output_fold``.
Simulated quantities (latencies, bytes on the wire) are the paper's
model outputs: they go into the fold, never into a timing.

Inputs are spread evenly rather than drawn independently: every seed
sees the same spread of shapes and sizes, jittered or paired up by the
seed and in a seeded order, which keeps run-to-run spread small without
fixing the inputs.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import json
import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.specs import APPS, AppSpec
from repro.containers import ContainerEngine
from repro.core.cache.storage import decode_rebuild, extended_tag, rebuilt_tag
from repro.core.images import (
    install_system_side_images,
    install_user_side_images,
)
from repro.core.workflow import build_extended_image, system_side_adapt
from repro.federation import FederatedRegistry
from repro.oci.blobs import Blob
from repro.oci.image import Manifest
from repro.oci.layer import Layer, LayerEntry
from repro.oci.registry import ImageRegistry
from repro.service import AdaptationService
from repro.sysmodel import X86_CLUSTER
from repro.vfs import InlineContent

APP_NAMES = sorted(APPS)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _stratified(rng: random.Random, n: int) -> List[float]:
    """*n* values in [0, 1), one in each of *n* equal strata, shuffled."""
    slots = list(range(n))
    rng.shuffle(slots)
    return [(slot + rng.random()) / n for slot in slots]


#: Irrational steps of a Kronecker lattice (independent over the
#: rationals, so the lattice fills the unit cube evenly), one per
#: dimension drawn.
_LATTICE_STEPS = (math.sqrt(2) - 1, math.sqrt(3) - 1, math.sqrt(5) - 2)


def _lattice(rng: random.Random, n: int) -> List[Tuple[float, ...]]:
    """*n* points in [0, 1)^3: a Kronecker lattice under a seeded random
    shift, with each coordinate then replaced by the midpoint
    ``(rank + 0.5) / n`` of its rank in that dimension.

    Every seed thus draws exactly the same values per dimension, so run
    totals (memory retained, time spent) barely move with the seed, and
    the seed only decides how the dimensions pair up.  The lattice keeps
    that pairing even, so an op cost that depends on several dimensions
    at once (the latency percentiles) has nearly the same distribution
    in every run; random pairings moved cold-adapt's p90 twice as much."""
    shifts = [rng.random() for _ in _LATTICE_STEPS]
    points = [[(i * step + shift) % 1.0
               for step, shift in zip(_LATTICE_STEPS, shifts)]
              for i in range(n)]
    columns = []
    for d in range(len(_LATTICE_STEPS)):
        column = [0.0] * n
        for rank, i in enumerate(sorted(range(n), key=lambda i: points[i][d])):
            column[i] = (rank + 0.5) / n
        columns.append(column)
    return list(zip(*columns))


def _balanced(rng: random.Random, items: Sequence, n: int) -> list:
    """*n* picks cycling through *items* evenly, in shuffled order."""
    picks = [items[i % len(items)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def _flags(rng: random.Random, share: float, n: int) -> List[bool]:
    """Exactly ``round(share * n)`` True values, shuffled."""
    k = round(share * n)
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


def _image_digest(engine: ContainerEngine, ref: str) -> str:
    key = "\n".join(engine.image(ref).layer_key())
    return "sha256:" + hashlib.sha256(key.encode("utf-8")).hexdigest()


def _rebuilt_digest(layout, dist_tag: str) -> str:
    return layout.resolve(rebuilt_tag(dist_tag)).layers[-1].digest


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Workload:
    """Shared ratio tallies; subclasses fill them in :meth:`check`."""

    def __init__(self) -> None:
        self.cache_hits = 0
        self.executed = 0
        self.pruned = 0
        self.bytes_on_wire = 0
        self.dedup_ratio = 0.0

    def _tally(self, meta: dict) -> None:
        self.cache_hits += len(meta["cache_hits"])
        self.executed += len(meta["executed_nodes"])
        self.pruned += len(meta["pruned_nodes"])

    def ratios(self, ops: int) -> Dict[str, float]:
        return {
            "core.cache.hit_ratio": _ratio(
                self.cache_hits, self.cache_hits + self.executed),
            "perf.incremental.pruned_ratio": _ratio(
                self.pruned, self.pruned + self.executed),
            "service.dedup_ratio": self.dedup_ratio,
            "federation.bytes_per_op": _ratio(self.bytes_on_wire, ops),
        }


# ---------------------------------------------------------------------------
# cold-adapt
# ---------------------------------------------------------------------------

#: Table 3's cache-layer range (MiB); sizes are drawn log-uniformly in it.
CACHE_MIB = (0.5, 24.0)
N_SOURCES = (4, 60)
N_COMPILE_COMMANDS = (1, 6)


def cold_specs(seed: int, n: int, prefix: str = "c") -> List[AppSpec]:
    """*n* never-seen app specs: a Table 2 shape with its cache size, source
    count and compile-command count re-drawn (artifact padding follows the
    cache size).  Names are unique, so no memo can serve a repeat.

    They come in descending cache size.  The largest adaptations hold
    tens of MiB of padding while they run, and the process's high-water
    mark is the largest such transient on top of everything retained so
    far.  Run first, they land while little is retained, so the mark is
    set by the retained total, which varies little between seeds; run
    last (ascending order), they set it themselves and it moved ~7% from
    seed to seed."""
    rng = random.Random(f"cold-adapt:{seed}")
    lo, hi = math.log(CACHE_MIB[0]), math.log(CACHE_MIB[1])

    def pick(u: float, bounds) -> int:
        return bounds[0] + int(u * (bounds[1] - bounds[0] + 1))

    # Every shape gets its own lattice over (cache size, sources,
    # commands), so each shape spans the whole size range in every run.
    specs = []
    for k, shape in enumerate(APP_NAMES):
        count = len(range(k, n, len(APP_NAMES)))
        for u_cache, u_sources, u_commands in _lattice(rng, count):
            specs.append(dataclasses.replace(
                APPS[shape],
                cache_size=round(math.exp(lo + u_cache * (hi - lo)), 4),
                n_sources=pick(u_sources, N_SOURCES),
                n_compile_commands=pick(u_commands, N_COMPILE_COMMANDS),
            ))
    specs.sort(key=lambda spec: spec.cache_size, reverse=True)
    return [dataclasses.replace(spec, name=f"{spec.name}-{prefix}{i:04d}")
            for i, spec in enumerate(specs)]


class ColdAdapt(_Workload):
    """The full Figure 5 path for an app the process has never seen."""

    def __init__(self, seed: int, ops: int) -> None:
        super().__init__()
        self.specs = cold_specs(seed, ops)
        self.user = ContainerEngine(arch=X86_CLUSTER.arch)
        self.system = ContainerEngine(arch=X86_CLUSTER.arch)
        install_user_side_images(self.user)
        install_system_side_images(self.system, X86_CLUSTER)
        self.registry = ImageRegistry()
        # Prime lazily built catalogues and helper caches with one
        # adaptation of a spec no op uses; a long-lived system has them.
        self._adapt(cold_specs(seed, 1, prefix="prime")[0])

    def _adapt(self, spec: AppSpec):
        layout, dist_tag = build_extended_image(self.user, spec)
        repository = f"repro/{spec.name}"
        ext_tag = extended_tag(dist_tag)
        for tag in (dist_tag, ext_tag):
            self.registry.push_layout(f"{repository}:{tag}", layout, tag=tag)
        pulled = self.registry.pull_to_layout(f"{repository}:{dist_tag}")
        ext = self.registry.pull(f"{repository}:{ext_tag}")
        pulled.add_manifest(ext.manifest, ext.config, ext.layers, tag=ext_tag)
        ref = system_side_adapt(self.system, pulled, X86_CLUSTER, jobs=2,
                                ref=f"{spec.name}:adapted")
        return ref, pulled, dist_tag

    def run(self, i: int):
        return self._adapt(self.specs[i])

    def check(self, i: int, out) -> dict:
        ref, layout, dist_tag = out
        _require(self.system.has_image(ref), f"adapted ref {ref} missing")
        meta = decode_rebuild(layout, dist_tag)[0]
        _require(bool(meta["executed_nodes"]) and not meta["pruned_nodes"],
                 f"cold rebuild of {ref} did not execute its plan")
        self._tally(meta)
        return {"app": self.specs[i].name,
                "rebuilt": _rebuilt_digest(layout, dist_tag),
                "image": _image_digest(self.system, ref),
                "executed": len(meta["executed_nodes"])}


# ---------------------------------------------------------------------------
# warm-readapt
# ---------------------------------------------------------------------------

#: Share of warm ops that repeat the app's previous arguments exactly.
IDENTICAL_SHARE = 0.7


class WarmReadapt(_Workload):
    """Re-adaptations of the 11 primed apps: identical or one LTO scope
    changed."""

    def __init__(self, seed: int, ops: int) -> None:
        super().__init__()
        rng = random.Random(f"warm-readapt:{seed}")
        self.system = ContainerEngine(arch=X86_CLUSTER.arch)
        install_system_side_images(self.system, X86_CLUSTER)
        user = ContainerEngine(arch=X86_CLUSTER.arch)
        self.layouts = {}
        #: app -> object -> its compile command group (the command digest
        #: every node of one compile invocation shares).
        groups: Dict[str, Dict[str, str]] = {}
        for name in APP_NAMES:
            layout, dist_tag = build_extended_image(user, APPS[name])
            system_side_adapt(self.system, layout, X86_CLUSTER, jobs=2,
                              ref=f"{name}:adapted")
            meta = decode_rebuild(layout, dist_tag)[0]
            groups[name] = {node: meta["node_commands"][node]
                            for node in meta["executed_nodes"]
                            if node.endswith(".o")}
            self.layouts[name] = (layout, dist_tag)
        # The op plan: (app, LTO scope or None, identical?, must rebuild?).
        # LTO applies to a whole compile command, so a change op prefers
        # an object outside the current scope's command group; only such
        # a change has to rebuild the new scope.
        scope: Dict[str, Optional[str]] = {name: None for name in APP_NAMES}
        apps = _balanced(rng, APP_NAMES, ops)
        # Every app gets the same identical/changed mix.
        flags = {name: _flags(rng, IDENTICAL_SHARE, apps.count(name))
                 for name in APP_NAMES}
        self.plan = []
        for app in apps:
            identical = flags[app].pop()
            regroups = False
            if not identical:
                current = groups[app].get(scope[app])
                others = sorted(o for o, g in groups[app].items()
                                if g != current)
                regroups = bool(others)
                scope[app] = rng.choice(others or sorted(
                    o for o in groups[app] if o != scope[app]))
            self.plan.append((app, scope[app], identical, regroups))
        self._last_identical: Dict[str, str] = {}

    def run(self, i: int):
        app, scope, _, _ = self.plan[i]
        layout, _ = self.layouts[app]
        return system_side_adapt(
            self.system, layout, X86_CLUSTER, jobs=2, ref=f"{app}:adapted",
            lto=scope is not None,
            extra_rebuild_args=[f"--lto-scope={scope}"] if scope else None,
        )

    def check(self, i: int, ref) -> dict:
        app, scope, identical, regroups = self.plan[i]
        layout, dist_tag = self.layouts[app]
        meta = decode_rebuild(layout, dist_tag)[0]
        rebuilt = _rebuilt_digest(layout, dist_tag)
        previous = self._last_identical.pop(app, None)
        if identical:
            self._last_identical[app] = rebuilt
            _require(meta["executed_nodes"] == [],
                     f"identical re-adapt of {app} executed "
                     f"{meta['executed_nodes']}")
            _require(previous in (None, rebuilt),
                     f"identical re-adapt of {app} changed its digest")
        else:
            _require(meta["options"]["lto_scope"] == [scope],
                     f"rebuild of {app} ignored LTO scope {scope}")
            # A scope seen before on this app may come back from the
            # layout's artifact cache instead of executing again.
            _require(not regroups
                     or scope in meta["executed_nodes"] + meta["cache_hits"],
                     f"LTO scope change to {scope} did not rebuild it")
        self._tally(meta)
        return {"app": app, "scope": scope, "rebuilt": rebuilt,
                "image": _image_digest(self.system, ref),
                "executed": len(meta["executed_nodes"]),
                "pruned": len(meta["pruned_nodes"])}


# ---------------------------------------------------------------------------
# serve-burst
# ---------------------------------------------------------------------------

TENANTS = 4
BURST = 6
#: Simulated seconds one burst's arrivals spread over.
BURST_SPREAD = 30.0


class ServeBurst(_Workload):
    """Bursts of requests into one long-lived durable service."""

    def __init__(self, seed: int, ops: int) -> None:
        super().__init__()
        rng = random.Random(f"serve-burst:{seed}")
        self.service = AdaptationService(workers=8, durable=True, seed=seed)
        tenants = [f"tenant-{t}" for t in range(TENANTS)]
        for tenant in tenants:
            self.service.add_tenant(tenant, max_workers=4)
        # Zipf(1) over the apps in name order.  The ranking is fixed: a
        # seeded one made the most popular app, and with it the median
        # burst latency, differ from seed to seed.
        ranked = APP_NAMES
        cumulative = list(itertools.accumulate(
            1.0 / (k + 1) for k in range(len(ranked))))
        total = cumulative[-1]
        self.plan = [
            sorted(
                (rng.uniform(0.0, BURST_SPREAD), rng.choice(tenants),
                 ranked[bisect.bisect(cumulative, rng.random() * total)])
                for _ in range(BURST)
            )
            for _ in range(ops)
        ]
        self._seen = 0

    def run(self, i: int):
        service = self.service
        now = service.clock.now
        requests = [service.submit(tenant, app, at=now + offset)
                    for offset, tenant, app in self.plan[i]]
        return requests, service.run()

    def check(self, i: int, out) -> dict:
        requests, report = out
        fresh = report.outcomes[self._seen:]
        self._seen = len(report.outcomes)
        ids = sorted(r.request_id for r in requests)
        _require(sorted(o.request_id for o in fresh) == ids,
                 f"burst {i} outcomes do not match its requests")
        terminals = self.service.wal.terminal_counts()
        _require(all(terminals.get(rid) == 1 for rid in ids),
                 f"burst {i}: a request lacks exactly one terminal record")
        _require(all(o.status == "completed" for o in fresh),
                 f"burst {i}: statuses {[o.status for o in fresh]}")
        self.cache_hits += sum(o.cache_hit_nodes for o in fresh)
        self.executed += sum(o.executed_nodes for o in fresh)
        # Nodes the plan diff replayed from the previous rebuild.
        self.pruned += sum(o.reused_nodes for o in fresh)
        self.dedup_ratio = report.dedup_ratio
        return {"outcomes": [
            [o.request_id, o.status, o.ref, o.latency, o.executed_nodes,
             o.cache_hit_nodes, o.reused_nodes, o.deduped,
             o.incremental_fast_path]
            for o in sorted(fresh, key=lambda o: o.request_id)]}


# ---------------------------------------------------------------------------
# mirror-sync
# ---------------------------------------------------------------------------

MIRRORS = 8
TAGS_PER_APP = 8
CHANGE_SHARE = 0.85
PATCH_BYTES = (100, 20 * 1024)
#: Full ``FederatedRegistry.converged`` sweeps run every this many ops
#: and after the last: each re-serializes every referenced blob on every
#: mirror (~6x an op's cost).  Every op also checks the cheap part.
CONVERGED_EVERY = 50


def _patched(base, payload: bytes):
    """*base* plus one patch layer holding *payload*: (manifest, config,
    layers) ready to push."""
    patch = Layer().add(LayerEntry.file(
        "/opt/app/patch.bin", InlineContent(payload), mode=0o644))
    config = base.config.clone()
    config.diff_ids.append(patch.digest)
    manifest = Manifest(
        config=config.descriptor(),
        layers=list(base.manifest.layers) + [Blob.from_layer(patch).descriptor()],
    )
    return manifest, config, list(base.layers) + [patch]


class MirrorSync(_Workload):
    """Patch-layer churn in a fixed catalogue, synced to every mirror."""

    def __init__(self, seed: int, ops: int) -> None:
        super().__init__()
        rng = random.Random(f"mirror-sync:{seed}")
        self.ops = ops
        user = ContainerEngine(arch=X86_CLUSTER.arch)
        self.bases = {}
        for name in APP_NAMES:
            layout, dist_tag = build_extended_image(user, APPS[name])
            self.bases[name] = layout.resolve(dist_tag)
        self.fed = FederatedRegistry()
        for m in range(MIRRORS):
            self.fed.add_mirror(f"edge-{m}")
        self.refs = [(f"repro/{name}:v{t}", name)
                     for name in APP_NAMES for t in range(TAGS_PER_APP)]
        lo, hi = PATCH_BYTES
        for ref, name in self.refs:
            payload = rng.randbytes(rng.randint(lo, hi))
            self.fed.push(ref, *_patched(self.bases[name], payload))
        self.fed.sync_all()
        sizes = [lo + int(u * (hi - lo + 1)) for u in _stratified(rng, ops)]
        self.plan = [
            (rng.randrange(len(self.refs)), rng.randbytes(size))
            if change else None
            for change, size in zip(_flags(rng, CHANGE_SHARE, ops), sizes)
        ]

    def run(self, i: int):
        change = self.plan[i]
        if change is not None:
            ref, name = self.refs[change[0]]
            self.fed.push(ref, *_patched(self.bases[name], change[1]))
        return self.fed.sync_all()

    def check(self, i: int, reports) -> dict:
        fed = self.fed
        origin = fed.origin.manifest_map()
        ref = self.refs[self.plan[i][0]][0] if self.plan[i] else None
        closure = []
        if ref is not None:
            resolved = fed.origin.pull(ref)
            closure = [origin[ref], resolved.manifest.config.digest,
                       resolved.manifest.layers[-1].digest]
        for mirror in fed.mirrors.values():
            _require(mirror.registry.manifest_map() == origin,
                     f"{mirror.name} catalogue differs from origin")
            for digest in closure:
                theirs = mirror.registry.blobs.try_get(digest)
                _require(theirs is not None and theirs.as_bytes()
                         == fed.origin.blobs.try_get(digest).as_bytes(),
                         f"{mirror.name} lacks {digest} of {ref}")
        if (i + 1) % CONVERGED_EVERY == 0 or i + 1 == self.ops:
            _require(all(fed.converged(m) for m in fed.mirrors.values()),
                     f"a mirror diverged by op {i}")
        wire = [reports[name].bytes_on_wire for name in sorted(reports)]
        self.bytes_on_wire += sum(wire)
        return {"ref": ref, "manifest": origin.get(ref), "bytes": wire,
                "promoted": sum(len(r.references_promoted)
                                for r in reports.values()),
                "sim_s": fed.clock.now}


WORKLOAD_TYPES = {
    "cold-adapt": ColdAdapt,
    "warm-readapt": WarmReadapt,
    "serve-burst": ServeBurst,
    "mirror-sync": MirrorSync,
}


def fold_record(fold, i: int, record: Optional[dict]) -> None:
    """Chain one op's checked record (None when the op failed) into the
    run's sha256 ``output_fold``."""
    line = json.dumps([i, record], sort_keys=True, separators=(",", ":"))
    fold.update(line.encode("utf-8") + b"\n")
