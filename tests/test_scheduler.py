"""Unit tests for the parallel wavefront scheduler, the build-cost model,
the iterative topological sort, and the rebuild artifact cache."""

import pytest

from repro.core.adapters.base import RebuildOptions
from repro.core.backend.scheduler import (
    compute_wavefronts,
    lpt_schedule,
    plan_command_groups,
)
from repro.core.cache.artifacts import (
    RebuildArtifactCache,
    SharedArtifactCache,
    attach_artifact_cache,
    cache_key,
    has_artifact_cache,
    publish_artifact_cache,
)
from repro.core.models.build_graph import BuildGraph, BuildNode, GraphError
from repro.core.models.compilation import CompilationStep
from repro.oci.blobs import Blob
from repro.oci.layout import OCILayout
from repro.oci.registry import ImageRegistry
from repro.oci import mediatypes
from repro.perf.buildcost import (
    ARCHIVE_BASE_SECONDS,
    COMPILE_BASE_SECONDS,
    LINK_BASE_SECONDS,
    LTO_LINK_FACTOR,
    command_cost_seconds,
    estimate_node_bytes,
)
from repro.vfs.content import InlineContent


class IdentityAdapter:
    """Pass-through transform: plan against the traced commands as-is."""

    def transform_step(self, step, options, node_id=None):
        return step


def _compile(src, out):
    return CompilationStep(argv=["gcc", "-c", src, "-o", out], cwd="/src")


def _link(objs, out):
    return CompilationStep(argv=["gcc"] + objs + ["-o", out], cwd="/src")


def _diamond_graph():
    """Two independent compiles feeding one link — a 2-wide wavefront."""
    g = BuildGraph()
    for name in ("a", "b"):
        g.add(BuildNode(id=f"/src/{name}.c", kind="source",
                        path=f"/src/{name}.c"))
        g.add(BuildNode(id=f"/src/{name}.o", kind="object",
                        path=f"/src/{name}.o", deps=[f"/src/{name}.c"],
                        step=_compile(f"{name}.c", f"{name}.o")))
    g.add(BuildNode(id="/src/app", kind="executable", path="/src/app",
                    deps=["/src/a.o", "/src/b.o"],
                    step=_link(["a.o", "b.o"], "app")))
    return g


def _plan(graph, options=None):
    return plan_command_groups(graph, IdentityAdapter(),
                               options or RebuildOptions())


class TestWavefronts:
    def test_diamond_layers_into_two_waves(self):
        plan = _plan(_diamond_graph())
        assert [len(w) for w in plan.waves] == [2, 1]
        first = {g.nodes[0].id for g in plan.waves[0]}
        assert first == {"/src/a.o", "/src/b.o"}
        assert plan.waves[1][0].nodes[0].id == "/src/app"

    def test_sibling_outputs_share_one_group(self):
        g = BuildGraph()
        multi = CompilationStep(argv=["gcc", "-c", "x.c", "y.c"], cwd="/src")
        for name in ("x", "y"):
            g.add(BuildNode(id=f"/src/{name}.c", kind="source",
                            path=f"/src/{name}.c"))
            g.add(BuildNode(id=f"/src/{name}.o", kind="object",
                            path=f"/src/{name}.o", deps=[f"/src/{name}.c"],
                            step=multi))
        plan = _plan(g)
        assert len(plan.groups) == 1
        assert plan.groups[0].node_ids == ["/src/x.o", "/src/y.o"]

    def test_group_dependencies_exclude_self(self):
        plan = _plan(_diamond_graph())
        link = plan.waves[1][0]
        assert len(link.dep_groups) == 2
        assert link.key not in link.dep_groups

    def test_wave_order_is_first_visit_order(self):
        plan = _plan(_diamond_graph())
        orders = [g.order for g in plan.waves[0]]
        assert orders == sorted(orders)

    def test_critical_path_spans_compile_plus_link(self):
        plan = _plan(_diamond_graph())
        compile_cost = max(g.cost for g in plan.waves[0])
        link_cost = plan.waves[1][0].cost
        assert plan.critical_path_seconds == pytest.approx(
            compile_cost + link_cost
        )

    def test_group_cycle_detected(self):
        a = CompilationStep(argv=["gcc", "-c", "a.c"], cwd="/")
        b = CompilationStep(argv=["gcc", "-c", "b.c"], cwd="/")
        g = BuildGraph()
        g.add(BuildNode(id="a.o", kind="object", path="/a.o", deps=["b.o"],
                        step=a))
        g.add(BuildNode(id="b.o", kind="object", path="/b.o", deps=["a.o"],
                        step=b))
        # topo_order raises first on node cycles; the group projection
        # guards independently.
        groups = []
        producer = {}
        for node, step in (("a.o", a), ("b.o", b)):
            producer[node] = (tuple(step.argv), step.cwd)
        from repro.core.backend.scheduler import CommandGroup
        ga = CommandGroup(key=producer["a.o"], nodes=[g.get("a.o")], order=0,
                          dep_groups={producer["b.o"]})
        gb = CommandGroup(key=producer["b.o"], nodes=[g.get("b.o")], order=1,
                          dep_groups={producer["a.o"]})
        with pytest.raises(ValueError, match="cycle"):
            compute_wavefronts([ga, gb])


class TestListScheduling:
    def test_single_worker_makespan_is_serial_sum(self):
        costs = [3.0, 1.0, 2.0, 5.0]
        makespan, loads = lpt_schedule(costs, jobs=1)
        assert makespan == pytest.approx(sum(costs))
        assert loads == [pytest.approx(sum(costs))]

    def test_enough_workers_makespan_is_max(self):
        costs = [3.0, 1.0, 2.0]
        makespan, _ = lpt_schedule(costs, jobs=8)
        assert makespan == pytest.approx(3.0)

    def test_lpt_balances_two_workers(self):
        # LPT on [5,4,3,3,3]: worker loads 5+3 and 4+3+3 -> makespan 10.
        makespan, loads = lpt_schedule([5.0, 4.0, 3.0, 3.0, 3.0], jobs=2)
        assert makespan == pytest.approx(10.0)
        assert sorted(loads) == [pytest.approx(8.0), pytest.approx(10.0)]

    def test_deterministic(self):
        costs = [1.0, 2.0, 2.0, 1.0, 4.0]
        assert lpt_schedule(costs, 3) == lpt_schedule(costs, 3)

    def test_empty_wave(self):
        makespan, loads = lpt_schedule([], jobs=4)
        assert makespan == 0.0
        assert loads == [0.0] * 4


class TestIterativeTopoOrder:
    def test_deep_chain_beyond_recursion_limit(self):
        # Ids sort so the sink is visited first: the DFS must descend the
        # full chain in one go — the old recursive visit() overflowed here.
        depth = 3000
        g = BuildGraph()
        for i in range(depth):
            deps = [f"{i + 1:05d}"] if i + 1 < depth else []
            g.add(BuildNode(id=f"{i:05d}", kind="file", path=f"/{i:05d}",
                            deps=deps))
        order = g.topo_order()
        assert len(order) == depth
        assert order[0].id == f"{depth - 1:05d}"    # the leaf comes first
        assert order[-1].id == "00000"              # the sink comes last
        seen = set()
        for node in order:
            assert all(dep in seen for dep in node.deps)
            seen.add(node.id)

    def test_cycle_still_raises_graph_error(self):
        g = BuildGraph()
        g.add(BuildNode(id="a", kind="file", path="/a", deps=["b"]))
        g.add(BuildNode(id="b", kind="file", path="/b", deps=["a"]))
        with pytest.raises(GraphError, match="cycle involving"):
            g.topo_order()

    def test_unknown_deps_are_skipped(self):
        g = BuildGraph()
        g.add(BuildNode(id="a", kind="file", path="/a", deps=["missing"]))
        order = g.topo_order()
        assert [n.id for n in order] == ["a"]

    def test_matches_dependency_first_property_on_diamond(self):
        order = [n.id for n in _diamond_graph().topo_order()]
        assert order.index("/src/a.c") < order.index("/src/a.o")
        assert order.index("/src/a.o") < order.index("/src/app")
        assert order.index("/src/b.o") < order.index("/src/app")


class TestBuildCost:
    def test_compile_costs_scale_with_source_bytes(self):
        small = command_cost_seconds(_compile("a.c", "a.o"), 4 * 1024)
        big = command_cost_seconds(_compile("b.c", "b.o"), 4 * 1024 * 1024)
        assert big > small > COMPILE_BASE_SECONDS

    def test_archive_is_cheap(self):
        step = CompilationStep(argv=["ar", "rcs", "lib.a", "a.o"], cwd="/",
                               tool="ar")
        assert command_cost_seconds(step, 1024) == pytest.approx(
            ARCHIVE_BASE_SECONDS, rel=0.05
        )

    def test_lto_multiplies_link_cost(self):
        step = _link(["a.o"], "app")
        plain = command_cost_seconds(step, 1024, lto=False)
        lto = command_cost_seconds(step, 1024, lto=True)
        assert lto == pytest.approx(plain * LTO_LINK_FACTOR)
        assert plain > LINK_BASE_SECONDS * 0.99

    def test_estimate_node_bytes_dependencies_first(self):
        g = _diamond_graph()
        sizes = estimate_node_bytes(g, lambda path: 1000)
        assert sizes["/src/a.c"] == 1000
        assert sizes["/src/a.o"] == 440        # OBJECT_DENSITY
        assert sizes["/src/app"] == 880        # link aggregates objects

    def test_costs_never_depend_on_jobs(self):
        plan1 = _plan(_diamond_graph())
        plan2 = _plan(_diamond_graph())
        assert [g.cost for g in plan1.groups] == [g.cost for g in plan2.groups]


class TestCacheKey:
    def test_dep_order_does_not_matter(self):
        deps = [("/a.o", "sha256:1"), ("/b.o", "sha256:2")]
        assert cache_key("d1", deps) == cache_key("d1", list(reversed(deps)))

    def test_command_digest_matters(self):
        deps = [("/a.o", "sha256:1")]
        assert cache_key("d1", deps) != cache_key("d2", deps)

    def test_input_content_matters(self):
        assert cache_key("d1", [("/a.o", "sha256:1")]) != cache_key(
            "d1", [("/a.o", "sha256:2")]
        )


class TestArtifactCache:
    def _store_one(self, layout, dist_tag="app.dist"):
        cache = RebuildArtifactCache(layout, dist_tag)
        key = cache_key("digest", [("/src/a.c", "sha256:a")])
        cache.store(key, [("a.o", "/src/a.o", InlineContent(b"object-a"), 0o644)])
        cache.flush()
        return key

    def test_roundtrip_through_layout(self):
        layout = OCILayout()
        key = self._store_one(layout)
        assert has_artifact_cache(layout, "app.dist")
        reloaded = RebuildArtifactCache(layout, "app.dist")
        hit = reloaded.lookup(key)
        assert hit is not None
        node_id, path, content, mode = hit[0]
        assert (node_id, path, mode) == ("a.o", "/src/a.o", 0o644)
        assert content.read() == b"object-a"
        assert reloaded.hits == 1

    def test_miss_counts(self):
        layout = OCILayout()
        cache = RebuildArtifactCache(layout, "app.dist")
        assert cache.lookup("nope") is None
        assert cache.misses == 1

    def test_corrupt_blob_degrades_to_empty(self):
        layout = OCILayout()
        key = self._store_one(layout)
        desc = next(
            d for d in layout.index
            if mediatypes.ANNOTATION_COMTAINER_ARTIFACTS in d.annotations
        )
        blob = layout.blobs.try_get(desc.digest)
        bad = Blob(media_type=blob.media_type, digest=blob.digest,
                   size=blob.size, payload=b"\x00garbage{{{")
        layout.blobs.put(bad)
        reloaded = RebuildArtifactCache(layout, "app.dist")
        assert len(reloaded) == 0
        assert reloaded.lookup(key) is None

    def test_content_digest_mismatch_is_a_miss(self):
        layout = OCILayout()
        cache = RebuildArtifactCache(layout, "app.dist")
        key = cache_key("digest", [])
        cache.store(key, [("a.o", "/src/a.o", InlineContent(b"bytes"), 0o644)])
        cache._entries[key]["outputs"][0]["content_digest"] = (
            "sha256:not-these-bytes")
        assert cache.lookup(key) is None
        assert key not in cache._entries    # evicted, will be re-stored

    def test_store_keeps_only_what_a_reload_reads_back(self):
        cache = RebuildArtifactCache(OCILayout(), "app.dist")
        cache.store(cache_key("no-outputs", []), [])
        assert len(cache) == 0

    def test_flush_replaces_previous_blob(self):
        layout = OCILayout()
        self._store_one(layout)
        cache = RebuildArtifactCache(layout, "app.dist")
        cache.store(cache_key("d2", []),
                    [("b.o", "/src/b.o", InlineContent(b"b"), 0o644)])
        cache.flush()
        descs = [
            d for d in layout.index
            if mediatypes.ANNOTATION_COMTAINER_ARTIFACTS in d.annotations
        ]
        assert len(descs) == 1
        assert layout.audit() == []

    def test_registry_share_roundtrip_and_audit(self):
        layout = OCILayout()
        key = self._store_one(layout)
        registry = ImageRegistry()
        assert publish_artifact_cache(registry, "repro/app", layout, "app.dist")
        assert registry.audit() == []
        other = OCILayout()
        added = attach_artifact_cache(other, registry, "repro/app", "app.dist")
        assert added == 1
        assert RebuildArtifactCache(other, "app.dist").lookup(key) is not None

    def test_attach_missing_cache_is_noop(self):
        assert attach_artifact_cache(
            OCILayout(), ImageRegistry(), "repro/app", "app.dist"
        ) == 0

    def _three_entries(self, layout):
        """Flush entries a, b, c (contents ``object-<name>``); their keys."""
        cache = RebuildArtifactCache(layout, "app.dist")
        keys = {}
        for name in "abc":
            keys[name] = cache_key(f"digest-{name}", [])
            cache.store(keys[name], [(f"{name}.o", f"/src/{name}.o",
                                      InlineContent(f"object-{name}".encode()),
                                      0o644)])
        cache.flush()
        return keys

    def _flip_stored_bit(self, layout, needle, offset):
        """Flip the low bit of the byte *offset* into *needle* and store
        the damaged bytes under the good digest (silent at-rest rot)."""
        desc = layout.side_blob(
            mediatypes.ANNOTATION_COMTAINER_ARTIFACTS, "app.dist")
        blob = layout.blobs.try_get(desc.digest)
        data = bytearray(blob.as_bytes())
        data[data.index(needle) + offset] ^= 0x01
        layout.blobs.put(Blob(media_type=blob.media_type, digest=blob.digest,
                              size=blob.size, payload=bytes(data)))

    def _assert_only_b_lost(self, layout, keys):
        reloaded = RebuildArtifactCache(layout, "app.dist")
        assert len(reloaded) == 2
        for name in "ac":
            (_node, _path, content, _mode), = reloaded.lookup(keys[name])
            assert content.read() == f"object-{name}".encode()
        pool = SharedArtifactCache()
        assert pool.absorb_layout(layout, "app.dist") == 2
        assert keys["b"] not in pool

    def test_flipped_content_costs_one_entry_and_leaves_the_pool(self):
        layout = OCILayout()
        keys = self._three_entries(layout)
        # "b2Jq..." (base64 of object-b) becomes "c2Jq...": still valid
        # JSON and base64, but no longer the recorded bytes.
        self._flip_stored_bit(layout, b'"b2JqZWN0LWI="', 1)
        self._assert_only_b_lost(layout, keys)
        # Two seeded rounds: the first recompiles b and hands it back to
        # the pool, so the second hits instead of re-seeding damage.
        pool = SharedArtifactCache()
        pool.absorb_layout(layout, "app.dist")
        for _ in range(2):
            fresh = OCILayout()
            pool.seed_layout(fresh, "app.dist")
            cache = RebuildArtifactCache(fresh, "app.dist")
            if cache.lookup(keys["b"]) is None:
                cache.store(keys["b"], [("b.o", "/src/b.o",
                                         InlineContent(b"object-b"), 0o644)])
            cache.flush()
            pool.absorb_layout(fresh, "app.dist")
        assert (cache.hits, cache.misses) == (1, 0)

    def test_unparseable_line_costs_one_entry(self):
        layout = OCILayout()
        keys = self._three_entries(layout)
        # The opening quote of b's content turns into '#': b's JSON no
        # longer parses.
        self._flip_stored_bit(layout, b'"b2JqZWN0LWI="', 0)
        self._assert_only_b_lost(layout, keys)

    def test_republish_drops_superseded_blob(self):
        layout = OCILayout()
        self._store_one(layout)
        registry = ImageRegistry()
        publish_artifact_cache(registry, "repro/app", layout, "app.dist")
        cache = RebuildArtifactCache(layout, "app.dist")
        cache.store(cache_key("d2", []),
                    [("b.o", "/src/b.o", InlineContent(b"b"), 0o644)])
        cache.flush()
        publish_artifact_cache(registry, "repro/app", layout, "app.dist")
        assert registry.audit() == []
