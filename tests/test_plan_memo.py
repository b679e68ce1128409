"""The rebuild's plan memo, :func:`repro.perf.incremental.plan_rebuild`:
a miss and a hit both equal a fresh plan of a fresh decode, any change to
what planning reads plans afresh, the rebuild never changes the plan it
shares, and an unchanged re-adaptation plans once."""

import pytest

from repro.apps import APPS, get_app
from repro.containers import ContainerEngine
from repro.core.adapters import builtin
from repro.core.adapters.base import RebuildOptions
from repro.core.adapters.builtin import GnuNativeAdapter, get_adapter, register_adapter
from repro.core.backend import rebuild as rebuild_module
from repro.core.backend.scheduler import plan_command_groups
from repro.core.cache.storage import decode_cache, decode_rebuild
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import install_system_side_images, sysenv_ref
from repro.core.models.build_graph import BuildGraph, BuildNode
from repro.core.workflow import build_extended_image, system_side_adapt
from repro.perf import incremental
from repro.perf.incremental import compute_plan_fingerprints, plan_rebuild
from repro.resilience import FaultInjector, FaultSpec, PersistentFault
from repro.sysmodel import AARCH64_CLUSTER, X86_CLUSTER
from repro.vfs import InlineContent, RegularFile, VirtualFilesystem

APP_NAMES = sorted(APPS)
ADAPTERS = ("vendor", "llvm", "gnu-native")
SALT = "sha256:" + "5a" * 32


@pytest.fixture(autouse=True)
def empty_memo():
    incremental._PLAN_MEMO.clear()
    yield
    incremental._PLAN_MEMO.clear()


@pytest.fixture(scope="module")
def extended():
    """``{app: (layout, dist_tag)}`` of each app's extended image."""
    user = ContainerEngine(arch="amd64")
    return {name: build_extended_image(user, get_app(name)) for name in APP_NAMES}


@pytest.fixture
def planned(monkeypatch):
    """The graphs ``plan_command_groups`` is called with, in order."""
    calls = []

    def counted(graph, *args, **kwargs):
        calls.append(graph)
        return plan_command_groups(graph, *args, **kwargs)

    monkeypatch.setattr(incremental, "plan_command_groups", counted)
    return calls


def _decoded(extended, app):
    """A decode's private models, and a filesystem holding its sources."""
    models, sources, _ = decode_cache(*extended[app])
    fs = VirtualFilesystem()
    for path, content in sources.items():
        fs.write_file(path, content, create_parents=True)
    return models, fs


def _fresh(graph, adapter, options, fs, salt=""):
    """Today's two planning calls on a JSON round trip of *graph*: new
    nodes and new steps, nothing shared with any earlier plan."""
    graph = _copy(graph)

    def size(path):
        node = fs.try_get_node(path)
        return node.content.size if isinstance(node, RegularFile) else 0

    plan = plan_command_groups(graph, adapter, options, profile_salt=salt,
                               source_size=size)
    return plan, compute_plan_fingerprints(plan, graph, fs)


def _copy(graph):
    """A JSON round trip of *graph* that keeps its iteration order."""
    out = BuildGraph()
    for node in graph:
        out.add(BuildNode.from_json(node.to_json()))
    return out


def view(plan):
    """Everything a rebuild reads off a plan, as plain values."""
    return {
        "groups": [
            (group.key, group.order, [(n.id, n.path) for n in group.nodes],
             list(group.step.argv),
             group.step.cwd, group.digest, list(group.dep_ids),
             sorted(group.dep_groups), group.cost)
            for group in plan.groups
        ],
        "waves": [[group.key for group in wave] for wave in plan.waves],
        "by_key": sorted(plan.by_key),
        "critical_path": plan.critical_path_seconds,
    }


def _options(graph):
    """Every option set the equivalence sweep plans with."""
    objects = [node.id for node in graph if node.kind == "object"]
    yield "defaults", RebuildOptions(), ""
    yield "lto", RebuildOptions(lto=True), ""
    for node_id in objects:
        yield f"lto:{node_id}", RebuildOptions(lto=True, lto_scope=[node_id]), ""
    yield "pgo-use", RebuildOptions(pgo="use", pgo_profile_path="/prof/app.profdata"), SALT
    yield "relax-isa", RebuildOptions(relax_isa=True), ""


class TestEquivalence:
    @pytest.mark.parametrize("flavor", ADAPTERS)
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_miss_and_hit_equal_a_fresh_plan(self, app, flavor, extended, planned):
        adapter = get_adapter(flavor, X86_CLUSTER)
        models, fs = _decoded(extended, app)
        for label, options, salt in _options(models.graph):
            before = len(planned)
            miss = plan_rebuild(models.graph, adapter, options, fs, salt)
            # A second decode: new nodes sharing the first one's steps.
            again, _ = _decoded(extended, app)
            hit = plan_rebuild(again.graph, adapter, options, fs, salt)
            assert len(planned) == before + 1, label
            assert hit[0] is miss[0], label
            plan, fingerprints = _fresh(models.graph, adapter, options, fs, salt)
            assert view(miss[0]) == view(hit[0]) == view(plan), label
            assert miss[1] == hit[1] == fingerprints, label

    def test_fingerprints_are_a_copy(self, extended):
        models, fs = _decoded(extended, "hpccg")
        adapter = get_adapter("vendor", X86_CLUSTER)
        _, first = plan_rebuild(models.graph, adapter, RebuildOptions(), fs)
        first.clear()
        _, second = plan_rebuild(models.graph, adapter, RebuildOptions(), fs)
        assert second == _fresh(models.graph, adapter, RebuildOptions(), fs)[1]

    def test_a_changed_node_leaves_the_stored_plan_alone(self, extended):
        """A miss plans its own copy of the graph: changing the caller's
        nodes afterwards changes no stored plan."""
        models, fs = _decoded(extended, "hpccg")
        adapter = get_adapter("vendor", X86_CLUSTER)
        plan, _ = plan_rebuild(models.graph, adapter, RebuildOptions(), fs)
        expected = view(plan)
        for node in models.graph:
            node.path = "/elsewhere" + node.path
            node.deps.append("/nowhere")
        again, _ = _decoded(extended, "hpccg")
        assert view(plan_rebuild(again.graph, adapter, RebuildOptions(), fs)[0]) == expected


class TestInvalidation:
    """Each change to one thing planning reads plans afresh, and the new
    plan equals a fresh one."""

    def _check(self, graph, adapter, options, fs, salt, planned, previous):
        before = len(planned)
        plan, fingerprints = plan_rebuild(graph, adapter, options, fs, salt)
        assert len(planned) == before + 1
        assert plan is not previous
        fresh, fresh_fingerprints = _fresh(graph, adapter, options, fs, salt)
        assert view(plan) == view(fresh)
        assert fingerprints == fresh_fingerprints
        return plan

    @pytest.fixture
    def base(self, extended, planned):
        models, fs = _decoded(extended, "lammps")
        adapter = get_adapter("vendor", X86_CLUSTER)
        plan, _ = plan_rebuild(models.graph, adapter, RebuildOptions(lto=True), fs)
        assert len(planned) == 1
        return models.graph, adapter, fs, plan

    def test_a_dependency_added_to_a_node(self, base, planned):
        graph, adapter, fs, plan = base
        node = next(n for n in graph if n.kind == "object")
        leaf = next(n for n in graph if n.step is None and n.id not in node.deps)
        node.deps.append(leaf.id)
        self._check(graph, adapter, RebuildOptions(lto=True), fs, "", planned, plan)

    def test_a_step_replaced(self, base, planned):
        graph, adapter, fs, plan = base
        node = next(n for n in graph if n.kind == "object")
        node.step = node.step.with_argv(node.step.argv + ["-DPLAN_MEMO"])
        self._check(graph, adapter, RebuildOptions(lto=True), fs, "", planned, plan)

    def test_a_leaf_changed_then_removed(self, base, planned):
        graph, adapter, fs, plan = base
        leaf = next(n for n in graph if n.step is None and fs.is_file(n.path))
        fs.write_file(leaf.path, InlineContent(fs.read_file(leaf.path) + b"\n"))
        changed = self._check(graph, adapter, RebuildOptions(lto=True), fs, "",
                              planned, plan)
        fs.remove(leaf.path)
        self._check(graph, adapter, RebuildOptions(lto=True), fs, "", planned, changed)

    def test_a_dangling_dependency_is_read(self, base, planned):
        graph, adapter, fs, plan = base
        node = next(n for n in graph if n.kind == "object")
        node.deps.append("/usr/include/plan-memo.h")
        added = self._check(graph, adapter, RebuildOptions(lto=True), fs, "",
                            planned, plan)
        fs.write_file("/usr/include/plan-memo.h", InlineContent(b"#define X 1\n"),
                      create_parents=True)
        self._check(graph, adapter, RebuildOptions(lto=True), fs, "", planned, added)

    def test_no_scope_and_an_empty_scope_differ(self, base, planned):
        graph, adapter, fs, plan = base
        empty = self._check(graph, adapter, RebuildOptions(lto=True, lto_scope=[]),
                            fs, "", planned, plan)
        assert view(empty) != view(plan)
        # Back to no scope: the base plan again, planned once.
        whole, _ = plan_rebuild(graph, adapter, RebuildOptions(lto=True), fs)
        assert whole is plan and len(planned) == 2

    def test_a_new_salt(self, base, planned):
        graph, adapter, fs, plan = base
        salted = self._check(graph, adapter, RebuildOptions(lto=True), fs, SALT,
                             planned, plan)
        self._check(graph, adapter, RebuildOptions(lto=True), fs, SALT.replace("5a", "a5"),
                    planned, salted)

    def test_an_adapter_name_re_registered(self, extended, planned, monkeypatch):
        monkeypatch.setattr(builtin, "_FACTORIES", dict(builtin._FACTORIES))

        class SiteAdapter(GnuNativeAdapter):
            name = "plan-memo-site"

        class NewSiteAdapter(SiteAdapter):
            compiler_map = {**GnuNativeAdapter.compiler_map, "cc": "/usr/local/site/bin/cc"}

        models, fs = _decoded(extended, "hpccg")
        register_adapter("plan-memo-site", SiteAdapter)
        first = get_adapter("plan-memo-site", X86_CLUSTER)
        plan, _ = plan_rebuild(models.graph, first, RebuildOptions(), fs)
        register_adapter("plan-memo-site", NewSiteAdapter)
        second = get_adapter("plan-memo-site", X86_CLUSTER)
        assert second is not first
        self._check(models.graph, second, RebuildOptions(), fs, "", planned, plan)

    def test_a_raising_plan_stores_nothing(self, extended):
        models, fs = _decoded(extended, "hpccg")
        node = next(n for n in models.graph if n.kind == "object")
        node.deps.append(node.id)          # a cycle: topo_order raises
        with pytest.raises(Exception):
            plan_rebuild(models.graph, get_adapter("vendor", X86_CLUSTER),
                         RebuildOptions(), fs)
        assert len(incremental._PLAN_MEMO) == 0


class TestRebuildOnlyReadsThePlan:
    """Cold, warm, journal-resumed, cache-served and ``--fallback``
    rebuilds all share plans, and every shared plan still equals the fresh
    plan of its inputs afterwards."""

    @pytest.mark.parametrize("app", ["hpccg", "lammps"])
    def test_every_kind_of_rebuild(self, app, monkeypatch):
        shared = []

        def recorded(graph, adapter, options, fs, profile_salt=""):
            plan, fingerprints = plan_rebuild(graph, adapter, options, fs, profile_salt)
            fresh, fresh_fingerprints = _fresh(graph, adapter, options, fs, profile_salt)
            assert view(plan) == view(fresh) and fingerprints == fresh_fingerprints
            shared.append((plan, view(fresh)))
            return plan, fingerprints

        monkeypatch.setattr(rebuild_module, "plan_rebuild", recorded)
        engine = ContainerEngine(arch="amd64")
        install_system_side_images(engine, X86_CLUSTER)
        layout, dist_tag = build_extended_image(ContainerEngine(arch="amd64"), get_app(app))

        def rebuild(*args):
            ctr = engine.from_image(sysenv_ref("x86"), name="plan-memo",
                                    mounts={IO_MOUNT: layout})
            try:
                return engine.run(ctr, ["coMtainer-rebuild", *args])
            finally:
                engine.remove_container("plan-memo")

        models = decode_cache(layout, dist_tag)[0]
        steps = [n for n in models.graph.topo_order() if n.step is not None]
        link, first = steps[-1], steps[0]

        # Journal-resumed: the final link fails, then a resume restores.
        engine.fault_injector = FaultInjector(specs=[FaultSpec(
            site="rebuild.node", kind="persistent", match=link.id)])
        with pytest.raises(PersistentFault):
            rebuild("--journal")
        engine.fault_injector = None
        rebuild("--journal").check()
        assert decode_rebuild(layout, dist_tag)[0]["journal_restored"]
        # Warm: every group pruned.
        rebuild().check()
        assert decode_rebuild(layout, dist_tag)[0]["executed_nodes"] == []
        # Cold for LTO, then back to the defaults from the artifact cache.
        rebuild("--lto").check()
        rebuild().check()
        assert decode_rebuild(layout, dist_tag)[0]["cache_hits"]
        # --fallback: the first compile fails, its dependents are poisoned.
        engine.fault_injector = FaultInjector(specs=[FaultSpec(
            site="rebuild.node", kind="persistent", match=first.id)])
        rebuild("--lto", "--fallback", "--no-cache").check()
        engine.fault_injector = None
        assert decode_rebuild(layout, dist_tag)[0]["failed_nodes"]
        system_side_adapt(engine, layout, X86_CLUSTER)

        plans = [plan for plan, _ in shared]
        assert len({id(plan) for plan in plans}) < len(plans)   # hits shared
        for plan, expected in shared:
            assert view(plan) == expected


class TestCountGuard:
    def test_an_unchanged_re_adaptation_plans_once(self, extended, planned):
        engine = ContainerEngine(arch="amd64")
        layout, _ = build_extended_image(ContainerEngine(arch="amd64"), get_app("minimd"))
        for _ in range(10):
            system_side_adapt(engine, layout, X86_CLUSTER, ref="minimd:adapted")
        assert len(planned) == 1


class TestGetAdapter:
    def test_one_adapter_per_name_and_system(self):
        for flavor in ADAPTERS:
            adapter = get_adapter(flavor, X86_CLUSTER)
            assert get_adapter(flavor, X86_CLUSTER) is adapter
            assert builtin.adapter_for_system(X86_CLUSTER, flavor) is adapter
            other = get_adapter(flavor, AARCH64_CLUSTER)
            assert other is not adapter and other.system is AARCH64_CLUSTER

    def test_re_registering_a_name_builds_a_new_adapter(self, monkeypatch):
        monkeypatch.setattr(builtin, "_FACTORIES", dict(builtin._FACTORIES))

        class SiteAdapter(GnuNativeAdapter):
            name = "plan-memo-site"

        register_adapter("plan-memo-site", SiteAdapter)
        first = get_adapter("plan-memo-site", X86_CLUSTER)
        assert get_adapter("plan-memo-site", X86_CLUSTER) is first
        register_adapter("plan-memo-site", type("Other", (SiteAdapter,), {}))
        second = get_adapter("plan-memo-site", X86_CLUSTER)
        assert second is not first and type(second).__name__ == "Other"
