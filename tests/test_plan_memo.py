"""The rebuild's plan memo, :func:`repro.perf.incremental.plan_rebuild`,
keyed by ``coMtainer-rebuild`` on the rebuild's inputs
(:func:`repro.core.backend.rebuild.rebuild_inputs`): every plan it hands
out equals a fresh plan of a fresh decode, a change to any keyed input
alone plans afresh while the flags that only shape a schedule do not, a
written container forms no key, no rebuild changes the decode it reads
in place or the plan it shares, and an unchanged re-adaptation plans
once."""

import json

import pytest

from repro.apps import APPS, get_app
from repro.containers import ContainerEngine
from repro.core.adapters import builtin
from repro.core.adapters.base import RebuildOptions
from repro.core.adapters.builtin import GnuNativeAdapter, get_adapter, register_adapter
from repro.core.backend.scheduler import plan_command_groups
from repro.core.cache import storage
from repro.core.cache.storage import (
    CACHE_ROOT,
    add_cache_manifest,
    decode_cache,
    decode_rebuild,
    encode_cache_layer,
    extended_tag,
)
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import install_system_side_images, sysenv_ref
from repro.core.models.build_graph import GraphError
from repro.core.models.process import ProcessModels
from repro.core.optimizations import profile_bytes_for
from repro.core.workflow import build_extended_image, system_side_adapt
from repro.oci.layer import Layer, LayerEntry
from repro.perf import incremental
from repro.perf.incremental import compute_plan_fingerprints
from repro.pkg import Package
from repro.resilience import FaultInjector, FaultSpec, PersistentFault
from repro.sysmodel import AARCH64_CLUSTER, X86_CLUSTER
from repro.vfs import InlineContent, RegularFile, VirtualFilesystem
from tests.conftest import memos_switched_off

APP_NAMES = sorted(APPS)
ADAPTERS = ("vendor", "llvm", "gnu-native")
PROFILE = "/profiles/app.profdata"


@pytest.fixture(autouse=True)
def empty_memo():
    incremental._PLAN_MEMO.clear()
    yield
    incremental._PLAN_MEMO.clear()


@pytest.fixture
def planned(monkeypatch):
    """The graphs ``plan_command_groups`` is called with, in order."""
    calls = []

    def counted(graph, *args, **kwargs):
        calls.append(graph)
        return plan_command_groups(graph, *args, **kwargs)

    monkeypatch.setattr(incremental, "plan_command_groups", counted)
    return calls


def _fresh_models(layout, dist_tag):
    """A decode of the ``+coM`` cache layer's ``models.json`` bytes that
    shares nothing with any memo."""
    top = layout.resolve(extended_tag(dist_tag)).layers[-1]
    entry = next(e for e in top.entries if e.path == f"{CACHE_ROOT}/models.json")
    return ProcessModels.from_json(json.loads(entry.content.read()))


def _fresh(graph, adapter, options, fs, salt=""):
    """The two planning calls on *graph*, sized and fingerprinted from
    *fs*, with no memo."""

    def size(path):
        node = fs.try_get_node(path)
        return node.content.size if isinstance(node, RegularFile) else 0

    plan = plan_command_groups(graph, adapter, options, profile_salt=salt,
                               source_size=size)
    return plan, compute_plan_fingerprints(plan, graph, fs)


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


class World:
    """A system engine and one app's extended layout, rebuilt through
    ``coMtainer-rebuild``.  Every plan the memo hands out is compared,
    when it is handed out, with a fresh plan of a fresh decode of the
    layout's current ``+coM`` against the container's filesystem; each
    entry of :attr:`handed` is (plan, its view then, whether it hit, the
    fingerprints)."""

    def __init__(self, app, monkeypatch, flavor="vendor"):
        self.engine = ContainerEngine(arch="amd64")
        install_system_side_images(self.engine, X86_CLUSTER, flavor)
        self.layout, self.dist_tag = build_extended_image(
            ContainerEngine(arch="amd64"), get_app(app))
        self.image = sysenv_ref("x86", flavor)
        self.handed = []
        memo = incremental._PLAN_MEMO
        plan_rebuild = incremental.plan_rebuild

        def compared(key, graph, adapter, options, fs, profile_salt=""):
            hits = memo.hits
            plan, fingerprints = plan_rebuild(key, graph, adapter, options, fs,
                                              profile_salt)
            fresh, fresh_fingerprints = _fresh(
                _fresh_models(self.layout, self.dist_tag).graph,
                adapter, options, fs, profile_salt)
            assert view(plan) == view(fresh)
            assert fingerprints == fresh_fingerprints
            self.handed.append((plan, view(fresh), memo.hits > hits, fingerprints))
            return plan, fingerprints

        monkeypatch.setattr(incremental, "plan_rebuild", compared)

    def rebuild(self, *args, write=None):
        """Run ``coMtainer-rebuild`` *args* in a new container of
        :attr:`image` (after *write* on its filesystem) and return its
        result; the result of a failed run is not checked."""
        ctr = self.engine.from_image(self.image, name="plan-memo",
                                     mounts={IO_MOUNT: self.layout})
        try:
            if write is not None:
                write(ctr.fs)
            return self.engine.run(ctr, ["coMtainer-rebuild", *args])
        finally:
            self.engine.remove_container(ctr.name)

    def traffic(self, *args, write=None):
        """(hits, misses, stores) of the plan memo over one checked
        rebuild."""
        memo = incremental._PLAN_MEMO
        before = memo.hits, memo.misses, memo.stores
        self.rebuild(*args, write=write).check()
        return tuple(b - a for a, b in zip(before, (memo.hits, memo.misses,
                                                     memo.stores)))


def _option_sets(graph):
    """The sweep's rebuild arguments: defaults, LTO, each object's LTO
    scope and relax-ISA."""
    yield []
    yield ["--lto"]
    for node in graph:
        if node.kind == "object":
            yield [f"--lto-scope={node.id}"]
    yield ["--relax-isa"]


def _sysenv_with(world, path, data):
    """Make the world's rebuild containers come from its Sysenv image with
    one more layer, which holds *data* at *path*."""
    stored = world.engine.image(world.image)
    extra = Layer().add(LayerEntry.file(path, InlineContent(data)))
    config = stored.config.clone()
    config.diff_ids.append(extra.digest)
    world.image = f"sysenv:plan-memo-{len(world.handed)}"
    world.engine.add_image(world.image, config, [*stored.layers, extra])


def _re_push(world, change):
    """Push a new ``+coM`` whose models and sources *change* edited (a
    private decode of the current one)."""
    models, sources, _ = decode_cache(world.layout, world.dist_tag)
    change(models, sources)
    add_cache_manifest(world.layout, world.dist_tag, encode_cache_layer(models, sources))


@pytest.fixture
def world(monkeypatch):
    """An hpccg world whose plan memo holds the defaults' plan, stored by
    one rebuild and hit by the next; the rebuild memo is off."""
    world = World("hpccg", monkeypatch)
    with memos_switched_off("rebuild"):
        assert world.traffic() == (0, 1, 1)
        assert world.traffic() == (1, 0, 0)
        yield world


class TestEquivalence:
    @pytest.mark.parametrize("flavor", ADAPTERS)
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_miss_and_hit_equal_a_fresh_plan(self, app, flavor, monkeypatch):
        """Through ``coMtainer-rebuild``: defaults, LTO, each object's LTO
        scope and relax-ISA, each stored by its first rebuild and hit by
        its second."""
        world = World(app, monkeypatch, flavor)
        sets = list(_option_sets(_fresh_models(world.layout, world.dist_tag).graph))
        with memos_switched_off("rebuild"):
            for args in sets + sets:
                world.rebuild(f"--adapter={flavor}", *args).check()
        hits = [hit for _, _, hit, _ in world.handed]
        assert hits == [False] * len(sets) + [True] * len(sets)

    def test_fingerprints_are_a_copy(self):
        layout, dist_tag = build_extended_image(ContainerEngine(arch="amd64"),
                                                get_app("hpccg"))
        models, sources, _ = decode_cache(layout, dist_tag)
        fs = VirtualFilesystem()
        for path, content in sources.items():
            fs.write_file(path, content, create_parents=True)
        adapter = get_adapter("vendor", X86_CLUSTER)
        args = (("plan-memo",), models.graph, adapter, RebuildOptions(), fs)
        incremental.plan_rebuild(*args)[1].clear()
        hits = incremental._PLAN_MEMO.hits
        assert incremental.plan_rebuild(*args)[1] == _fresh(
            models.graph, adapter, RebuildOptions(), fs)[1]
        assert incremental._PLAN_MEMO.hits == hits + 1

    def test_a_changed_node_leaves_the_stored_plan_alone(self, world):
        """A ``+coM`` with a changed node plans its own graph; the plan
        stored for the first ``+coM`` is the one handed out again when it
        is pushed back."""
        stored, expected, _, _ = world.handed[0]
        original = decode_cache(world.layout, world.dist_tag)[:2]

        def change(models, sources):
            for node in models.graph:
                if node.step is not None:
                    node.step = node.step.with_argv(node.step.argv + ["-DPLAN_MEMO"])

        _re_push(world, change)
        assert world.traffic() == (0, 1, 1)
        add_cache_manifest(world.layout, world.dist_tag, encode_cache_layer(*original))
        assert world.traffic() == (1, 0, 0)
        assert world.handed[-1][0] is stored and view(stored) == expected


class TestInvalidation:
    """Each keyed input changed alone misses the plan memo, each input
    the key leaves out hits it, and every plan handed out equals a fresh
    plan of a fresh decode (the world's check)."""

    def test_a_dependency_added_to_a_node(self, world):
        def change(models, sources):
            node = next(n for n in models.graph if n.kind == "object")
            leaf = next(n for n in models.graph
                        if n.step is None and n.id not in node.deps)
            node.deps.append(leaf.id)

        _re_push(world, change)
        assert world.traffic() == (0, 1, 1)

    def test_a_step_replaced(self, world):
        def change(models, sources):
            node = next(n for n in models.graph if n.kind == "object")
            node.step = node.step.with_argv(node.step.argv + ["-DPLAN_MEMO"])

        _re_push(world, change)
        assert world.traffic() == (0, 1, 1)

    def test_a_leaf_changed_then_removed(self, world):
        path = next(n.path for n in _fresh_models(world.layout, world.dist_tag).graph
                    if n.step is None and n.path.endswith((".c", ".cc", ".cpp")))

        def edit(models, sources):
            sources[path] = InlineContent(sources[path].read() + b"\n/* edit */\n")

        _re_push(world, edit)
        assert world.traffic() == (0, 1, 1)
        _re_push(world, lambda models, sources: sources.pop(path))
        misses = incremental._PLAN_MEMO.misses
        assert not world.rebuild().ok                      # the compile fails
        assert incremental._PLAN_MEMO.misses == misses + 1

    def test_a_dangling_dependency_is_read(self, world):
        """A dependency no node produces is read from the container: from a
        Sysenv image that holds it, the fingerprints change."""
        header = "/usr/include/plan-memo.h"

        def change(models, sources):
            next(n for n in models.graph if n.kind == "object").deps.append(header)

        _re_push(world, change)
        assert world.traffic() == (0, 1, 1)
        _sysenv_with(world, header, b"#define PLAN_MEMO 1\n")
        assert world.traffic() == (0, 1, 1)
        (_, plan, _, before), (_, again, _, after) = world.handed[-2:]
        assert plan == again and before != after
        assert world.traffic() == (1, 0, 0)

    def test_another_sysenv_image(self, world):
        _sysenv_with(world, "/etc/site-note", b"note")
        assert world.traffic() == (0, 1, 1)

    def test_a_pool_repository_digest(self, world):
        ctr = world.engine.from_image(world.image)
        repo = world.engine.repository_pool_for(ctr).repositories[0]
        newest = repo.candidates(repo.names()[0])[-1]
        repo.add(Package(name=newest.name, version=newest.version + ".1",
                         architecture=newest.architecture, files=list(newest.files)))
        assert world.traffic() == (0, 1, 1)

    def test_an_adapter_name_re_registered(self, world, monkeypatch):
        monkeypatch.setattr(builtin, "_FACTORIES", dict(builtin._FACTORIES))

        class SiteAdapter(GnuNativeAdapter):
            name = "plan-memo-site"

        class NewSiteAdapter(SiteAdapter):
            compiler_map = {**GnuNativeAdapter.compiler_map, "cc": "/usr/local/site/bin/cc"}

        register_adapter("plan-memo-site", SiteAdapter)
        assert world.traffic("--adapter=plan-memo-site") == (0, 1, 1)
        assert world.traffic("--adapter=plan-memo-site") == (1, 0, 0)
        register_adapter("plan-memo-site", NewSiteAdapter)
        assert world.traffic("--adapter=plan-memo-site") == (0, 1, 1)

    @pytest.mark.parametrize("base, args", [
        ([], ["--lto"]),
        (["--lto-scope="], ["--lto-scope=/nowhere.o"]),
        ([], ["--pgo=instrument"]),
        ([], ["--pgo-profile=/profiles/none.gcda"]),
        ([], ["--relax-isa"]),
    ], ids=["lto", "lto_scope", "pgo", "pgo_profile_path", "relax_isa"])
    def test_an_option_field(self, world, base, args):
        """*args* differ from *base* in one option field."""
        world.traffic(*base)
        assert world.traffic(*args) == (0, 1, 1)
        assert world.traffic(*args) == (1, 0, 0)

    def test_no_scope_and_an_empty_scope_differ(self, world):
        assert world.traffic("--lto") == (0, 1, 1)
        assert world.traffic("--lto-scope=") == (0, 1, 1)
        assert world.handed[-1][1] != world.handed[-2][1]
        assert world.traffic("--lto") == (1, 0, 0)

    @pytest.mark.parametrize("args", [
        ["--jobs=4"], ["--fallback"], ["--journal"], ["--no-cache"]])
    def test_a_schedule_flag_hits(self, world, args):
        assert world.traffic(*args) == (1, 0, 0)

    def test_another_previous_rebuilt_image_hits(self, world):
        world.traffic("--lto")
        assert world.traffic() == (1, 0, 0)

    def test_a_new_salt(self, world):
        """A PGO ``use`` rebuild writes its profile into the container
        first, so it forms no key: each plans afresh, salted with the
        profile it reads."""
        args = ("--pgo=use", f"--pgo-profile={PROFILE}")
        for quality in (1.0, 1.0, 0.5):
            data = profile_bytes_for("hpccg", "x86", quality)

            def write(fs):
                fs.write_file(PROFILE, InlineContent(data), create_parents=True)

            assert world.traffic(*args, write=write) == (0, 0, 0)
        first, same, new = [view for _, view, _, _ in world.handed[-3:]]
        assert first == same != new
        assert world.handed[-1][0] is not world.handed[-2][0]

    def test_a_raising_plan_stores_nothing(self, world):
        def cycle(models, sources):
            node = next(n for n in models.graph if n.kind == "object")
            node.deps.append(node.id)          # topo_order raises

        _re_push(world, cycle)
        memo = incremental._PLAN_MEMO
        misses, stores = memo.misses, memo.stores
        with pytest.raises(GraphError, match="cycle"):
            world.rebuild()
        assert (memo.misses, memo.stores, len(memo)) == (misses + 1, stores, 1)


class TestRebuildOnlyReadsThePlan:
    """Cold, warm, LTO-change, journal-resumed, cache-served and
    ``--fallback`` rebuilds read the decode memo's models and sources in
    place and share plans, and leave all three as a fresh decode and a
    fresh plan have them."""

    @pytest.mark.parametrize("app", ["hpccg", "lammps"])
    def test_every_kind_of_rebuild(self, app, monkeypatch):
        world = World(app, monkeypatch)
        layout, dist_tag = world.layout, world.dist_tag
        models, sources = storage.decoded_cache(
            storage.resolve_extended(layout, dist_tag), dist_tag)
        fresh = _fresh_models(layout, dist_tag)
        original = dict(sources)
        steps = [n for n in fresh.graph.topo_order() if n.step is not None]
        link, first = steps[-1], steps[0]

        with memos_switched_off("rebuild"):
            # Cold, journaled: the final link fails, then a resume restores.
            world.engine.fault_injector = FaultInjector(specs=[FaultSpec(
                site="rebuild.node", kind="persistent", match=link.id)])
            with pytest.raises(PersistentFault):
                world.rebuild("--journal")
            world.engine.fault_injector = None
            world.rebuild("--journal").check()
            assert decode_rebuild(layout, dist_tag)[0]["journal_restored"]
            world.rebuild().check()                                  # warm
            assert decode_rebuild(layout, dist_tag)[0]["executed_nodes"] == []
            world.rebuild("--lto").check()                           # LTO change
            world.rebuild().check()                                  # cache-served
            assert decode_rebuild(layout, dist_tag)[0]["cache_hits"]
            # --fallback: the first compile fails, its dependents are poisoned.
            world.engine.fault_injector = FaultInjector(specs=[FaultSpec(
                site="rebuild.node", kind="persistent", match=first.id)])
            world.rebuild("--lto", "--fallback", "--no-cache").check()
            world.engine.fault_injector = None
            assert decode_rebuild(layout, dist_tag)[0]["failed_nodes"]
        system_side_adapt(world.engine, layout, X86_CLUSTER)

        plans = [plan for plan, *_ in world.handed]
        assert len({id(plan) for plan in plans}) < len(plans)   # hits shared
        for plan, expected, *_ in world.handed:
            assert view(plan) == expected
        assert storage.decoded_cache(
            storage.resolve_extended(layout, dist_tag), dist_tag) == (models, sources)
        assert models.to_json() == fresh.to_json() and sources == original


class TestCountGuard:
    def test_an_unchanged_re_adaptation_plans_once(self, planned):
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
