"""The runtime-install memo,
:func:`repro.core.backend.replacement.install_container_runtime`: a hit
equals a fresh install on a fresh container, any write since the
container's creation installs afresh, nothing written after a store or a
hit reaches the memo, any change to what the install reads installs
afresh, and an unchanged re-adaptation installs once."""

import pytest

from repro.apps import APPS, get_app
from repro.containers import ContainerEngine
from repro.core.adapters.base import LibraryReplacement
from repro.core.adapters.builtin import get_adapter
from repro.core.backend import replacement
from repro.core.backend.replacement import (
    apply_replacements,
    install_container_runtime,
    install_runtime,
)
from repro.core.cache.storage import decode_cache, rebuilt_tag
from repro.core.images import install_system_side_images, rebase_ref, sysenv_ref
from repro.core.workflow import build_extended_image, system_side_adapt
from repro.memo import LruMemo
from repro.oci.diff import diff_filesystems
from repro.oci.image import ImageConfig
from repro.oci.layout import OCILayout
from repro.pkg import Package, PackagedFile, Repository, RepositoryPool
from repro.pkg.apt import AptFacade
from repro.pkg.database import INFO_DIR, STATUS_PATH, DpkgDatabase
from repro.pkg.resolver import DependencyError
from repro.pkg.rpm import RPM_DB_PATH, RpmDatabase, read_package_database
from repro.sysmodel import X86_CLUSTER
from repro.vfs import VirtualFilesystem
from tests.test_vfs_filesystem import tree_snapshot

APP_NAMES = sorted(APPS)
FLAVORS = ("vendor", "llvm")
ROLES = ("rebuild", "redirect")


@pytest.fixture(autouse=True)
def empty_memo():
    replacement._RUNTIME_MEMO.clear()
    yield
    replacement._RUNTIME_MEMO.clear()


@pytest.fixture
def installs(monkeypatch):
    """The package lists ``install_runtime`` is called with, in order."""
    calls = []

    def counted(apt, packages, replacements):
        packages = list(packages)
        calls.append(packages)
        return install_runtime(apt, packages, replacements)

    monkeypatch.setattr(replacement, "install_runtime", counted)
    return calls


@pytest.fixture(scope="module")
def models():
    """``{app: image model}`` of each app's extended image."""
    user = ContainerEngine(arch="amd64")
    return {name: decode_cache(*build_extended_image(user, get_app(name)))[0].image
            for name in APP_NAMES}


def _system():
    engine = ContainerEngine(arch="amd64")
    for flavor in FLAVORS:
        install_system_side_images(engine, X86_CLUSTER, flavor)
    return engine


@pytest.fixture(scope="module")
def system():
    return _system()


def _inputs(engine, image, flavor, role):
    """(image ref, packages, replacement plan) of *role*'s install: the
    rebuild's from its Sysenv pool, which the redirect reads from meta."""
    sysenv = engine.from_image(sysenv_ref("x86", flavor))
    plan = get_adapter(flavor, X86_CLUSTER).plan_replacements(
        image, engine.repository_pool_for(sysenv))
    ref = sysenv.image_ref if role == "rebuild" else rebase_ref("x86")
    return ref, list(image.packages), plan


def _install(engine, ref, packages, plan, pool=None):
    """A new container of *ref* after the memoised install."""
    ctr = engine.from_image(ref)
    apt, installed = install_container_runtime(
        ctr, pool or engine.repository_pool_for(ctr), packages, plan)
    return ctr, apt, installed


def _fresh(engine, ref, packages, plan, pool=None, write=None):
    """A new container of *ref* (after *write*) after today's install."""
    ctr = engine.from_image(ref)
    if write is not None:
        write(ctr.fs)
    apt = AptFacade(ctr.fs, pool or engine.repository_pool_for(ctr))
    return ctr, apt, install_runtime(apt, packages, plan)


def _state(ctr, apt):
    """The tree, the dpkg status and every ``.list``, and the database."""
    fs = ctr.fs
    status = fs.read_file(STATUS_PATH) if fs.exists(STATUS_PATH) else None
    lists = {name: fs.read_file(f"{INFO_DIR}/{name}")
             for name in (fs.listdir(INFO_DIR) if fs.is_dir(INFO_DIR) else [])}
    database = {name: apt.db.file_list(name) for name in apt.db.names()}
    return tree_snapshot(fs), status, lists, type(apt.db), database


def _stored():
    """The one stored (tree, database, installed names)."""
    (entry,) = replacement._RUNTIME_MEMO._entries.values()
    return entry


class TestEquivalence:
    @pytest.mark.parametrize("role", ROLES)
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_a_hit_equals_a_fresh_install(self, app, flavor, role, system, models,
                                          installs):
        ref, packages, plan = _inputs(system, models[app], flavor, role)
        _install(system, ref, packages, plan)                  # a miss stores
        ctr, apt, installed = _install(system, ref, packages, plan)
        assert len(installs) == 1 and len(replacement._RUNTIME_MEMO) == 1

        replacement._RUNTIME_MEMO.clear()
        fresh, fresh_apt, fresh_installed = _fresh(system, ref, packages, plan)
        assert installed == fresh_installed
        assert _state(ctr, apt) == _state(fresh, fresh_apt)
        links = apply_replacements(ctr.fs, apt, plan)
        assert links == apply_replacements(fresh.fs, fresh_apt, plan)
        assert _state(ctr, apt) == _state(fresh, fresh_apt)
        assert system.commit(ctr).layer_key() == system.commit(fresh).layer_key()

    def test_the_miss_returns_what_it_installed(self, system, models):
        ref, packages, plan = _inputs(system, models["hpccg"], "vendor", "redirect")
        ctr, apt, installed = _install(system, ref, packages, plan)
        fresh, fresh_apt, fresh_installed = _fresh(system, ref, packages, plan)
        assert installed == fresh_installed and installed
        assert _state(ctr, apt) == _state(fresh, fresh_apt)


def _remove(fs):
    fs.remove("/etc/apt/sources.list")


def _overlay(fs):
    other = VirtualFilesystem()
    other.write_file("/srv/extra/file", b"extra", create_parents=True)
    fs.overlay(other)


MUTATORS = {
    "write_file": lambda fs: fs.write_file("/profiles/app.gcda", b"p",
                                           create_parents=True),
    "symlink": lambda fs: fs.symlink("/etc", "/etc-link"),
    "remove": _remove,
    "mkdir": lambda fs: fs.mkdir("/newdir"),
    "makedirs": lambda fs: fs.makedirs("/usr/share/new/deep"),
    "chmod of /": lambda fs: fs.chmod("/", 0o700),
    "chmod of a deep path": lambda fs: fs.chmod("/etc/apt/sources.list", 0o600),
    "rename": lambda fs: fs.rename("/etc/apt/sources.list", "/etc/apt/sources.bak"),
    "copy_tree": lambda fs: fs.copy_tree("/etc/apt", "/etc/apt2"),
    "overlay": _overlay,
    "writable_dir": lambda fs: fs.writable_dir("/usr/lib"),
}


class TestNoWriteCheck:
    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_any_write_installs_afresh(self, name, system, models, installs):
        write = MUTATORS[name]
        ref, packages, plan = _inputs(system, models["minimd"], "vendor", "redirect")
        _install(system, ref, packages, plan)
        stored = _stored()
        ctr = system.from_image(ref)
        write(ctr.fs)
        assert not ctr.unwritten()
        apt, installed = install_container_runtime(
            ctr, system.repository_pool_for(ctr), packages, plan)
        assert len(installs) == 2                       # no lookup
        assert _stored() is stored                      # and no store
        fresh, fresh_apt, fresh_installed = _fresh(system, ref, packages, plan,
                                                   write=write)
        assert installed == fresh_installed
        assert _state(ctr, apt) == _state(fresh, fresh_apt)

    def test_reads_leave_a_container_unwritten(self, system):
        ctr = system.from_image(rebase_ref("x86"))
        fs = ctr.fs
        fs.read_file("/etc/apt/sources.list")
        fs.listdir("/usr/bin")
        fs.walk("/etc").__next__()
        fs.makedirs("/etc/apt")                         # already there
        system.repository_pool_for(ctr)
        assert ctr.unwritten()

    def test_a_container_built_another_way_is_never_keyed(self, system, models,
                                                          installs):
        ref, packages, plan = _inputs(system, models["hpccg"], "vendor", "rebuild")
        for _ in range(2):
            ctr = system.from_image(ref)
            ctr.image_layers = None
            install_container_runtime(ctr, system.repository_pool_for(ctr),
                                      packages, plan)
        assert len(installs) == 2 and len(replacement._RUNTIME_MEMO) == 0


class TestIsolation:
    @staticmethod
    def _scribble(ctr, apt):
        """Writes over installed files and into the package database."""
        fs = ctr.fs
        for path in fs.file_paths("/usr/lib")[:5]:
            fs.write_file(path, b"scribbled")
        fs.chmod("/usr", 0o700)
        fs.write_file("/etc/apt/sources.list", b"repo nowhere\n")
        victim = apt.db.names()[-1]
        apt.remove(victim)
        return victim

    def test_writes_after_a_store_or_a_hit_never_reach_the_memo(self, system, models):
        ref, packages, plan = _inputs(system, models["lulesh"], "vendor", "rebuild")
        miss, miss_apt, _ = _install(system, ref, packages, plan)
        tree, db, installed = _stored()
        kept = (tree_snapshot(tree), db.names(), installed)
        expected = _state(miss, miss_apt)

        self._scribble(miss, miss_apt)
        assert (tree_snapshot(tree), db.names(), installed) == kept
        hit, hit_apt, hit_installed = _install(system, ref, packages, plan)
        assert _state(hit, hit_apt) == expected and hit_installed == list(installed)

        self._scribble(hit, hit_apt)
        hit_installed.append("scribbled")
        assert (tree_snapshot(tree), db.names(), installed) == kept
        later, later_apt, later_installed = _install(system, ref, packages, plan)
        assert _state(later, later_apt) == expected
        assert later_installed == list(installed)

    def test_two_containers_served_by_one_entry_stay_independent(self, system, models):
        ref, packages, plan = _inputs(system, models["comd"], "vendor", "redirect")
        _install(system, ref, packages, plan)
        one, one_apt, _ = _install(system, ref, packages, plan)
        two, two_apt, _ = _install(system, ref, packages, plan)
        assert one.fs is not two.fs and one_apt.db is not two_apt.db
        before = _state(two, two_apt)
        apply_replacements(one.fs, one_apt, plan)
        victim = self._scribble(one, one_apt)
        assert _state(two, two_apt) == before
        assert victim in two_apt.db and victim not in one_apt.db


class TestInvalidation:
    """Each change to what the install reads misses and matches a fresh
    install of the changed inputs (the creation-time image key hits, and
    matches a fresh install of the image the container was made from)."""

    @pytest.fixture
    def primed(self, models, installs):
        engine = _system()
        ref, packages, plan = _inputs(engine, models["minife"], "vendor", "rebuild")
        _install(engine, ref, packages, plan)
        assert len(installs) == 1
        return engine, ref, packages, plan

    @staticmethod
    def _misses(installs, engine, ref, packages, plan, pool=None):
        ctr, apt, installed = _install(engine, ref, packages, plan, pool)
        assert len(installs) == 2
        fresh, fresh_apt, fresh_installed = _fresh(engine, ref, packages, plan, pool)
        assert installed == fresh_installed
        assert _state(ctr, apt) == _state(fresh, fresh_apt)

    def test_a_package_added_to_a_pool_repository(self, primed, installs):
        engine, ref, packages, plan = primed
        repo = engine.repository_pool_for(engine.from_image(ref)).repositories[0]
        newer = repo.latest(packages[0])
        repo.add(Package(name=newer.name, version=newer.version + ".1",
                         architecture=newer.architecture, files=list(newer.files)))
        self._misses(installs, engine, ref, packages, plan)

    def test_a_reordered_pool(self, primed, installs):
        engine, ref, packages, plan = primed
        pool = engine.repository_pool_for(engine.from_image(ref))
        reordered = RepositoryPool(list(reversed(pool.repositories)))
        self._misses(installs, engine, ref, packages, plan, reordered)

    def test_another_package_order(self, primed, installs):
        engine, ref, packages, plan = primed
        self._misses(installs, engine, ref, list(reversed(packages)), plan)

    def test_other_replacement_pairs(self, primed, installs):
        engine, ref, packages, plan = primed
        assert plan
        self._misses(installs, engine, ref, packages, plan[1:])

    def test_a_link_map_or_quality_is_not_read(self, primed, installs):
        engine, ref, packages, plan = primed
        other = [LibraryReplacement(generic=r.generic, optimized=r.optimized,
                                    quality=r.quality + 1.0, link_map={})
                 for r in plan]
        ctr, apt, installed = _install(engine, ref, packages, other)
        assert len(installs) == 1
        fresh, fresh_apt, fresh_installed = _fresh(engine, ref, packages, other)
        assert _state(ctr, apt) == _state(fresh, fresh_apt)

    def test_another_image(self, primed, installs):
        engine, _, packages, plan = primed
        self._misses(installs, engine, sysenv_ref("x86", "llvm"), packages, plan)

    def test_a_ref_re_tagged_after_creation_keeps_its_image(self, primed, installs):
        engine, ref, packages, plan = primed
        engine.tag(ref, "kept:sysenv")
        before = engine.from_image(ref)
        engine.tag(sysenv_ref("x86", "llvm"), ref)
        apt, installed = install_container_runtime(
            before, engine.repository_pool_for(before), packages, plan)
        assert len(installs) == 1                       # the creation-time key
        fresh, fresh_apt, fresh_installed = _fresh(engine, "kept:sysenv",
                                                   packages, plan)
        assert installed == fresh_installed
        assert _state(before, apt) == _state(fresh, fresh_apt)
        self._misses(installs, engine, ref, packages, plan)


def _rpm_engine():
    """An engine with an RPM-based image (no dpkg status) and a repository
    holding a generic library, its optimized equivalent and a tool."""
    engine = ContainerEngine(arch="amd64")
    repo = Repository("kylin", "amd64")

    def package(name, **kw):
        return Package(name=name, version="1.0-1", architecture="amd64",
                       files=[PackagedFile(path=f"/usr/lib/{name}.so.1", size=64,
                                           kind="library")], **kw)

    repo.add(package("libx"))
    repo.add(package("libx-opt", equivalent_of="libx", quality=1.4))
    repo.add(package("tool"))
    engine.register_repository(repo)
    fs = VirtualFilesystem()
    RpmDatabase().write_to(fs)
    layer = diff_filesystems(VirtualFilesystem(), fs)
    engine.add_image("kylin:1", ImageConfig(architecture="amd64"), [layer])
    plan = [LibraryReplacement(generic="libx", optimized="libx-opt", quality=1.4)]
    return engine, ["libx", "tool"], plan


class TestRpm:
    def test_a_copy_keeps_its_kind(self):
        db = RpmDatabase()
        assert type(db.copy()) is RpmDatabase
        assert type(DpkgDatabase().copy()) is DpkgDatabase

    def test_a_hit_keeps_an_rpm_database_and_writes_only_packages_json(self, installs):
        engine, packages, plan = _rpm_engine()
        _install(engine, "kylin:1", packages, plan)
        ctr, apt, installed = _install(engine, "kylin:1", packages, plan)
        assert len(installs) == 1
        assert installed == ["tool", "libx-opt"]
        assert isinstance(apt.db, RpmDatabase)
        apt.remove("tool")
        apply_replacements(ctr.fs, apt, plan)
        assert ctr.fs.exists(RPM_DB_PATH) and not ctr.fs.exists(STATUS_PATH)
        assert not ctr.fs.exists(INFO_DIR)
        db = read_package_database(ctr.fs)
        assert isinstance(db, RpmDatabase) and db.names() == ["libx-opt"]

        fresh, fresh_apt, _ = _fresh(engine, "kylin:1", packages, plan)
        fresh_apt.remove("tool")
        apply_replacements(fresh.fs, fresh_apt, plan)
        assert _state(ctr, apt) == _state(fresh, fresh_apt)


class TestFailure:
    def test_an_install_that_raises_stores_nothing(self, system, models, installs):
        ref, packages, plan = _inputs(system, models["hpccg"], "vendor", "redirect")
        bad = packages + ["no-such-package"]
        with pytest.raises(DependencyError) as memoised:
            _install(system, ref, bad, plan)
        with pytest.raises(DependencyError) as today:
            _fresh(system, ref, bad, plan)
        assert str(memoised.value) == str(today.value)
        assert len(replacement._RUNTIME_MEMO) == 0
        _install(system, ref, packages, plan)
        assert len(installs) == 2 and len(replacement._RUNTIME_MEMO) == 1


class TestCountGuard:
    def test_an_unchanged_re_adaptation_installs_once(self, monkeypatch):
        calls = []
        install = AptFacade.install

        def counted(apt, names):
            calls.append(list(names))
            return install(apt, names)

        monkeypatch.setattr(AptFacade, "install", counted)
        engine = ContainerEngine(arch="amd64")
        layout, _ = build_extended_image(ContainerEngine(arch="amd64"), get_app("minimd"))
        per_adaptation = []
        for _ in range(10):
            before = len(calls)
            system_side_adapt(engine, layout, X86_CLUSTER, ref="minimd:adapted")
            per_adaptation.append(len(calls) - before)
        assert per_adaptation[0] > 0
        assert per_adaptation[1:] == [0] * 9


class TestEndToEnd:
    @staticmethod
    def _adapt_twice(app):
        """(``+coMre`` manifest digest, adapted image digest) after a cold
        and after a warm adaptation on a fresh engine and layout."""
        engine = ContainerEngine(arch="amd64")
        layout, dist_tag = build_extended_image(ContainerEngine(arch="amd64"),
                                                get_app(app))
        digests = []
        for _ in range(2):
            ref = system_side_adapt(engine, layout, X86_CLUSTER, ref=f"{app}:adapted")
            digests.append((layout.resolve(rebuilt_tag(dist_tag)).manifest.digest,
                            engine.push_to_layout(ref, OCILayout()).digest))
        return digests

    @pytest.mark.parametrize("app", ["hpccg", "lammps"])
    def test_cold_then_warm_with_and_without_the_memo(self, app, monkeypatch):
        with_memo = self._adapt_twice(app)
        monkeypatch.setattr(replacement, "_RUNTIME_MEMO", LruMemo(0))
        assert self._adapt_twice(app) == with_memo
