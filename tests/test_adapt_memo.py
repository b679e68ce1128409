"""The rebuild and redirect memos: a repeated input returns the earlier
result with the same reads, arms, telemetry and bytes.

``coMtainer-rebuild`` memoises the ``+coMre`` image of a fully pruned
rebuild (:data:`repro.core.backend.rebuild._REBUILD_MEMO`) and
``coMtainer-redirect`` its final tree
(:data:`repro.core.backend.redirect._REDIRECT_MEMO`).  Every case here
compares a run with the memos on against the same run with every memo
off (``memos_switched_off``, the ``memos_off`` fixture's switch): step by
step over re-adaptation sequences, in the telemetry and fault arms a hit
records, under seeded faults, through the service, after each change to
what the steps read, after a change to each field of a ``+coMre`` alone
(the two memos key a ``+coMre`` on what each step reads of it), and in
what a run that must not store leaves behind.  The registry every memo
joins is checked here too."""

import importlib
import json
import pkgutil

import pytest

import repro
from repro.apps import APPS, get_app
from repro.containers import ContainerEngine
from repro.containers.container import ProgramError
from repro.core.backend import rebuild as rebuild_module
from repro.core.backend import redirect as redirect_module
from repro.core.backend.redirect import redirect_in_container
from repro.core.adapters.base import LibraryReplacement
from repro.core.backend.replacement import (
    apply_replacements,
    container_key,
    install_container_runtime,
)
from repro.core.cache.storage import (
    add_cache_manifest,
    add_rebuild_manifest,
    decode_cache,
    decode_rebuild,
    decode_rebuild_plan,
    encode_cache_layer,
    encode_rebuild_layer,
    extended_tag,
    rebuilt_tag,
)
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import install_system_side_images, rebase_ref, sysenv_ref
from repro.core.models.image_model import FileOrigin
from repro.core.workflow import build_extended_image
from repro.memo import MEMOS, LruMemo
from repro.oci.blobs import Blob
from repro.oci.image import Manifest
from repro.oci.layer import Layer, LayerEntry
from repro.pkg import Package, RepositoryPool
from repro.resilience import FaultInjector, FaultSpec
from repro.resilience.deadline import DeadlineExceededError
from repro.resilience.fleet import FleetExhaustedError
from repro.service import AdaptationService
from repro.sysmodel import X86_CLUSTER
from repro.telemetry import Telemetry, install_telemetry
from repro.vfs import InlineContent
from tests.conftest import memos_switched_off
from tests.test_vfs_filesystem import tree_snapshot

APP_NAMES = sorted(APPS)
FLAVORS = ("vendor", "llvm")
REF = "app:adapted"
#: The steps of a re-adaptation sequence, by LTO scope: cold, identical
#: x3, a scope change, identical x2, back to the first scope, identical.
SEQUENCE = (0, 0, 0, 0, 1, 1, 1, 0, 0)
MEMO_NAMES = {"flatten", "dpkg-status", "decode", "plan", "runtime",
              "rebuild", "redirect", "documents", "commit", "artifacts"}


@pytest.fixture(autouse=True)
def empty_memos():
    rebuild_module._REBUILD_MEMO.clear()
    redirect_module._REDIRECT_MEMO.clear()
    yield
    rebuild_module._REBUILD_MEMO.clear()
    redirect_module._REDIRECT_MEMO.clear()


def _traffic():
    """(rebuild hits, misses, stores, redirect hits, misses, stores)."""
    return tuple(getattr(memo, count)
                 for memo in (rebuild_module._REBUILD_MEMO,
                              redirect_module._REDIRECT_MEMO)
                 for count in ("hits", "misses", "stores"))


class World:
    """A system engine and one app's extended layout, driven through the
    two system-side programs as ``system_side_adapt`` drives them."""

    def __init__(self, app, flavor="vendor"):
        self.engine = ContainerEngine(arch="amd64")
        install_system_side_images(self.engine, X86_CLUSTER, flavor)
        self.layout, self.dist_tag = build_extended_image(
            ContainerEngine(arch="amd64"), get_app(app))
        self.flavor = flavor
        graph = decode_cache(self.layout, self.dist_tag)[0].graph
        objects = [n for n in graph if n.step is not None and n.id.endswith(".o")]
        other = [n for n in objects if n.step.argv != objects[0].step.argv]
        #: Two LTO scopes (an object's compile command, another's or, in an
        #: app with one compile command, none) as rebuild arguments.
        self.scopes = ([f"--lto-scope={objects[0].id}"],
                       [f"--lto-scope={other[0].id}"] if other else [])

    def args(self, scope=0, extra=()):
        return [f"--adapter={self.flavor}", *self.scopes[scope], "--jobs=2", *extra]

    def rebuild(self, args, write=None):
        ctr = self.engine.from_image(sysenv_ref("x86", self.flavor),
                                     name="memo-rebuild",
                                     mounts={IO_MOUNT: self.layout})
        try:
            if write is not None:
                write(ctr.fs)
            return self.engine.run(ctr, ["coMtainer-rebuild", *args]).check().stdout
        finally:
            self.engine.remove_container(ctr.name)

    def redirect(self, write=None):
        ctr = self.engine.from_image(rebase_ref("x86"), name="memo-redirect",
                                     mounts={IO_MOUNT: self.layout})
        try:
            if write is not None:
                write(ctr.fs)
            out = self.engine.run(ctr, ["coMtainer-redirect"]).check().stdout
            self.engine.commit(ctr, ref=REF, comment="coMtainer redirected image")
            return out
        finally:
            self.engine.remove_container(ctr.name)

    def adapt(self, args):
        """Both programs' stdout, then what they left behind."""
        return (self.rebuild(args), self.redirect()), self.state()

    def state(self):
        """The ``+coMre`` manifest bytes, the adapted image's layer key and
        config, and the layout's index (every tag and side blob), all
        read without a verified read (so without a fault arm)."""
        layout = self.layout
        digest = layout.manifest_descriptor(rebuilt_tag(self.dist_tag)).digest
        image = self.engine.image(REF) if self.engine.has_image(REF) else None
        return (layout.blobs.try_get(digest).payload,
                image and image.layer_key(),
                image and json.dumps(image.config.to_json(), sort_keys=True),
                [(d.media_type, d.digest, sorted(d.annotations.items()))
                 for d in layout.index])


def _sequence(app, flavor):
    world = World(app, flavor)
    return [world.adapt(world.args(scope)) for scope in SEQUENCE]


def _both(run):
    """*run*'s result with the memos on, its result with every memo off,
    and the rebuild and redirect memo traffic of the first."""
    before = _traffic()
    with_memos = run()
    traffic = tuple(b - a for a, b in zip(before, _traffic()))
    with memos_switched_off():
        without = run()
    return with_memos, without, traffic


class TestSequences:
    @staticmethod
    def _check(app, flavor):
        with_memos, without, traffic = _both(lambda: _sequence(app, flavor))
        for step, (memoised, oracle) in enumerate(zip(with_memos, without)):
            assert memoised == oracle, f"step {step} of {app} ({flavor})"
        rebuild_hits, _, _, redirect_hits, _, _ = traffic
        assert rebuild_hits >= 1 and redirect_hits >= 1

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("app", ["hpccg", "lammps"])
    def test_every_step_equals_the_run_with_every_memo_off(self, app, flavor):
        self._check(app, flavor)

    @pytest.mark.incremental
    @pytest.mark.parametrize("app", APP_NAMES)
    def test_every_app(self, app):
        self._check(app, "vendor")

    def test_an_identical_step_hits_both_memos(self):
        world = World("hpccg")
        for _ in range(3):
            world.adapt(world.args())
        before = _traffic()
        world.adapt(world.args())
        assert tuple(b - a for a, b in zip(before, _traffic())) == (1, 0, 0, 1, 0, 0)


class TestCountGuard:
    def test_a_cold_and_ten_identical_adaptations_run_the_body_twice(
            self, monkeypatch):
        runs = []
        body = rebuild_module.rebuild_in_container

        def counted(*args, **kwargs):
            runs.append(1)
            return body(*args, **kwargs)

        monkeypatch.setattr(rebuild_module, "rebuild_in_container", counted)
        world = World("hpccg")
        for _ in range(11):
            world.adapt(["--adapter=vendor"])
        # The cold run (no previous +coMre, no key), then the first
        # identical run, which stores under the cold +coMre's plan key.
        # The +coMre it writes records another run but hands the next
        # rebuild the same node outputs and fingerprints, so every later
        # run hits.
        assert len(runs) == 2


def _recorded(tele):
    """Everything a recorder holds: events, spans and the metrics."""
    events = [(e.ts, e.name, e.span_id, e.attributes) for e in tele.events]
    spans = [(s.name, s.span_id, s.parent_id, s.start, s.end, s.status,
              s.attributes) for s in tele.iter_spans()]
    return events, spans, tele.metrics.snapshot()


def _instrument(world, injector):
    """A fresh live recorder and *injector* on the engine and the layout's
    blob store."""
    tele = Telemetry()
    world.engine.fault_injector = injector
    world.layout.blobs.fault_injector = injector
    world.layout.blobs.telemetry = tele
    install_telemetry(tele, engines=[world.engine])
    return tele


class TestTelemetryAndArms:
    @pytest.mark.parametrize("extra", [(), ("--journal", "--fallback")])
    @pytest.mark.parametrize("app", ["hpccg", "lammps"])
    def test_a_hit_records_what_a_miss_records(self, app, extra):
        worlds = (World(app), World(app))
        for world in worlds:
            for _ in range(3):          # the second run stores what a fourth hits
                world.adapt(world.args(extra=extra))
        records = []
        for world, hit in zip(worlds, (True, False)):
            if not hit:
                rebuild_module._REBUILD_MEMO.clear()
                redirect_module._REDIRECT_MEMO.clear()
            injector = FaultInjector(seed=0, rate=0.0)
            tele = _instrument(world, injector)
            before = _traffic()
            outs, state = world.adapt(world.args(extra=extra))
            hits = tuple(b - a for a, b in zip(before, _traffic()))[::3]
            assert hits == ((1, 1) if hit else (0, 0))
            records.append((outs, state, _recorded(tele), list(injector.log)))
        assert records[0] == records[1]
        events = records[0][2][0]
        assert any(name == "fault.armed" for _, name, _, _ in events)
        assert any(name == "rebuild.node_reused" for _, name, _, _ in events)


SITES = frozenset({"blob.read", "blob.write", "container.run"})


class TestSeededFaults:
    @staticmethod
    def _faulty(seed):
        """Per step of an hpccg sequence under seeded faults: what it left
        behind, or the exception it raised; and the injector's log."""
        world = World("hpccg")
        injector = FaultInjector(seed=seed, rate=0.08, sites=SITES)
        _instrument(world, injector)
        outcomes = []
        for scope in SEQUENCE + SEQUENCE:
            try:
                outcomes.append(world.adapt(world.args(scope)))
            except Exception as exc:
                outcomes.append((type(exc).__name__, str(exc)))
        return outcomes, [(r.site, r.key, r.kind) for r in injector.log]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_primed_memos_equal_memos_off(self, seed):
        _sequence("hpccg", "vendor")            # primes both memos
        assert len(rebuild_module._REBUILD_MEMO) and len(redirect_module._REDIRECT_MEMO)
        primed, off, traffic = _both(lambda: self._faulty(seed))
        assert primed == off
        _, log = primed
        assert log, "no fault fired"
        assert traffic[0] >= 1 and traffic[3] >= 1


class TestService:
    BURSTS = (("hpccg", "minife", "hpccg"), ("hpccg", "minife", "lulesh"),
              ("hpccg", "minife", "hpccg"))

    def _serve(self):
        """Per burst its outcomes, then the service recorder's event log."""
        service = AdaptationService(workers=4, durable=True, seed=0)
        for tenant in ("t0", "t1"):
            service.add_tenant(tenant)
        outcomes = []
        for burst in self.BURSTS:
            now = service.clock.now
            for k, app in enumerate(burst):
                service.submit(("t0", "t1")[k % 2], app, at=now + k)
            report = service.run()
            outcomes.append([o.to_json() for o in report.outcomes])
        events = [(e.ts, e.name, e.attributes) for e in service.telemetry.events]
        return outcomes, events

    def test_a_journaled_fallback_burst_logs_the_same_events(self):
        with_memos, without, traffic = _both(self._serve)
        assert with_memos == without
        assert traffic[0] >= 1 and traffic[3] >= 1

    def test_a_hit_after_a_crashed_rebuild_clears_its_stale_leases(self):
        def run():
            world = World("hpccg")

            def journaled(scope):
                return world.args(scope, extra=("--journal",))

            steps = [world.adapt(journaled(0)) for _ in range(3)]
            world.engine.fault_injector = FaultInjector(worker_crash_rate=1.0)
            with pytest.raises(FleetExhaustedError):
                world.rebuild(journaled(1))
            world.engine.fault_injector = None
            tele = _instrument(world, FaultInjector())
            steps += [world.adapt(journaled(0)) for _ in range(2)]
            return steps, [(e.ts, e.name, e.attributes) for e in tele.events]

        with_memos, without, traffic = _both(run)
        assert with_memos == without
        (rebuild_out, _), _ = with_memos[0][3]
        assert "stale worker leases" in rebuild_out
        assert traffic[0] >= 2


def _decoded(world):
    """The current ``+coMre``'s meta, files, modes and node files."""
    meta, files, modes, _ = decode_rebuild(world.layout, world.dist_tag)
    node_files, _ = decode_rebuild_plan(world.layout, world.dist_tag)
    return meta, files, modes, node_files


def _store_rebuilt(world, decoded, change):
    """Store *decoded* as the ``+coMre`` again, with *change* (meta,
    files, modes, node files -> None) made to a copy of it."""
    meta, files, modes, node_files = decoded
    copies = json.loads(json.dumps(meta)), dict(files), dict(modes), dict(node_files)
    change(*copies)
    add_rebuild_manifest(world.layout, world.dist_tag, encode_rebuild_layer(*copies))


def _first(mapping):
    return sorted(mapping)[0]


def _node_output(meta, files, modes, node_files):
    node_files[_first(node_files)] = InlineContent(b"perturbed")


def _fingerprint(meta, files, modes, node_files):
    meta["node_fingerprints"][_first(meta["node_fingerprints"])] = "0" * 32


def _file_content(meta, files, modes, node_files):
    files[_first(files)] = InlineContent(b"perturbed")


def _file_mode(meta, files, modes, node_files):
    modes[_first(modes)] = 0o700


def _adapter(meta, files, modes, node_files):
    meta["adapter"] += "-perturbed"


def _replacements(meta, files, modes, node_files):
    del meta["replacements"][-1]


def _runtime_packages(meta, files, modes, node_files):
    meta["runtime_packages"] = []


#: Each field of a ``+coMre`` in a read key, by name: a change to it that
#: changes what the step reading it produces, and that step.  A node
#: output changes under an equal fingerprint, so the rebuild replays it.
READ_CHANGES = {
    "node output": (_node_output, "rebuild"),
    "node_fingerprints": (_fingerprint, "rebuild"),
    "file content": (_file_content, "redirect"),
    "file mode": (_file_mode, "redirect"),
    "adapter": (_adapter, "redirect"),
    "replacements": (_replacements, "redirect"),
    "runtime_packages": (_runtime_packages, "redirect"),
}


def _other(value):
    """A JSON value that differs from *value*, of its type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "-perturbed"
    if isinstance(value, list):
        return value + ["perturbed"]
    if isinstance(value, dict):
        return {**value, "perturbed": "perturbed"}
    return "perturbed" if value is None else value + 1


def _changes(meta):
    """``(name, change, the step that reads it or None)`` for each
    top-level meta field and for one file under ``files/`` (content,
    mode) and ``nodes/`` (content)."""
    for name in sorted(meta):
        if name in READ_CHANGES:
            yield (name, *READ_CHANGES[name])
        else:
            def change(meta, *_, name=name):
                meta[name] = _other(meta[name])
            yield name, change, None
    for name in ("file content", "file mode", "node output"):
        yield (name, *READ_CHANGES[name])


class TestKeyMisses:
    """Each change to what a step reads misses the memo it keys, and then
    matches the same run with every memo off."""

    @staticmethod
    def _miss(change):
        """*change* (world -> adaptation outputs) after three identical
        hpccg adaptations, which leave a stored entry for a fourth; the
        memo traffic it caused.  (The second stores what the third hits.)"""
        def run():
            world = World("hpccg")
            for _ in range(3):
                world.adapt(world.args())
            before = _traffic()
            out = change(world)
            return out, tuple(b - a for a, b in zip(before, _traffic()))

        (memoised, traffic), (oracle, _), _ = _both(run)
        assert memoised == oracle
        return traffic

    @pytest.mark.parametrize("options", [
        ["--lto"],                                # lto_scope: the whole program
        [],                                       # lto off
        ["--pgo=instrument"],
        ["--pgo-profile=/profiles/none.gcda"],
        ["--relax-isa"],
        ["--fallback"],
    ])
    def test_an_option(self, options):
        def change(world):
            scope = world.scopes[0] if options and options != ["--lto"] else []
            return world.adapt(["--adapter=vendor", *scope, "--jobs=2", *options])

        traffic = self._miss(change)
        assert traffic[:2] == (0, 1)                       # the rebuild missed

    def test_a_re_pushed_extended_image(self):
        def change(world):
            models, sources, _ = decode_cache(world.layout, world.dist_tag)
            path = sorted(sources)[0]
            sources[path] = InlineContent(sources[path].read() + b"\n/* edit */\n")
            add_cache_manifest(world.layout, world.dist_tag,
                               encode_cache_layer(models, sources))
            return world.adapt(world.args())

        assert self._miss(change)[:2] == (0, 1)

    @staticmethod
    def _re_encode_rebuilt(world):
        """Store the ``+coMre`` again with one more meta field."""
        _store_rebuilt(world, _decoded(world),
                       lambda meta, *_: meta.update(note="re-encoded"))

    def test_a_re_pushed_extended_image_to_redirect(self):
        """The redirect reads the current ``+coM``, which may have been
        re-pushed since the rebuild: here one data file changed."""
        def change(world):
            layout, dist_tag = world.layout, world.dist_tag
            models, _, base = decode_cache(layout, dist_tag)
            data = next(r.path for r in models.image.files.values()
                        if r.origin == FileOrigin.DATA)
            patch = Layer().add(LayerEntry.file(data, InlineContent(b"new data")))
            config = base.config.clone()
            config.diff_ids.append(patch.digest)
            manifest = Manifest(
                config=config.descriptor(),
                layers=[*base.manifest.layers, Blob.from_layer(patch).descriptor()])
            layout.add_manifest(manifest, config, [*base.layers, patch],
                                tag=extended_tag(dist_tag))
            return world.redirect(), world.state()

        assert self._miss(change)[3:5] == (0, 1)

    def test_another_previous_rebuilt_image(self):
        def change(world):
            self._re_encode_rebuilt(world)
            return world.adapt(world.args())

        # A meta field no rebuild reads leaves the plan key as it was: the
        # rebuild hits and writes the stored +coMre back, whose redirect
        # key the redirect read before.
        traffic = self._miss(change)
        assert traffic[:2] == (1, 0) and traffic[3:5] == (1, 0)

    def test_another_rebuilt_image_to_redirect(self):
        def change(world):
            self._re_encode_rebuilt(world)
            return world.redirect(), world.state()

        # Nor does the redirect read the new field.
        assert self._miss(change)[3:5] == (1, 0)

    @pytest.mark.parametrize("field", sorted(
        name for name, (_, step) in READ_CHANGES.items() if step == "rebuild"))
    def test_a_field_the_rebuild_reads(self, field):
        def change(world):
            _store_rebuilt(world, _decoded(world), READ_CHANGES[field][0])
            return world.adapt(world.args())

        assert self._miss(change)[:2] == (0, 1)

    @pytest.mark.parametrize("field", sorted(
        name for name, (_, step) in READ_CHANGES.items() if step == "redirect"))
    def test_a_field_the_redirect_reads(self, field):
        def change(world):
            _store_rebuilt(world, _decoded(world), READ_CHANGES[field][0])
            return world.redirect(), world.state()

        assert self._miss(change)[3:5] == (0, 1)

    @staticmethod
    def _extra_layer(world, ref):
        stored = world.engine.image(ref)
        extra = Layer().add(LayerEntry.file("/etc/site-note", InlineContent(b"note")))
        config = stored.config.clone()
        config.diff_ids.append(extra.digest)
        world.engine.add_image(ref, config, list(stored.layers) + [extra])

    def test_another_sysenv_image(self):
        def change(world):
            self._extra_layer(world, sysenv_ref("x86"))
            return world.adapt(world.args())

        traffic = self._miss(change)
        assert traffic[:2] == (0, 1) and traffic[3] == 1

    def test_another_rebase_image(self):
        def change(world):
            self._extra_layer(world, rebase_ref("x86"))
            return world.adapt(world.args())

        traffic = self._miss(change)
        assert traffic[0] == 1 and traffic[3:5] == (0, 1)

    def test_a_package_added_to_a_pool_repository(self):
        def change(world):
            ctr = world.engine.from_image(rebase_ref("x86"))
            for repo in world.engine.repository_pool_for(ctr).repositories:
                name = repo.names()[0]
                newest = repo.candidates(name)[-1]
                repo.add(Package(name=newest.name, version=newest.version + ".1",
                                 architecture=newest.architecture,
                                 files=list(newest.files)))
            return world.adapt(world.args())

        traffic = self._miss(change)
        assert traffic[:2] == (0, 1) and traffic[3:5] == (0, 1)

    def test_a_reordered_pool(self):
        def change(world):
            engine = world.engine
            pool_for = engine.repository_pool_for
            engine.repository_pool_for = lambda ctr: RepositoryPool(
                list(reversed(pool_for(ctr).repositories)))
            try:
                return world.adapt(world.args())
            finally:
                del engine.repository_pool_for

        traffic = self._miss(change)
        assert traffic[:2] == (0, 1) and traffic[3:5] == (0, 1)

    def test_a_written_container_forms_no_key(self):
        def write(fs):
            fs.write_file("/profiles/app.gcda", b"profile", create_parents=True)

        def change(world):
            return (world.rebuild(world.args(), write=write),
                    world.redirect(write=write)), world.state()

        assert self._miss(change) == (0, 0, 0, 0, 0, 0)


class TestReadKeyAudit:
    """Every top-level meta field of a ``+coMre``, and one file under
    ``files/`` and one under ``nodes/``, changed alone and read by the next
    step: the outputs equal the same run with every memo off, a change to
    a field in the step's read key misses its memo, and a change to any
    other field hits it."""

    @staticmethod
    def _audit(app):
        """Per change and step (the rebuild reads the changed ``+coMre``
        as its previous one, the redirect as the rebuilt one): the change,
        the step, the step that reads the change, the outputs and the
        step's (hits, misses)."""
        world = World(app)
        for _ in range(2):
            world.adapt(world.args())
        decoded = _decoded(world)
        outcomes = []
        for name, change, reader in _changes(decoded[0]):
            for step in ("rebuild", "redirect"):
                _store_rebuilt(world, decoded, change)
                before = _traffic()
                if step == "rebuild":
                    out = world.adapt(world.args())
                else:
                    out = world.redirect(), world.state()
                traffic = tuple(b - a for a, b in zip(before, _traffic()))
                outcomes.append((name, step, reader, out,
                                 traffic[:2] if step == "rebuild" else traffic[3:5]))
        return outcomes

    @pytest.mark.parametrize("app", ["hpccg", "lammps"])
    def test_each_field_changed_alone(self, app):
        with_memos, without, _ = _both(lambda: self._audit(app))
        for (name, step, reader, out, traffic), oracle in zip(with_memos, without):
            assert out == oracle[3], (name, step)
            assert traffic == ((0, 1) if reader == step else (1, 0)), (name, step)


class TestContainerKey:
    def test_pool_order_and_content_are_read_and_a_write_drops_the_key(self):
        world = World("hpccg")
        ctr = world.engine.from_image(rebase_ref("x86"))
        pool = world.engine.repository_pool_for(ctr)
        key = container_key(ctr, pool)
        assert key == (ctr.image_layers,
                       tuple((r.name, r.digest) for r in pool.repositories))
        reordered = RepositoryPool(list(reversed(pool.repositories)))
        assert len(pool.repositories) < 2 or container_key(ctr, reordered) != key
        ctr.fs.write_file("/tmp/x", b"x", create_parents=True)
        assert container_key(ctr, pool) is None


class TestNoStore:
    def _stores(self, run):
        before = _traffic()
        run()
        after = _traffic()
        return after[2] - before[2], after[5] - before[5]

    def test_rebuilds_that_ran_a_group_store_nothing(self):
        world = World("hpccg")
        world.adapt(world.args(0))                       # cold: no key
        world.adapt(world.args(0))                       # fully pruned: stores
        # A scope change executes; going back is served from the artifact
        # cache; neither is fully pruned.
        assert self._stores(lambda: world.rebuild(world.args(1)))[0] == 0
        assert self._stores(lambda: world.rebuild(world.args(0)))[0] == 0
        assert "served from the artifact cache" in world.rebuild(world.args(1))

    def test_a_resumed_rebuild_stores_nothing(self):
        world = World("hpccg")

        def journaled(scope, *more):
            return world.args(scope, extra=("--journal", "--no-cache", *more))

        world.adapt(journaled(0))
        world.adapt(journaled(0))
        # A deadline cuts the scope change after its first wave, whose
        # checkpoints the journal keeps; the resume restores them.
        with pytest.raises(DeadlineExceededError):
            world.rebuild(journaled(1, "--deadline=1e-9"))
        out = []
        assert self._stores(lambda: out.append(world.rebuild(journaled(1))))[0] == 0
        assert "from the checkpoint journal" in out[0]

    def test_a_rebuild_with_a_failed_node_stores_nothing(self):
        world = World("hpccg")
        world.adapt(world.args(0))
        world.adapt(world.args(0))
        world.engine.fault_injector = FaultInjector(specs=[
            FaultSpec(site="rebuild.node", match="", kind="persistent", times=-1)])
        out = []
        stores = self._stores(lambda: out.append(
            world.rebuild(world.args(1, extra=("--fallback",)))))
        assert "nodes failed" in out[0] and stores[0] == 0

    def test_a_redirect_that_raises_stores_nothing(self):
        world = World("hpccg")
        world.adapt(world.args())
        meta, files, modes, _ = decode_rebuild(world.layout, world.dist_tag)
        node_files, _ = decode_rebuild_plan(world.layout, world.dist_tag)
        meta["runtime_packages"].append("no-such-package")
        add_rebuild_manifest(world.layout, world.dist_tag,
                             encode_rebuild_layer(meta, files, modes, node_files))
        redirect_module._REDIRECT_MEMO.clear()
        for _ in range(2):
            before = _traffic()
            with pytest.raises(ProgramError, match="no-such-package"):
                world.redirect()
            assert tuple(b - a for a, b in zip(before, _traffic()))[3:] == (0, 1, 0)
        assert len(redirect_module._REDIRECT_MEMO) == 0


class TestIsolation:
    def test_writes_after_a_redirect_hit_never_reach_the_memo(self):
        world = World("lammps")
        world.adapt(world.args())
        engine = world.engine

        def redirected():
            ctr = engine.from_image(rebase_ref("x86"))
            redirect_in_container(engine, ctr, world.layout, world.dist_tag)
            return ctr

        def scribble(fs):
            for path in fs.file_paths("/app")[:3]:
                fs.write_file(path, b"scribbled")
            fs.chmod("/usr", 0o700)
            fs.remove("/etc", recursive=True)

        redirect_module._REDIRECT_MEMO.clear()
        miss = redirected()                                  # a miss stores
        expected = tree_snapshot(miss.fs)
        (tree, *_), = redirect_module._REDIRECT_MEMO._entries.values()
        assert tree_snapshot(tree) == expected
        scribble(miss.fs)
        assert tree_snapshot(tree) == expected
        hits = redirect_module._REDIRECT_MEMO.hits
        hit = redirected()
        assert redirect_module._REDIRECT_MEMO.hits == hits + 1
        assert tree_snapshot(hit.fs) == expected
        scribble(hit.fs)
        assert tree_snapshot(tree) == expected
        assert tree_snapshot(redirected().fs) == expected


class TestRedirectLine:
    @pytest.mark.parametrize("app", ["hpccg", "lammps"])
    def test_it_counts_what_the_redirect_placed_and_copied(self, app):
        world = World(app)
        lines = [world.adapt(world.args())[0][1] for _ in range(3)]
        meta, files, _, _ = decode_rebuild(world.layout, world.dist_tag)
        models, _, resolved = decode_cache(world.layout, world.dist_tag)
        # The data files the redirect container lacks once its runtime is
        # installed are the ones it copies.
        ctr = world.engine.from_image(rebase_ref("x86"))
        plan = [LibraryReplacement.from_json(r) for r in meta["replacements"]]
        apt, _ = install_container_runtime(
            ctr, world.engine.repository_pool_for(ctr), meta["runtime_packages"], plan)
        apply_replacements(ctr.fs, apt, plan)
        dist_fs = resolved.filesystem()
        copied = sum(1 for record in models.image.files.values()
                     if record.origin in (FileOrigin.DATA, FileOrigin.UNKNOWN)
                     and dist_fs.is_file(record.path)
                     and not ctr.fs.lexists(record.path))
        assert files and copied
        assert lines == [f"coMtainer-redirect: placed {len(files)} rebuilt "
                         f"artifacts, {copied} data files\n"] * 3


class TestRegistry:
    def test_every_module_level_memo_is_registered(self):
        found = {}
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(info.name)
            for attr, value in vars(module).items():
                if isinstance(value, LruMemo):
                    found[f"{info.name}.{attr}"] = value
        assert len({id(memo) for memo in found.values()}) == len(MEMO_NAMES)
        for where, memo in found.items():
            assert memo.name is not None and MEMOS[memo.name] is memo, where
        assert set(MEMOS) == MEMO_NAMES

    def test_memos_off_zeroes_and_restores_every_memo(self, memos_off):
        assert MEMOS and all(memo.cap == 0 and not len(memo)
                             for memo in MEMOS.values())
        memo = MEMOS["rebuild"]
        memo.put("key", "value")
        assert memo.get("key") is None

    def test_memos_off_restores_caps_and_entries(self):
        memo = MEMOS["redirect"]
        memo.put("kept", "value")
        caps = {name: m.cap for name, m in MEMOS.items()}
        with memos_switched_off():
            assert memo.get("kept") is None
        assert {name: m.cap for name, m in MEMOS.items()} == caps
        assert memo.get("kept") == "value"

    def test_a_named_switch_zeroes_only_those_memos(self):
        caps = {name: m.cap for name, m in MEMOS.items()}
        MEMOS["redirect"].put("kept", "value")
        MEMOS["rebuild"].put("dropped", "value")
        with memos_switched_off("rebuild", "plan"):
            assert {name for name, m in MEMOS.items() if m.cap == 0} == {"rebuild", "plan"}
            assert MEMOS["redirect"].get("kept") == "value"
            assert MEMOS["rebuild"].get("dropped") is None
        assert {name: m.cap for name, m in MEMOS.items()} == caps
        assert MEMOS["rebuild"].get("dropped") == "value"

    def test_an_unknown_name_raises_listing_the_known_ones(self):
        caps = {name: m.cap for name, m in MEMOS.items()}
        with pytest.raises(KeyError, match=r"no memo named nosuch \(memos: .*rebuild"):
            with memos_switched_off("rebuild", "nosuch"):
                pass
        assert {name: m.cap for name, m in MEMOS.items()} == caps

    def test_counts(self):
        memo = LruMemo(1)
        assert memo.get("a") is None
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("b") == 2 and memo.get("a") is None
        assert (memo.hits, memo.misses, memo.stores, len(memo)) == (1, 2, 2, 1)
        assert "a" not in memo and memo.name is None
