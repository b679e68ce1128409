"""What the at-rest health check of a mirror sync detects, and what it
costs.

Every sync re-checks the replica's stored copies of the references that
are already current, so an incremental sync also heals rot.  The pins
hold whatever the check costs: ``SyncEngine.plan`` agrees with the
per-reference rule over a seeded sweep of damaged replicas, and a stored
object that checked clean and was then replaced or corrupted in a put
is caught by every check, while a stored layer refuses ``Layer.add``
(it cannot change in place).  The cost guard
(``TestSyncCostsWhatChanged``) counts hashes, manifest parses and
``missing_of`` calls: a plan pays for what changed, not for the
catalogue.
"""

import dataclasses
import random

import pytest

from repro.federation import FederatedRegistry
from repro.federation.ledger import TransferLedger
from repro.integrity import IntegrityError
from repro.integrity.fsck import fsck_federation
from repro.oci import (
    ImageConfig,
    ImageRegistry,
    Layer,
    LayerEntry,
    Manifest,
    mediatypes,
)
from repro.oci.blobs import Blob, BlobStore, manifest_closure
from repro.resilience import FaultInjector
from repro.resilience.faults import CorruptionSpec
from repro.vfs import InlineContent


def _layer(path: str, data: bytes) -> Layer:
    return Layer().add(LayerEntry.file(path, InlineContent(data), mode=0o755))


def _image(base: Layer, tag: str):
    """A two-layer image: the shared *base* plus a patch layer of its own."""
    patch = _layer(f"/app/{tag}", tag.encode())
    config = ImageConfig(architecture="amd64", env=[f"TAG={tag}"])
    config.diff_ids.extend([base.digest, patch.digest])
    manifest = Manifest(config=config.descriptor(), layers=[
        Blob.from_layer(base).descriptor(), Blob.from_layer(patch).descriptor()])
    return manifest, config, [base, patch]


APPS = ("alpha", "beta", "gamma")
TAGS = 3


def _federation():
    """One mirror, synced: three apps of three tags each, every tag of an
    app on that app's base layer, and an artifact cache for two apps."""
    fed = FederatedRegistry()
    fed.add_mirror("edge-0")
    for app in APPS:
        base = _layer(f"/base/{app}", app.encode() * 8)
        for t in range(TAGS):
            fed.push(f"lab/{app}:{t}", *_image(base, f"{app}-{t}"))
    for app in APPS[:2]:
        fed.put_artifact_cache(f"lab/{app}", Blob.from_bytes(
            f'{{"cache": "{app}"}}'.encode(), "application/json"))
    fed.sync_all()
    return fed, fed.mirror("edge-0")


def _rot(store, digest, payload: bytes):
    """Replace *digest*'s stored object with *payload*, keeping its
    descriptor, and nothing else: the verified-read memo is left alone."""
    good = store.try_get(digest)
    store._blobs[digest] = Blob(media_type=good.media_type, digest=digest,
                                size=good.size, payload=payload)


def _fresh(blob):
    """A new object for *blob*: the same fields, nothing remembered."""
    return None if blob is None else dataclasses.replace(blob)


def reference_plan(origin, registry):
    """``SyncEngine.plan`` as a per-reference rule: each current
    reference's manifest is re-checked and its closure scanned on its own.

    It runs over new objects for every stored blob, so nothing a blob
    remembers from an earlier check is read.
    """
    stored = BlobStore()
    stored._blobs = {d: _fresh(b) for d, b in registry.blobs._blobs.items()}
    origin_map = origin.manifest_map()
    mirror_map = registry.manifest_map()
    changed = {}
    for ref, digest in origin_map.items():
        if mirror_map.get(ref) != digest:
            changed[ref] = digest
            continue
        closure = manifest_closure(stored.intact(digest))
        if closure is None or stored.missing_of(closure):
            changed[ref] = digest
    caches = {}
    for repo in origin.repositories():
        blob = origin.get_artifact_cache(repo)
        if blob is None:
            continue
        ours = registry.get_artifact_cache(repo)
        if (ours is None or ours.digest != blob.digest
                or stored.intact(blob.digest) is None):
            caches[repo] = blob.digest
    wanted = set(caches.values())
    for digest in changed.values():
        wanted.update(manifest_closure(_fresh(origin.blobs.try_get(digest))))
    return changed, caches, stored.missing_of(wanted)


def _assert_plan_matches(fed, mirror):
    got = fed.engine.plan(mirror)
    want = reference_plan(fed.origin, mirror.registry)
    assert got == want
    # The origin reads for the want-list follow the changed map's order.
    assert list(got[0].items()) == list(want[0].items())
    return got


def _promote_by_hand(fed, mirror):
    """What a sync of *mirror* promotes, written straight into it: new
    objects for the planned blobs, then the planned tags and caches.
    (Sync itself is pinned elsewhere; this keeps the sweep on ``plan``.)"""
    changed, caches, wanted = fed.engine.plan(mirror)
    for digest in wanted:
        mirror.registry.blobs.put(_fresh(fed.origin.blobs.try_get(digest)))
    for ref, digest in changed.items():
        mirror.registry.tag_manifest(ref, digest)
    for repo in caches:
        mirror.registry.put_artifact_cache(
            repo, _fresh(fed.origin.get_artifact_cache(repo)))


def _manifests(fed):
    return sorted(set(fed.origin.manifest_map().values()))


def _base_layers(fed):
    """Digests of the layers more than one reference holds."""
    seen = {}
    for digest in _manifests(fed):
        for member in manifest_closure(fed.origin.blobs.try_get(digest))[2:]:
            seen[member] = seen.get(member, 0) + 1
    return sorted(d for d, n in seen.items() if n > 1)


def _caches(fed):
    return sorted(fed.origin.get_artifact_cache(repo).digest
                  for repo in fed.origin.repositories()
                  if fed.origin.get_artifact_cache(repo) is not None)


def _damage(fed, mirror, rng):
    """One seeded damage to the mirror (or a change at the origin)."""
    store = mirror.registry.blobs
    stored = sorted(store._blobs)
    kind = rng.choice(["rot", "delete", "quarantine", "unparseable-manifest",
                       "rotten-manifest", "rot-base", "rot-cache",
                       "origin-push", "heal"])
    if kind == "rot" and stored:
        digest = rng.choice(stored)
        _rot(store, digest, store.try_get(digest).as_bytes()[:-1] + b"!")
    elif kind == "delete" and stored:
        store.remove(rng.choice(stored))
    elif kind == "quarantine" and stored:
        store.quarantine(rng.choice(stored))
    elif kind == "unparseable-manifest":
        digest = rng.choice(_manifests(fed))
        if digest in store:
            _rot(store, digest, b"\x00not a manifest\xff")
    elif kind == "rotten-manifest":
        digest, other = rng.sample(_manifests(fed), 2)
        if digest in store:
            _rot(store, digest, fed.origin.blobs.try_get(other).as_bytes())
    elif kind == "rot-base":
        digest = rng.choice(_base_layers(fed))
        if digest in store:
            _rot(store, digest, b'{"entries": []}')
    elif kind == "rot-cache":
        digest = rng.choice(_caches(fed))
        if digest in store:
            _rot(store, digest, b'{"cache": "rotten"}')
    elif kind == "origin-push":
        app = rng.choice(APPS)
        base = _layer(f"/base/{app}", app.encode() * 8)
        fed.push(f"lab/{app}:{rng.randrange(TAGS + 1)}",
                 *_image(base, f"{app}-{rng.randrange(1000)}"))
    elif kind == "heal":
        digest = rng.choice(sorted(fed.origin.referenced_digests()))
        store.put(_fresh(fed.origin.blobs.try_get(digest)))
    return kind


class TestPlanAgreesWithPerReferenceRule:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_damage_sweep(self, seed):
        rng = random.Random(f"sync-health:{seed}")
        fed, mirror = _federation()
        assert _assert_plan_matches(fed, mirror) == ({}, {}, [])
        for step in range(10):
            for _ in range(rng.randint(1, 3)):
                _damage(fed, mirror, rng)
            _assert_plan_matches(fed, mirror)
            # Asked again over the same objects, the answer is the same.
            _assert_plan_matches(fed, mirror)
            if step % 4 == 3:
                _promote_by_hand(fed, mirror)
                assert _assert_plan_matches(fed, mirror) == ({}, {}, [])

    def test_rotten_shared_base_reopens_every_ref_on_it(self):
        fed, mirror = _federation()
        base = _base_layers(fed)[0]
        _rot(mirror.registry.blobs, base, b'{"entries": []}')
        changed, caches, wanted = _assert_plan_matches(fed, mirror)
        holders = {ref for ref, digest in fed.origin.manifest_map().items()
                   if base in manifest_closure(fed.origin.blobs.try_get(digest))}
        assert set(changed) == holders and len(holders) == TAGS
        assert (caches, wanted) == ({}, [base])

    @pytest.mark.parametrize("damage", ["rot", "delete", "quarantine"])
    def test_damaged_artifact_cache_resyncs_only_the_cache(self, damage):
        fed, mirror = _federation()
        store = mirror.registry.blobs
        digest = fed.origin.get_artifact_cache("lab/alpha").digest
        if damage == "rot":
            _rot(store, digest, b'{"cache": "rotten"}')
        elif damage == "delete":
            store.remove(digest)
        else:
            store.quarantine(digest)
        assert _assert_plan_matches(fed, mirror) == (
            {}, {"lab/alpha": digest}, [digest])


PARTS = ["config", "layer", "manifest"]


def _part(fed, part):
    ref, digest = sorted(fed.origin.manifest_map().items())[0]
    closure = manifest_closure(fed.origin.blobs.try_get(digest))
    return ref, {"manifest": closure[0], "config": closure[1],
                 "layer": closure[-1]}[part]


class TestReplacedObjectIsCaught:
    """A blob checks clean, then its stored object is replaced with
    rotten bytes (and the verified-read memo is not told)."""

    def _checked_then_replaced(self, part):
        fed, mirror = _federation()
        store = mirror.registry.blobs
        ref, digest = _part(fed, part)
        assert store.intact(digest) is not None
        assert store.missing_of([digest]) == []
        assert fed.engine.plan(mirror) == ({}, {}, [])
        assert store.verify_integrity() == []
        assert mirror.registry.audit() == []
        assert fsck_federation(fed).clean
        other = fed.origin.blobs.try_get(
            sorted(fed.origin.manifest_map().values())[-1])
        rotten = (other.as_bytes() if part == "manifest"
                  else store.try_get(digest).as_bytes()[:-1] + b"!")
        _rot(store, digest, rotten)
        return fed, mirror, ref, digest

    @pytest.mark.parametrize("part", PARTS)
    def test_intact_and_missing_of(self, part):
        fed, mirror, _, digest = self._checked_then_replaced(part)
        store = mirror.registry.blobs
        assert store.intact(digest) is None
        assert store.missing_of([digest]) == [digest]

    @pytest.mark.parametrize("part", PARTS)
    def test_plan_reopens_the_ref(self, part):
        fed, mirror, ref, digest = self._checked_then_replaced(part)
        changed, _, wanted = _assert_plan_matches(fed, mirror)
        assert ref in changed and digest in wanted

    @pytest.mark.parametrize("part", PARTS)
    def test_verify_integrity_audit_and_fsck(self, part):
        fed, mirror, _, digest = self._checked_then_replaced(part)
        assert [f.digest for f in mirror.registry.blobs.verify_integrity()] == [digest]
        assert f"blob {digest}" in "\n".join(mirror.registry.audit())
        report = fsck_federation(fed)
        assert not report.clean
        assert [f.digest for f in report.replicas["edge-0"].findings] == [digest]

    @pytest.mark.parametrize("part", PARTS)
    def test_next_sync_heals_it(self, part):
        fed, mirror, ref, digest = self._checked_then_replaced(part)
        report = fed.sync_mirror("edge-0")
        assert ref in report.references_promoted
        assert mirror.registry.blobs.intact(digest) is not None
        assert fed.engine.plan(mirror) == ({}, {}, [])
        assert fsck_federation(fed).clean


class TestCorruptedWriteAfterCleanCheck:
    def test_blob_store_corruption_in_put(self):
        store = BlobStore()
        blob = Blob.from_bytes(b'{"clean": true}', mediatypes.IMAGE_CONFIG)
        store.put(blob)
        assert store.intact(blob.digest) is blob
        store.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="blob.store", mode="bitflip")])
        store.put(blob)   # the same, already checked, object
        store.fault_injector = None
        assert store.intact(blob.digest) is None
        assert store.missing_of([blob.digest]) == [blob.digest]
        assert [f.digest for f in store.verify_integrity()] == [blob.digest]
        with pytest.raises(IntegrityError):
            store.get(blob.digest)

    def test_registry_transfer_corruption_in_push(self):
        registry = ImageRegistry()
        base = _layer("/base/x", b"x")
        manifest, config, layers = _image(base, "x-0")
        registry.push("lab/x:0", manifest, config, layers)
        registry.pull("lab/x:0")
        assert registry.audit() == []
        registry.fault_injector = FaultInjector(corruptions=[CorruptionSpec(
            site="registry.transfer", mode="bitflip", match="#config")])
        registry.push("lab/x:0", manifest, config, layers)
        registry.fault_injector = None
        assert registry.blobs.intact(config.digest) is None
        assert f"blob {config.digest}" in "\n".join(registry.audit())
        with pytest.raises(IntegrityError):
            registry.pull("lab/x:0")

    def test_a_stored_layer_refuses_add(self):
        store = BlobStore()
        layer = _layer("/app/bin", b"v1")
        digest = store.put_layer(layer).digest
        assert store.intact(digest) is not None
        assert store.missing_of([digest]) == []
        with pytest.raises(TypeError):
            layer.add(LayerEntry.file("/app/extra", InlineContent(b"v2")))
        assert store.intact(digest) is not None
        assert store.missing_of([digest]) == []
        assert store.verify_integrity() == []


class TestSyncCostsWhatChanged:
    """Counts, not timings, of what one ``plan`` hashes and parses."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """(hashed payloads, parsed manifests) from here on: every
        ``digest_bytes`` call of the blob store or of ``Layer.digest``,
        and every ``Manifest.from_json``."""
        from repro.oci import blobs as blobs_mod
        from repro.oci import layer as layer_mod

        hashed, parsed = [], []
        for module in (blobs_mod, layer_mod):
            monkeypatch.setattr(
                module, "digest_bytes",
                lambda data, real=module.digest_bytes:
                    (hashed.append(bytes(data)), real(data))[1])
        parse = Manifest.from_json
        monkeypatch.setattr(Manifest, "from_json", staticmethod(
            lambda obj: (parsed.append(obj), parse(obj))[1]))
        return hashed, parsed

    def test_unchanged_mirror_hashes_and_parses_nothing(self, counted):
        hashed, parsed = counted
        fed, mirror = _federation()
        assert fed.engine.plan(mirror) == ({}, {}, [])
        del hashed[:], parsed[:]
        assert fed.engine.plan(mirror) == ({}, {}, [])
        assert (hashed, parsed) == ([], [])

    def test_rotten_shared_layer_is_the_only_object_hashed(self, counted):
        hashed, parsed = counted
        fed, mirror = _federation()
        fed.engine.plan(mirror)
        base = _base_layers(fed)[0]
        _rot(mirror.registry.blobs, base, b'{"entries": []}')
        del hashed[:], parsed[:]
        changed, caches, wanted = fed.engine.plan(mirror)
        assert (hashed, parsed) == ([b'{"entries": []}'], [])
        holders = [ref for ref, digest in fed.origin.manifest_map().items()
                   if base in manifest_closure(fed.origin.blobs.try_get(digest))]
        assert list(changed) == holders and len(holders) == TAGS
        assert (caches, wanted) == ({}, [base])

    def test_one_pooled_check_of_each_distinct_blob(self, monkeypatch):
        fed, mirror = _federation()
        calls = []
        missing_of = BlobStore.missing_of
        monkeypatch.setattr(
            BlobStore, "missing_of",
            lambda store, digests: (calls.append(list(digests)),
                                    missing_of(store, digests))[1])
        assert fed.engine.plan(mirror) == ({}, {}, [])
        closures = mirror.registry.referenced_digests() - set(_caches(fed))
        assert len(calls) == 2   # the pooled closures, then the want-list
        assert sorted(calls[0]) == sorted(closures)
        assert calls[1] == []

    @pytest.fixture
    def rendered(self, monkeypatch):
        """The digest of every layer ``Layer.to_bytes`` renders from here
        on."""
        seen = []
        to_bytes = Layer.to_bytes
        monkeypatch.setattr(Layer, "to_bytes", lambda layer: (
            seen.append(layer.digest), to_bytes(layer))[1])
        return seen

    def test_each_changed_origin_layer_is_rendered_once_per_round(self, rendered):
        fed, base = _fleet(mirrors=3)
        manifest, config, layers = _image(base, "app-1")
        fed.push("lab/app:1", manifest, config, layers)
        del rendered[:]
        reports = fed.sync_all()
        # The base is on every mirror already; the patch layer is new.
        assert rendered == [layers[1].digest]
        assert [r.blobs_fetched for r in reports.values()] == [3, 3, 3]
        other = _layer("/base/other", b"other")
        manifest, config, layers = _image(other, "other-0")
        fed.push("lab/other:0", manifest, config, layers)
        del rendered[:]
        fed.sync_all()
        assert sorted(rendered) == sorted(layer.digest for layer in layers)
        assert all(fed.converged(m) for m in fed.mirrors.values())

    def test_rendered_bytes_are_kept_only_for_what_the_latest_plan_wanted(self):
        fed, base = _fleet(mirrors=2)
        fed.push("lab/app:1", *_image(base, "app-1"))
        # The set-up's round rendered the first image; this plan wants
        # none of it, and nothing it wants is rendered yet.
        wanted = fed.engine.plan(fed.mirror("edge-0"))[2]
        assert len(wanted) == 3 and fed.engine._rendered == {}
        fed.sync_mirror("edge-0")
        assert sorted(fed.engine._rendered) == wanted
        # The next mirror's plan wants the same blobs and keeps them.
        assert fed.engine.plan(fed.mirror("edge-1"))[2] == wanted
        assert sorted(fed.engine._rendered) == wanted
        fed.sync_mirror("edge-1")
        assert fed.engine.plan(fed.mirror("edge-1")) == ({}, {}, [])
        assert fed.engine._rendered == {}

    def test_a_replaced_origin_object_is_rendered_again(self, rendered):
        fed, base = _fleet(mirrors=3)
        manifest, config, layers = _image(base, "app-1")
        fed.push("lab/app:1", manifest, config, layers)
        patch = layers[1].digest
        del rendered[:]
        fed.sync_mirror("edge-0")
        fed.sync_mirror("edge-1")
        assert rendered == [patch]
        origin = fed.origin.blobs
        origin._blobs[patch] = dataclasses.replace(origin.try_get(patch))
        fed.sync_mirror("edge-2")
        assert rendered == [patch, patch]
        assert all(fed.converged(m) for m in fed.mirrors.values())

    @pytest.fixture
    def decoded(self, monkeypatch):
        """The digest of every blob ``Blob.decode`` decodes from here on."""
        seen = []
        decode = Blob.decode
        monkeypatch.setattr(Blob, "decode", staticmethod(
            lambda media_type, digest, data: (seen.append(digest),
                                              decode(media_type, digest, data))[1]))
        return seen

    @pytest.fixture
    def added(self, monkeypatch):
        """``(mirror, record)`` of every chunk record a ledger takes from
        here on."""
        seen = []
        add_record = TransferLedger.add_record
        monkeypatch.setattr(TransferLedger, "add_record", lambda ledger, record: (
            seen.append((ledger.mirror, record)), add_record(ledger, record))[1])
        return seen

    @staticmethod
    def _records_by_mirror(added):
        by_mirror = {}
        for mirror, record in added:
            by_mirror.setdefault(mirror, []).append(record)
        return by_mirror

    @staticmethod
    def _new_app(fed):
        """Push an image on a base no mirror holds; the digests of its
        closure (manifest, config, base, patch)."""
        fed.push("lab/other:0", *_image(_layer("/base/other", b"other" * 200),
                                        "other-0"))
        return list(manifest_closure(fed.origin.blobs.try_get(
            fed.origin.manifest_map()["lab/other:0"])))

    def test_a_round_decodes_each_changed_blob_once_and_seals_each_chunk_once(
            self, decoded, added):
        fed, _ = _fleet(mirrors=3, chunk_size=512)
        closure = self._new_app(fed)
        del decoded[:], added[:]
        reports = fed.sync_all()
        assert [r.blobs_fetched for r in reports.values()] == [4, 4, 4]
        # The first mirror decodes each blob; the others' byte-equal
        # stagings take what it decoded.
        assert sorted(decoded) == sorted(closure)
        by_mirror = self._records_by_mirror(added)
        records = by_mirror["edge-0"]
        chunks = reports["edge-0"].chunks_fetched
        assert len(records) == chunks > len(closure)
        assert len({(r["blob"], r["index"]) for r in records}) == chunks
        # Every mirror's ledger took the same sealed records.
        for name in ("edge-1", "edge-2"):
            assert len(by_mirror[name]) == chunks
            assert all(a is b for a, b in zip(by_mirror[name], records))
        assert all(fed.converged(m) for m in fed.mirrors.values())

    def test_every_mirror_stores_the_same_object_of_a_round(self):
        fed, _ = _fleet(mirrors=3)
        closure = self._new_app(fed)
        fed.sync_all()
        for digest in closure:
            stored = [m.registry.blobs.try_get(digest) for m in fed.mirrors.values()]
            assert all(blob is stored[0] for blob in stored)
            # What a staging decoded to, never the origin's own object.
            assert stored[0] is not fed.origin.blobs.try_get(digest)
            assert stored[0] == fed.origin.blobs.try_get(digest)

    def _new_app_and_one_corrupt_chunk(self):
        """:meth:`_new_app` on three mirrors at 512-byte chunks, with an
        injector that corrupts edge-1's first chunk once."""
        fed, _ = _fleet(mirrors=3, chunk_size=512)
        closure = self._new_app(fed)
        fed.engine.injector = FaultInjector(corruptions=[CorruptionSpec(
            site="transfer.chunk", match="edge-1/", times=1)])
        return fed, closure

    def test_a_chunk_corrupted_for_one_mirror_costs_that_mirror_alone(
            self, decoded, added):
        # Nothing shared: each mirror's sync starts from an empty round.
        alone, closure = self._new_app_and_one_corrupt_chunk()
        del decoded[:]
        expected = {}
        for name in sorted(alone.mirrors):
            alone.engine._rendered.clear()
            expected[name] = alone.sync_mirror(name).to_json()
        assert len(decoded) == 3 * len(closure) + 1

        fed, closure = self._new_app_and_one_corrupt_chunk()
        del decoded[:], added[:]
        reports = {name: r.to_json() for name, r in fed.sync_all().items()}
        assert reports == expected
        assert fed.engine.injector.log == alone.engine.injector.log
        [fault] = fed.engine.injector.log
        assert (fault.site, fault.kind) == ("transfer.chunk", "corrupt-bitflip")
        bad = fault.key[len("edge-1/"):].partition("#")[0]
        # edge-1 decodes its corrupt staging; every other decode is shared.
        assert sorted(decoded) == sorted([*closure, bad])
        assert len(decoded) == len(closure) + 1
        # Only edge-1 records a digest of its own, for the corrupt chunk;
        # it then re-fetches that one chunk, with the round's record.
        by_mirror = self._records_by_mirror(added)
        clean = by_mirror["edge-0"]
        assert all(a is b for a, b in zip(by_mirror["edge-2"], clean))
        assert len(by_mirror["edge-2"]) == len(clean)
        own = [r for r in by_mirror["edge-1"] if not any(r is c for c in clean)]
        assert [r["blob"] for r in own] == [bad]
        [twin] = [c for c in clean if (c["blob"], c["index"]) == (bad, own[0]["index"])]
        assert own[0]["digest"] != twin["digest"]
        assert len(by_mirror["edge-1"]) == len(clean) + 1
        assert [r["chunks_corrupted"] for r in reports.values()] == [0, 1, 0]
        assert (reports["edge-1"]["chunks_fetched"]
                == reports["edge-0"]["chunks_fetched"] + 1)
        assert all(fed.converged(m) for m in fed.mirrors.values())

    def test_a_rotten_shared_copy_is_healed_on_its_own_mirror(self):
        fed, base = _fleet(mirrors=3)
        manifest, config, layers = _image(base, "app-1")
        fed.push("lab/app:1", manifest, config, layers)
        fed.sync_all()
        patch = layers[1].digest
        shared = fed.mirror("edge-0").registry.blobs.try_get(patch)
        assert fed.mirror("edge-1").registry.blobs.try_get(patch) is shared
        _rot(fed.mirror("edge-1").registry.blobs, patch, b'{"entries": []}')
        assert fed.engine.plan(fed.mirror("edge-0")) == ({}, {}, [])
        assert fed.engine.plan(fed.mirror("edge-2")) == ({}, {}, [])
        assert fed.engine.plan(fed.mirror("edge-1"))[2] == [patch]
        reports = fed.sync_all()
        assert [r.blobs_fetched for r in reports.values()] == [0, 1, 0]
        assert fed.mirror("edge-1").registry.blobs.intact(patch) is not None
        for name in ("edge-0", "edge-2"):
            assert fed.mirror(name).registry.blobs.try_get(patch) is shared
        assert all(fed.converged(m) for m in fed.mirrors.values())


def _fleet(mirrors: int, **options):
    """*mirrors* mirrors, synced with one app image; and its base layer.
    *options* go to the :class:`FederatedRegistry`."""
    fed = FederatedRegistry(**options)
    for m in range(mirrors):
        fed.add_mirror(f"edge-{m}")
    base = _layer("/base/app", b"app" * 8)
    fed.push("lab/app:0", *_image(base, "app-0"))
    fed.sync_all()
    return fed, base


class TestArtifactCacheStoredForAnotherRepository:
    """An origin artifact cache whose blob a mirror already stores intact
    (the same bytes published for another repository) is not fetched: the
    sync promotes it from the mirror's stored copy."""

    @staticmethod
    def _publish_like(fed, repo, like):
        blob = fed.origin.get_artifact_cache(like)
        fed.put_artifact_cache(repo, Blob.from_bytes(blob.as_bytes(), blob.media_type))
        return blob.digest

    def test_the_same_cache_bytes_for_another_repository(self):
        fed, mirror = _federation()
        digest = self._publish_like(fed, "lab/gamma", like="lab/alpha")
        assert _assert_plan_matches(fed, mirror) == (
            {}, {"lab/gamma": digest}, [])
        report = fed.sync_mirror("edge-0")
        assert (report.artifact_caches_synced, report.blobs_fetched,
                report.bytes_on_wire) == (1, 0, 0)
        assert mirror.registry.get_artifact_cache("lab/gamma").digest == digest
        assert fed.converged(mirror) and mirror.registry.audit() == []
        assert fed.engine.plan(mirror) == ({}, {}, [])

    def test_a_cache_that_moves_off_the_bytes_another_repository_takes(self):
        # Promoting lab/alpha's new cache first drops the old bytes from
        # the mirror's store (no repository there holds them any more);
        # lab/gamma is promoted from the copy taken before that.
        fed, mirror = _federation()
        digest = self._publish_like(fed, "lab/gamma", like="lab/alpha")
        fed.put_artifact_cache("lab/alpha", Blob.from_bytes(
            b'{"cache": "alpha-2"}', "application/json"))
        _, caches, wanted = _assert_plan_matches(fed, mirror)
        assert caches["lab/gamma"] == digest
        assert wanted == [caches["lab/alpha"]]
        report = fed.sync_mirror("edge-0")
        assert report.artifact_caches_synced == 2
        assert mirror.registry.blobs.intact(digest) is not None
        assert fed.converged(mirror) and mirror.registry.audit() == []
        assert fed.engine.plan(mirror) == ({}, {}, [])
