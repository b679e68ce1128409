"""Chaos suite for the corruption fault family.

The invariant under every seeded corruption, regardless of where it
lands: the pipeline **never emits a wrong-digest image**.  Either the
corrupt blob is repaired (and the adapted image is digest-identical to a
corruption-free run) or the session degrades/fails with a typed
``IntegrityError`` on record — silent wrongness is the one outcome the
verified-read layer rules out.
"""

import dataclasses
import json

import pytest

from repro.apps import get_app
from repro.containers import ContainerEngine
from repro.core.cache.storage import decode_rebuild, extended_tag, rebuilt_tag
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import install_system_side_images, sysenv_ref
from repro.core.workflow import ComtainerSession, build_extended_image, run_workload
from repro.integrity import IntegrityError, find_integrity_error
from repro.integrity.fsck import fsck_layout
from repro.oci import mediatypes
from repro.oci.layer import Layer
from repro.oci.registry import ImageRegistry
from repro.perf.runtime import attach_perf
from repro.resilience import (
    RUNG_FULL,
    RUNG_ORDER,
    CorruptionSpec,
    FaultInjector,
    FaultSpec,
    PersistentFault,
    RebuildJournal,
    ResiliencePolicy,
    adapt_with_resilience,
    has_journal,
    install_resilience,
    resilient_transfer,
    uninstall_resilience,
)
from repro.sysmodel import X86_CLUSTER

pytestmark = pytest.mark.chaos

CORRUPTION_SEEDS = list(range(10))


@pytest.fixture(scope="module")
def extended():
    engine = ContainerEngine(arch="amd64")
    return build_extended_image(engine, get_app("hpccg"))


@pytest.fixture(scope="module")
def system_engine():
    engine = ContainerEngine(arch="amd64")
    install_system_side_images(engine, X86_CLUSTER)
    recorder = attach_perf(engine, X86_CLUSTER)
    return engine, recorder


@pytest.fixture(scope="module")
def baseline_layer_key():
    """Layer digests of a corruption-free adapted image (the identity the
    repaired runs must reproduce exactly)."""
    session = ComtainerSession(system=X86_CLUSTER)
    ref = session.adapt("hpccg")
    return session.system_engine.image(ref).layer_key()


def _cache_layer_digest(layout, dist_tag):
    """Digest of the coMtainer cache layer (top layer of the +coM image)."""
    resolved = layout.resolve(extended_tag(dist_tag))
    return resolved.manifest.layers[-1].digest


def _corrupt_layer_blob(layout, digest):
    """Tamper a Layer-payload blob at rest, keeping its declared identity."""
    blob = layout.blobs.try_get(digest)
    assert blob is not None
    original = blob.payload
    tampered = Layer(entries=list(original.entries)[:-1],
                     comment=original.comment)
    layout.blobs.put(dataclasses.replace(blob, payload=tampered))


class TestAcceptance:
    """The issue's acceptance scenario, both branches."""

    def test_session_repairs_cache_corruption_digest_identical(
        self, baseline_layer_key
    ):
        session = ComtainerSession(
            system=X86_CLUSTER,
            resilience=ResiliencePolicy.permissive(seed=3),
        )
        layout, dist_tag = session.extended_layout("hpccg")
        _corrupt_layer_blob(layout, _cache_layer_digest(layout, dist_tag))

        ref = session.adapt("hpccg")
        report = session.resilience_reports[-1]
        # The corruption was detected (typed, on record) and repaired from
        # the registry replica, so the run recovered the *full* rung...
        assert report.integrity_errors
        assert report.repaired_digests
        assert report.rung == RUNG_FULL
        # ...and the adapted image is digest-identical to a clean run.
        assert session.system_engine.image(ref).layer_key() == baseline_layer_key
        # The repaired layout holds no corrupt or quarantined state.
        assert layout.audit() == []
        assert fsck_layout(layout).exit_code == 0

    def test_degrades_with_error_on_record_when_unrepairable(
        self, extended, system_engine
    ):
        layout, dist_tag = extended
        engine, recorder = system_engine
        registry = ImageRegistry()
        ctx = install_resilience(
            ResiliencePolicy.permissive(seed=11), registry=registry,
            engines=[engine],
        )
        try:
            remote = resilient_transfer(
                registry, layout, "repro/hpccg",
                (dist_tag, extended_tag(dist_tag)), ctx,
            )
            _corrupt_layer_blob(remote, _cache_layer_digest(remote, dist_tag))
            # No repair engine: the corruption cannot be healed, so the
            # ladder must descend — with the IntegrityError on record.
            report = adapt_with_resilience(
                engine, remote, X86_CLUSTER, ctx, recorder=recorder,
                ref="unrepairable:adapted", repair=None,
            )
            assert report.rung in RUNG_ORDER and report.rung != RUNG_FULL
            assert report.integrity_errors
            assert report.ref is not None
            # The degraded image is still runnable (generic binaries)...
            result = run_workload(engine, report.ref, "hpccg", recorder,
                                  vendor_mpirun=True)
            assert result.seconds > 0
            # ...and the corruption is still loudly visible to fsck.
            assert fsck_layout(remote).exit_code == 1
        finally:
            uninstall_resilience(registry=registry, engines=[engine])


class TestTransferCorruptionSweep:
    """Seeded corruption during distribution: repaired from the push
    source, or failed with a typed error — never silently wrong."""

    def _transfer_run(self, extended, system_engine, seed, corruption_rate):
        layout, dist_tag = extended
        engine, recorder = system_engine
        registry = ImageRegistry()
        injector = FaultInjector(seed=seed, rate=0.1,
                                 corruption_rate=corruption_rate)
        ctx = install_resilience(
            ResiliencePolicy.permissive(seed=seed, injector=injector),
            registry=registry, engines=[engine],
        )
        try:
            remote = resilient_transfer(
                registry, layout, "repro/hpccg",
                (dist_tag, extended_tag(dist_tag)), ctx,
            )
            # Everything the transfer handed over is verified content.
            assert remote.audit() == []
            report = adapt_with_resilience(
                engine, remote, X86_CLUSTER, ctx, recorder=recorder,
                ref=f"corrupt{seed}:adapted",
            )
            assert report.rung in RUNG_ORDER
            assert report.ref is not None
            injector.enabled = False
            result = run_workload(engine, report.ref, "hpccg", recorder,
                                  vendor_mpirun=True)
            assert result.seconds > 0
            return injector, True
        except Exception as exc:
            # A failed run must fail *typed*: the corruption was detected,
            # not served.
            assert find_integrity_error(exc) is not None, exc
            return injector, False
        finally:
            uninstall_resilience(registry=registry, engines=[engine])

    @pytest.mark.parametrize("seed", CORRUPTION_SEEDS)
    def test_seeded_transfer_corruption(self, extended, system_engine, seed):
        self._transfer_run(extended, system_engine, seed, corruption_rate=0.2)

    def test_sweep_actually_corrupts_and_mostly_recovers(
        self, extended, system_engine
    ):
        corrupted = 0
        completed = 0
        for seed in CORRUPTION_SEEDS:
            injector, ok = self._transfer_run(
                extended, system_engine, seed, corruption_rate=0.2)
            corrupted += sum(
                1 for r in injector.log if r.kind.startswith("corrupt-"))
            completed += int(ok)
        # Guard against a silently disarmed injector, and require the
        # push-source repair path to actually absorb most of the damage.
        assert corrupted > 0
        assert completed >= len(CORRUPTION_SEEDS) // 2


class TestJournalCorruption:
    def _fresh_layout(self, extended):
        layout, dist_tag = extended
        from repro.oci.layout import OCILayout

        fresh = OCILayout()
        for tag in (dist_tag, extended_tag(dist_tag)):
            resolved = layout.resolve(tag)
            fresh.add_manifest(resolved.manifest, resolved.config,
                               resolved.layers, tag=tag)
        return fresh, dist_tag

    @pytest.mark.parametrize("mode", ["torn", "bitflip"])
    def test_corrupted_journal_resume_recompiles_not_crashes(
        self, extended, system_engine, mode
    ):
        """Every ``--journal`` flush during run 1 lands corrupted; run 2
        must salvage what parses, recompile the rest, and finish clean."""
        engine, _recorder = system_engine
        layout, dist_tag = self._fresh_layout(extended)
        from repro.core.cache.storage import decode_cache

        models, _sources, _resolved = decode_cache(layout, dist_tag)
        step_nodes = [n for n in models.graph.topo_order() if n.step is not None]
        victim = step_nodes[-1]

        engine.fault_injector = FaultInjector(
            specs=[FaultSpec(site="rebuild.node", kind="persistent",
                             match=victim.id)]
        )
        layout.blobs.fault_injector = FaultInjector(
            corruptions=[CorruptionSpec(site="journal.append", mode=mode,
                                        times=-1)]
        )
        name1 = f"journal-corrupt-{mode}-run1"
        ctr1 = engine.from_image(sysenv_ref("x86"), name=name1,
                                 mounts={IO_MOUNT: layout})
        try:
            with pytest.raises(PersistentFault):
                engine.run(ctr1, ["coMtainer-rebuild", "--journal"])
        finally:
            engine.fault_injector = None
            layout.blobs.fault_injector = None
            engine.remove_container(name1)

        # The blob store stayed self-consistent (the journal digest covers
        # whatever bytes actually landed)...
        assert layout.audit() == []
        # ...and the salvage sees a strict subset of the checkpoints.
        assert has_journal(layout, dist_tag)
        journal = RebuildJournal(layout, dist_tag)
        salvaged = set(journal.node_ids())
        assert victim.id not in salvaged

        name2 = f"journal-corrupt-{mode}-run2"
        ctr2 = engine.from_image(sysenv_ref("x86"), name=name2,
                                 mounts={IO_MOUNT: layout})
        try:
            engine.run(ctr2, ["coMtainer-rebuild", "--journal"]).check()
        finally:
            engine.remove_container(name2)

        meta = decode_rebuild(layout, dist_tag)[0]
        # Nothing was trusted blindly: only salvaged checkpoints may be
        # restored (a damaged sibling forces its whole command group to
        # recompile, so restore can be a strict subset), and every node
        # run 1 completed but the salvage dropped was re-executed.
        restored = set(meta["journal_restored"])
        executed = set(meta["executed_nodes"])
        completed = {n.id for n in step_nodes} - {victim.id}
        assert restored <= salvaged
        assert victim.id in executed
        assert not (executed & restored)
        assert (completed - salvaged) <= executed
        assert not has_journal(layout, dist_tag)
        assert layout.audit() == []

    def _rebuild(self, engine, layout, name):
        ctr = engine.from_image(sysenv_ref("x86"), name=name,
                                mounts={IO_MOUNT: layout})
        try:
            return engine.run(ctr, ["coMtainer-rebuild", "--journal"])
        finally:
            engine.remove_container(name)

    def test_flipped_mode_bit_is_recompiled_not_restored(
        self, extended, system_engine
    ):
        """A one-bit flip in a checkpointed entry's ``mode`` (420 -> 421)
        still parses and validates; only the line digest catches it.  The
        resume must recompile that entry, and ``+coMre`` must come out
        digest-identical to a fault-free ``--journal`` run."""
        engine, _recorder = system_engine
        clean, dist_tag = self._fresh_layout(extended)
        self._rebuild(engine, clean, "journal-flip-clean").check()
        fault_free = clean.manifest_descriptor(rebuilt_tag(dist_tag)).digest

        layout, _ = self._fresh_layout(extended)
        from repro.core.cache.storage import decode_cache

        models, _sources, _resolved = decode_cache(layout, dist_tag)
        victim = [n for n in models.graph.topo_order()
                  if n.step is not None][-1]
        engine.fault_injector = FaultInjector(
            specs=[FaultSpec(site="rebuild.node", kind="persistent",
                             match=victim.id)]
        )
        try:
            with pytest.raises(PersistentFault):
                self._rebuild(engine, layout, "journal-flip-run1")
        finally:
            engine.fault_injector = None

        # Flip the low bit of the first "mode" value, at rest.
        desc = layout.side_blob(mediatypes.ANNOTATION_COMTAINER_JOURNAL,
                                dist_tag)
        blob = layout.blobs.try_get(desc.digest)
        data = bytearray(blob.as_bytes())
        end = data.index(b'"mode": ') + len(b'"mode": ')
        while data[end:end + 1].isdigit():
            end += 1
        data[end - 1] ^= 1
        line = bytes(data[data.rindex(b"\n", 0, end) + 1:data.index(b"\n", end)])
        flipped = json.loads(line)["node"]
        layout.blobs.put(dataclasses.replace(blob, payload=bytes(data)))
        journal = RebuildJournal(layout, dist_tag)
        assert flipped not in journal.node_ids()
        assert journal.torn_entries_dropped == 1

        self._rebuild(engine, layout, "journal-flip-run2").check()
        meta = decode_rebuild(layout, dist_tag)[0]
        assert flipped in meta["executed_nodes"]
        assert flipped not in meta["journal_restored"]
        assert layout.manifest_descriptor(
            rebuilt_tag(dist_tag)).digest == fault_free
