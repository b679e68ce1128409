"""Unit tests for the resilience subsystem building blocks.

Deterministic retry backoff, bounded fault bursts, the typed registry
error hierarchy, CacheError diagnostics, and journal persistence
(including layout save/load round trips and audit cleanliness).
"""

import random

import pytest

from repro.core.cache.storage import CacheError, decode_cache, find_dist_tag
from repro.oci.layout import OCILayout
from repro.oci.registry import (
    ImageNotFound,
    ImageRegistry,
    RegistryError,
    TransientTransferError,
)
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    PersistentFault,
    RebuildJournal,
    RetryPolicy,
    RetryStats,
    SimulatedClock,
    TransientFault,
    has_journal,
    is_transient,
    retry_call,
)
from repro.vfs import InlineContent


class TestRetry:
    def test_transient_retried_then_succeeds(self):
        clock = SimulatedClock()
        stats = RetryStats()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientFault("blob.read", "sha256:x")
            return "ok"

        result = retry_call(
            flaky, policy=RetryPolicy(), clock=clock, stats=stats, site="t"
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert stats.retries == {"t": 2}
        assert clock.now > 0.0           # backoff charged to simulated time
        assert clock.now == stats.spend["t"]   # both backoffs were charged

    def test_fatal_error_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("real bug")

        with pytest.raises(ValueError):
            retry_call(broken, policy=RetryPolicy(), clock=SimulatedClock())
        assert len(calls) == 1

    def test_attempt_exhaustion_raises_last_transient(self):
        stats = RetryStats()

        def always():
            raise TransientFault("registry.pull", "r")

        with pytest.raises(TransientFault):
            retry_call(
                always, policy=RetryPolicy(max_attempts=3),
                clock=SimulatedClock(), stats=stats, site="x",
            )
        assert stats.exhausted == ["x"]
        assert stats.retries == {"x": 2}

    def test_budget_exhaustion_stops_early(self):
        clock = SimulatedClock()

        def always():
            raise TransientFault("registry.pull", "r")

        with pytest.raises(TransientFault):
            retry_call(
                always,
                policy=RetryPolicy(max_attempts=50, base_delay=10.0,
                                   max_delay=10.0, jitter=0.0,
                                   budget_seconds=25.0),
                clock=clock,
            )
        assert clock.now <= 25.0

    def test_backoff_deterministic_for_same_rng_seed(self):
        delays_a = [
            RetryPolicy().delay_for(i, random.Random("s")) for i in range(4)
        ]
        delays_b = [
            RetryPolicy().delay_for(i, random.Random("s")) for i in range(4)
        ]
        assert delays_a == delays_b
        # Exponential shape survives jitter (jitter is +/-25%).
        assert delays_a[2] > delays_a[0]

    def test_is_transient_is_typed_not_string_matched(self):
        assert is_transient(TransientFault("s", "k"))
        assert is_transient(TransientTransferError("transient push hiccup"))
        assert not is_transient(PersistentFault("s", "k"))
        assert not is_transient(RuntimeError("transient"))  # word means nothing


class TestFaultInjector:
    def test_deterministic_replay(self):
        def sweep(seed):
            inj = FaultInjector(seed=seed, rate=0.5)
            outcomes = []
            for i in range(50):
                try:
                    inj.arm("blob.read", f"sha256:{i % 7}")
                    outcomes.append("ok")
                except TransientFault:
                    outcomes.append("fault")
            return outcomes

        assert sweep(3) == sweep(3)
        assert sweep(3) != sweep(4)

    def test_transient_bursts_are_bounded(self):
        inj = FaultInjector(seed=1, rate=1.0, sites={"blob.read"}, max_burst=2)
        consecutive = 0
        for _ in range(10):
            try:
                inj.arm("blob.read", "sha256:abc")
                break
            except TransientFault:
                consecutive += 1
        assert 1 <= consecutive <= 2
        inj.arm("blob.read", "sha256:abc")   # immune from now on

    def test_transfer_sites_never_persistent(self):
        inj = FaultInjector(seed=0, rate=1.0, persistent_rate=1.0)
        kinds = set()
        for i in range(40):
            try:
                inj.arm("registry.push", f"ref{i}")
            except TransientFault:
                kinds.add("transient")
            except PersistentFault:
                kinds.add("persistent")
        assert kinds == {"transient"}

    def test_exec_sites_can_go_persistent_and_stay(self):
        inj = FaultInjector(seed=0, rate=1.0, persistent_rate=1.0,
                            sites={"rebuild.node"})
        with pytest.raises(PersistentFault):
            inj.arm("rebuild.node", "n1")
        with pytest.raises(PersistentFault):
            inj.arm("rebuild.node", "n1")   # forever

    def test_scripted_spec_targets_one_key(self):
        inj = FaultInjector(
            specs=[FaultSpec(site="rebuild.node", kind="persistent", match="n7")]
        )
        inj.arm("rebuild.node", "n1")
        with pytest.raises(PersistentFault):
            inj.arm("rebuild.node", "n7")

    def test_disabled_injector_never_fires(self):
        inj = FaultInjector(seed=0, rate=1.0)
        inj.enabled = False
        for i in range(20):
            inj.arm("blob.read", f"k{i}")
        assert inj.fired() == []


class TestRegistryErrors:
    def test_pull_missing_raises_typed_error(self):
        registry = ImageRegistry()
        with pytest.raises(ImageNotFound) as excinfo:
            registry.pull("repro/nothing:latest")
        # The hierarchy: usable as RegistryError AND as legacy KeyError.
        assert isinstance(excinfo.value, RegistryError)
        assert isinstance(excinfo.value, KeyError)
        assert "repro/nothing:latest" in str(excinfo.value)

    def test_transient_transfer_error_is_transient(self):
        assert TransientTransferError.transient is True
        assert not getattr(ImageNotFound("x"), "transient", False)


class TestCacheErrorDiagnostics:
    def test_find_dist_tag_carries_stage(self):
        with pytest.raises(CacheError) as excinfo:
            find_dist_tag(OCILayout())
        assert excinfo.value.stage == "find-dist-tag"

    def test_decode_cache_carries_stage_and_tag(self):
        layout = OCILayout()
        manifest, config, layer = _tiny_image("/bin/app", b"x")
        layout.add_manifest(manifest, config, [layer], tag="app.dist")
        with pytest.raises(CacheError) as excinfo:
            decode_cache(layout, "app.dist")
        assert excinfo.value.stage == "decode-cache"
        assert excinfo.value.tag == "app.dist+coM"


def _tiny_image(path: str, data: bytes):
    from repro.oci.blobs import Blob
    from repro.oci.image import ImageConfig, Manifest
    from repro.oci.layer import Layer, LayerEntry

    layer = Layer().add(LayerEntry.file(path, InlineContent(data)))
    config = ImageConfig(architecture="amd64", diff_ids=[layer.digest])
    manifest = Manifest(
        config=config.descriptor(), layers=[Blob.from_layer(layer).descriptor()]
    )
    return manifest, config, layer


def _journal_layout():
    layout = OCILayout()
    manifest, config, layer = _tiny_image("/app/x", b"bin")
    layout.add_manifest(manifest, config, [layer], tag="app.dist")
    return layout


class TestRebuildJournal:
    def test_record_flush_reload_roundtrip(self):
        layout = _journal_layout()
        journal = RebuildJournal(layout, "app.dist")
        journal.record("n1", "digest-a", "/src/main.o", InlineContent(b"obj"), 0o755)
        journal.flush()
        assert has_journal(layout, "app.dist")

        reloaded = RebuildJournal(layout, "app.dist")
        assert reloaded.node_ids() == ["n1"]
        assert reloaded.digest_of("n1") == "digest-a"
        content, mode = reloaded.output_for("n1")
        assert content.read() == b"obj"
        assert mode == 0o755

    def test_journal_invisible_to_tags_and_dist_lookup(self):
        layout = _journal_layout()
        journal = RebuildJournal(layout, "app.dist")
        journal.record("n1", "d", "/a", InlineContent(b"x"), 0o644)
        journal.flush()
        assert layout.tags() == ["app.dist"]
        assert find_dist_tag(layout) == "app.dist"

    def test_journal_survives_save_load(self, tmp_path):
        layout = _journal_layout()
        journal = RebuildJournal(layout, "app.dist")
        journal.record("n1", "d1", "/src/a.o", InlineContent(b"aa"), 0o644)
        journal.flush()
        layout.save(str(tmp_path / "oci"))

        loaded = OCILayout.load(str(tmp_path / "oci"))
        assert has_journal(loaded, "app.dist")
        reloaded = RebuildJournal(loaded, "app.dist")
        assert reloaded.digest_of("n1") == "d1"
        content, _mode = reloaded.output_for("n1")
        assert content.read() == b"aa"

    def test_flush_replaces_previous_blob_no_orphans(self):
        layout = _journal_layout()
        journal = RebuildJournal(layout, "app.dist")
        for i in range(5):
            journal.record(f"n{i}", f"d{i}", f"/o{i}", InlineContent(b"x"), 0o644)
            journal.flush()
        assert layout.audit() == []
        journal.clear()
        assert not has_journal(layout, "app.dist")
        assert layout.audit() == []

    def test_clear_when_absent_is_noop(self):
        layout = _journal_layout()
        RebuildJournal(layout, "app.dist").clear()
        assert layout.audit() == []


class TestLayoutInvariants:
    def test_gc_sweeps_replaced_tag_blobs(self):
        layout = _journal_layout()
        # Replace the tag with a different image: old blobs become orphans.
        manifest, config, layer = _tiny_image("/app/y", b"other")
        layout.add_manifest(manifest, config, [layer], tag="app.dist")
        assert any("orphaned" in p for p in layout.audit())
        removed = layout.gc()
        assert removed > 0
        assert layout.audit() == []
