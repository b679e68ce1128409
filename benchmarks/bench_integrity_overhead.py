"""Integrity — happy-path overhead of verified reads.

Every ``BlobStore.get`` checks the stored object against its declared
digest (``check_blob``, whose verdict the object remembers, so each
object is hashed once) so corruption can never flow silently into a
rebuild.  That guarantee is only affordable if it costs (almost) nothing
when every blob is intact: this bench times a cold ``coMtainer-rebuild``
with verification disabled and enabled on the layout it reads
(``verify_reads``) and asserts the verified path stays within 5% of the
unverified baseline.  An fsck scan of the full layout is timed alongside
for reference.
"""

import time

from repro.apps import get_app
from repro.containers import ContainerEngine
from repro.core.cache.storage import decode_rebuild, extended_tag
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import install_system_side_images, sysenv_ref
from repro.core.workflow import build_extended_image
from repro.integrity.fsck import fsck_layout
from repro.oci.layout import OCILayout
from repro.perf import attach_perf
from repro.reporting import render_table
from repro.sysmodel import X86_CLUSTER

ROUNDS = 5


def _fresh_copy(layout, dist_tag):
    fresh = OCILayout()
    for tag in (dist_tag, extended_tag(dist_tag)):
        resolved = layout.resolve(tag)
        fresh.add_manifest(resolved.manifest, resolved.config, resolved.layers,
                           tag=tag)
    return fresh


def _timed_cold_rebuild(engine, layout, dist_tag, verify_reads=True):
    """Best-of-ROUNDS cold rebuild; returns (seconds, meta)."""
    best = None
    meta = None
    for _ in range(ROUNDS):
        fresh = _fresh_copy(layout, dist_tag)
        fresh.blobs.verify_reads = verify_reads
        ctr = engine.from_image(sysenv_ref("x86"), name="int-bench",
                                mounts={IO_MOUNT: fresh})
        try:
            t0 = time.perf_counter()
            engine.run(ctr, ["coMtainer-rebuild"]).check()
            elapsed = time.perf_counter() - t0
        finally:
            engine.remove_container("int-bench")
        if best is None or elapsed < best:
            best = elapsed
            meta = decode_rebuild(fresh, dist_tag)[0]
    return best, meta


def test_integrity_verified_read_overhead(benchmark, emit):
    user = ContainerEngine(arch="amd64")
    layout, dist_tag = build_extended_image(user, get_app("lammps"))
    engine = ContainerEngine(arch="amd64")
    attach_perf(engine, X86_CLUSTER)
    install_system_side_images(engine, X86_CLUSTER)

    # Unverified baseline: the rebuilt layout's store skips the read check.
    off, meta_off = _timed_cold_rebuild(engine, layout, dist_tag,
                                        verify_reads=False)
    on, meta_on = _timed_cold_rebuild(engine, layout, dist_tag)

    t0 = time.perf_counter()
    report = fsck_layout(_fresh_copy(layout, dist_tag))
    fsck_seconds = time.perf_counter() - t0
    assert report.clean

    overhead = on / off - 1.0
    rows = [
        ("verified reads off", f"{off:.4f}", "-",
         len(meta_off["executed_nodes"])),
        ("verified reads on", f"{on:.4f}", f"{overhead:+.1%}",
         len(meta_on["executed_nodes"])),
        ("fsck scan (full layout)", f"{fsck_seconds:.4f}", "-",
         report.scanned),
    ]
    emit("integrity_overhead",
         render_table(["configuration", "seconds (best of 5)", "overhead",
                       "executed / scanned"], rows))

    # Identical work either way...
    assert meta_off["executed_nodes"] == meta_on["executed_nodes"]
    # ...and the verified-read guarantee stays under the 5% budget.
    assert overhead < 0.05, (
        f"verified reads cost {overhead:.1%} on the happy path "
        f"(unverified {off:.4f}s vs verified {on:.4f}s)"
    )

    benchmark.pedantic(
        _timed_cold_rebuild,
        args=(engine, layout, dist_tag),
        rounds=1, iterations=1,
    )
