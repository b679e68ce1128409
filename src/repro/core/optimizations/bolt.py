"""Post-link binary layout optimization (a BOLT-style pass).

The paper's motivation notes that "many other advanced optimizations
(like binary-level layout optimization [BOLT, OCOLOS]) are not included
here, suggesting greater space for potential performance gains" (§3),
and the conclusion leaves further optimizations as future work.  This
extension adds such a pass on top of the coMtainer pipeline: it consumes
the same on-system profile data the PGO loop gathers and rewrites the
*linked binary* (no recompilation), reordering hot code.

Model: layout optimization exploits the same hot-spot locality PGO does,
so its potential is a fraction of the workload's PGO response; applying
it to an already-PGO-optimized binary yields roughly half the remaining
benefit (the compiler has already placed hot code sensibly).
"""

from __future__ import annotations

from typing import Optional

from repro.perf.provenance import profile_id
from repro.toolchain.artifacts import (
    ExecutableArtifact,
    artifact_content,
    read_artifact,
)

# The perf model owns the authoritative constants.
from repro.perf.model import LAYOUT_FRACTION, LAYOUT_POST_PGO_RESIDUAL  # noqa: F401


class BoltError(Exception):
    pass


def bolt_binary(
    artifact: ExecutableArtifact, profile: str
) -> ExecutableArtifact:
    """Rewrite an executable with an optimized code layout.

    Pure artifact transformation: provenance gains ``layout_optimized``
    and the profile identity; code size grows slightly (hot/cold
    splitting duplicates landing pads).
    """
    if artifact.kind != "executable":
        raise BoltError("layout optimization applies to executables only")
    rewritten = ExecutableArtifact(**{
        k: v for k, v in artifact.to_json().items() if k != "kind"
    })
    rewritten.layout_optimized = True
    rewritten.layout_profile = profile
    rewritten.code_size = int(artifact.code_size * 1.02)
    return rewritten


def bolt_optimize_image(
    engine,
    image_ref: str,
    workload_name: str,
    system,
    binary_path: str,
    ref: Optional[str] = None,
) -> str:
    """Apply the layout pass to an image's application binary.

    Profile data is the system-gathered profile of (workload, system) —
    in a full deployment this would come from `perf record` sampling of a
    production run, which needs no instrumented binary.
    """
    container = engine.from_image(image_ref, name="bolt-opt")
    try:
        artifact = read_artifact(container.fs.read_content(binary_path))
        if not isinstance(artifact, ExecutableArtifact):
            raise BoltError(f"{binary_path} is not an executable")
        profile = profile_id(workload_name, system.key)
        rewritten = bolt_binary(artifact, profile)
        container.fs.write_file(
            binary_path, artifact_content(rewritten), mode=0o755
        )
        target = ref or f"{image_ref}.bolt"
        engine.commit(container, ref=target,
                      comment=f"BOLT-style layout optimization ({workload_name})")
        return target
    finally:
        engine.remove_container(container.name)
