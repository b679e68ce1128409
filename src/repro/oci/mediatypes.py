"""OCI media type constants.

The simulated layer type replaces ``…image.layer.v1.tar`` — the payload is a
canonical JSON entry list rather than a tar stream — but it occupies the same
structural position in manifests, so everything downstream (index, manifest,
config relationships) matches the OCI image-spec.
"""

IMAGE_INDEX = "application/vnd.oci.image.index.v1+json"
IMAGE_MANIFEST = "application/vnd.oci.image.manifest.v1+json"
IMAGE_CONFIG = "application/vnd.oci.image.config.v1+json"
IMAGE_LAYER_TAR = "application/vnd.oci.image.layer.v1.tar"
SIM_LAYER = "application/vnd.repro.sim-layer.v1+json"
#: Checkpoint journal of an interrupted ``coMtainer-rebuild`` (persisted
#: alongside the cache layer in the layout's blob store; never pushed as
#: a taggable image).
REBUILD_JOURNAL = "application/vnd.comtainer.rebuild-journal.v1+json"
#: Rebuild artifact cache: command-group outputs keyed by plan fingerprint
#: (transformed-command digest folded over transitive input contents),
#: shareable across rebuilds (PGO instrument→use, repeated adapts, other
#: cluster nodes).
REBUILD_ARTIFACTS = "application/vnd.comtainer.rebuild-artifacts.v1+json"

# Annotation keys (OCI standard + coMtainer extensions).
ANNOTATION_REF_NAME = "org.opencontainers.image.ref.name"
ANNOTATION_CREATED = "org.opencontainers.image.created"
ANNOTATION_COMTAINER_KIND = "io.comtainer.kind"
ANNOTATION_COMTAINER_BASE = "io.comtainer.base-manifest"
ANNOTATION_COMTAINER_JOURNAL = "io.comtainer.journal"
ANNOTATION_COMTAINER_ARTIFACTS = "io.comtainer.artifact-cache"
ANNOTATION_COMTAINER_RUNG = "io.comtainer.resilience-rung"

# Tag suffixes used by the paper's workflow (Artifact Description B.2):
# after coMtainer-build a ``+coM`` manifest appears in index.json, after
# coMtainer-rebuild a ``+coMre`` manifest appears.
TAG_SUFFIX_EXTENDED = "+coM"
TAG_SUFFIX_REBUILT = "+coMre"
