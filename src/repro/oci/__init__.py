"""OCI image substrate.

Implements the Open Container Initiative image data model that the
coMtainer workflow manipulates: content-addressed blobs, ordered layers
with whiteout semantics, image configs and manifests, OCI layout
directories with an ``index.json``, and a small name:tag registry.

Layers are *simulated tarballs*: an ordered list of typed entries whose
digest is computed over a canonical JSON serialization (stable and cheap
even for multi-hundred-MiB synthetic payloads).  ``Layer.to_tar_bytes``
can materialize a real tar archive for layers whose contents are inline.

Each integrity rule that layouts, registries, mirror sync, repair and
fsck rely on is written once, here: the intact stored copy, a manifest's
closure, the referenced set and the store audit in ``blobs``; resolving
a manifest, the ``checksums.json`` reader and the replica-divergence
report in ``layout``.
"""

from repro.oci.apply import apply_layer, flatten_layers
from repro.oci.blobs import Blob, BlobStore
from repro.oci.diff import diff_filesystems
from repro.oci.digest import digest_bytes, digest_json, is_valid_digest
from repro.oci.image import Descriptor, ImageConfig, Manifest
from repro.oci.layer import Layer, LayerEntry
from repro.oci.layout import OCILayout, ResolvedImage
from repro.oci.registry import ImageRegistry

from repro.oci import mediatypes

__all__ = [
    "Blob",
    "BlobStore",
    "Descriptor",
    "ImageConfig",
    "ImageRegistry",
    "Layer",
    "LayerEntry",
    "Manifest",
    "OCILayout",
    "ResolvedImage",
    "apply_layer",
    "diff_filesystems",
    "digest_bytes",
    "digest_json",
    "flatten_layers",
    "is_valid_digest",
    "mediatypes",
]
