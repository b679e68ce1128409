"""The cache layer and the +coM / +coMre manifests.

"The cache storage provides directory services to system adapters,
encodes their data into new layer tarballs, generates new config.json and
manifest.json files to mark the tarballs as new images so that the system
side can pull them as needed.  Thanks to the layered nature of OCI
images, the injection of additional data introduces no changes to the
original image." (§4.5)

Layout inside the cache layer::

    /.coMtainer/cache/models.json        # the process models
    /.coMtainer/cache/sources/<path>     # sources, at their build paths

and inside a rebuild layer::

    /.coMtainer/rebuild/meta.json        # replacement plan + options +
                                         # per-node plan fingerprints
    /.coMtainer/rebuild/files/<path>     # rebuilt artifacts, original paths
    /.coMtainer/rebuild/nodes/<path>     # every produced node's output,
                                         # enabling incremental re-rebuilds

Tag conventions follow the artifact description: after ``coMtainer-build``
the layout's index gains ``<tag>+coM``; after ``coMtainer-rebuild`` it
gains ``<tag>+coMre``.

Both system-side programs read these images on every adaptation, so each
layer stack is decoded once.  Every decode still resolves its tag (every
verified blob read, fault arm and :class:`~repro.integrity.IntegrityError`
stays where it is), then looks the resolved stack up by its layer-digest
tuple, the flatten memo's key: equal keys mean equal flattened trees, and
a decode is a pure function of the tree.  The memo keeps the parsed
:class:`ProcessModels` and sources of a ``+coM`` stack, and a
:class:`RebuiltStack` of a ``+coMre`` stack: the ``meta.json`` text,
files, modes and node files, and the two read keys.  It stores only
decodes that succeeded.  :func:`decode_cache`, :func:`decode_rebuild` and
:func:`decode_rebuild_plan` hand out private copies: a
:meth:`ProcessModels.clone`, a new dict of each map and a fresh parse of
the meta text.

A read key is what one program reads of a ``+coMre`` stack, so the
program's memo hits for every stack that agrees on it, whatever else its
``meta.json`` records of how the stack's rebuild ran.  The *plan key* is
what :func:`rebuild_plan` hands the next rebuild: each node output's path
and content digest, and ``node_fingerprints``.  The *redirect key* is
what ``coMtainer-redirect`` reads: each rebuilt file's path, content
digest and mode, and the ``adapter``, ``replacements`` and
``runtime_packages`` of ``meta.json``.  Both are computed once per
decoded stack.

The two programs need the resolved images, and their digests, before
they decide whether to copy or parse anything, so resolving
(:func:`resolve_extended`, :func:`resolve_rebuilt`) and the memo's decode
are exposed apart: :func:`decoded_cache`, :func:`rebuilt_stack` and
:func:`decoded_rebuild` hand out the memo's own entry, which the caller
only reads or copies, and :func:`rebuild_plan` copies.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.core.models.process import ProcessModels
from repro.memo import LruMemo
from repro.oci import mediatypes
from repro.oci.blobs import Blob
from repro.oci.image import ImageConfig, Manifest
from repro.oci.layer import Layer, LayerEntry
from repro.oci.layout import OCILayout, ResolvedImage
from repro.vfs import VirtualFilesystem
from repro.vfs import paths as vpath
from repro.vfs.content import FileContent, InlineContent

CACHE_ROOT = "/.coMtainer/cache"
REBUILD_ROOT = "/.coMtainer/rebuild"

SUFFIX_EXTENDED = mediatypes.TAG_SUFFIX_EXTENDED   # "+coM"
SUFFIX_REBUILT = mediatypes.TAG_SUFFIX_REBUILT     # "+coMre"


class CacheError(Exception):
    """A cache/rebuild layer could not be located or decoded.

    Carries the pipeline *stage* that failed and the *tag* involved, so
    callers (and the resilience report) can say precisely which artifact
    was unusable instead of parsing the message.
    """

    def __init__(
        self, message: str, stage: Optional[str] = None, tag: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.tag = tag


def extended_tag(tag: str) -> str:
    return tag + SUFFIX_EXTENDED


def rebuilt_tag(tag: str) -> str:
    return tag + SUFFIX_REBUILT


def find_dist_tag(layout: OCILayout) -> str:
    """The original application tag in a layout (no coMtainer suffix)."""
    for tag in layout.tags():
        if not tag.endswith((SUFFIX_EXTENDED, SUFFIX_REBUILT)):
            return tag
    raise CacheError(
        "no application image tag found in layout index", stage="find-dist-tag"
    )


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def encode_cache_layer(
    models: ProcessModels, sources: Dict[str, FileContent]
) -> Layer:
    """Serialize models + sources into the cache layer."""
    layer = Layer(comment="coMtainer cache layer")
    layer.add(LayerEntry.directory("/.coMtainer"))
    layer.add(LayerEntry.directory(CACHE_ROOT))
    models_bytes = json.dumps(models.to_json(), sort_keys=True).encode("utf-8")
    layer.add(LayerEntry.file(f"{CACHE_ROOT}/models.json", InlineContent(models_bytes)))
    layer.add(LayerEntry.directory(f"{CACHE_ROOT}/sources"))
    for path in sorted(sources):
        layer.add(
            LayerEntry.file(f"{CACHE_ROOT}/sources{vpath.normalize(path)}", sources[path])
        )
    return layer


def _stacked_manifest(
    base: ResolvedImage,
    extra_layer: Layer,
    kind: str,
    history_note: str,
) -> Tuple[Manifest, ImageConfig, List[Layer]]:
    """*base* plus *extra_layer*: a read-only manifest and config, each
    rendered once however often the image is stored."""
    config = base.config.clone()
    config.diff_ids.append(extra_layer.digest)
    config.add_history(history_note)
    config = config.frozen()
    layers = list(base.layers) + [extra_layer]
    manifest = Manifest(
        config=config.descriptor(),
        layers=[Blob.from_layer(layer).descriptor() for layer in layers],
        annotations={
            mediatypes.ANNOTATION_COMTAINER_KIND: kind,
            mediatypes.ANNOTATION_COMTAINER_BASE: base.manifest.digest,
        },
    ).frozen()
    return manifest, config, layers


def add_cache_manifest(
    layout: OCILayout, dist_tag: str, cache_layer: Layer
) -> str:
    """Append the extended-image manifest (``<tag>+coM``) to the layout."""
    base = layout.resolve(dist_tag)
    manifest, config, layers = _stacked_manifest(
        base, cache_layer, kind="extended", history_note="coMtainer-build cache layer"
    )
    tag = extended_tag(dist_tag)
    layout.add_manifest(manifest, config, layers, tag=tag)
    return tag


def rebuilt_image(
    layout: OCILayout, dist_tag: str, rebuild_layer: Layer
) -> Tuple[Manifest, ImageConfig, List[Layer]]:
    """The rebuilt image: the layout's extended image (resolved afresh)
    with *rebuild_layer* on top, as (manifest, config, layers)."""
    return _stacked_manifest(
        layout.resolve(extended_tag(dist_tag)), rebuild_layer,
        kind="rebuilt", history_note="coMtainer-rebuild layer",
    )


def add_rebuild_manifest(
    layout: OCILayout, dist_tag: str, rebuild_layer: Layer
) -> str:
    """Append the rebuilt-image manifest (``<tag>+coMre``) to the layout."""
    tag = rebuilt_tag(dist_tag)
    layout.add_manifest(*rebuilt_image(layout, dist_tag, rebuild_layer), tag=tag)
    return tag


def encode_rebuild_layer(
    meta: Dict[str, Any],
    files: Dict[str, FileContent],
    modes: Dict[str, int],
    node_files: Optional[Dict[str, FileContent]] = None,
) -> Layer:
    layer = Layer(comment="coMtainer rebuild layer")
    layer.add(LayerEntry.directory("/.coMtainer"))
    layer.add(LayerEntry.directory(REBUILD_ROOT))
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    layer.add(LayerEntry.file(f"{REBUILD_ROOT}/meta.json", InlineContent(meta_bytes)))
    layer.add(LayerEntry.directory(f"{REBUILD_ROOT}/files"))
    for path in sorted(files):
        layer.add(
            LayerEntry.file(
                f"{REBUILD_ROOT}/files{vpath.normalize(path)}",
                files[path],
                mode=modes.get(path, 0o644),
            )
        )
    if node_files:
        layer.add(LayerEntry.directory(f"{REBUILD_ROOT}/nodes"))
        for path in sorted(node_files):
            layer.add(
                LayerEntry.file(
                    f"{REBUILD_ROOT}/nodes{vpath.normalize(path)}",
                    node_files[path],
                )
            )
    return layer


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def _subtree_files(
    fs: VirtualFilesystem, root: str
) -> Tuple[Dict[str, FileContent], Dict[str, int]]:
    """Contents and modes of the regular files under *root*, by their
    path relative to it."""
    files: Dict[str, FileContent] = {}
    modes: Dict[str, int] = {}
    if fs.is_dir(root):
        for path, node in fs.iter_files(root):
            rel = "/" + vpath.relative_to(path, root)
            files[rel], modes[rel] = node.content, node.mode
    return files, modes


# Decoded layer stacks keyed on (part, layer-digest tuple); see the
# module docstring.
_DECODE_MEMO = LruMemo(64, name="decode")


def _stack_key(part: str, resolved: ResolvedImage) -> tuple:
    return part, tuple(layer.digest for layer in resolved.layers)


def resolve_extended(layout: OCILayout, dist_tag: str) -> ResolvedImage:
    """The extended (``+coM``) image, resolved through verified reads."""
    tag = extended_tag(dist_tag)
    if not layout.has_tag(tag):
        raise CacheError(f"layout has no extended image {tag!r}; "
                         "run coMtainer-build first",
                         stage="decode-cache", tag=tag)
    return layout.resolve(tag)


def resolve_rebuilt(layout: OCILayout, dist_tag: str) -> ResolvedImage:
    """The rebuilt (``+coMre``) image, resolved through verified reads."""
    tag = rebuilt_tag(dist_tag)
    if not layout.has_tag(tag):
        raise CacheError(f"layout has no rebuilt image {tag!r}; "
                         "run coMtainer-rebuild first",
                         stage="decode-rebuild", tag=tag)
    return layout.resolve(tag)


def decoded_cache(
    resolved: ResolvedImage, dist_tag: str
) -> Tuple[ProcessModels, Dict[str, FileContent]]:
    """The models and sources of the resolved extended image of
    *dist_tag*: the memo's own, which the caller never writes to
    (:func:`decode_cache` hands out copies)."""
    key = _stack_key(SUFFIX_EXTENDED, resolved)
    decoded = _DECODE_MEMO.get(key)
    if decoded is None:
        fs = resolved.filesystem()
        models_path = f"{CACHE_ROOT}/models.json"
        if not fs.exists(models_path):
            raise CacheError("extended image has no cache layer models.json",
                             stage="decode-cache", tag=extended_tag(dist_tag))
        models = ProcessModels.from_json(json.loads(fs.read_text(models_path)))
        decoded = models, _subtree_files(fs, f"{CACHE_ROOT}/sources")[0]
        _DECODE_MEMO.put(key, decoded)
    return decoded


def decode_cache(
    layout: OCILayout, dist_tag: str
) -> Tuple[ProcessModels, Dict[str, FileContent], ResolvedImage]:
    """Read models + sources from the extended image in a layout."""
    resolved = resolve_extended(layout, dist_tag)
    models, sources = decoded_cache(resolved, dist_tag)
    return models.clone(), dict(sources), resolved


class RebuiltStack(NamedTuple):
    """One decoded ``+coMre`` stack, the decode memo's own (copy before
    use).  The read keys (module docstring) are None for a ``meta.json``
    that is no JSON object, which neither program can read."""

    text: str
    files: Dict[str, FileContent]
    modes: Dict[str, int]
    node_files: Dict[str, FileContent]
    plan_key: Optional[tuple]
    redirect_key: Optional[tuple]


def _read_keys(
    text: str, files: Dict[str, FileContent], modes: Dict[str, int],
    node_files: Dict[str, FileContent],
) -> Tuple[Optional[tuple], Optional[tuple]]:
    """The plan key and the redirect key of one decoded stack; each meta
    value in them as its JSON text, which any parsed value has."""
    meta = json.loads(text)
    if not isinstance(meta, dict):
        return None, None
    plan_key = (
        tuple((path, content.digest) for path, content in node_files.items()),
        json.dumps(meta.get("node_fingerprints", {}), sort_keys=True),
    )
    redirect_key = (
        tuple((path, content.digest, modes[path]) for path, content in files.items()),
        json.dumps([meta.get("adapter", ""), meta.get("replacements", []),
                    meta.get("runtime_packages", [])], sort_keys=True),
    )
    return plan_key, redirect_key


def rebuilt_stack(resolved: ResolvedImage) -> Optional[RebuiltStack]:
    """The decode of a resolved rebuilt image, the memo's own (copy
    before use); None when the image has no ``meta.json``.  Only a stack
    whose ``meta.json`` parses is stored."""
    key = _stack_key(SUFFIX_REBUILT, resolved)
    decoded = _DECODE_MEMO.get(key)
    if decoded is None:
        fs = resolved.filesystem()
        meta_path = f"{REBUILD_ROOT}/meta.json"
        if not fs.exists(meta_path):
            return None
        text = fs.read_text(meta_path)
        files, modes = _subtree_files(fs, f"{REBUILD_ROOT}/files")
        node_files = _subtree_files(fs, f"{REBUILD_ROOT}/nodes")[0]
        decoded = RebuiltStack(text, files, modes, node_files,
                               *_read_keys(text, files, modes, node_files))
        _DECODE_MEMO.put(key, decoded)
    return decoded


def decoded_rebuild(resolved: ResolvedImage, dist_tag: str) -> RebuiltStack:
    """:func:`rebuilt_stack` of the resolved rebuilt image of
    *dist_tag*, which must have a ``meta.json``."""
    decoded = rebuilt_stack(resolved)
    if decoded is None:
        raise CacheError("rebuilt image has no rebuild meta.json",
                         stage="decode-rebuild", tag=rebuilt_tag(dist_tag))
    return decoded


def decode_rebuild(
    layout: OCILayout, dist_tag: str
) -> Tuple[Dict[str, Any], Dict[str, FileContent], Dict[str, int], ResolvedImage]:
    """Read rebuild meta + rebuilt files from the ``+coMre`` image."""
    resolved = resolve_rebuilt(layout, dist_tag)
    stack = decoded_rebuild(resolved, dist_tag)
    return json.loads(stack.text), dict(stack.files), dict(stack.modes), resolved


def rebuild_plan(
    stack: Optional[RebuiltStack],
) -> Tuple[Dict[str, FileContent], Dict[str, str]]:
    """Node outputs + plan fingerprints of a decoded rebuilt stack, as
    copies (empty maps for None); see :func:`decode_rebuild_plan`."""
    if stack is None:
        return {}, {}
    return (dict(stack.node_files),
            dict(json.loads(stack.text).get("node_fingerprints", {})))


def decode_rebuild_plan(
    layout: OCILayout, dist_tag: str
) -> Tuple[Dict[str, FileContent], Dict[str, str]]:
    """Node outputs + plan fingerprints of a previous rebuild.

    Enables incremental re-rebuilds: "the rebuilding and redirecting can
    be performed many times during the image's lifetime" (§4.1) — the
    fingerprints are what :mod:`repro.perf.incremental` diffs a new plan
    against, and every unchanged command group replays its previous
    outputs instead of executing.  Returns empty maps when no rebuilt
    image exists yet.
    """
    tag = rebuilt_tag(dist_tag)
    return rebuild_plan(rebuilt_stack(layout.resolve(tag))
                        if layout.has_tag(tag) else None)
