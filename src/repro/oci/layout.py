"""OCI layout: an ``index.json`` plus a blob store.

This is the unit the coMtainer workflow moves around: ``buildah push
xxx.dist oci:./xxx.dist.oci`` creates one, the user-side ``coMtainer-build``
adds a ``<tag>+coM`` manifest to its index, and the system-side
``coMtainer-rebuild`` adds ``<tag>+coMre``.  The layout can also be saved
to / loaded from a real directory for inspection.

On-disk persistence is crash-consistent: :meth:`OCILayout.save` stages
everything in a sibling temp directory with a per-file checksum manifest
(``checksums.json``) and atomically renames it into place, so readers
never observe a half-written layout.  :meth:`OCILayout.load` verifies
every file against that manifest (and every blob against its digest)
and raises a typed :class:`repro.integrity.IntegrityError` on mismatch.

Besides the blob-level rules of :mod:`repro.oci.blobs`, this module owns
three integrity rules that the registry, mirror sync and fsck share:
:func:`resolve_manifest` (resolve a manifest over any blob lookup; the
caller Merkle-checks with :meth:`ResolvedImage.check`),
:func:`read_checksums` with :func:`read_layout_file` (the one
``checksums.json`` reader and per-file check), and
:func:`replica_divergences` (the one replica-divergence report).  The
saved-layout readers are total: a file of the wrong shape is a typed
``IntegrityError``, never a ``KeyError`` or ``AttributeError``.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.integrity import (
    KIND_CHECKSUM_MISMATCH,
    KIND_DIGEST_MISMATCH,
    KIND_MISSING,
    KIND_UNPARSEABLE,
    IntegrityError,
    IntegrityFinding,
)
from repro.memo import LruMemo
from repro.oci import mediatypes
from repro.oci.apply import flatten_layers
from repro.oci.blobs import Blob, BlobStore, check_blob
from repro.oci.digest import digest_bytes
from repro.oci.image import Descriptor, ImageConfig, Manifest
from repro.oci.layer import Layer
from repro.vfs import VirtualFilesystem

#: File recording ``{relpath: sha256 digest}`` for every file a save wrote.
CHECKSUM_MANIFEST = "checksums.json"


@dataclass
class ResolvedImage:
    """A manifest resolved down to its config and layer objects.

    :func:`resolve_manifest` hands out read-only documents; a caller that
    wants to present other ones (a tampered copy, say) replaces them.
    """

    manifest: Manifest
    config: ImageConfig
    layers: List[Layer] = field(default_factory=list)
    #: The digest the manifest was read from (its verified blob's).
    digest: str = ""

    def filesystem(self) -> VirtualFilesystem:
        """Flatten the layer stack into the image's final filesystem state."""
        return flatten_layers(self.layers)

    @property
    def total_layer_size(self) -> int:
        return self.manifest.total_layer_size

    def verify(self) -> List[IntegrityFinding]:
        """Merkle-style walk: manifest -> config -> layers.

        Checks the resolved config's digest and every layer's against the
        digests the manifest declares, so one corrupt link anywhere in the
        tree surfaces as a typed finding.  A read-only config and a layer
        each hash their content once and keep the digest.
        """
        findings: List[IntegrityFinding] = []
        actual_config = self.config.digest
        if actual_config != self.manifest.config.digest:
            findings.append(
                IntegrityFinding(
                    digest=self.manifest.config.digest,
                    kind=KIND_DIGEST_MISMATCH,
                    detail=f"config hashes to {actual_config}",
                )
            )
        if len(self.layers) != len(self.manifest.layers):
            findings.append(
                IntegrityFinding(
                    digest=self.manifest.digest,
                    kind=KIND_MISSING,
                    detail=(
                        f"manifest declares {len(self.manifest.layers)} layers, "
                        f"resolved {len(self.layers)}"
                    ),
                )
            )
        for desc, layer in zip(self.manifest.layers, self.layers):
            if layer.digest != desc.digest:
                findings.append(
                    IntegrityFinding(
                        digest=desc.digest,
                        kind=KIND_DIGEST_MISMATCH,
                        detail=f"layer hashes to {layer.digest}",
                    )
                )
        return findings

    def check(self, site: str) -> "ResolvedImage":
        """Raise :class:`IntegrityError` (first finding) if the tree is bad."""
        findings = self.verify()
        if findings:
            raise IntegrityError(site=site, finding=findings[0])
        return self


class OCILayout:
    """An OCI image layout (``oci-layout`` + ``index.json`` + ``blobs/``)."""

    def __init__(self) -> None:
        self.blobs = BlobStore()
        self.index: List[Descriptor] = []

    # ------------------------------------------------------------------
    # index manipulation
    # ------------------------------------------------------------------

    def tags(self) -> List[str]:
        return [
            d.annotations[mediatypes.ANNOTATION_REF_NAME]
            for d in self.index
            if mediatypes.ANNOTATION_REF_NAME in d.annotations
        ]

    def add_manifest(
        self,
        manifest: Manifest,
        config: ImageConfig,
        layers: List[Layer],
        tag: Optional[str] = None,
        annotations: Optional[Dict[str, str]] = None,
    ) -> Descriptor:
        """Store all blobs of an image and register its manifest in the index."""
        self.blobs.put_bytes(config.to_bytes(), mediatypes.IMAGE_CONFIG)
        for layer in layers:
            self.blobs.put_layer(layer)
        self.blobs.put_bytes(manifest.to_bytes(), mediatypes.IMAGE_MANIFEST)
        anns = dict(annotations or {})
        if tag is not None:
            anns[mediatypes.ANNOTATION_REF_NAME] = tag
            # A re-pushed tag replaces its previous index entry.
            self.index = [
                d
                for d in self.index
                if d.annotations.get(mediatypes.ANNOTATION_REF_NAME) != tag
            ]
        desc = manifest.descriptor(annotations=anns)
        self.index.append(desc)
        return desc

    def manifest_descriptor(self, tag: str) -> Descriptor:
        for desc in self.index:
            if desc.annotations.get(mediatypes.ANNOTATION_REF_NAME) == tag:
                return desc
        raise KeyError(f"tag not found in layout index: {tag!r}")

    def has_tag(self, tag: str) -> bool:
        return any(
            d.annotations.get(mediatypes.ANNOTATION_REF_NAME) == tag for d in self.index
        )

    def side_blob(self, annotation: str, value: str) -> Optional[Descriptor]:
        """The index descriptor annotated ``annotation=value``, if any.

        Side blobs (the rebuild journal, the artifact cache) carry no ref
        name: invisible to tags and image pushes, yet they survive
        save/load and ``gc``.
        """
        for desc in self.index:
            if desc.annotations.get(annotation) == value:
                return desc
        return None

    def replace_side_blob(
        self, annotation: str, value: str,
        data: Optional[bytes] = None, media_type: str = "",
    ) -> None:
        """Drop the side blob annotated ``annotation=value`` and, given
        *data*, store it as the new one (one blob-store put)."""
        old = self.side_blob(annotation, value)
        if old is not None:
            self.index = [d for d in self.index if d is not old]
            if not any(d.digest == old.digest for d in self.index):
                self.blobs.remove(old.digest)
        if data is not None:
            desc = self.blobs.put_bytes(data, media_type)
            self.index.append(Descriptor(
                media_type=desc.media_type, digest=desc.digest,
                size=desc.size, annotations={annotation: value},
            ))

    def manifest_map(self) -> Dict[str, str]:
        """``tag -> manifest digest`` for every tagged index entry.

        Shares its shape with :meth:`ImageRegistry.manifest_map`, so the
        federation fsck can diff a saved layout against registry replicas
        (and layouts against each other) through one protocol.
        """
        return {
            d.annotations[mediatypes.ANNOTATION_REF_NAME]: d.digest
            for d in self.index
            if mediatypes.ANNOTATION_REF_NAME in d.annotations
        }

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve(self, tag: str) -> ResolvedImage:
        """Resolve *tag* through verified reads (no Merkle walk)."""
        return resolve_manifest(self.blobs.get, self.manifest_descriptor(tag).digest)

    # ------------------------------------------------------------------
    # garbage collection & invariants
    # ------------------------------------------------------------------

    def referenced_digests(self) -> set:
        """Every blob digest reachable from an index descriptor.

        Every descriptor is a root, side blobs included; only image
        manifests expand into their closure (:meth:`BlobStore.closure_of`).
        """
        return {d.digest for d in self.index} | self.blobs.closure_of(
            d.digest for d in self.index
            if d.media_type == mediatypes.IMAGE_MANIFEST)

    def gc(self) -> int:
        """Drop blobs unreachable from the index; returns the count removed.

        Replaced tags (a re-run ``coMtainer-rebuild`` overwriting
        ``+coMre``) and abandoned recovery attempts leave unreferenced
        blobs behind; the resilient pipeline sweeps them so a degraded
        session never strands partial state in the layout.
        """
        reachable = self.referenced_digests()
        orphans = [d for d in self.blobs.digests() if d not in reachable]
        for digest in orphans:
            self.blobs.remove(digest)
        return len(orphans)

    def audit(self) -> List[str]:
        """Layout invariants (:meth:`BlobStore.audit`): no corrupt,
        missing or orphaned blobs."""
        return self.blobs.audit(self.referenced_digests())

    # ------------------------------------------------------------------
    # persistence (inspection/debugging; blobs serialize as canonical JSON)
    # ------------------------------------------------------------------

    def index_json(self) -> dict:
        return {
            "schemaVersion": 2,
            "mediaType": mediatypes.IMAGE_INDEX,
            "manifests": [d.to_json() for d in self.index],
        }

    def save(self, directory: str) -> None:
        """Crash-consistent save: stage, checksum, atomic rename.

        All files (including a ``checksums.json`` manifest recording the
        sha256 of each file *as intended*) land in a sibling staging
        directory first; only a fully-written staging dir is renamed into
        place, with the previous layout kept aside until the swap
        completes.  Corruption faults armed at ``layout.save`` mutate the
        bytes after checksumming — exactly what a failing disk does — so
        :meth:`load` can detect them.
        """
        directory = os.path.normpath(directory)
        staged = directory + ".saving"
        backup = directory + ".replaced"
        inj = self.blobs.fault_injector
        corrupting = inj is not None and inj.corrupting("layout.save")
        files: Dict[str, bytes] = {
            "oci-layout": json.dumps({"imageLayoutVersion": "1.0.0"}).encode("utf-8"),
            "index.json": json.dumps(
                self.index_json(), indent=2, sort_keys=True
            ).encode("utf-8"),
        }
        for digest in self.blobs.digests():
            blob = self.blobs.get(digest)
            files[f"blobs/sha256/{digest.split(':', 1)[1]}"] = blob.as_bytes()
        manifest = {
            "version": 1,
            "files": {rel: digest_bytes(data) for rel, data in files.items()},
        }
        shutil.rmtree(staged, ignore_errors=True)
        shutil.rmtree(backup, ignore_errors=True)
        try:
            os.makedirs(os.path.join(staged, "blobs", "sha256"))
            for rel in sorted(files):
                data = files[rel]
                if corrupting:
                    data = inj.corrupt("layout.save", rel, data)
                with open(os.path.join(staged, *rel.split("/")), "wb") as fh:
                    fh.write(data)
            with open(
                os.path.join(staged, CHECKSUM_MANIFEST), "w", encoding="utf-8"
            ) as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
            if os.path.exists(directory):
                os.rename(directory, backup)
            os.rename(staged, directory)
        except BaseException:
            shutil.rmtree(staged, ignore_errors=True)
            if os.path.exists(backup) and not os.path.exists(directory):
                os.rename(backup, directory)
            raise
        shutil.rmtree(backup, ignore_errors=True)

    @staticmethod
    def load(directory: str, verify: bool = True) -> "OCILayout":
        """Load a saved layout, verifying content unless *verify* is False.

        With *verify* on (the default) every file is checked against the
        ``checksums.json`` manifest when one exists, and every blob is
        re-hashed against its filename digest; any mismatch raises a
        typed :class:`IntegrityError` naming the offending file.  With
        *verify* off, checksums are ignored and corrupt or unparseable
        blobs are loaded best-effort (or skipped) so ``fsck`` can inspect
        a damaged layout.  An ``index.json`` that is not
        ``{"manifests": [descriptor, ...]}`` raises in both modes.
        """
        checksums = read_checksums(directory) if verify else {}

        def read_file(relpath: str) -> bytes:
            data, finding = read_layout_file(directory, relpath, checksums.get(relpath))
            if finding is not None:
                raise IntegrityError(site="layout.load", finding=finding)
            return data

        layout = OCILayout()
        layout.index = _index_descriptors(read_file("index.json"))
        blob_dir = os.path.join(directory, "blobs", "sha256")
        if os.path.isdir(blob_dir):
            for name in sorted(os.listdir(blob_dir)):
                data = read_file(f"blobs/sha256/{name}")
                declared = "sha256:" + name
                try:
                    blob = Blob.decode(_sniff_media_type(data), declared, data)
                except Exception as exc:
                    if verify:
                        raise IntegrityError(
                            site="layout.load",
                            finding=IntegrityFinding(
                                digest=declared,
                                kind=KIND_UNPARSEABLE,
                                detail=f"layer blob unparseable: {exc}",
                            ),
                        ) from exc
                    continue
                if verify:
                    finding = check_blob(blob)
                    if finding is not None:
                        raise IntegrityError(site="layout.load", finding=finding)
                layout.blobs.put(blob)
        return layout


#: Parsed manifests and configs, keyed on (document class, stored bytes).
_DOCUMENTS = LruMemo(256, name="documents")


def parsed(kind, blob: Blob):
    """The read-only *kind* document (:class:`Manifest` or
    :class:`ImageConfig`) that *blob* holds, parsed once per distinct
    bytes.

    The parse is a pure function of the bytes and the document it gives
    cannot change, so every reader of equal bytes shares one.  It is kept
    in a bounded memo keyed on the bytes, not on the blob object: a
    mirror's stored copy of a document keeps no parse of its own.
    """
    data = blob.payload
    if not isinstance(data, bytes):
        return kind.from_json(blob.as_json()).frozen()
    key = (kind, data)
    document = _DOCUMENTS.get(key)
    if document is None:
        document = kind.from_json(blob.as_json()).frozen()
        _DOCUMENTS.put(key, document)
    return document


def resolve_manifest(lookup: Callable[[str], Blob], digest: str) -> ResolvedImage:
    """Resolve the manifest stored as *digest* through *lookup*, one call
    per blob: the manifest, its config, then each layer in order.

    The lookup decides how far each blob is trusted (a verified
    :meth:`BlobStore.get`, or staged bytes then stored ones); callers
    that need the Merkle walk follow with :meth:`ResolvedImage.check`.
    The manifest and config are read-only documents (:func:`parsed`):
    a caller that wants to change one changes a ``clone()``.
    """
    manifest = parsed(Manifest, lookup(digest))
    config = parsed(ImageConfig, lookup(manifest.config.digest))
    layers = [lookup(ld.digest).as_layer() for ld in manifest.layers]
    return ResolvedImage(manifest=manifest, config=config, layers=layers,
                         digest=digest)


def _is_str_map(obj) -> bool:
    return isinstance(obj, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in obj.items())


def _is_descriptor(obj) -> bool:
    """An OCI descriptor object: string ``mediaType`` and ``digest``, an
    integer ``size`` and, optionally, string-to-string ``annotations``."""
    return (isinstance(obj, dict)
            and isinstance(obj.get("mediaType"), str)
            and isinstance(obj.get("digest"), str)
            and type(obj.get("size")) is int
            and _is_str_map(obj.get("annotations", {})))


def _unparseable(relpath: str, detail: str) -> IntegrityError:
    return IntegrityError(site="layout.load", finding=IntegrityFinding(
        digest=relpath, kind=KIND_UNPARSEABLE, detail=detail))


def _index_descriptors(data: bytes) -> List[Descriptor]:
    """The descriptors of a saved ``index.json``; raises a typed
    :class:`IntegrityError` unless it is ``{"manifests": [descriptor, ...]}``."""
    try:
        index = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise _unparseable("index.json", str(exc)) from exc
    manifests = index.get("manifests") if isinstance(index, dict) else None
    if not isinstance(manifests, list) or not all(map(_is_descriptor, manifests)):
        raise _unparseable("index.json", 'not {"manifests": [descriptor, ...]}')
    return [Descriptor.from_json(d) for d in manifests]


def read_checksums(directory: str) -> Dict[str, str]:
    """The ``{relpath: sha256 digest}`` map a save recorded in the saved
    layout's ``checksums.json``; empty when the directory has none.

    Raises a typed :class:`IntegrityError` (``KIND_UNPARSEABLE``) when
    the file cannot be read or is not ``{"files": {path: digest}}``.
    """
    path = os.path.join(directory, CHECKSUM_MANIFEST)
    if not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise _unparseable(CHECKSUM_MANIFEST, str(exc)) from exc
    files = doc.get("files") if isinstance(doc, dict) else None
    if not _is_str_map(files):
        raise _unparseable(CHECKSUM_MANIFEST, 'not {"files": {path: digest}}')
    return files


def read_layout_file(
    directory: str, relpath: str, recorded: Optional[str]
) -> Tuple[bytes, Optional[IntegrityFinding]]:
    """One file of a saved layout, checked against its *recorded* digest.

    Returns the bytes and a ``KIND_CHECKSUM_MISMATCH`` finding when they
    do not hash to *recorded* (None: nothing recorded, nothing checked).
    A file that cannot be read raises :class:`OSError`.
    """
    with open(os.path.join(directory, *relpath.split("/")), "rb") as fh:
        data = fh.read()
    if recorded is None:
        return data, None
    actual = digest_bytes(data)
    if actual == recorded:
        return data, None
    return data, IntegrityFinding(
        digest=relpath, kind=KIND_CHECKSUM_MISMATCH,
        detail=f"recorded {recorded}, content hashes to {actual}")


def replica_divergences(origin, replica, label: str) -> Tuple[List[str], List[str]]:
    """How *replica* diverges from *origin*: (reference problems, blob
    problems), each human-readable and in report order.

    Both stores offer ``manifest_map()``, ``referenced_digests()`` and
    ``blobs`` (layouts and registries alike); *label* names the replica
    in a divergent-reference line.  A blob the origin itself lacks is the
    origin's own audit finding, not a divergence.
    """
    refs: List[str] = []
    origin_map = origin.manifest_map()
    replica_map = replica.manifest_map()
    for ref in sorted(origin_map):
        theirs = replica_map.get(ref)
        if theirs is None:
            refs.append(f"missing reference {ref}")
        elif theirs != origin_map[ref]:
            refs.append(f"divergent reference {ref}: origin {origin_map[ref]},"
                        f" {label} {theirs}")
    refs += [f"extra reference {ref}" for ref in sorted(set(replica_map) - set(origin_map))]
    blobs: List[str] = []
    for digest in sorted(origin.referenced_digests()):
        ours = origin.blobs.try_get(digest)
        theirs = replica.blobs.try_get(digest)
        if ours is None:
            continue
        if theirs is None:
            blobs.append(f"missing blob {digest}")
        elif theirs.as_bytes() != ours.as_bytes():
            blobs.append(f"divergent blob {digest}")
    return refs, blobs


def _sniff_media_type(data: bytes) -> str:
    """Best-effort media type detection for loaded blob files."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return mediatypes.IMAGE_LAYER_TAR
    if isinstance(obj, dict):
        if "entries" in obj:
            return mediatypes.SIM_LAYER
        if obj.get("mediaType") == mediatypes.IMAGE_MANIFEST or "layers" in obj:
            return mediatypes.IMAGE_MANIFEST
        if "rootfs" in obj:
            return mediatypes.IMAGE_CONFIG
    return mediatypes.IMAGE_CONFIG
