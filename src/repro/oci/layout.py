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
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.integrity import (
    KIND_CHECKSUM_MISMATCH,
    KIND_DIGEST_MISMATCH,
    KIND_MISSING,
    KIND_UNPARSEABLE,
    IntegrityError,
    IntegrityFinding,
)
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
    """A manifest resolved down to its config and layer objects."""

    manifest: Manifest
    config: ImageConfig
    layers: List[Layer] = field(default_factory=list)

    def filesystem(self) -> VirtualFilesystem:
        """Flatten the layer stack into the image's final filesystem state."""
        return flatten_layers(self.layers)

    @property
    def total_layer_size(self) -> int:
        return self.manifest.total_layer_size

    def verify(self) -> List[IntegrityFinding]:
        """Merkle-style walk: manifest -> config -> layers.

        Re-hashes the resolved config and every layer against the digests
        the manifest declares, so one corrupt link anywhere in the tree
        surfaces as a typed finding.
        """
        findings: List[IntegrityFinding] = []
        actual_config = digest_bytes(self.config.to_bytes())
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
        desc = self.manifest_descriptor(tag)
        return self.resolve_descriptor(desc)

    def resolve_descriptor(self, desc: Descriptor) -> ResolvedImage:
        manifest = Manifest.from_json(self.blobs.get(desc.digest).as_json())
        config = ImageConfig.from_json(self.blobs.get(manifest.config.digest).as_json())
        layers = [self.blobs.get_layer(ld.digest) for ld in manifest.layers]
        return ResolvedImage(manifest=manifest, config=config, layers=layers)

    # ------------------------------------------------------------------
    # garbage collection & invariants
    # ------------------------------------------------------------------

    def referenced_digests(self) -> set:
        """Every blob digest reachable from an index descriptor."""
        refs: set = set()
        for desc in self.index:
            refs.add(desc.digest)
            if desc.media_type != mediatypes.IMAGE_MANIFEST:
                continue
            blob = self.blobs.try_get(desc.digest)
            if blob is None:
                continue
            try:
                manifest = Manifest.from_json(blob.as_json())
            except (ValueError, KeyError, TypeError):
                # A corrupted manifest blob: its own digest stays
                # referenced (so fsck/repair target it); the closure
                # becomes reachable again once it is restored.
                continue
            refs.add(manifest.config.digest)
            refs.update(ld.digest for ld in manifest.layers)
        return refs

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
        """Layout invariants: no missing, truncated, or orphaned blobs."""
        problems = [str(f) for f in self.blobs.verify_integrity()]
        reachable = self.referenced_digests()
        for digest in reachable:
            if digest not in self.blobs:
                problems.append(f"missing referenced blob {digest}")
        for digest in self.blobs.digests():
            if digest not in reachable:
                problems.append(f"orphaned blob {digest}")
        return problems

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
        *verify* off, corrupt or unparseable blobs are loaded best-effort
        (or skipped) so ``fsck`` can inspect a damaged layout.
        """
        checksums: Dict[str, str] = {}
        manifest_path = os.path.join(directory, CHECKSUM_MANIFEST)
        if os.path.exists(manifest_path):
            try:
                with open(manifest_path, encoding="utf-8") as fh:
                    checksums = dict(json.load(fh).get("files", {}))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                if verify:
                    raise IntegrityError(
                        site="layout.load",
                        digest=CHECKSUM_MANIFEST,
                        detail=f"checksum manifest unreadable: {exc}",
                    ) from exc

        def read_file(relpath: str) -> bytes:
            with open(os.path.join(directory, *relpath.split("/")), "rb") as fh:
                data = fh.read()
            if verify and relpath in checksums:
                actual = digest_bytes(data)
                if actual != checksums[relpath]:
                    raise IntegrityError(
                        site="layout.load",
                        finding=IntegrityFinding(
                            digest=relpath,
                            kind=KIND_CHECKSUM_MISMATCH,
                            detail=(
                                f"recorded {checksums[relpath]}, "
                                f"content hashes to {actual}"
                            ),
                        ),
                    )
            return data

        layout = OCILayout()
        index_data = read_file("index.json")
        try:
            index = json.loads(index_data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IntegrityError(
                site="layout.load",
                finding=IntegrityFinding(
                    digest="index.json", kind=KIND_UNPARSEABLE, detail=str(exc)
                ),
            ) from exc
        layout.index = [Descriptor.from_json(d) for d in index.get("manifests", [])]
        blob_dir = os.path.join(directory, "blobs", "sha256")
        if os.path.isdir(blob_dir):
            for name in sorted(os.listdir(blob_dir)):
                data = read_file(f"blobs/sha256/{name}")
                declared = "sha256:" + name
                media_type = _sniff_media_type(data)
                if media_type == mediatypes.SIM_LAYER:
                    try:
                        layer = Layer.from_bytes(data)
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
                    blob = Blob(
                        media_type=media_type,
                        digest=declared,
                        size=layer.size,
                        payload=layer,
                    )
                else:
                    blob = Blob(
                        media_type=media_type,
                        digest=declared,
                        size=len(data),
                        payload=data,
                    )
                if verify:
                    finding = check_blob(blob)
                    if finding is not None:
                        raise IntegrityError(site="layout.load", finding=finding)
                layout.blobs.put(blob)
        return layout


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
