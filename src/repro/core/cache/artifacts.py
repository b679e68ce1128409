"""Content-addressed rebuild artifact cache.

``coMtainer-rebuild`` pays for the same compiles over and over: the PGO
loop rebuilds the whole graph twice (instrument, then use), repeated
``ComtainerSession.adapt`` calls on the same system re-execute commands
whose inputs did not change, and every node of a cluster redoes work the
first node already did.  The incremental-reuse path in the rebuilder only
survives *within one dist layout lineage* — this cache survives across
rebuilds and, through the registry, across layouts.

Cache entries are **content-addressed**: the key is a digest over the
transformed-command digest (adapter + options + PGO profile salt already
folded in) plus the ``(path, content-digest)`` of every *produced* input
the command consumes.  If any upstream object changed, the key changes —
so a hit is only possible when the command would have produced the exact
same bytes.  Values are the command's sibling outputs, serialized
structurally (the journal's ``_encode_content``), each carrying its
content digest: a hit whose reconstructed bytes do not hash back to the
recorded digest is treated as a miss, so a cache corrupted in registry
transfer degrades to recompilation, never to wrong artifacts.

The cache is persisted like the journal: a single JSON blob in the
layout's blob store, registered through an index descriptor carrying the
``io.comtainer.artifact-cache=<dist-tag>`` annotation and no ref name —
invisible to tags and image pushes, but surviving save/load and ``gc``.
:func:`publish_artifact_cache` / :func:`attach_artifact_cache` move the
blob through an :class:`~repro.oci.registry.ImageRegistry`, which is how
warm compiles reach other sessions and other cluster nodes.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.oci import mediatypes
from repro.oci.layout import OCILayout
from repro.resilience.journal import _decode_content, _encode_content
from repro.telemetry import NULL_TELEMETRY
from repro.vfs.content import FileContent

CACHE_VERSION = 1

_OUTPUT_KEYS = ("node", "path", "mode", "content", "content_digest")

#: Index annotation naming the dist tag a cache side blob belongs to.
_KEY = mediatypes.ANNOTATION_COMTAINER_ARTIFACTS


def cache_key(command_digest: str, dep_digests: Iterable[Tuple[str, str]]) -> str:
    """Content address of one command execution.

    *dep_digests* are ``(path, content-digest)`` pairs of the command's
    produced inputs; they are sorted here so the key does not depend on
    dependency-visit order.
    """
    material = json.dumps(
        [command_digest, sorted(dep_digests)], sort_keys=True
    ).encode()
    return hashlib.sha256(material).hexdigest()[:32]


def _valid_output(output: object) -> bool:
    if not isinstance(output, dict):
        return False
    if not all(key in output for key in _OUTPUT_KEYS):
        return False
    return (
        isinstance(output["node"], str)
        and isinstance(output["path"], str)
        and isinstance(output["mode"], int)
        and isinstance(output["content"], dict)
        and isinstance(output["content_digest"], str)
    )


def _parse_entries(data: bytes) -> Dict[str, List[dict]]:
    """Defensively parse cache bytes; anything malformed parses to empty.

    A cache is pure optimization — a corrupted blob (torn write, registry
    transfer fault) must degrade to recompilation, never to an error.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {}
    if not isinstance(doc, dict) or doc.get("version") != CACHE_VERSION:
        return {}
    entries = doc.get("entries")
    if not isinstance(entries, dict):
        return {}
    good: Dict[str, List[dict]] = {}
    for key, outputs in entries.items():
        if not isinstance(key, str) or not isinstance(outputs, list):
            continue
        if outputs and all(_valid_output(o) for o in outputs):
            good[key] = outputs
    return good


class RebuildArtifactCache:
    """Cross-rebuild compile cache bound to one layout and dist tag."""

    def __init__(self, layout: OCILayout, dist_tag: str,
                 telemetry=NULL_TELEMETRY) -> None:
        self.layout = layout
        self.dist_tag = dist_tag
        self.telemetry = telemetry or NULL_TELEMETRY
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self._entries: Dict[str, List[dict]] = {}
        self._dirty = False
        desc = layout.side_blob(_KEY, dist_tag)
        if desc is not None:
            blob = layout.blobs.try_get(desc.digest)
            if blob is not None:
                self._entries = _parse_entries(blob.as_bytes())

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str) -> None:
        """Bump one cache counter and refresh the derived hit-ratio gauge."""
        if not self.telemetry.enabled:
            return
        m = self.telemetry.metrics
        m.counter(name).inc()
        lookups = self.hits + self.misses
        if lookups:
            m.gauge("rebuild_artifact_cache_hit_ratio").set(
                self.hits / lookups
            )

    # -- lookup / store ----------------------------------------------------

    def lookup(self, key: str) -> Optional[List[Tuple[str, str, FileContent, int]]]:
        """Decoded ``(node_id, path, content, mode)`` outputs for *key*.

        Every output's reconstructed content must hash back to its
        recorded digest; any mismatch turns the whole entry into a miss
        (and evicts it), so corruption costs a recompile, not integrity.
        """
        outputs = self._entries.get(key)
        if outputs is None:
            self.misses += 1
            self._count("rebuild_artifact_cache_misses_total")
            return None
        decoded: List[Tuple[str, str, FileContent, int]] = []
        for output in outputs:
            try:
                content = _decode_content(output["content"])
                intact = content.digest == output["content_digest"]
            except Exception:
                intact = False
            if not intact:
                del self._entries[key]
                self._dirty = True
                self.misses += 1
                self.evictions += 1
                self._count("rebuild_artifact_cache_misses_total")
                self._count("rebuild_artifact_cache_evictions_total")
                return None
            decoded.append(
                (output["node"], output["path"], content, output["mode"])
            )
        self.hits += 1
        self._count("rebuild_artifact_cache_hits_total")
        return decoded

    def store(
        self, key: str, outputs: Sequence[Tuple[str, str, FileContent, int]]
    ) -> None:
        self._entries[key] = [
            {
                "node": node_id,
                "path": path,
                "mode": mode,
                "content": _encode_content(content),
                "content_digest": content.digest,
            }
            for node_id, path, content, mode in outputs
        ]
        self._dirty = True
        self.stores += 1
        self._count("rebuild_artifact_cache_stores_total")

    def merge_entries(self, entries: Dict[str, List[dict]]) -> int:
        """Adopt parsed entries from another cache blob; returns adds."""
        added = 0
        for key, outputs in entries.items():
            if key not in self._entries:
                self._entries[key] = outputs
                added += 1
        if added:
            self._dirty = True
        return added

    # -- persistence -------------------------------------------------------

    def flush(self) -> None:
        """Persist into the layout, replacing any previous cache blob."""
        if not self._dirty and self.layout.side_blob(_KEY, self.dist_tag):
            return
        data = json.dumps(
            {"version": CACHE_VERSION, "entries": self._entries},
            sort_keys=True,
        ).encode("utf-8") if self._entries else None
        self.layout.replace_side_blob(
            _KEY, self.dist_tag, data, mediatypes.REBUILD_ARTIFACTS)
        self._dirty = False

    def clear(self) -> None:
        self.layout.replace_side_blob(_KEY, self.dist_tag)
        self._entries = {}
        self._dirty = False


def has_artifact_cache(layout: OCILayout, dist_tag: str) -> bool:
    return layout.side_blob(_KEY, dist_tag) is not None


def publish_artifact_cache(registry, repository: str, layout: OCILayout,
                           dist_tag: str) -> bool:
    """Push the layout's artifact-cache blob to *registry* for sharing."""
    desc = layout.side_blob(_KEY, dist_tag)
    if desc is None:
        return False
    blob = layout.blobs.try_get(desc.digest)
    if blob is None:
        return False
    registry.put_artifact_cache(repository, blob)
    return True


def read_cache_entries(layout: OCILayout, dist_tag: str) -> Dict[str, List[dict]]:
    """The parsed artifact-cache entries persisted in *layout* (maybe {}).

    Defensive like :func:`_parse_entries`: a missing or corrupt blob
    reads as an empty cache, never as an error.
    """
    desc = layout.side_blob(_KEY, dist_tag)
    if desc is None:
        return {}
    blob = layout.blobs.try_get(desc.digest)
    if blob is None:
        return {}
    return _parse_entries(blob.as_bytes())


def seed_cache_entries(layout: OCILayout, dist_tag: str,
                       entries: Dict[str, List[dict]],
                       telemetry=NULL_TELEMETRY) -> int:
    """Merge *entries* into the layout's persisted cache; returns adds."""
    if not entries:
        return 0
    cache = RebuildArtifactCache(layout, dist_tag, telemetry=telemetry)
    added = cache.merge_entries(entries)
    cache.flush()
    return added


class SharedArtifactCache:
    """Capacity-bounded cross-tenant pool of rebuild artifact entries.

    The per-layout :class:`RebuildArtifactCache` only survives within one
    layout lineage (or, through the registry, one repository).  The
    adaptation service instead keeps a single in-memory *pool* of entries
    shared by every tenant: a completed rebuild's entries are absorbed
    into the pool (:meth:`absorb_layout`), and each rebuild about to run
    is seeded from it (:meth:`seed_layout`) — identical compile work
    crosses tenant boundaries exactly once.

    The pool is LRU-bounded at *capacity* entries.  Eviction is safe by
    construction: a layout that was already seeded keeps its own copy of
    every entry, and lookups verify content digests — so evicting (or
    corrupting) a pool entry can only ever cost a recompile, never digest
    equality of an in-flight request's output.
    """

    def __init__(self, capacity: int = 512, telemetry=NULL_TELEMETRY) -> None:
        self.capacity = max(1, int(capacity))
        self.telemetry = telemetry or NULL_TELEMETRY
        self._entries: "OrderedDict[str, List[dict]]" = OrderedDict()
        self.seeded = 0     # entries pushed into layouts
        self.absorbed = 0   # entries adopted from layouts
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def _observe(self, counter: Optional[str] = None, by: int = 1) -> None:
        if not self.telemetry.enabled:
            return
        m = self.telemetry.metrics
        if counter is not None and by:
            m.counter(counter).inc(by)
        m.gauge("service_shared_cache_entries").set(len(self._entries))

    def absorb_layout(self, layout: OCILayout, dist_tag: str) -> int:
        """Adopt the layout's persisted entries into the pool (LRU fresh).

        Returns how many entries were new to the pool.
        """
        adopted = 0
        for key, outputs in read_cache_entries(layout, dist_tag).items():
            if key in self._entries:
                self._entries.move_to_end(key)
                continue
            self._entries[key] = outputs
            adopted += 1
        self.absorbed += adopted
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._observe("service_shared_cache_evictions_total")
        self._observe("service_shared_cache_absorbed_total", by=adopted)
        return adopted

    def seed_layout(self, layout: OCILayout, dist_tag: str) -> int:
        """Warm a layout's cache from the pool before its rebuild runs."""
        if not self._entries:
            return 0
        added = seed_cache_entries(
            layout, dist_tag, dict(self._entries), telemetry=self.telemetry
        )
        self.seeded += added
        self._observe("service_shared_cache_seeded_total", by=added)
        return added

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "seeded": self.seeded,
            "absorbed": self.absorbed,
            "evictions": self.evictions,
        }


def attach_artifact_cache(layout: OCILayout, registry, repository: str,
                          dist_tag: str) -> int:
    """Merge the registry's shared cache for *repository* into *layout*.

    Returns how many entries were adopted (0 when the registry has no
    cache or the blob fails to parse — both degrade silently, a shared
    cache is best-effort).
    """
    blob = registry.get_artifact_cache(repository)
    if blob is None:
        return 0
    entries = _parse_entries(blob.as_bytes())
    if not entries:
        return 0
    cache = RebuildArtifactCache(layout, dist_tag)
    added = cache.merge_entries(entries)
    cache.flush()
    return added
