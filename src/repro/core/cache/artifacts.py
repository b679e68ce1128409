"""Cross-rebuild artifact cache, keyed on plan fingerprints.

``coMtainer-rebuild`` pays for the same compiles over and over: the PGO
loop rebuilds the whole graph twice (instrument, then use), repeated
``ComtainerSession.adapt`` calls on the same system re-execute commands
whose inputs did not change, and every node of a cluster redoes work the
first node already did.  The plan diff in the rebuilder only replays
outputs *within one dist layout lineage* — this cache survives across
rebuilds and, through the registry, across layouts.

Cache entries are keyed on the command group's **plan fingerprint**
(:func:`repro.perf.incremental.compute_plan_fingerprints`): the
transformed-command digest (adapter + options + PGO profile salt already
folded in) folded over the content digests of its leaf sources and the
fingerprints of the groups producing its other inputs, hashed by
:func:`cache_key`.  If anything upstream changed, the key changes — so a
hit is only possible when the command would have produced the exact
same bytes.  Values are the command's sibling outputs, each the node-output
record the checkpoint journal stores too
(:func:`repro.resilience.journal.encode_output`), content digest included:
a hit whose reconstructed bytes do not hash back to the recorded digest is
treated as a miss, so a cache corrupted in registry transfer degrades to
recompilation, never to wrong artifacts.

The cache is persisted like the journal: a :mod:`repro.durable` log (kind
``artifact-cache``, version 3) with one sealed line per entry, in key
order::

    {"dist_tag": "<app>.dist", "kind": "artifact-cache", "version": 3}
    {"key": "<plan fingerprint>", "line_digest": "sha256:...",
     "outputs": [{"content": {...}, "content_digest": "sha256:...",
                  "mode": 420, "node": "<id>", "path": "/src/a.o"}]}
    ...

Salvage drops a damaged line, and only that entry recompiles; an old
single-document cache reads as empty, and a version 2 cache's content
keys never equal a fingerprint, so its entries never hit.  Each stored
blob object is salvaged at most once: :func:`_entries_of` remembers its
entries on the object, as :func:`repro.oci.blobs.check_blob` remembers
its verdict, and :meth:`RebuildArtifactCache.flush` leaves the entries it
wrote on the object it stored.  The blob sits in
the layout's blob store, registered through an index descriptor
carrying the ``io.comtainer.artifact-cache=<dist-tag>`` annotation and
no ref name — invisible to tags and image pushes, but surviving
save/load and ``gc``.
:func:`publish_artifact_cache` / :func:`attach_artifact_cache` move the
blob through an :class:`~repro.oci.registry.ImageRegistry`, which is how
warm compiles reach other sessions and other cluster nodes.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import durable
from repro.oci import mediatypes
from repro.oci.blobs import Blob, _remembered
from repro.oci.layout import OCILayout
from repro.resilience.journal import decode_output, encode_output, valid_output
from repro.telemetry import NULL_TELEMETRY
from repro.vfs.content import FileContent

CACHE_KIND = "artifact-cache"
CACHE_VERSION = 3

#: Index annotation naming the dist tag a cache side blob belongs to.
_KEY = mediatypes.ANNOTATION_COMTAINER_ARTIFACTS


def cache_key(command_digest: str, dep_digests: Iterable[Tuple[str, str]]) -> str:
    """Digest of one command over its dependency material.

    *dep_digests* are ``(name, digest)`` pairs, one per input; they are
    sorted here so the key does not depend on dependency-visit order.
    The plan fingerprint is this digest over source contents and
    producer fingerprints.
    """
    material = json.dumps(
        [command_digest, sorted(dep_digests)], sort_keys=True
    ).encode()
    return hashlib.sha256(material).hexdigest()[:32]


def _valid_entry(record: dict) -> bool:
    outputs = record.get("outputs")
    return (isinstance(record.get("key"), str) and isinstance(outputs, list)
            and bool(outputs) and all(valid_output(o) for o in outputs))


def _stored(layout: OCILayout, dist_tag: str) -> Optional[Blob]:
    desc = layout.side_blob(_KEY, dist_tag)
    return layout.blobs.try_get(desc.digest) if desc is not None else None


def _salvage(blob: Blob) -> Dict[str, dict]:
    _header, records, _dropped = durable.salvage(
        blob.as_bytes(), CACHE_KIND, _valid_entry)
    return {r["key"]: r for r in records}


def _entries_of(blob: Optional[Blob]) -> Dict[str, dict]:
    """The sealed entries *blob* salvages to, keyed on cache key.

    A missing or damaged blob reads as empty, never as an error.  The
    entries are remembered on the blob object (rotten bytes under a good
    digest are always a new object, so they are salvaged afresh); the
    dict is shared through that memo: copy it before changing it.
    """
    if blob is None:
        return {}
    return _remembered(blob, "_entries", _salvage)


class RebuildArtifactCache:
    """Cross-rebuild compile cache bound to one layout and dist tag."""

    def __init__(self, layout: OCILayout, dist_tag: str,
                 telemetry=NULL_TELEMETRY) -> None:
        self.layout = layout
        self.dist_tag = dist_tag
        self.telemetry = telemetry
        self.hits = 0
        self.misses = 0
        self._entries = dict(_entries_of(_stored(layout, dist_tag)))
        self._dirty = False

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str) -> None:
        """Bump one cache counter and refresh the derived hit-ratio gauge."""
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
        record = self._entries.get(key)
        if record is None:
            self.misses += 1
            self._count("rebuild_artifact_cache_misses_total")
            return None
        decoded: List[Tuple[str, str, FileContent, int]] = []
        for output in record["outputs"]:
            content = decode_output(output)
            if content is None:
                del self._entries[key]
                self._dirty = True
                self.misses += 1
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
        record = durable.seal(
            {"key": key, "outputs": [encode_output(*o) for o in outputs]})
        if not _valid_entry(record):
            return  # a reload would drop it, so the cache never holds it
        self._entries[key] = record
        self._dirty = True
        self._count("rebuild_artifact_cache_stores_total")

    def merge_entries(self, entries: Dict[str, dict]) -> int:
        """Adopt sealed entries from another cache blob; returns adds."""
        added = 0
        for key, record in entries.items():
            if key not in self._entries:
                self._entries[key] = record
                added += 1
        if added:
            self._dirty = True
        return added

    # -- persistence -------------------------------------------------------

    def flush(self) -> None:
        """Persist into the layout, replacing any previous cache blob."""
        if not self._dirty and self.layout.side_blob(_KEY, self.dist_tag):
            return
        entries = {k: self._entries[k] for k in sorted(self._entries)}
        data = b"".join(
            [durable.header(CACHE_KIND, CACHE_VERSION, dist_tag=self.dist_tag)]
            + [durable.line(record) for record in entries.values()]
        ) if entries else None
        self.layout.replace_side_blob(
            _KEY, self.dist_tag, data, mediatypes.REBUILD_ARTIFACTS)
        stored = _stored(self.layout, self.dist_tag)
        if stored is not None and stored.payload == data:
            # What salvage would read back; a corrupted store missed it.
            _remembered(stored, "_entries", lambda _blob: entries)
        self._dirty = False


def _merge(layout: OCILayout, dist_tag: str, entries: Dict[str, dict]) -> int:
    """Merge *entries* into the layout's persisted cache; returns adds."""
    if not entries:
        return 0
    cache = RebuildArtifactCache(layout, dist_tag)
    added = cache.merge_entries(entries)
    cache.flush()
    return added


def has_artifact_cache(layout: OCILayout, dist_tag: str) -> bool:
    return layout.side_blob(_KEY, dist_tag) is not None


def publish_artifact_cache(registry, repository: str, layout: OCILayout,
                           dist_tag: str) -> bool:
    """Push the layout's artifact-cache blob to *registry* for sharing."""
    blob = _stored(layout, dist_tag)
    if blob is None:
        return False
    registry.put_artifact_cache(repository, blob)
    return True


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
        self.telemetry = telemetry
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self.seeded = 0     # entries pushed into layouts
        self.absorbed = 0   # entries adopted from layouts
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def _observe(self, counter: Optional[str] = None, by: int = 1) -> None:
        m = self.telemetry.metrics
        if counter is not None and by:
            m.counter(counter).inc(by)
        m.gauge("service_shared_cache_entries").set(len(self._entries))

    def absorb_layout(self, layout: OCILayout, dist_tag: str) -> int:
        """Adopt the layout's persisted entries into the pool (LRU fresh).

        Returns how many entries were new to the pool.
        """
        adopted = 0
        for key, record in _entries_of(_stored(layout, dist_tag)).items():
            if key in self._entries:
                self._entries.move_to_end(key)
                continue
            self._entries[key] = record
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
        added = _merge(layout, dist_tag, self._entries)
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
    cache or none of its lines salvage — both degrade silently, a shared
    cache is best-effort).
    """
    return _merge(layout, dist_tag,
                  _entries_of(registry.get_artifact_cache(repository)))
