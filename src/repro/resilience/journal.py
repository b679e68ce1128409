"""Per-node checkpoint journal for interrupted rebuilds.

``coMtainer-rebuild`` re-executes the transformed build graph in
topological order.  When a rebuild dies mid-graph (node fault, container
crash, operator interrupt) everything it already compiled is lost unless
it was checkpointed somewhere that outlives the rebuild container — and
the only thing that outlives the container is the mounted OCI layout.

The journal is therefore persisted *in the layout*, alongside the cache
layer: a single JSON blob in the layout's blob store, registered in the
index through a descriptor that carries the
``io.comtainer.journal=<dist-tag>`` annotation but **no**
``org.opencontainers.image.ref.name`` — so it is invisible to
``layout.tags()``, ``find_dist_tag`` and registry pushes, yet survives
``layout.save()``/``load()`` round trips.

The blob is a :mod:`repro.durable` log (kind ``rebuild-journal``,
version 3): one header line plus one sealed line per checkpointed node::

    {"dist_tag": "<app>.dist", "kind": "rebuild-journal", "version": 3}
    {"content": {"kind": "padded", "payload": "<base64>", "pad": 81920},
     "content_digest": "sha256:...", "digest": "...",
     "line_digest": "sha256:...", "mode": 493, "node": "<id>",
     "path": "/src/main.o"}
    ...

Salvage drops torn, flipped and invalid lines and counts them in
:attr:`RebuildJournal.torn_entries_dropped`; those nodes recompile.
Beyond the line digest, an entry is only reused when its reconstructed
content hashes to its ``content_digest``.  Older journals carry no
line digests, so they salvage as all-dropped and recompile, exactly as
a torn journal does.

Content is serialized *structurally* — a compiler artifact is a small JSON
payload plus a declared whitespace pad, and synthetic bulk content is just
a seed and a size, so the journal never materializes (or base64s) the
megabytes of padding.  That keeps the per-command-group ``flush`` cheap
enough to run on the happy path (see ``bench_resilience_overhead``); the
reconstructed content has the exact digest of the original.

A journal entry is only reused when the node's *transformed* command
digest matches the recorded one (the digest already encodes adapter,
options and PGO profile salt), so a resume with different rebuild options
recompiles instead of resurrecting stale outputs.  On a fully successful
rebuild the journal is cleared — the ``+coMre`` manifest's node outputs
take over as the incremental-reuse source.

The journal also carries sealed **lease lines** for the worker fleet
(:mod:`repro.resilience.fleet`)::

    {"expires": 41.5, "lease": "<group digest>", "line_digest": "sha256:...",
     "nodes": ["obj1", "obj2"], "wave": 3, "worker": "w2"}

A lease line is flushed *before* a wavefront's groups execute and removed
by the group's own checkpoint, so a rebuild that dies mid-wavefront (a
crashed worker exhausting the fleet, an operator interrupt) leaves
durable evidence of exactly which groups were in flight.  The next
``--journal`` resume surfaces and clears them; their outputs were never
checkpointed, so those groups — and only those — re-execute.
"""

from __future__ import annotations

import base64
from typing import Dict, List, Optional, Tuple

from repro import durable
from repro.oci import mediatypes
from repro.oci.layout import OCILayout
from repro.toolchain.artifacts import PaddedContent
from repro.vfs.content import FileContent, InlineContent, SyntheticContent

JOURNAL_KIND = "rebuild-journal"
JOURNAL_VERSION = 3

_ENTRY_KEYS = ("digest", "path", "mode", "content", "content_digest")
_CONTENT_KINDS = frozenset({"padded", "synthetic", "inline"})
#: Index annotation naming the dist tag a journal side blob belongs to.
_KEY = mediatypes.ANNOTATION_COMTAINER_JOURNAL


def _valid_entry(entry: dict) -> bool:
    """Structural check for one journal line before trusting it."""
    if not isinstance(entry.get("node"), str):
        return False
    if not all(key in entry for key in _ENTRY_KEYS):
        return False
    if not isinstance(entry["digest"], str) or not isinstance(entry["path"], str):
        return False
    if not isinstance(entry["mode"], int):
        return False
    content = entry["content"]
    return isinstance(content, dict) and content.get("kind") in _CONTENT_KINDS


def _content_intact(entry: dict) -> bool:
    """Whether the entry's reconstructed content hashes to the digest
    recorded at checkpoint time (a content that fails to decode raises,
    which salvage counts as a dropped line)."""
    return _decode_content(entry["content"]).digest == entry["content_digest"]


def _valid_lease(entry: dict) -> bool:
    """Structural check for one lease line before trusting it."""
    return (isinstance(entry.get("lease"), str)
            and isinstance(entry.get("worker"), str)
            and isinstance(entry.get("wave"), int))


def _valid_line(entry: dict) -> bool:
    if "lease" in entry:
        return _valid_lease(entry)
    return _valid_entry(entry) and _content_intact(entry)


def _parse_journal(data: bytes) -> Tuple[Dict[str, dict], Dict[str, dict], int]:
    """Salvage (nodes, leases, dropped_line_count) from journal bytes.

    Lease lines (in-flight group ownership from a rebuild that died
    mid-wavefront) are collected separately, keyed on group digest.
    """
    _header, records, dropped = durable.salvage(data, JOURNAL_KIND, _valid_line)
    nodes: Dict[str, dict] = {}
    leases: Dict[str, dict] = {}
    for record in records:
        if "lease" in record:
            leases[record["lease"]] = record
        else:
            nodes[record["node"]] = record
    return nodes, leases, dropped


def _encode_content(content: FileContent) -> dict:
    if isinstance(content, PaddedContent):
        return {
            "kind": "padded",
            "payload": base64.b64encode(content.payload).decode("ascii"),
            "pad": content.pad,
        }
    if isinstance(content, SyntheticContent):
        return {"kind": "synthetic", "seed": content.seed,
                "size": content.declared_size}
    return {"kind": "inline",
            "data": base64.b64encode(content.read()).decode("ascii")}


def _decode_content(entry: dict) -> FileContent:
    if entry["kind"] == "padded":
        return PaddedContent(base64.b64decode(entry["payload"]), entry["pad"])
    if entry["kind"] == "synthetic":
        return SyntheticContent(entry["seed"], entry["size"])
    return InlineContent(base64.b64decode(entry["data"]))


class RebuildJournal:
    """Checkpoint journal bound to one layout and dist tag."""

    def __init__(self, layout: OCILayout, dist_tag: str) -> None:
        self.layout = layout
        self.dist_tag = dist_tag
        self._nodes: Dict[str, dict] = {}
        self._leases: Dict[str, dict] = {}
        #: Journal lines dropped during load because they were torn,
        #: bit-flipped, or structurally invalid; those nodes recompile.
        self.torn_entries_dropped = 0
        desc = layout.side_blob(_KEY, dist_tag)
        if desc is not None:
            blob = layout.blobs.try_get(desc.digest)
            if blob is not None:
                self._nodes, self._leases, self.torn_entries_dropped = (
                    _parse_journal(blob.as_bytes())
                )

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> List[str]:
        return sorted(self._nodes)

    def digest_of(self, node_id: str) -> Optional[str]:
        entry = self._nodes.get(node_id)
        return entry["digest"] if entry else None

    def output_for(self, node_id: str) -> Tuple[FileContent, int]:
        entry = self._nodes[node_id]
        return _decode_content(entry["content"]), entry["mode"]

    def leases(self) -> Dict[str, dict]:
        """In-flight group leases, keyed on group digest.

        Non-empty only when a previous rebuild died mid-wavefront: those
        groups were dispatched but never checkpointed, so a resume must
        re-execute them (and only them).
        """
        return dict(self._leases)

    # -- mutation ----------------------------------------------------------

    def record_lease(
        self, digest: str, worker: str, wave: int,
        nodes: Optional[List[str]] = None, expires: float = 0.0,
    ) -> None:
        """Note that *worker* holds the group *digest* for *wave*.

        Durable only after the next :meth:`flush`; the fleet dispatch
        flushes leases before any group of the wave executes, so a crash
        mid-wavefront leaves exact in-flight evidence in the layout.
        """
        self._leases[digest] = durable.seal({
            "lease": digest,
            "worker": worker,
            "wave": wave,
            "nodes": list(nodes or []),
            "expires": expires,
        })

    def clear_lease(self, digest: str) -> None:
        self._leases.pop(digest, None)

    def clear_leases(self) -> None:
        self._leases = {}

    def record(
        self, node_id: str, digest: str, path: str, content: FileContent, mode: int
    ) -> None:
        self._nodes[node_id] = durable.seal({
            "node": node_id,
            "digest": digest,
            "path": path,
            "mode": mode,
            "content": _encode_content(content),
            "content_digest": content.digest,
        })

    def flush(self) -> None:
        """Persist the journal into the layout (replacing any previous blob)."""
        data = b"".join(
            [durable.header(JOURNAL_KIND, JOURNAL_VERSION, dist_tag=self.dist_tag)]
            + [durable.line(self._leases[d]) for d in sorted(self._leases)]
            + [durable.line(self._nodes[n]) for n in sorted(self._nodes)]
        )
        # The blob digest covers whatever bytes actually landed, so the
        # store stays self-consistent; damage surfaces as dropped lines.
        data = durable.through_site(
            self.layout.blobs.fault_injector, self.dist_tag, data)
        self.layout.replace_side_blob(
            _KEY, self.dist_tag, data, mediatypes.REBUILD_JOURNAL)

    def clear(self) -> None:
        """Drop the journal from the layout (a rebuild completed cleanly)."""
        self.layout.replace_side_blob(_KEY, self.dist_tag)
        self._nodes = {}
        self._leases = {}


def has_journal(layout: OCILayout, dist_tag: str) -> bool:
    return layout.side_blob(_KEY, dist_tag) is not None
