"""The one bounded memo: a least-recently-used map with a fixed cap.

Ten pure computations keep their finished results in one, each memo
named and registered here (:data:`MEMOS`), so a test can switch every
memo off at once and a profile can count each one's traffic:

- ``flatten``: the layer-stack flatten (:mod:`repro.oci.apply`), keyed on
  the layer digests;
- ``documents``: the parsed OCI manifests and configs
  (:func:`repro.oci.layout.parsed`), keyed on the stored bytes;
- ``artifacts``: the parsed simulated build artifacts
  (:func:`repro.toolchain.artifacts.read_artifact`), keyed on the payload
  bytes and filled by each render, not by a parse;
- ``commit``: the layer a container commit diffs
  (:meth:`repro.containers.engine.ContainerEngine.commit`), keyed on the
  container's image, the comment and the tree's top-level nodes;
- ``dpkg-status``: the dpkg status parse (:mod:`repro.pkg.database`),
  keyed on the status and list digests;
- ``decode``: the coMtainer layer decodes (:mod:`repro.core.cache.storage`),
  keyed on the layer digests;
- ``plan``: the rebuild's plan (:func:`repro.perf.incremental.plan_rebuild`),
  keyed on the rebuild's inputs
  (:func:`repro.core.backend.rebuild.rebuild_inputs`);
- ``runtime``: the rebuild and redirect containers' runtime install
  (:func:`repro.core.backend.replacement.install_container_runtime`);
- ``rebuild``: the ``+coMre`` image of a fully pruned rebuild
  (:mod:`repro.core.backend.rebuild`), keyed on the previous ``+coMre``'s
  plan key;
- ``redirect``: the redirect container's final tree
  (:func:`repro.core.backend.redirect.redirect_in_container`), keyed on
  the rebuilt ``+coMre``'s redirect key.

The last four are keyed on the container's image and pool and on what
fixes everything else the step reads.  A ``+coMre`` stack enters the last two keys as its read key
(:class:`repro.core.cache.storage.RebuiltStack`), what the step reads of
it, not as its manifest digest, which also covers the facts its
``meta.json`` records of how its rebuild ran.  Each memo stores only results that finished.  Five hand out
copies, never the stored value: the flatten memo a copy-on-write clone
of the tree, the dpkg memo a copy of the database, the artifacts memo a
copy of the artifact whose lists and maps (an archive's or a linked
artifact's member records too) are new, as a parse's are (it keeps the
artifact the render was given, which every render builds for it and
drops), the install and
redirect memos a copy-on-write clone of the stored tree (the install
memo also a private copy of the package database and a new list of the
installed names).  Five share their stored value, which nothing writes
to: the documents memo its read-only documents, whose types refuse every
write (:class:`repro.oci.image.FrozenManifest`,
:class:`~repro.oci.image.FrozenImageConfig`); the commit memo its layer,
which goes into the committed image as every layer of an image does
(its tree clone is only compared against); the plan memo its plan, which holds the nodes of the decode it planned
(``tests/test_plan_memo.py`` rebuilds cold, warm, after an LTO change,
resumed, cache-served and with fallback, and the stored plan and the
decode still equal fresh ones; the fingerprints it hands out are copies,
since they go into ``meta.json``);
the rebuild memo its image (a read-only manifest and config, and its
layers) and ``meta``, which go into the layout's blob store and the
program's stdout unchanged; and the decode memo its entries, which the
two programs read in place (its ``decode_*`` functions hand out copies).

Every memo counts its hits, misses and stores (:meth:`LruMemo.get`
counts a lookup, :meth:`LruMemo.put` a store); ``make profile MEMO=1``
reports them per op, and ``make profile MEMO_OFF=name[,name]`` runs the
timed ops with those memos' caps at 0.  A cap of 0 stores nothing, so
every lookup misses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional

#: Every named memo, by name, in the order they were made.
MEMOS: Dict[str, "LruMemo"] = {}


class LruMemo:
    """At most *cap* entries: a hit becomes the most recently used entry,
    and a store beyond the cap forgets the least recently used one.

    A memo with a *name* registers itself in :data:`MEMOS`."""

    def __init__(self, cap: int, name: Optional[str] = None) -> None:
        self.cap = cap
        self.name = name
        self.hits = self.misses = self.stores = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        if name is not None:
            MEMOS[name] = self

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Whether *key* is stored; its recency and the counts do not
        change."""
        return key in self._entries

    def get(self, key: Hashable,
            valid: Optional[Callable[[Any], bool]] = None) -> Optional[Any]:
        """The value stored under *key* (now the most recent), or None.
        With *valid*, a stored value it rejects is a miss too."""
        value = self._entries.get(key)
        if value is None or (valid is not None and not valid(value)):
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self.stores += 1
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.cap:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
