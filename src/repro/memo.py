"""The one bounded memo: a least-recently-used map with a fixed cap.

Five pure functions keep their finished results in one: the layer-stack
flatten (:mod:`repro.oci.apply`), the dpkg status parse
(:mod:`repro.pkg.database`) and the coMtainer layer decodes
(:mod:`repro.core.cache.storage`), each keyed on content digests; the
rebuild's plan (:func:`repro.perf.incremental.plan_rebuild`), keyed on
everything planning reads; and the rebuild and redirect containers'
runtime install
(:func:`repro.core.backend.replacement.install_container_runtime`), keyed
on the container's image and everything the install reads.  Each stores
only results that finished.  All but the plan memo hand out copies,
never the stored value: the install memo a copy-on-write clone of the
installed tree, a private copy of the package database and a new list of
the installed names.  The plan memo shares its stored plan: the rebuild
only reads it (``tests/test_plan_memo.py`` rebuilds cold, warm, resumed,
cache-served and with fallback, and the stored plan still equals a fresh
one), so a copy would buy nothing; the fingerprints it hands out are
copies, since they go into ``meta.json``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional


class LruMemo:
    """At most *cap* entries: a hit becomes the most recently used entry,
    and a store beyond the cap forgets the least recently used one."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Whether *key* is stored; its recency does not change."""
        return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """The value stored under *key* (now the most recent), or None."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.cap:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
