"""The one bounded memo: a least-recently-used map with a fixed cap.

Three pure functions of content digests keep their finished results in
one: the layer-stack flatten (:mod:`repro.oci.apply`), the dpkg status
parse (:mod:`repro.pkg.database`) and the coMtainer layer decodes
(:mod:`repro.core.cache.storage`).  Each stores only results that
finished, and hands out copies, never the stored value.
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
