"""The transfer ledger: durable chunk-level progress of a mirror sync.

A mirror sync moves blobs in fixed-size chunks.  The ledger records, per
in-flight blob, which chunks have landed in the staging area and what
each received chunk hashed to — so a sync that crashes (or is aborted by
an injected ``mirror.sync``/``transfer.chunk`` fault) resumes mid-blob:
the next attempt re-hashes the staged bytes against the ledger, keeps
every chunk that still verifies, and fetches only the rest.

The ledger is a :mod:`repro.durable` log (kind ``transfer-ledger``,
version 2): one header line plus one sealed line per recorded chunk::

    {"kind": "transfer-ledger", "mirror": "edge-0", "version": 2}
    {"blob": "sha256:...", "chunk_size": 65536, "digest": "sha256:...",
     "index": 0, "length": 65536, "line_digest": "sha256:...",
     "offset": 0, "size": 180224}
    ...

:meth:`TransferLedger.from_bytes` keeps every line that re-hashes and
validates and counts the rest in :attr:`torn_entries_dropped`; those
chunks simply re-transfer, as do all chunks of an older, unsealed
ledger.  Flushes pass the ``journal.append`` corruption site keyed
``transfer-ledger:<mirror>``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import durable

LEDGER_KIND = "transfer-ledger"
LEDGER_VERSION = 2


def _valid_chunk(entry: dict) -> bool:
    """Structural check for one ledger line before trusting it."""
    if not isinstance(entry.get("blob"), str) or not isinstance(
        entry.get("digest"), str
    ):
        return False
    for key in ("index", "offset", "length", "size", "chunk_size"):
        if not isinstance(entry.get(key), int) or entry[key] < 0:
            return False
    if entry["chunk_size"] <= 0 or entry["length"] > entry["chunk_size"]:
        return False
    return entry["offset"] + entry["length"] <= entry["size"]


class TransferLedger:
    """Chunk-completion journal for one mirror's staging area."""

    def __init__(self, mirror: str = "") -> None:
        self.mirror = mirror
        #: blob digest -> {chunk index -> chunk record dict}
        self._chunks: Dict[str, Dict[int, dict]] = {}
        #: Ledger lines dropped during load (torn, flipped, invalid);
        #: those chunks re-transfer on the resumed sync.
        self.torn_entries_dropped = 0

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(chunks) for chunks in self._chunks.values())

    def blobs(self) -> List[str]:
        return sorted(self._chunks)

    def chunks(self, blob_digest: str) -> Dict[int, dict]:
        """Recorded chunk entries of one blob, keyed on chunk index."""
        return dict(self._chunks.get(blob_digest, {}))

    def chunk_digest(self, blob_digest: str, index: int) -> Optional[str]:
        entry = self._chunks.get(blob_digest, {}).get(index)
        return entry["digest"] if entry else None

    # -- mutation ----------------------------------------------------------

    def record_chunk(
        self,
        blob_digest: str,
        index: int,
        digest: str,
        offset: int,
        length: int,
        size: int,
        chunk_size: int,
    ) -> None:
        """Note that chunk *index* of *blob_digest* landed hashing to
        *digest*.  Durable only after the next :meth:`to_bytes` flush."""
        self._chunks.setdefault(blob_digest, {})[index] = durable.seal({
            "blob": blob_digest,
            "index": index,
            "digest": digest,
            "offset": offset,
            "length": length,
            "size": size,
            "chunk_size": chunk_size,
        })

    def discard_chunk(self, blob_digest: str, index: int) -> None:
        """Drop one chunk record (it failed verification; re-fetch it)."""
        chunks = self._chunks.get(blob_digest)
        if chunks is not None:
            chunks.pop(index, None)
            if not chunks:
                del self._chunks[blob_digest]

    def discard_blob(self, blob_digest: str) -> None:
        """Drop every record of one blob (it was promoted, or abandoned)."""
        self._chunks.pop(blob_digest, None)

    def clear(self) -> None:
        self._chunks = {}

    # -- persistence -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize as JSONL (header + one sealed line per chunk)."""
        return b"".join(
            [durable.header(LEDGER_KIND, LEDGER_VERSION, mirror=self.mirror)]
            + [durable.line(self._chunks[blob][index])
               for blob in sorted(self._chunks)
               for index in sorted(self._chunks[blob])]
        )

    @staticmethod
    def from_bytes(data: bytes, mirror: str = "") -> "TransferLedger":
        """Salvage a ledger from serialized bytes
        (:func:`repro.durable.salvage`): one flipped bit costs one
        chunk's worth of re-transfer, never a full restart.  The header
        names the mirror unless *mirror* is given."""
        header, records, dropped = durable.salvage(data, LEDGER_KIND, _valid_chunk)
        ledger = TransferLedger(mirror=mirror or str(header.get("mirror", "")))
        ledger.torn_entries_dropped = dropped
        for entry in records:
            ledger._chunks.setdefault(entry["blob"], {})[entry["index"]] = entry
        return ledger


__all__ = ["LEDGER_VERSION", "TransferLedger"]
