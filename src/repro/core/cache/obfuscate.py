"""Source obfuscation for the cache layer.

§4.6: "the included sources don't have to be in their original form —
they can be obfuscated to protect intellectual property while still
enabling all the system-side adaptation and optimizations."

Obfuscation here is a size-preserving, key-dependent byte transformation
(XOR keystream): the system side can rebuild — compilation consumes the
sources byte-for-byte-equivalently in the simulated toolchain, and in a
real deployment the obfuscation would be a semantic-preserving
renamer/stripper — while the cache layer no longer exposes readable
source text.  Because obfuscated sources cannot be *scanned*, the
front-end records its ISA-construct scan (inline assembly etc.) in the
process-model metadata before obfuscating, which keeps the cross-ISA
analysis (§5.5) working on obfuscated caches.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict

from repro.vfs.content import FileContent, InlineContent, SyntheticContent

DEFAULT_KEY = "coMtainer-source-obfuscation-v1"


def _keystream(key: str, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out.extend(hashlib.sha256(f"{key}:{counter}".encode()).digest())
        counter += 1
    return bytes(out[:length])


def obfuscate_bytes(data: bytes, key: str = DEFAULT_KEY) -> bytes:
    """Size-preserving reversible transformation (XOR keystream)."""
    stream = _keystream(key, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


def deobfuscate_bytes(data: bytes, key: str = DEFAULT_KEY) -> bytes:
    return obfuscate_bytes(data, key)   # XOR is its own inverse


def obfuscate_content(content: FileContent, key: str = DEFAULT_KEY) -> FileContent:
    """Obfuscate a source file's content.

    Inline text is scrambled in place (same size); synthetic bulk content
    is already opaque (it carries no constructs) and passes through.
    """
    if isinstance(content, SyntheticContent):
        return content
    return InlineContent(obfuscate_bytes(content.read(), key))


def obfuscate_sources(
    sources: Dict[str, FileContent], key: str = DEFAULT_KEY
) -> Dict[str, FileContent]:
    return {path: obfuscate_content(c, key) for path, c in sources.items()}
