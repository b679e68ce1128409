"""File content providers.

Container base images in the evaluation weigh 95-440 MiB (Table 3 of the
paper); materializing those bytes for every simulated image would dominate
runtime without exercising any interesting code path.  Content is therefore
an abstraction: :class:`InlineContent` stores real bytes (used for anything
the toolchain or coMtainer actually reads), while :class:`SyntheticContent`
declares a size and a seed and only generates its deterministic byte stream
on demand (used for bulk payload files whose *size* matters but whose bytes
never do).

Every provider exposes a stable ``digest`` so layers built from either kind
are content-addressable.  Each provider is frozen, so each keeps its
digest once computed (a :func:`functools.cached_property`, in the
instance dict, outside the fields, equality and hash): an object is
hashed at most once however many layers, keys and checks read it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property


class FileContent:
    """Interface for file payloads inside the virtual filesystem."""

    @property
    def size(self) -> int:
        raise NotImplementedError

    @property
    def digest(self) -> str:
        """Stable ``sha256:<hex>`` identifier for this content."""
        raise NotImplementedError

    def read(self) -> bytes:
        """Materialize the payload bytes."""
        raise NotImplementedError


@dataclass(frozen=True)
class InlineContent(FileContent):
    """Content held directly in memory."""

    data: bytes = b""

    @property
    def size(self) -> int:
        return len(self.data)

    @cached_property
    def digest(self) -> str:
        # Kept in the instance dict on first read, as every provider's is.
        return "sha256:" + hashlib.sha256(self.data).hexdigest()

    def read(self) -> bytes:
        return self.data


@dataclass(frozen=True)
class SyntheticContent(FileContent):
    """Deterministic pseudo-content identified by ``(seed, size)``.

    ``read`` produces a repeating pattern derived from the seed; the digest
    is computed over the identity tuple rather than the stream so that the
    (potentially huge) stream never needs hashing.  The two digest domains
    cannot collide because synthetic digests hash a tagged tuple.
    """

    seed: str
    declared_size: int

    def __post_init__(self) -> None:
        if self.declared_size < 0:
            raise ValueError("size must be non-negative")

    @property
    def size(self) -> int:
        return self.declared_size

    @cached_property
    def digest(self) -> str:
        # Kept in the instance dict on first read (a function of the
        # frozen fields), outside the fields, equality and hash.
        ident = f"synthetic\x00{self.seed}\x00{self.declared_size}".encode()
        return "sha256:" + hashlib.sha256(ident).hexdigest()

    def read(self) -> bytes:
        if self.declared_size == 0:
            return b""
        block = hashlib.sha256(self.seed.encode()).digest()
        repeats = self.declared_size // len(block) + 1
        return (block * repeats)[: self.declared_size]


def text_content(text: str) -> InlineContent:
    """Convenience wrapper: UTF-8 inline content from a string."""
    return InlineContent(text.encode("utf-8"))
