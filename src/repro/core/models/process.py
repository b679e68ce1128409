"""The combined process models bundle carried by the cache layer.

Every system-side program works on its own copy (§4.2).  :meth:`clone`
builds the copy directly and returns what ``from_json(to_json())`` would:
the same JSON, nodes and file records in sorted key order, and fresh
nodes, lists and dicts (metadata one level deep, as the round trip copies
it).  Only the frozen leaves, :class:`FileRecord` and
:class:`CompilationStep`, are shared between copy and original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.models.build_graph import BuildGraph
from repro.core.models.image_model import ImageModel


@dataclass
class ProcessModels:
    """Image model + build graph (+ metadata) — the coMtainer IR."""

    image: ImageModel = field(default_factory=ImageModel)
    graph: BuildGraph = field(default_factory=BuildGraph)
    metadata: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "image": self.image.to_json(),
            "graph": self.graph.to_json(),
            "metadata": dict(self.metadata),
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "ProcessModels":
        return ProcessModels(
            image=ImageModel.from_json(obj.get("image", {})),
            graph=BuildGraph.from_json(obj.get("graph", {})),
            metadata=dict(obj.get("metadata", {})),
        )

    def clone(self) -> "ProcessModels":
        """Independent copy (adapters operate on copies, §4.2)."""
        return ProcessModels(image=self.image.clone(), graph=self.graph.clone(),
                             metadata=dict(self.metadata))

    def summary(self) -> Dict[str, Any]:
        return {
            "files": len(self.image.files),
            "origins": self.image.origin_histogram(),
            "nodes": len(self.graph),
            "sources": len(self.graph.source_paths()),
            "sinks": [n.path for n in self.graph.sinks()],
        }
