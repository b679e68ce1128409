"""The build graph model: a typed DAG of data transformations (§4.3).

Nodes are data (files); each node tracks its dependencies (incoming
edges) and the command that produced it.  "Its structured nodes resemble
syntax tree nodes in compilers rather than homogeneous nodes in graph
databases."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set

from repro.core.models.compilation import CompilationStep

# Node kinds mirroring the paper: "our build graph currently models source
# files, .a/.o/.so files during compilation, together with other node types."
KIND_SOURCE = "source"
KIND_OBJECT = "object"
KIND_ARCHIVE = "archive"
KIND_SHARED = "shared"
KIND_EXECUTABLE = "executable"
KIND_FILE = "file"

NODE_KINDS = (
    KIND_SOURCE, KIND_OBJECT, KIND_ARCHIVE, KIND_SHARED, KIND_EXECUTABLE, KIND_FILE,
)


class GraphError(Exception):
    pass


def kind_for_path(path: str, produced: bool) -> str:
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".o"):
        return KIND_OBJECT
    if name.endswith(".a"):
        return KIND_ARCHIVE
    if ".so" in name:
        return KIND_SHARED
    from repro.toolchain.cli import classify_source

    if classify_source(name) is not None:
        return KIND_SOURCE
    return KIND_EXECUTABLE if produced else KIND_FILE


@dataclass
class BuildNode:
    """One file in the build, with provenance."""

    id: str                       # canonical path (unique within a build)
    kind: str
    path: str
    deps: List[str] = field(default_factory=list)
    step: Optional[CompilationStep] = None      # producing command
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_produced(self) -> bool:
        return self.step is not None

    def clone(self) -> "BuildNode":
        """What the JSON round trip returns, sharing the frozen step."""
        return BuildNode(
            id=self.id, kind=self.kind, path=self.path, deps=list(self.deps),
            step=self.step, metadata=dict(self.metadata),
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind,
            "path": self.path,
            "deps": list(self.deps),
            "step": self.step.to_json() if self.step else None,
            "metadata": dict(self.metadata),
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "BuildNode":
        step = obj.get("step")
        return BuildNode(
            id=obj["id"],
            kind=obj["kind"],
            path=obj["path"],
            deps=list(obj.get("deps", [])),
            step=CompilationStep.from_json(step) if step else None,
            metadata=dict(obj.get("metadata", {})),
        )


class BuildGraph:
    """A DAG of :class:`BuildNode`."""

    def __init__(self) -> None:
        self._nodes: Dict[str, BuildNode] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[BuildNode]:
        return iter(self._nodes.values())

    def get(self, node_id: str) -> BuildNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"no such node: {node_id!r}") from None

    def try_get(self, node_id: str) -> Optional[BuildNode]:
        return self._nodes.get(node_id)

    def add(self, node: BuildNode) -> BuildNode:
        self._nodes[node.id] = node
        return node

    def ensure(self, path: str, kind: Optional[str] = None) -> BuildNode:
        """Get or create a leaf node for *path*."""
        existing = self._nodes.get(path)
        if existing is not None:
            return existing
        return self.add(
            BuildNode(id=path, kind=kind or kind_for_path(path, produced=False),
                      path=path)
        )

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    def nodes(self, kind: Optional[str] = None) -> List[BuildNode]:
        out = list(self._nodes.values())
        if kind is not None:
            out = [n for n in out if n.kind == kind]
        return out

    def roots(self) -> List[BuildNode]:
        """Nodes with no dependencies (sources, prebuilt inputs)."""
        return [n for n in self._nodes.values() if not n.deps]

    def sinks(self) -> List[BuildNode]:
        """Nodes nothing depends on (final artifacts)."""
        depended: Set[str] = set()
        for node in self._nodes.values():
            depended.update(node.deps)
        return [n for n in self._nodes.values() if n.id not in depended]

    def dependents(self, node_id: str) -> List[BuildNode]:
        return [n for n in self._nodes.values() if node_id in n.deps]

    def ancestors(self, node_id: str) -> Set[str]:
        """Transitive dependencies of a node."""
        seen: Set[str] = set()
        stack = list(self.get(node_id).deps)
        while stack:
            dep = stack.pop()
            if dep in seen:
                continue
            seen.add(dep)
            node = self._nodes.get(dep)
            if node is not None:
                stack.extend(node.deps)
        return seen

    def source_paths(self) -> List[str]:
        return sorted(n.path for n in self.nodes(KIND_SOURCE))

    # ------------------------------------------------------------------
    # validation & ordering
    # ------------------------------------------------------------------

    def topo_order(self) -> List[BuildNode]:
        """Dependencies-first ordering; raises :class:`GraphError` on cycles.

        Iterative depth-first search with an explicit frame stack — a
        dependency chain as deep as the graph must not hit Python's
        recursion limit (deep single-chain graphs are legal builds).
        """
        state: Dict[str, int] = {}       # 0=unvisited 1=visiting 2=done
        order: List[BuildNode] = []
        for root_id in sorted(self._nodes):
            if state.get(root_id, 0) == 2:
                continue
            # Each frame is (node_id, iterator over remaining deps);
            # the ids on the stack are the current visiting chain.
            stack: List[list] = [[root_id, None]]
            while stack:
                frame = stack[-1]
                node_id, deps_iter = frame
                if deps_iter is None:
                    if state.get(node_id, 0) == 2:
                        stack.pop()
                        continue
                    state[node_id] = 1
                    node = self._nodes.get(node_id)
                    deps_iter = iter(node.deps) if node is not None else iter(())
                    frame[1] = deps_iter
                descended = False
                for dep in deps_iter:
                    mark = state.get(dep, 0)
                    if mark == 2:
                        continue
                    if mark == 1:
                        chain = [frame_id for frame_id, _ in stack]
                        raise GraphError(f"cycle involving {dep!r}: {chain}")
                    stack.append([dep, None])
                    descended = True
                    break
                if descended:
                    continue
                node = self._nodes.get(node_id)
                if node is not None:
                    order.append(node)
                state[node_id] = 2
                stack.pop()
        return order

    def validate(self) -> None:
        """Check acyclicity and that all dep references resolve."""
        self.topo_order()
        for node in self._nodes.values():
            for dep in node.deps:
                if dep not in self._nodes:
                    raise GraphError(f"{node.id!r} depends on unknown {dep!r}")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def clone(self) -> "BuildGraph":
        """What ``from_json(to_json())`` returns: fresh nodes, added in
        sorted key order."""
        graph = BuildGraph()
        for key in sorted(self._nodes):
            graph.add(self._nodes[key].clone())
        return graph

    def to_json(self) -> Dict[str, Any]:
        return {"nodes": [self._nodes[k].to_json() for k in sorted(self._nodes)]}

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "BuildGraph":
        graph = BuildGraph()
        for node_obj in obj.get("nodes", []):
            graph.add(BuildNode.from_json(node_obj))
        return graph
