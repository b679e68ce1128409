"""Compilation models: structured representations of build commands.

"Compilation models are specialized sub-models that capture the
generation process of individual nodes" (§4.3).  A
:class:`CompilationStep` records one traced tool invocation — argv, cwd,
environment subset, and the real tool it forwarded to — and exposes the
parsed structural view (:class:`~repro.toolchain.cli.CompilerInvocation`)
for compiler commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.toolchain.cli import CompilerInvocation, parse_command_line


@dataclass(frozen=True)
class CompilationStep:
    """One node-producing command from the raw build process.

    Frozen, and its lists and dicts are never changed in place: a copy of
    the process models shares its steps (:meth:`ProcessModels.clone`), and
    a rewritten command is a new step (:meth:`with_argv`).
    """

    argv: List[str]
    cwd: str = "/"
    env: Dict[str, str] = field(default_factory=dict)
    tool: str = "compiler-driver"         # forwarded simulated program
    meta: Dict[str, Any] = field(default_factory=dict)  # toolchain/role/...

    @property
    def is_compiler(self) -> bool:
        return self.tool in ("compiler-driver", "ld")

    @property
    def is_archiver(self) -> bool:
        return self.tool == "ar"

    @property
    def toolchain(self) -> Optional[str]:
        return self.meta.get("toolchain")

    @property
    def role(self) -> Optional[str]:
        return self.meta.get("role")

    @property
    def mpi_wrapper(self) -> bool:
        return bool(self.meta.get("mpi_wrapper"))

    def invocation(self) -> CompilerInvocation:
        """Parsed structural view (compiler commands only)."""
        if not self.is_compiler:
            raise ValueError(f"not a compiler command: {self.argv[:1]}")
        return parse_command_line(self.argv)

    def with_argv(self, argv: List[str], **meta_updates: Any) -> "CompilationStep":
        meta = dict(self.meta)
        meta.update(meta_updates)
        return CompilationStep(
            argv=list(argv), cwd=self.cwd, env=dict(self.env),
            tool=self.tool, meta=meta,
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "argv": list(self.argv),
            "cwd": self.cwd,
            "env": dict(self.env),
            "tool": self.tool,
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_json(obj: Dict[str, Any]) -> "CompilationStep":
        return CompilationStep(
            argv=list(obj["argv"]),
            cwd=obj.get("cwd", "/"),
            env=dict(obj.get("env", {})),
            tool=obj.get("tool", "compiler-driver"),
            meta=dict(obj.get("meta", {})),
        )
