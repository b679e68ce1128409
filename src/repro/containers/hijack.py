"""The command-line hijacker.

The paper (§4.5): "The recording is performed by a simple command line
hijacker program that logs the arguments, environment variables, etc.,
and transparently forwards the execution to the real program via execvp.
The hijacking is achieved by replacing the default programs in the Env
image with symbolic links to the hijacker program."

Here the same effect is had by rewriting the tool binaries' program
markers: a hijacked binary carries ``program="hijack"`` plus the original
marker under ``forward``.  The engine's dispatcher appends a JSON trace
record to :data:`TRACE_PATH` and then dispatches the forwarded program.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro import simbin
from repro.vfs import VirtualFilesystem

TRACE_PATH = "/.coMtainer/trace.jsonl"

#: Binaries the Env image hijacks by default — the build-relevant tools.
DEFAULT_HIJACK_TARGETS = (
    "/usr/bin/gcc-12", "/usr/bin/g++-12", "/usr/bin/gfortran-12",
    "/usr/bin/cpp-12", "/usr/bin/ar", "/usr/bin/ld", "/usr/bin/ranlib",
    "/usr/bin/strip", "/usr/bin/mpicc", "/usr/bin/mpicxx", "/usr/bin/mpif90",
)


def install_hijackers(
    fs: VirtualFilesystem, targets: Iterable[str] = DEFAULT_HIJACK_TARGETS
) -> List[str]:
    """Wrap each existing target binary with the hijacker; returns wrapped paths."""
    wrapped: List[str] = []
    fs.makedirs("/.coMtainer")
    if not fs.exists(TRACE_PATH):
        fs.write_file(TRACE_PATH, b"", create_parents=True)
    for target in targets:
        if not fs.exists(target):
            continue
        data = fs.read_file(target)
        marker = simbin.read_program_marker(data)
        if marker is None or marker.get("program") == "hijack":
            continue
        fs.write_file(
            target,
            simbin.program_marker("hijack", forward=marker),
            mode=0o755,
        )
        wrapped.append(target)
    return wrapped


def record_trace(
    fs: VirtualFilesystem,
    argv: List[str],
    env: Dict[str, str],
    cwd: str,
    forward: Dict,
) -> None:
    """Append one raw-build-process record (argv + env + cwd + real tool)."""
    record = {
        "argv": list(argv),
        "cwd": cwd,
        "env": {k: env[k] for k in sorted(env) if k in _TRACED_ENV},
        "program": forward.get("program"),
        "meta": {k: v for k, v in forward.items() if k != "program"},
    }
    line = json.dumps(record, sort_keys=True) + "\n"
    existing = fs.read_file(TRACE_PATH) if fs.exists(TRACE_PATH) else b""
    fs.write_file(TRACE_PATH, existing + line.encode("utf-8"), create_parents=True)


_TRACED_ENV = {"PATH", "LIBRARY_PATH", "CFLAGS", "CXXFLAGS", "FFLAGS", "LDFLAGS", "PWD"}


def read_trace(fs: VirtualFilesystem) -> List[Dict]:
    """Parse the recorded raw build process."""
    if not fs.exists(TRACE_PATH):
        return []
    records: List[Dict] = []
    for line in fs.read_text(TRACE_PATH).splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records
