"""Generating application build contexts.

``build_context(spec, arch)`` produces the directory a user would run
``buildah build`` in: ``/src`` (synthetic sources + ``build.sh``) and
``/data`` (workload inputs + bulk runtime data).  Data sizes are solved
so the built *original* image hits the app's Table 3 target for that
architecture.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.apps.specs import MIB, AppSpec
from repro.pkg import catalog
from repro.toolchain.artifacts import BYTES_PER_SOURCE_BYTE
from repro.vfs import SyntheticContent, VirtualFilesystem, text_content

#: Source files at or below this size are materialized as real C text;
#: larger ones are size-only synthetic payloads.
INLINE_SOURCE_LIMIT = 24 * 1024

GUARDED_ASM_X86 = """\
#if defined(__x86_64__)
static inline void prefetch_block(const double *p) {
    __asm__ volatile("prefetcht0 (%0)" :: "r"(p));
}
#else
static inline void prefetch_block(const double *p) { (void)p; }
#endif
"""

UNGUARDED_ASM_X86 = """\
static inline unsigned long long rdtsc_now(void) {
    unsigned int lo, hi;
    __asm__ volatile("rdtsc" : "=a"(lo), "=d"(hi));
    return ((unsigned long long)hi << 32) | lo;
}
"""


def _source_header(spec: AppSpec, relpath: str) -> str:
    return (
        f"/* {spec.name}: {relpath} (synthetic reproduction source) */\n"
        "#include <math.h>\n#include <stdlib.h>\n"
        + ("#include <mpi.h>\n" if spec.uses_mpi else "")
    )


def _c_body(seed: str, target_size: int) -> str:
    """Deterministic filler code reaching roughly *target_size* bytes."""
    lines: List[str] = []
    size = 0
    i = 0
    while size < target_size:
        line = (
            f"double kern_{seed}_{i}(double x) {{ "
            f"return x * {i}.5e-3 + sqrt(x + {i}); }}\n"
        )
        lines.append(line)
        size += len(line)
        i += 1
    return "".join(lines)


def source_file_plan(spec: AppSpec) -> List[Tuple[str, int, str]]:
    """Plan the source tree: ``(relpath, size, kind)`` per file.

    Kinds: ``main`` (entry point), ``asm`` (contains inline assembly),
    ``kernel`` (bulk).  Sizes sum to ``spec.source_bytes``.
    """
    suffix = spec.source_suffix
    plan: List[Tuple[str, int, str]] = []
    main_size = 2048
    asm_size = 1536
    plan.append((f"main.{suffix}", main_size, "main"))
    for i in range(spec.asm_files):
        plan.append((f"arch_{i:02d}.{suffix}", asm_size, "asm"))
    bulk_files = max(1, spec.n_sources - 1 - spec.asm_files)
    remaining = max(
        bulk_files * 256,
        spec.source_bytes - main_size - spec.asm_files * asm_size,
    )
    per_file = remaining // bulk_files
    for i in range(bulk_files):
        size = per_file if i < bulk_files - 1 else remaining - per_file * (bulk_files - 1)
        plan.append((f"kernel_{i:02d}.{suffix}", size, "kernel"))
    return plan


def generate_sources(spec: AppSpec) -> Dict[str, object]:
    """Source path -> content for the app (the same on every ISA: only
    ``build.sh`` differs)."""
    out: Dict[str, object] = {}
    for relpath, size, kind in source_file_plan(spec):
        header = _source_header(spec, relpath)
        if kind == "main":
            body = header + (
                "int main(int argc, char **argv) {\n"
                + ("    MPI_Init(&argc, &argv);\n" if spec.uses_mpi else "")
                + "    /* driver loop elided */\n"
                + ("    MPI_Finalize();\n" if spec.uses_mpi else "")
                + "    return 0;\n}\n"
            )
            body += _c_body("main", max(0, size - len(body)))
            out[relpath] = text_content(body)
        elif kind == "asm":
            asm = GUARDED_ASM_X86 if spec.asm_guarded else UNGUARDED_ASM_X86
            body = header + asm + _c_body(relpath.split(".")[0], max(0, size - len(header) - len(asm)))
            out[relpath] = text_content(body)
        elif size <= INLINE_SOURCE_LIMIT:
            body = header + _c_body(relpath.split(".")[0], max(0, size - len(header)))
            out[relpath] = text_content(body)
        else:
            out[relpath] = SyntheticContent(f"{spec.name}:{relpath}", size)
    return out


def _compilers(spec: AppSpec) -> Tuple[str, str]:
    """(compile driver, link driver) for the app."""
    if spec.uses_mpi:
        return ("mpicc", "mpicc") if spec.language == "c" else ("mpicxx", "mpicxx")
    return ("gcc", "gcc") if spec.language == "c" else ("g++", "g++")


def build_script(spec: AppSpec, isa: str) -> str:
    """The app's build.sh: explicit compiler invocations (no make)."""
    cc, ld = _compilers(spec)
    flags = ["-O3"]
    flags += [f"-D{d}" for d in spec.defines]
    flags += list(spec.isa_flags.get(isa, ()))
    flag_text = " ".join(flags)

    plan = source_file_plan(spec)
    files = [relpath for relpath, _, _ in plan]
    groups: List[List[str]] = [[] for _ in range(max(1, spec.n_compile_commands))]
    for index, relpath in enumerate(files):
        groups[index % len(groups)].append(relpath)

    lines = [
        f"# build script for {spec.name} (generated)",
        "set -e",
        "mkdir -p /app",
    ]
    for group in groups:
        if group:
            lines.append(f"{cc} {flag_text} -c " + " ".join(group))

    objects = [f.rsplit(".", 1)[0] + ".o" for f in files]
    link_inputs: List[str] = []
    if spec.use_static_lib and len(objects) > 2:
        lib_members = objects[1:]
        lines.append(f"ar rcs lib{spec.name}.a " + " ".join(lib_members))
        link_inputs = [objects[0], f"lib{spec.name}.a"]
    else:
        link_inputs = objects
    link_libs = " ".join(f"-l{lib}" for lib in spec.libs) + " -lm"
    lines.append(
        f"{ld} {flag_text} " + " ".join(link_inputs)
        + f" -o /app/{spec.binary_name} {link_libs}".rstrip()
    )
    return "\n".join(lines) + "\n"


def estimate_executable_size(
    spec: AppSpec, lto: bool = False, sources: Optional[Dict[str, object]] = None
) -> int:
    """Mirror of the driver's artifact sizing (kept in sync by tests);
    *sources* are the app's :func:`generate_sources`, made here when not
    given."""
    if sources is None:
        sources = generate_sources(spec)
    density = BYTES_PER_SOURCE_BYTE["3"] * (1.25 if lto else 1.0)
    total = 0
    for content in sources.values():
        total += max(64, int(content.size * density))
    return int(total * 1.1) + 256


@lru_cache(maxsize=None)
def _package_size(arch: str, name: str) -> int:
    repo = catalog.build_generic_repository(arch)
    pkg = repo.latest(name)
    return pkg.installed_size if pkg is not None else 0


def runtime_extra_bytes(spec: AppSpec, arch: str) -> int:
    return sum(_package_size(arch, name) for name in spec.runtime_packages)


def data_plan(
    spec: AppSpec, arch: str, sources: Optional[Dict[str, object]] = None
) -> List[Tuple[str, int]]:
    """Runtime data files sized to hit the Table 3 image target (*sources*
    as :func:`estimate_executable_size` takes them)."""
    inputs = [(f"in.{w}", 2048) for w in spec.workloads if w]
    target = int(spec.image_size.get(arch, 0.0) * MIB)
    if target <= 0:
        # No Table 3 entry: a nominal data payload.
        return inputs + [(f"{spec.name}.tables.bin", 256 * 1024)]
    base = catalog.BASE_PLUS_RUNTIME_TARGET[arch]
    pad = (
        target
        - base
        - runtime_extra_bytes(spec, arch)
        - estimate_executable_size(spec, sources=sources)
        - sum(size for _, size in inputs)
    )
    pad = max(4096, pad)
    data_name = {
        "lammps": "potentials.bin",
        "openmx": "vps_pao_database.bin",
    }.get(spec.name, "tables.bin")
    return inputs + [(data_name, pad)]


def build_context(spec: AppSpec, arch: str) -> VirtualFilesystem:
    """The buildah build context for (app, architecture)."""
    isa = catalog.ARCH_ISA[arch]
    context = VirtualFilesystem()
    sources = generate_sources(spec)
    for relpath, content in sources.items():
        context.write_file(f"/src/{relpath}", content, create_parents=True)
    context.write_file("/src/build.sh", build_script(spec, isa), create_parents=True)
    for relpath, size in data_plan(spec, arch, sources):
        context.write_file(
            f"/data/{relpath}",
            SyntheticContent(f"{spec.name}:data:{relpath}", size),
            create_parents=True,
        )
    return context


def app_containerfile(
    spec: AppSpec,
    build_base: str = "ubuntu:24.04",
    dist_base: str = "ubuntu:24.04",
) -> str:
    """The two-stage Containerfile (paper Figures 2 and 6)."""
    devel = "gcc-12 g++-12 gfortran-12 binutils libc6-dev libopenmpi-dev"
    extra_build = list(spec.build_packages) + [
        pkg for pkg in spec.runtime_packages if pkg not in spec.build_packages
    ]
    if extra_build:
        devel += " " + " ".join(extra_build)
    runtime = "libgfortran5 libopenblas0 libopenmpi3"
    if spec.runtime_packages:
        runtime += " " + " ".join(spec.runtime_packages)
    return f"""\
FROM {build_base} AS build
RUN apt-get update && apt-get install -y {devel}
COPY /src /src
WORKDIR /src
RUN sh build.sh

FROM {dist_base} AS dist
RUN apt-get update && apt-get install -y {runtime}
COPY --from=build /app /app
COPY /data /app/share
ENTRYPOINT ["/app/{spec.binary_name}"]
"""
