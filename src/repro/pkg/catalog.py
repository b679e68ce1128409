"""Synthetic package ecosystems.

Three repository families, mirroring the paper's setting:

* ``ubuntu-generic`` — the mainstream distro repo a user-side base image
  draws from: core system packages, the GNU toolchain, and generic HPC
  runtime libraries (reference BLAS-ish ``libopenblas0``, plugin-less
  ``libopenmpi3``).
* vendor repos — the system-side optimized stacks: ``intel-hpc`` for the
  x86-64 cluster (icx compilers, MKL-like BLAS, Intel-MPI-like MPI with a
  high-speed-network plugin) and ``phytium-hpc`` for the AArch64 cluster
  (FT compiler kit, FT-tuned BLAS, ftmpi with an HSN plugin).
* ``llvm-generic`` — the freely redistributable alternative the paper's
  artifact ships (Sysenv/Rebase images based on LLVM instead of the
  proprietary vendor toolchains).

Package sizes are calibrated so that the *original* application images
reproduce Table 3: ~170 MiB bases on x86-64, ~95 MiB on AArch64 ("x86-64
has a more bloated software stack").  A computed filler package absorbs
rounding so the targets are hit exactly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.pkg.depends import parse_depends
from repro.pkg.package import (
    FILE_BINARY,
    FILE_DATA,
    FILE_HEADER,
    FILE_LIBRARY,
    Package,
    PackagedFile,
)
from repro.pkg.repository import Repository

MIB = 1024 * 1024

# Final size (bytes) of base system + generic HPC runtime, per architecture.
# Small-app original images in Table 3 are this plus the app's own payload.
BASE_PLUS_RUNTIME_TARGET = {"amd64": int(169.0 * MIB), "arm64": int(93.8 * MIB)}

ARCH_TRIPLE = {"amd64": "x86_64-linux-gnu", "arm64": "aarch64-linux-gnu"}

#: Default ISA names used across the substrate.
ARCH_ISA = {"amd64": "x86-64", "arm64": "aarch64"}


def _lib(arch: str, name: str, size_mib: float, soname_version: str = "0") -> PackagedFile:
    triple = ARCH_TRIPLE[arch]
    return PackagedFile(
        path=f"/usr/lib/{triple}/{name}.so.{soname_version}",
        size=int(size_mib * MIB),
        kind=FILE_LIBRARY,
    )


def _bin(path: str, program: str, **meta) -> PackagedFile:
    return PackagedFile(path=path, size=0, kind=FILE_BINARY, program=program, program_meta=meta)


def _data(path: str, size_mib: float) -> PackagedFile:
    return PackagedFile(path=path, size=int(size_mib * MIB), kind=FILE_DATA)


def _hdr(path: str) -> PackagedFile:
    return PackagedFile(path=path, size=4096, kind=FILE_HEADER)


# ---------------------------------------------------------------------------
# base system
# ---------------------------------------------------------------------------

# (name, amd64 MiB, arm64 MiB) for bulk payload packages.
_BASE_SIZES = [
    ("base-files", 0.4, 0.4),
    ("bash", 1.6, 1.4),
    ("coreutils", 7.2, 5.6),
    ("dpkg", 6.8, 5.2),
    ("apt", 4.2, 3.4),
    ("perl-base", 8.0, 6.5),
    ("libc6", 13.2, 9.8),
    ("libstdc++6", 2.8, 2.3),
    ("libgcc-s1", 0.9, 0.5),
    ("zlib1g", 0.3, 0.2),
    ("libssl3", 5.8, 4.2),
    ("ca-certificates", 1.4, 1.4),
    ("locales", 38.0, 12.0),
    ("ubuntu-meta-data", 52.0, 18.0),
    ("util-linux", 9.5, 7.0),
    ("tar", 1.2, 1.0),
    ("gzip", 0.6, 0.5),
    ("findutils", 1.9, 1.5),
    ("grep", 1.1, 0.9),
    ("sed", 0.9, 0.8),
]

# Shell built-ins and simulated coreutils shipped as program markers.
_CORE_PROGRAMS = {
    "bash": ["/bin/bash", "/bin/sh"],
    "coreutils": [
        "/bin/cp", "/bin/mv", "/bin/rm", "/bin/mkdir", "/bin/ln",
        "/bin/cat", "/bin/echo", "/bin/touch", "/bin/chmod",
        "/usr/bin/install", "/usr/bin/true", "/usr/bin/env",
    ],
    "apt": ["/usr/bin/apt-get", "/usr/bin/apt"],
    "dpkg": ["/usr/bin/dpkg", "/usr/bin/dpkg-query"],
    "tar": ["/bin/tar"],
}


def base_system_packages(arch: str) -> List[Package]:
    """The minimal distro rootfs: Table 3's common image bulk."""
    packages: List[Package] = []
    for name, amd64_mib, arm64_mib in _BASE_SIZES:
        size_mib = amd64_mib if arch == "amd64" else arm64_mib
        files: List[PackagedFile] = []
        for prog_path in _CORE_PROGRAMS.get(name, []):
            prog = prog_path.rsplit("/", 1)[-1]
            files.append(_bin(prog_path, prog))
        remaining = int(size_mib * MIB) - sum(f.size for f in files)
        if remaining > 0:
            files.append(_data(f"/usr/share/{name}/payload.bin", remaining / MIB))
        section = "libs" if name.startswith(("lib", "zlib")) else "admin"
        packages.append(
            Package(
                name=name,
                version="2.38-1ubuntu1" if name != "libc6" else "2.39-0ubuntu8",
                architecture=arch,
                section=section,
                priority="required",
                description=f"{name} (synthetic base package)",
                files=files,
            )
        )
    return packages


def generic_hpc_runtime_packages(arch: str) -> List[Package]:
    """Generic (quality 1.0) HPC runtime libraries of the default stack."""
    triple = ARCH_TRIPLE[arch]
    return [
        Package(
            name="libgfortran5",
            version="12.3.0-1ubuntu1",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34)"),
            files=[_lib(arch, "libgfortran", 0.6 if arch == "amd64" else 0.5, "5")],
            tags=("fortran-runtime",),
        ),
        Package(
            name="libopenblas0",
            version="0.3.26+ds-1",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34), libgfortran5"),
            provides=["libblas.so.3", "liblapack.so.3"],
            files=[_lib(arch, "libopenblas", 3.2 if arch == "amd64" else 2.8)],
            tags=("blas", "lapack"),
        ),
        Package(
            name="libopenmpi3",
            version="4.1.6-5ubuntu1",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34)"),
            provides=["mpi-runtime"],
            files=[
                _lib(arch, "libmpi", 1.4 if arch == "amd64" else 1.2, "40"),
                _bin("/usr/bin/mpirun", "mpirun", mpi="openmpi-generic"),
                _bin("/usr/bin/mpiexec", "mpirun", mpi="openmpi-generic"),
            ],
            tags=("mpi",),
        ),
        Package(
            name="libfftw3-3",
            version="3.3.10-1ubuntu1",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34)"),
            files=[_lib(arch, "libfftw3", 2.1 if arch == "amd64" else 1.8, "3")],
            tags=("fft",),
        ),
        Package(
            name="libscalapack-openmpi2",
            version="2.2.1-1",
            architecture=arch,
            depends=parse_depends("libopenmpi3, libopenblas0"),
            files=[_lib(arch, "libscalapack-openmpi", 4.6 if arch == "amd64" else 4.0, "2")],
            tags=("scalapack",),
        ),
        Package(
            name="libjpeg8",
            version="8c-2ubuntu11",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34)"),
            files=[_lib(arch, "libjpeg", 0.5 if arch == "amd64" else 0.4, "8")],
        ),
        Package(
            name="libpng16-16",
            version="1.6.43-5",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34), zlib1g"),
            files=[_lib(arch, "libpng16", 0.4 if arch == "amd64" else 0.3, "16")],
        ),
    ]


def _filler_package(arch: str, present: List[Package]) -> Package:
    """Absorb rounding so base+core-runtime hits the Table 3 calibration."""
    counted = {name for name, _, _ in _BASE_SIZES}
    counted.update(default_runtime_install())
    accounted = sum(p.installed_size for p in present if p.name in counted)
    fill = max(0, BASE_PLUS_RUNTIME_TARGET[arch] - accounted)
    return Package(
        name="distro-fill",
        version="1.0",
        architecture=arch,
        section="admin",
        priority="required",
        description="calibration filler (icon caches, docs, terminfo, ...)",
        files=[_data("/usr/share/distro-fill/blob.bin", fill / MIB)],
    )


# ---------------------------------------------------------------------------
# toolchains
# ---------------------------------------------------------------------------

def gnu_toolchain_packages(arch: str, version: str = "12") -> List[Package]:
    """The distro GNU toolchain (build-stage only; never in dist images)."""
    size = 1.0
    tc = f"gnu-{version}"
    driver_meta = {"toolchain": tc}
    return [
        Package(
            name=f"gcc-{version}",
            version=f"{version}.3.0-1ubuntu1",
            architecture=arch,
            section="devel",
            depends=parse_depends(f"libc6 (>= 2.34), binutils, cpp-{version}"),
            files=[
                _bin(f"/usr/bin/gcc-{version}", "compiler-driver", role="cc", **driver_meta),
                PackagedFile(path="/usr/bin/gcc", symlink_to=f"gcc-{version}"),
                PackagedFile(path="/usr/bin/cc", symlink_to=f"gcc-{version}"),
                _data(f"/usr/libexec/gcc-{version}/cc1.bin", 28.0 if arch == "amd64" else 24.0),
            ],
            tags=("toolchain", "cc"),
        ),
        Package(
            name=f"g++-{version}",
            version=f"{version}.3.0-1ubuntu1",
            architecture=arch,
            section="devel",
            depends=parse_depends(f"gcc-{version}"),
            files=[
                _bin(f"/usr/bin/g++-{version}", "compiler-driver", role="cxx", **driver_meta),
                PackagedFile(path="/usr/bin/g++", symlink_to=f"g++-{version}"),
                PackagedFile(path="/usr/bin/c++", symlink_to=f"g++-{version}"),
                _data(f"/usr/libexec/gcc-{version}/cc1plus.bin", 30.0 if arch == "amd64" else 26.0),
            ],
            tags=("toolchain", "cxx"),
        ),
        Package(
            name=f"gfortran-{version}",
            version=f"{version}.3.0-1ubuntu1",
            architecture=arch,
            section="devel",
            depends=parse_depends(f"gcc-{version}, libgfortran5"),
            files=[
                _bin(f"/usr/bin/gfortran-{version}", "compiler-driver", role="fc", **driver_meta),
                PackagedFile(path="/usr/bin/gfortran", symlink_to=f"gfortran-{version}"),
                _data(f"/usr/libexec/gcc-{version}/f951.bin", 26.0 if arch == "amd64" else 22.0),
            ],
            tags=("toolchain", "fc"),
        ),
        Package(
            name=f"cpp-{version}",
            version=f"{version}.3.0-1ubuntu1",
            architecture=arch,
            section="devel",
            files=[_bin(f"/usr/bin/cpp-{version}", "compiler-driver", role="cpp", **driver_meta)],
        ),
        Package(
            name="binutils",
            version="2.42-4ubuntu2",
            architecture=arch,
            section="devel",
            files=[
                _bin("/usr/bin/ar", "ar"),
                _bin("/usr/bin/ld", "ld", **driver_meta),
                _bin("/usr/bin/ranlib", "ranlib"),
                _bin("/usr/bin/strip", "strip"),
                _data("/usr/lib/binutils/payload.bin", 14.0 if arch == "amd64" else 12.0),
            ],
            tags=("toolchain",),
        ),
        Package(
            name="make",
            version="4.3-4.1",
            architecture=arch,
            section="devel",
            files=[_bin("/usr/bin/make", "make")],
        ),
        Package(
            name="libc6-dev",
            version="2.39-0ubuntu8",
            architecture=arch,
            section="devel",
            depends=parse_depends("libc6 (= 2.39-0ubuntu8)"),
            files=[_hdr("/usr/include/stdio.h"), _hdr("/usr/include/stdlib.h"),
                   _hdr("/usr/include/math.h"), _hdr("/usr/include/string.h")],
        ),
        Package(
            name="libopenblas-dev",
            version="0.3.26+ds-1",
            architecture=arch,
            section="devel",
            depends=parse_depends("libopenblas0"),
            files=[
                _hdr("/usr/include/cblas.h"),
                _hdr("/usr/include/lapacke.h"),
                PackagedFile(
                    path=f"/usr/lib/{ARCH_TRIPLE[arch]}/libopenblas.so",
                    symlink_to="libopenblas.so.0",
                ),
            ],
        ),
        Package(
            name="libopenmpi-dev",
            version="4.1.6-5ubuntu1",
            architecture=arch,
            section="devel",
            depends=parse_depends("libopenmpi3"),
            files=[
                _hdr("/usr/include/mpi.h"),
                _bin("/usr/bin/mpicc", "compiler-driver", role="cc", toolchain="gnu-12", mpi_wrapper=True),
                _bin("/usr/bin/mpicxx", "compiler-driver", role="cxx", toolchain="gnu-12", mpi_wrapper=True),
                _bin("/usr/bin/mpif90", "compiler-driver", role="fc", toolchain="gnu-12", mpi_wrapper=True),
                PackagedFile(
                    path=f"/usr/lib/{ARCH_TRIPLE[arch]}/libmpi.so",
                    symlink_to="libmpi.so.40",
                ),
            ],
        ),
        Package(
            name="libfftw3-dev",
            version="3.3.10-1ubuntu1",
            architecture=arch,
            section="devel",
            depends=parse_depends("libfftw3-3"),
            files=[
                _hdr("/usr/include/fftw3.h"),
                PackagedFile(
                    path=f"/usr/lib/{ARCH_TRIPLE[arch]}/libfftw3.so",
                    symlink_to="libfftw3.so.3",
                ),
            ],
        ),
    ]


def llvm_toolchain_packages(arch: str, version: str = "17") -> List[Package]:
    """The artifact's freely redistributable LLVM toolchain."""
    tc = f"llvm-{version}"
    return [
        Package(
            name=f"clang-{version}",
            version=f"1:{version}.0.6-1",
            architecture=arch,
            section="devel",
            depends=parse_depends("libc6 (>= 2.34), binutils"),
            files=[
                _bin(f"/usr/bin/clang-{version}", "compiler-driver", role="cc", toolchain=tc),
                _bin(f"/usr/bin/clang++-{version}", "compiler-driver", role="cxx", toolchain=tc),
                _bin(f"/usr/bin/flang-{version}", "compiler-driver", role="fc", toolchain=tc),
                PackagedFile(path="/usr/bin/clang", symlink_to=f"clang-{version}"),
                PackagedFile(path="/usr/bin/clang++", symlink_to=f"clang++-{version}"),
                PackagedFile(path="/usr/bin/flang", symlink_to=f"flang-{version}"),
                _data(f"/usr/lib/llvm-{version}/payload.bin", 96.0),
            ],
            tags=("toolchain", "cc", "cxx", "fc"),
        ),
        Package(
            name=f"llvm-{version}-linker-tools",
            version=f"1:{version}.0.6-1",
            architecture=arch,
            section="devel",
            files=[_bin("/usr/bin/lld", "ld", toolchain=tc)],
        ),
    ]


# ---------------------------------------------------------------------------
# vendor (system-side) repositories
# ---------------------------------------------------------------------------

def intel_hpc_packages() -> List[Package]:
    """Optimized stack of the x86-64 cluster (Intel Xeon 8358P, Table 1)."""
    arch = "amd64"
    tc = "intel-2024"
    return [
        Package(
            name="intel-oneapi-compilers",
            version="2024.1.0-819",
            architecture=arch,
            section="devel",
            depends=parse_depends("libc6 (>= 2.34), binutils"),
            files=[
                _bin("/opt/intel/bin/icx", "compiler-driver", role="cc", toolchain=tc),
                _bin("/opt/intel/bin/icpx", "compiler-driver", role="cxx", toolchain=tc),
                _bin("/opt/intel/bin/ifx", "compiler-driver", role="fc", toolchain=tc),
                _data("/opt/intel/compiler/payload.bin", 310.0),
            ],
            tags=("toolchain", "vendor"),
        ),
        Package(
            name="intel-mkl",
            version="2024.1.0-691",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34)"),
            provides=["libblas.so.3", "liblapack.so.3"],
            equivalent_of="libopenblas0",
            quality=1.60,
            files=[
                _lib(arch, "libmkl_core", 58.0),
                _lib(arch, "libmkl_avx512", 44.0),
            ],
            tags=("blas", "lapack", "vendor"),
        ),
        Package(
            name="intel-mpi",
            version="2021.12.0-539",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34)"),
            provides=["mpi-runtime"],
            equivalent_of="libopenmpi3",
            quality=1.03,
            files=[
                _lib(arch, "libmpi-intel", 22.0, "12"),
                _lib(arch, "libmpi-hsn-plugin", 4.0, "12"),
                _bin("/opt/intel/bin/mpirun", "mpirun", mpi="intel-mpi", hsn=True),
            ],
            tags=("mpi", "hsn-plugin", "vendor"),
        ),
        Package(
            name="intel-fftw",
            version="2024.1.0-691",
            architecture=arch,
            depends=parse_depends("intel-mkl"),
            equivalent_of="libfftw3-3",
            quality=2.00,
            files=[_lib(arch, "libfftw3-mkl", 3.5, "3")],
            tags=("fft", "vendor"),
        ),
        Package(
            name="intel-scalapack",
            version="2024.1.0-691",
            architecture=arch,
            depends=parse_depends("intel-mkl, intel-mpi"),
            equivalent_of="libscalapack-openmpi2",
            quality=1.60,
            files=[_lib(arch, "libmkl_scalapack", 21.0, "2")],
            tags=("scalapack", "vendor"),
        ),
    ]


def phytium_hpc_packages() -> List[Package]:
    """Optimized stack of the AArch64 cluster (Phytium FT-2000+/64, Table 1)."""
    arch = "arm64"
    tc = "phytium-kit-3"
    return [
        Package(
            name="phytium-compiler-kit",
            version="3.1.0-2",
            architecture=arch,
            section="devel",
            depends=parse_depends("libc6 (>= 2.34), binutils"),
            files=[
                _bin("/opt/phytium/bin/ftcc", "compiler-driver", role="cc", toolchain=tc),
                _bin("/opt/phytium/bin/ftcxx", "compiler-driver", role="cxx", toolchain=tc),
                _bin("/opt/phytium/bin/ftfort", "compiler-driver", role="fc", toolchain=tc),
                _data("/opt/phytium/compiler/payload.bin", 180.0),
            ],
            tags=("toolchain", "vendor"),
        ),
        Package(
            name="libblas-ft2000",
            version="2.4.0-1",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34)"),
            provides=["libblas.so.3", "liblapack.so.3"],
            equivalent_of="libopenblas0",
            quality=1.90,
            files=[_lib(arch, "libblas-ft2000", 26.0)],
            tags=("blas", "lapack", "vendor"),
        ),
        Package(
            name="ftmpi",
            version="4.0.2-3",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34)"),
            provides=["mpi-runtime"],
            equivalent_of="libopenmpi3",
            quality=1.20,
            files=[
                _lib(arch, "libftmpi", 14.0, "4"),
                _lib(arch, "libftmpi-hsn-plugin", 3.0, "4"),
                _bin("/opt/phytium/bin/mpirun", "mpirun", mpi="ftmpi", hsn=True),
            ],
            tags=("mpi", "hsn-plugin", "vendor"),
        ),
        Package(
            name="ftfftw",
            version="3.3.10-ft2",
            architecture=arch,
            depends=parse_depends("libc6 (>= 2.34)"),
            equivalent_of="libfftw3-3",
            quality=1.70,
            files=[_lib(arch, "libftfftw3", 2.8, "3")],
            tags=("fft", "vendor"),
        ),
        Package(
            name="ftscalapack",
            version="2.2.0-ft1",
            architecture=arch,
            depends=parse_depends("libblas-ft2000, ftmpi"),
            equivalent_of="libscalapack-openmpi2",
            quality=1.90,
            files=[_lib(arch, "libftscalapack", 12.0, "2")],
            tags=("scalapack", "vendor"),
        ),
    ]


# ---------------------------------------------------------------------------
# repository assembly
# ---------------------------------------------------------------------------

def build_generic_repository(arch: str) -> Repository:
    """``ubuntu-generic``: base + generic runtime + GNU toolchain + dev."""
    repo = Repository(name="ubuntu-generic", architecture=arch)
    base = base_system_packages(arch)
    runtime = generic_hpc_runtime_packages(arch)
    for pkg in base + runtime:
        repo.add(pkg)
    repo.add(_filler_package(arch, base + runtime))
    for pkg in gnu_toolchain_packages(arch):
        repo.add(pkg)
    return repo


def build_vendor_repository(arch: str) -> Repository:
    """The system-side optimized repo for *arch*'s testbed cluster."""
    if arch == "amd64":
        repo = Repository(name="intel-hpc", architecture=arch)
        for pkg in intel_hpc_packages():
            repo.add(pkg)
    elif arch == "arm64":
        repo = Repository(name="phytium-hpc", architecture=arch)
        for pkg in phytium_hpc_packages():
            repo.add(pkg)
    else:  # pragma: no cover - only two testbed arches exist
        raise ValueError(f"no vendor repository for architecture {arch!r}")
    return repo


LLVM_REPOSITORY = "llvm-generic"


def build_llvm_repository(arch: str) -> Repository:
    """The artifact's free LLVM alternative to the vendor toolchains."""
    repo = Repository(name=LLVM_REPOSITORY, architecture=arch)
    for pkg in llvm_toolchain_packages(arch):
        repo.add(pkg)
    return repo


def default_base_install(arch: str) -> List[str]:
    """Package set preinstalled in the ubuntu-like base image."""
    names = [name for name, _, _ in _BASE_SIZES]
    names.append("distro-fill")
    return names


def default_runtime_install() -> List[str]:
    """Generic HPC runtime present in every dist-stage image."""
    return ["libgfortran5", "libopenblas0", "libopenmpi3"]


def default_devel_install() -> List[str]:
    """Build-stage toolchain + dev packages."""
    return [
        "gcc-12", "g++-12", "gfortran-12", "binutils", "make",
        "libc6-dev", "libopenblas-dev", "libopenmpi-dev", "libfftw3-dev",
    ]
