"""The two testbed clusters (paper Table 1) and their software stacks.

+-------+-------------------------+----------------------------+
|       | x86_64                  | aarch64                    |
+-------+-------------------------+----------------------------+
| CPU   | 2x Intel Xeon Platinum  | 1x Phytium FT-2000+/64     |
|       | 8358P @ 2.60GHz         | @ 2.2GHz                   |
| RAM   | 512GB                   | 128GB                      |
| OS    | Ubuntu 22.04            | Kylin Linux Adv. Server V10|
| Nodes | 16                      | 16                         |
+-------+-------------------------+----------------------------+

Besides the hardware facts, each system model carries the performance
knobs the analytic model uses: which toolchain/repo is "native" on the
system, and how badly a generic (plugin-less) MPI underuses the system's
high-speed network (`hsn_penalty`).  The AArch64 cluster's network needs
a dedicated plugin that generic OpenMPI lacks — the cause of the paper's
231% LULESH improvement on 16 AArch64 nodes — while the x86-64 cluster's
fabric is reasonably served by stock btl/mtl components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class CpuModel:
    name: str
    isa: str
    vendor: str
    sockets: int
    cores_per_socket: int
    freq_ghz: float
    vector_bits: int


@dataclass(frozen=True)
class NetworkModel:
    kind: str                     # "hsn" = proprietary high-speed network
    latency_us: float
    bandwidth_gbps: float
    #: Slowdown of communication when the MPI lacks this network's plugin.
    hsn_penalty: float = 1.0


@dataclass(frozen=True)
class SystemModel:
    """One cluster: hardware + the software stack coMtainer adapts to."""

    name: str
    key: str                      # short id used in profiles ("x86" / "arm")
    arch: str                     # container architecture (amd64 / arm64)
    isa: str
    nodes: int
    cpu: CpuModel
    ram_gb: int
    os_name: str
    network: NetworkModel
    native_toolchain: str         # toolchain id of the vendor compiler
    vendor_repo: str              # repository name of the optimized stack
    #: Quality of the system's optimized numeric libraries relative to the
    #: generic distro libraries (BLAS-class / FFT-class).
    native_lib_quality: float = 1.0
    native_fft_quality: float = 1.0
    #: Vendor-MPI software-stack efficiency vs generic MPI *on top of* the
    #: plugin effect (protocol tuning, collectives).
    native_mpi_quality: float = 1.0

    def march_is_native(self, march: str) -> bool:
        from repro.toolchain.info import get_toolchain

        if march == "native":
            return True
        for toolchain_id in ("gnu-12", self.native_toolchain):
            info = get_toolchain(toolchain_id)
            if info.native_march.get(self.isa) == march:
                return True
        return False


X86_CLUSTER = SystemModel(
    name="x86-64 cluster (Intel Xeon Platinum 8358P)",
    key="x86",
    arch="amd64",
    isa="x86-64",
    nodes=16,
    cpu=CpuModel(
        name="Intel Xeon Platinum 8358P",
        isa="x86-64",
        vendor="Intel",
        sockets=2,
        cores_per_socket=32,
        freq_ghz=2.60,
        vector_bits=512,
    ),
    ram_gb=512,
    os_name="Ubuntu 22.04",
    network=NetworkModel(kind="hsn", latency_us=1.4, bandwidth_gbps=200.0,
                         hsn_penalty=1.02),
    native_toolchain="intel-2024",
    vendor_repo="intel-hpc",
    native_lib_quality=1.60,
    native_fft_quality=2.00,
    native_mpi_quality=1.03,
)

AARCH64_CLUSTER = SystemModel(
    name="AArch64 cluster (Phytium FT-2000+/64)",
    key="arm",
    arch="arm64",
    isa="aarch64",
    nodes=16,
    cpu=CpuModel(
        name="Phytium FT-2000+/64",
        isa="aarch64",
        vendor="Phytium",
        sockets=1,
        cores_per_socket=64,
        freq_ghz=2.2,
        vector_bits=128,
    ),
    ram_gb=128,
    os_name="Kylin Linux Advanced Server V10",
    network=NetworkModel(kind="hsn", latency_us=1.9, bandwidth_gbps=100.0,
                         hsn_penalty=2.5),
    native_toolchain="phytium-kit-3",
    vendor_repo="phytium-hpc",
    native_lib_quality=1.90,
    native_fft_quality=1.70,
    native_mpi_quality=1.20,
)

SYSTEMS: Dict[str, SystemModel] = {
    X86_CLUSTER.key: X86_CLUSTER,
    AARCH64_CLUSTER.key: AARCH64_CLUSTER,
}


def system_for_arch(arch: str) -> SystemModel:
    for system in SYSTEMS.values():
        if system.arch == arch:
            return system
    raise KeyError(f"no testbed system for arch {arch!r}")
