"""Workload profiles: Table 2's applications + the calibration table.

Every workload of the paper's evaluation is described by:

* structural facts: owning app, source LoC (Table 2), language, which
  optimized-library family it leans on (``lib_kind``) and how its compute
  time splits across library code / compiled app code / serial rest;
* calibration anchors, cited from the paper:
  - ``native_time``: native 16-node execution time (seconds) per system,
    chosen so the per-system averages match §5.2 (x86-64 avg 21.35 s,
    AArch64 avg 67.0 s);
  - ``comm_share``: fraction of native time spent in MPI at 16 nodes
    (LULESH x86: "communication overhead dominates when lulesh scales
    to 16 nodes");
  - ``target_ratio``: original/native total-time ratio at 16 nodes —
    the Figure 9 shape (avg improvement 96.3% x86 / 66.5% AArch64;
    lammps max +253%, openmx max +99.7%, lulesh +15.6% x86 / +231%
    AArch64; hpccg *degrades* under native toolchains);
  - ``lto_response`` / ``pgo_response``: per-system potential relative
    compute-time reduction of LTO/PGO — the Figure 10 shape (x86 best
    openmx.pt13 +30.4%, worst lammps.chain −12.1%; AArch64 best
    lammps.lj +17.7%, worst hpcg −14.9%; Figure 3's LULESH single-node
    +17.5% LTO / +9.6% PGO);
  - ``tuning_gain``: extra speedup of hand-tuned *native* build scripts
    (``-ffast-math``-style flags) that coMtainer's flag-preserving
    rebuild does not add — the small adapted-vs-native residual
    (22.0 s vs 21.35 s in §5.2);
  - ``single_node_boost``: how much stronger compute-side effects are at
    1 node (bigger per-node working set) — the Figure 3 vs Figure 9
    reconciliation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: lib_kind values and the package tags that satisfy them.
LIB_KIND_TAGS = {
    "blas": ("blas", "lapack", "scalapack"),
    "fft": ("fft",),
    "none": (),
}


@dataclass(frozen=True)
class WorkloadProfile:
    name: str                     # e.g. "lammps.eam"
    app: str                      # owning application, e.g. "lammps"
    input_name: str               # workload input, e.g. "eam"
    loc: int                      # Table 2 lines of code (app total)
    language: str
    lib_kind: str                 # "blas" / "fft" / "none"
    lib_fraction: float           # of compute time, in optimized-lib code
    compiler_fraction: float      # of compute time, in app compiled code
    native_time: Dict[str, float]        # system key -> seconds (16 nodes)
    comm_share: Dict[str, float]         # system key -> fraction of native
    target_ratio: Dict[str, float]       # system key -> original/native
    lto_response: Dict[str, float]
    pgo_response: Dict[str, float]
    tuning_gain: float = 0.03
    single_node_boost: Dict[str, float] = field(default_factory=dict)

    @property
    def serial_fraction(self) -> float:
        return max(0.0, 1.0 - self.lib_fraction - self.compiler_fraction)

    def boost(self, system_key: str) -> float:
        return self.single_node_boost.get(system_key, 1.0)


def _w(
    name: str,
    loc: int,
    language: str,
    lib_kind: str,
    lib_f: float,
    comp_f: float,
    x86: Tuple[float, float, float],      # (native_time, comm_share, ratio)
    arm: Tuple[float, float, float],
    lto: Tuple[float, float],             # (x86, arm)
    pgo: Tuple[float, float],
    tuning: float = 0.03,
    boost: Tuple[float, float] = (1.2, 1.3),
) -> WorkloadProfile:
    app, _, input_name = name.partition(".")
    return WorkloadProfile(
        name=name,
        app=app,
        input_name=input_name or name,
        loc=loc,
        language=language,
        lib_kind=lib_kind,
        lib_fraction=lib_f,
        compiler_fraction=comp_f,
        native_time={"x86": x86[0], "arm": arm[0]},
        comm_share={"x86": x86[1], "arm": arm[1]},
        target_ratio={"x86": x86[2], "arm": arm[2]},
        lto_response={"x86": lto[0], "arm": lto[1]},
        pgo_response={"x86": pgo[0], "arm": pgo[1]},
        tuning_gain=tuning,
        single_node_boost={"x86": boost[0], "arm": boost[1]},
    )


#: The 18 workloads of Table 2 (9 benchmarks + 5 LAMMPS + 4 OpenMX inputs).
_PROFILES: List[WorkloadProfile] = [
    # HPL: BLAS-dominated dense linear algebra.
    _w("hpl", 37556, "c", "blas", 0.55, 0.35,
       x86=(45.0, 0.08, 1.90), arm=(140.0, 0.10, 1.50),
       lto=(0.02, 0.015), pgo=(0.01, 0.01), tuning=0.02, boost=(1.3, 1.3)),
    # HPCG: memory-bound SpMV; PGO regresses on AArch64 (Fig. 10b worst, -14.9%).
    _w("hpcg", 5529, "c++", "blas", 0.30, 0.55,
       x86=(30.0, 0.18, 1.60), arm=(95.0, 0.12, 1.40),
       lto=(0.04, -0.06), pgo=(0.03, -0.12), boost=(1.3, 1.3)),
    # LULESH: comm-dominated at 16 nodes on x86 (+15.6%); the AArch64 MPI
    # plugin effect makes it +231% there.  Figure 3 anchors the single-node
    # story: libo+cxxo -50% (x86) / -72% (arm), then LTO +17.5%, PGO +9.6%.
    _w("lulesh", 5546, "c++", "none", 0.0, 0.85,
       x86=(20.0, 0.86, 1.156), arm=(62.0, 0.50, 3.31),
       lto=(0.135, 0.05), pgo=(0.072, 0.04), tuning=0.04, boost=(1.24, 0.98)),
    # CoMD: molecular dynamics mini-app.
    _w("comd", 4668, "c", "none", 0.0, 0.80,
       x86=(12.0, 0.10, 1.80), arm=(38.0, 0.12, 1.60),
       lto=(0.05, 0.03), pgo=(0.04, 0.02), boost=(1.2, 1.4)),
    # HPCCG: the only workload where native/adapted DEGRADE (over-aggressive
    # system-compiler optimizations, §5.2) -> ratio < 1.
    _w("hpccg", 1563, "c++", "none", 0.0, 0.75,
       x86=(6.0, 0.15, 0.93), arm=(19.0, 0.03, 0.95),
       lto=(-0.03, -0.02), pgo=(0.01, 0.01), tuning=0.02, boost=(1.0, 1.0)),
    _w("miniaero", 42056, "c++", "none", 0.0, 0.80,
       x86=(18.0, 0.12, 1.70), arm=(57.0, 0.12, 1.50),
       lto=(0.06, 0.04), pgo=(0.03, 0.02), boost=(1.2, 1.3)),
    _w("miniamr", 9957, "c", "none", 0.0, 0.70,
       x86=(14.0, 0.25, 1.50), arm=(44.0, 0.12, 1.35),
       lto=(0.02, 0.01), pgo=(0.02, 0.015), tuning=0.02, boost=(1.1, 1.2)),
    _w("minife", 28010, "c++", "blas", 0.25, 0.60,
       x86=(16.0, 0.15, 1.75), arm=(50.0, 0.12, 1.55),
       lto=(0.05, 0.03), pgo=(0.04, 0.02), boost=(1.2, 1.3)),
    _w("minimd", 4404, "c++", "none", 0.0, 0.80,
       x86=(10.0, 0.10, 1.70), arm=(31.0, 0.10, 1.50),
       lto=(0.07, 0.05), pgo=(0.05, 0.03), boost=(1.2, 1.3)),
    # LAMMPS: the large app with the paper's max x86 improvement (+253% on
    # eam); chain REGRESSES under LTO+PGO on x86 (Fig. 10a worst, -12.1%).
    _w("lammps.chain", 2273423, "c++", "fft", 0.15, 0.75,
       x86=(25.0, 0.12, 2.80), arm=(78.0, 0.10, 1.90),
       lto=(-0.08, 0.02), pgo=(-0.045, 0.01), tuning=0.04, boost=(1.3, 1.4)),
    _w("lammps.chute", 2273423, "c++", "fft", 0.15, 0.75,
       x86=(18.0, 0.10, 2.60), arm=(57.0, 0.08, 1.85),
       lto=(0.04, 0.05), pgo=(0.03, 0.04), tuning=0.04, boost=(1.3, 1.4)),
    _w("lammps.eam", 2273423, "c++", "fft", 0.10, 0.80,
       x86=(28.0, 0.10, 3.53), arm=(88.0, 0.08, 2.20),
       lto=(0.05, 0.06), pgo=(0.04, 0.04), tuning=0.05, boost=(1.3, 1.4)),
    # lammps.lj: the AArch64 LTO+PGO best case (+17.7%, Fig. 10b).
    _w("lammps.lj", 2273423, "c++", "none", 0.0, 0.85,
       x86=(22.0, 0.08, 3.00), arm=(69.0, 0.08, 2.10),
       lto=(0.06, 0.105), pgo=(0.05, 0.095), tuning=0.05, boost=(1.3, 1.4)),
    _w("lammps.rhodo", 2273423, "c++", "fft", 0.20, 0.70,
       x86=(35.0, 0.15, 3.20), arm=(110.0, 0.10, 2.15),
       lto=(0.05, 0.04), pgo=(0.04, 0.03), tuning=0.04, boost=(1.3, 1.4)),
    # OpenMX: DFT code on ScaLAPACK/BLAS; max x86 improvement 99.7% (§5.2)
    # and the x86 LTO+PGO best case on pt13 (+30.4%, Fig. 10a).
    _w("openmx.awf5e", 287381, "c", "blas", 0.45, 0.45,
       x86=(20.0, 0.20, 1.90), arm=(63.0, 0.12, 1.70),
       lto=(0.08, 0.05), pgo=(0.06, 0.04), boost=(1.2, 1.3)),
    _w("openmx.awf7e", 287381, "c", "blas", 0.45, 0.45,
       x86=(25.0, 0.22, 1.997), arm=(79.0, 0.12, 1.75),
       lto=(0.08, 0.05), pgo=(0.06, 0.04), boost=(1.2, 1.3)),
    _w("openmx.nitro", 287381, "c", "blas", 0.40, 0.50,
       x86=(15.0, 0.18, 1.80), arm=(47.0, 0.10, 1.65),
       lto=(0.09, 0.06), pgo=(0.07, 0.05), boost=(1.2, 1.3)),
    _w("openmx.pt13", 287381, "c", "blas", 0.40, 0.50,
       x86=(25.0, 0.20, 1.90), arm=(79.0, 0.12, 1.70),
       lto=(0.20, 0.06), pgo=(0.20, 0.05), boost=(1.2, 1.3)),
]

WORKLOADS: Dict[str, WorkloadProfile] = {p.name: p for p in _PROFILES}


def get_workload(name: str) -> WorkloadProfile:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload: {name!r}") from None
