"""Built-in adapters for common HPC setups (§4.2).

"The toolset includes built-in adapters for common HPC setups, which have
broad applicability": the two testbed vendor stacks, a native-GNU adapter
(rebuild with the distro toolchain but native march), and the LLVM
adapter the artifact ships in place of the proprietary toolchains.

:func:`get_adapter` hands out one adapter per registered factory and
system.  Adapters are immutable once built, so every rebuild for one
system shares one, and the rebuild's inputs
(:func:`repro.core.backend.rebuild.rebuild_inputs`), on which the plan
and rebuild memos key, hold it by identity.  Re-registering a name brings
a new factory, and with it a new adapter.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core.adapters.base import SystemAdapter
from repro.sysmodel import SYSTEMS, SystemModel


class VendorAdapter(SystemAdapter):
    """Adapter using the system vendor's proprietary toolchain."""

    name = "vendor"

    def __init__(self, system: SystemModel) -> None:
        super().__init__(system)
        if system.key == "x86":
            self.compiler_map = {
                "cc": "/opt/intel/bin/icx",
                "cxx": "/opt/intel/bin/icpx",
                "fc": "/opt/intel/bin/ifx",
                "cpp": "/opt/intel/bin/icx",
                "ld": "/opt/intel/bin/icx",
            }
        else:
            self.compiler_map = {
                "cc": "/opt/phytium/bin/ftcc",
                "cxx": "/opt/phytium/bin/ftcxx",
                "fc": "/opt/phytium/bin/ftfort",
                "cpp": "/opt/phytium/bin/ftcc",
                "ld": "/opt/phytium/bin/ftcc",
            }


class LlvmAdapter(SystemAdapter):
    """The artifact's freely redistributable LLVM-based adapter."""

    name = "llvm"

    compiler_map = {
        "cc": "/usr/bin/clang",
        "cxx": "/usr/bin/clang++",
        "fc": "/usr/bin/flang",
        "cpp": "/usr/bin/clang",
        "ld": "/usr/bin/clang",
    }

    def toolchain_id(self) -> str:
        return "llvm-17"


class GnuNativeAdapter(SystemAdapter):
    """Rebuild with the distro GNU toolchain, natively tuned.

    Useful as an ablation: isolates the -march/native-library effect from
    the vendor-compiler effect.
    """

    name = "gnu-native"

    compiler_map = {
        "cc": "/usr/bin/gcc",
        "cxx": "/usr/bin/g++",
        "fc": "/usr/bin/gfortran",
        "cpp": "/usr/bin/cpp-12",
        "ld": "/usr/bin/gcc",
    }

    def toolchain_id(self) -> str:
        return "gnu-12"


AdapterFactory = Callable[[SystemModel], SystemAdapter]

_FACTORIES: Dict[str, AdapterFactory] = {
    "vendor": VendorAdapter,
    "llvm": LlvmAdapter,
    "gnu-native": GnuNativeAdapter,
}
#: The adapter each (factory, system) built, handed out on every later ask.
_ADAPTERS: Dict[Tuple[AdapterFactory, SystemModel], SystemAdapter] = {}


def register_adapter(name: str, factory: AdapterFactory) -> None:
    """Plug in a site-specific adapter (the extensibility point of §4.2)."""
    _FACTORIES[name] = factory


def get_adapter(name: str, system: SystemModel) -> SystemAdapter:
    """The one adapter *name*'s registered factory builds for *system*."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown adapter: {name!r}") from None
    adapter = _ADAPTERS.get((factory, system))
    if adapter is None:
        adapter = _ADAPTERS[factory, system] = factory(system)
    return adapter


def adapter_for_system(system: SystemModel, flavor: str = "vendor") -> SystemAdapter:
    return get_adapter(flavor, system)
