"""The coMtainer image set: Env, Base, Sysenv, Rebase (Figure 5).

* **Env** (user side, build stage): the distro base + build toolchain,
  with the command-line hijacker installed over the tool binaries and the
  ``coMtainer-build`` entry point.  Compatible with standard base images.
* **Base** (user side, dist stage): the distro base + a marker; dist
  images built on it stay standard-compatible.
* **Sysenv** (system side, rebuild): base + toolchains (distro GNU and —
  per flavor — the vendor compilers or LLVM) + the optimized vendor
  packages + ``coMtainer-rebuild``.
* **Rebase** (system side, redirect): base + ``coMtainer-redirect`` with
  both repositories enabled.

The set is built once, not once per adaptation.  Each derived image is
keyed on its base image (layer digests and config digest) and on a recipe
of exactly the data its mutate function reads: Env the ``ubuntu-generic``
repository digest and the devel install list, Base nothing, Sysenv the
flavor, ``sources.list`` text, install list and the digest of every
repository in its pool, Rebase only the ``sources.list`` text.  An engine
that still holds the image derived under the same key returns it as it
is.  Overwriting the ref (``add_image``, ``commit``, a load), replacing
the base, or adding a package to a repository changes or drops the key,
so the image re-derives.  The vendor and LLVM repositories are built and
registered once per engine.
"""

from __future__ import annotations

from typing import Optional

from repro import simbin
from repro.containers.engine import ContainerEngine
from repro.containers.hijack import install_hijackers
from repro.images import UBUNTU_REF, install_ubuntu_base
from repro.oci.diff import diff_filesystems
from repro.oci.image import ImageConfig
from repro.pkg import catalog
from repro.pkg.apt import AptFacade
from repro.pkg.repository import Repository, RepositoryPool
from repro.sysmodel import SystemModel

# Import registers the coMtainer-* programs in the userland registry.
from repro.core import entrypoints as _entrypoints  # noqa: F401


def env_ref(arch: str) -> str:
    return f"comt:{arch}.env"


def base_ref(arch: str) -> str:
    return f"comt:{arch}.base"


def sysenv_ref(system_key: str, flavor: str = "vendor") -> str:
    suffix = "" if flavor == "vendor" else f".{flavor}"
    return f"comt:{system_key}.sysenv{suffix}"


def rebase_ref(system_key: str) -> str:
    return f"comt:{system_key}.rebase"


def _derive_image(
    engine: ContainerEngine,
    base: str,
    ref: str,
    mutate,
    comment: str,
    recipe: tuple,
) -> str:
    """Build a derived image by mutating the base filesystem directly.

    *recipe* holds every input *mutate* reads besides the base image and
    code, ``()`` when it reads none.  If *ref* still holds the image
    derived from the same base under the same comment and recipe, it is
    returned untouched.
    """
    stored = engine.image(base)
    key = (stored.layer_key(), stored.config.digest, comment, recipe)
    held = engine.images.get(ref)
    if held is not None and held.recipe == key:
        return ref
    fs = engine.image_filesystem(base)
    before = fs.clone()
    config = stored.config.clone()
    mutate(fs, config)
    layer = diff_filesystems(before, fs, comment=comment)
    layers = list(stored.layers)
    if len(layer):
        layers.append(layer)
        config.diff_ids.append(layer.digest)
        config.add_history(comment)
    engine.add_image(ref, config, layers)
    engine.images[ref].recipe = key
    return ref


def _registered(engine: ContainerEngine, name: str, build) -> Repository:
    """Repository *name* on *engine*, built and registered on first use."""
    repo = engine.repos.get(name)
    if repo is None:
        repo = build(engine.arch)
        engine.register_repository(repo)
    return repo


def install_user_side_images(engine: ContainerEngine) -> None:
    """Install ubuntu base + coMtainer Env/Base on a user-side engine."""
    if not engine.has_image(UBUNTU_REF):
        install_ubuntu_base(engine)
    arch = engine.arch
    pool = RepositoryPool([engine.repos["ubuntu-generic"]])
    devel = catalog.default_devel_install()

    def make_base(fs, config: ImageConfig) -> None:
        fs.write_file(
            "/.coMtainer/release", "coMtainer base 1.0\n", create_parents=True
        )

    def make_env(fs, config: ImageConfig) -> None:
        apt = AptFacade(fs, pool)
        apt.install(devel)
        fs.write_file(
            "/usr/bin/coMtainer-build",
            simbin.program_marker("coMtainer-build"),
            mode=0o755,
            create_parents=True,
        )
        fs.write_file(
            "/.coMtainer/release", "coMtainer env 1.0\n", create_parents=True
        )
        install_hijackers(fs)

    _derive_image(engine, UBUNTU_REF, base_ref(arch), make_base, "coMtainer Base image",
                  ())
    _derive_image(engine, UBUNTU_REF, env_ref(arch), make_env, "coMtainer Env image",
                  (pool.repositories[0].digest, tuple(devel)))


def install_system_side_images(
    engine: ContainerEngine, system: SystemModel, flavor: str = "vendor"
) -> None:
    """Install Sysenv/Rebase (+ repos) on a system-side engine."""
    arch = engine.arch
    if arch != system.arch:
        raise ValueError(
            f"engine architecture {arch!r} does not match system "
            f"{system.key!r} ({system.arch!r})"
        )
    if not engine.has_image(UBUNTU_REF):
        install_ubuntu_base(engine)

    vendor_repo = _registered(engine, system.vendor_repo,
                              catalog.build_vendor_repository)
    llvm_repo = _registered(engine, catalog.LLVM_REPOSITORY,
                            catalog.build_llvm_repository)
    sources = (
        f"repo ubuntu-generic\nrepo {vendor_repo.name}\nrepo {llvm_repo.name}\n"
    )
    pool = RepositoryPool([engine.repos["ubuntu-generic"], vendor_repo, llvm_repo])
    devel = catalog.default_devel_install()

    def make_sysenv(fs, config: ImageConfig) -> None:
        fs.write_file("/etc/apt/sources.list", sources, create_parents=True)
        apt = AptFacade(fs, pool)
        apt.install(devel)
        if flavor == "vendor":
            apt.install([pkg.name for pkg in _vendor_package_names(vendor_repo)])
        elif flavor == "llvm":
            apt.install(["clang-17", "llvm-17-linker-tools"])
            # Optimized libraries are still the system's vendor ones.
            apt.install([
                pkg.name for pkg in _vendor_package_names(vendor_repo)
                if "toolchain" not in pkg.tags
            ])
        fs.write_file(
            "/usr/bin/coMtainer-rebuild",
            simbin.program_marker("coMtainer-rebuild"),
            mode=0o755,
            create_parents=True,
        )
        env_path = config.env_dict().get("PATH", "")
        extra = "/opt/intel/bin:/opt/phytium/bin"
        config.env = [e for e in config.env if not e.startswith("PATH=")]
        config.env.append(f"PATH={env_path}:{extra}" if env_path else f"PATH={extra}")

    def make_rebase(fs, config: ImageConfig) -> None:
        fs.write_file("/etc/apt/sources.list", sources, create_parents=True)
        fs.write_file(
            "/usr/bin/coMtainer-redirect",
            simbin.program_marker("coMtainer-redirect"),
            mode=0o755,
            create_parents=True,
        )

    _derive_image(
        engine, UBUNTU_REF, sysenv_ref(system.key, flavor), make_sysenv,
        f"coMtainer Sysenv image ({flavor})",
        (flavor, sources, tuple(devel))
        + tuple(repo.digest for repo in pool.repositories),
    )
    _derive_image(
        engine, UBUNTU_REF, rebase_ref(system.key), make_rebase,
        "coMtainer Rebase image", (sources,),
    )


def _vendor_package_names(repo) -> list:
    return [repo.latest(name) for name in repo.names()]
