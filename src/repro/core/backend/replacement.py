"""Package replacement mechanics (the `libo` effect of Figure 3).

Replacement keeps the image's *paths* stable: the generic package is
removed and every library path it used to provide becomes a symlink to
the optimized package's library.  Binaries that recorded the generic
path keep resolving — now to the optimized code.

Both system-side containers prepare their environment the same way: the
rebuild container (Sysenv) and the redirect container (Rebase) install
the image's runtime packages with :func:`install_container_runtime`, then
lay the replacement links with :func:`apply_replacements`.  The install
is memoised (a 16-entry :class:`repro.memo.LruMemo`) on exactly what
:func:`install_runtime` reads: the container's image (its layer digests,
recorded at creation), each pool repository's name and digest in pool
order, the package list and each replacement's ``(generic, optimized)``
pair, in order.  The key is formed only while the container is still
unwritten since creation (its filesystem is exactly its image's); any
other container installs as before, with no lookup and no store.  A miss
stores a clone of the installed tree, a copy of the package database and
the installed names; a call that raises stores nothing.  A hit makes the
container's filesystem object adopt a copy-on-write clone of the stored
tree and gives the facade a private copy of the stored database, so
nothing is resolved, materialised, written or parsed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.containers.container import Container
from repro.core.adapters.base import LibraryReplacement
from repro.memo import LruMemo
from repro.pkg.apt import AptFacade
from repro.pkg.repository import RepositoryPool
from repro.vfs import VirtualFilesystem
from repro.vfs import paths as vpath

# Finished installs: (installed tree, package database, installed names).
_RUNTIME_MEMO = LruMemo(16, name="runtime")


def install_runtime(
    apt: AptFacade,
    packages: Iterable[str],
    replacements: List[LibraryReplacement],
) -> List[str]:
    """Install an image's runtime packages, swapping in replacements.

    Generic packages with a planned replacement are *not* installed; the
    optimized packages are.  Returns the names actually installed.
    """
    replaced = {r.generic for r in replacements}
    to_install = [name for name in packages if name not in replaced]
    to_install += [r.optimized for r in replacements]
    installed: List[str] = []
    for name in to_install:
        if not apt.is_installed(name):
            for pkg in apt.install([name]):
                installed.append(pkg.name)
    return installed


def container_key(container: Container, pool: RepositoryPool) -> Optional[tuple]:
    """What a system-side step reads of its container and pool: the
    container's image (its layer digests, recorded at creation) and each
    pool repository's name and digest, in pool order.  None unless the
    container is still unwritten since creation (its filesystem is
    exactly its image's): a step then consults no memo."""
    if container.image_layers is None or not container.unwritten():
        return None
    return (container.image_layers,
            tuple((repo.name, repo.digest) for repo in pool.repositories))


def install_container_runtime(
    container: Container,
    pool: RepositoryPool,
    packages: Iterable[str],
    replacements: List[LibraryReplacement],
) -> Tuple[AptFacade, List[str]]:
    """:func:`install_runtime` into *container* from *pool*, once per
    distinct input (module docstring); returns the facade bound to the
    container's filesystem and the names installed."""
    packages = list(packages)
    key = container_key(container, pool)
    if key is not None:
        key += (tuple(packages), tuple((r.generic, r.optimized) for r in replacements))
        hit = _RUNTIME_MEMO.get(key)
        if hit is not None:
            tree, db, installed = hit
            container.fs.adopt(tree)
            return AptFacade(container.fs, pool, db=db.copy()), list(installed)
    apt = AptFacade(container.fs, pool)
    installed = install_runtime(apt, packages, replacements)
    if key is not None:
        _RUNTIME_MEMO.put(key, (container.fs.clone(), apt.db.copy(), tuple(installed)))
    return apt, installed


def apply_replacements(
    fs: VirtualFilesystem,
    apt: AptFacade,
    replacements: List[LibraryReplacement],
) -> Dict[str, str]:
    """Enact a replacement plan on a filesystem.

    Ensures optimized packages are present, removes the generic ones, and
    lays the compat symlinks.  Returns the symlink map actually created.
    """
    created: Dict[str, str] = {}
    for replacement in replacements:
        if not apt.is_installed(replacement.optimized):
            apt.install([replacement.optimized])
        if apt.is_installed(replacement.generic):
            apt.remove(replacement.generic)
        for generic_path, optimized_path in sorted(replacement.link_map.items()):
            if not fs.lexists(optimized_path):
                continue
            if fs.lexists(generic_path):
                fs.remove(generic_path, recursive=False, missing_ok=True)
            fs.symlink(optimized_path, generic_path, create_parents=True)
            created[generic_path] = optimized_path
    return created


def replace_installed_libraries(engine, ctr, system) -> None:
    """Library-only adaptation of a container (the ``libo`` of Figure 3).

    The *system's* apt configuration applies here, not the image's: the
    HPC site exposes its vendor repository to the adaptation.  Every
    installed generic package with an optimized equivalent is replaced,
    so the recorded library paths of the existing binaries re-resolve
    through the compat symlinks to the optimized code.
    """
    ctr.fs.write_file(
        "/etc/apt/sources.list",
        f"repo ubuntu-generic\nrepo {system.vendor_repo}\n",
        create_parents=True,
    )
    pool = engine.repository_pool_for(ctr)
    apt = AptFacade(ctr.fs, pool)
    plan = replacements_for_packages(list(apt.installed()), pool)
    apply_replacements(ctr.fs, apt, plan)


def replacements_for_packages(
    package_names: Iterable[str], pool: RepositoryPool
) -> List[LibraryReplacement]:
    """Plan replacements directly from package metadata (no image model).

    Used by native builds on the system side, where no coMtainer cache
    exists: each generic package's own library file list provides the
    compat-link paths.
    """
    plan: List[LibraryReplacement] = []
    for name in package_names:
        candidates = pool.optimized_equivalents(name)
        if not candidates:
            continue
        best = candidates[0]
        generic = pool.latest(name)
        link_map: Dict[str, str] = {}
        optimized_libs = [f.path for f in best.files if f.kind == "library"]
        if generic is not None and optimized_libs:
            for pfile in generic.files:
                if pfile.kind == "library":
                    link_map[pfile.path] = optimized_libs[0]
        plan.append(
            LibraryReplacement(
                generic=name, optimized=best.name,
                quality=best.quality, link_map=link_map,
            )
        )
    return plan
