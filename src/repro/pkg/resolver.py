"""Dependency resolution (the ``apt-get install`` closure).

Given requested package names and a repository pool, compute an install
order: breadth-first over Depends, choosing the newest candidate that
satisfies each version restriction, honouring alternatives (first
satisfiable alternative wins, preferring already-installed packages) and
virtual packages via Provides.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.pkg.depends import Dependency, DependencyClause
from repro.pkg.package import Package
from repro.pkg.repository import RepositoryPool
from repro.pkg.version import version_key


class DependencyError(Exception):
    """A requested package or one of its dependencies cannot be satisfied."""


def _best_candidate(pool: RepositoryPool, dep: Dependency) -> Optional[Package]:
    candidates = [
        pkg
        for pkg in pool.candidates(dep.name)
        if dep.matches(pkg.name, pkg.version)
    ]
    if candidates:
        return max(candidates, key=lambda p: version_key(p.version))
    # Fall back to virtual providers (version restrictions cannot apply
    # to virtual packages, as in dpkg).
    if dep.relation is None:
        providers = pool.providers(dep.name)
        if providers:
            return max(providers, key=lambda p: (p.quality, version_key(p.version)))
    return None


def _pick_alternative(
    pool: RepositoryPool,
    clause: DependencyClause,
    installed: Dict[str, Package],
) -> Optional[Package]:
    # An already-installed package satisfying any alternative wins outright.
    for dep in clause:
        pkg = installed.get(dep.name)
        if pkg is not None and dep.matches(pkg.name, pkg.version):
            return pkg
        for provider in installed.values():
            if dep.relation is None and dep.name in provider.provides_names():
                return provider
    for dep in clause:
        candidate = _best_candidate(pool, dep)
        if candidate is not None:
            return candidate
    return None


def _visit_package(
    candidate: Package,
    chain: List[str],
    pool: RepositoryPool,
    installed: Dict[str, Package],
    planned: Set[str],
    plan: List[Package],
) -> None:
    """Append *candidate* to *plan* after its dependencies, depth first;
    *chain* holds the names being visited above it."""
    if candidate.name in chain:
        return  # dependency cycle: already being handled higher up
    if candidate.name in planned or candidate.name in installed:
        return
    planned.add(candidate.name)
    for clause in candidate.depends:
        chosen = _pick_alternative(pool, clause, installed)
        if chosen is None:
            raise DependencyError(
                f"unsatisfiable dependency of {candidate.name}: {clause.render()}"
            )
        _visit_package(chosen, chain + [candidate.name], pool, installed,
                       planned, plan)
    plan.append(candidate)


def resolve_install(
    names: List[str],
    pool: RepositoryPool,
    installed: Optional[Dict[str, Package]] = None,
) -> List[Package]:
    """Return the packages to install (dependency-ordered, deduplicated).

    Already-installed packages are skipped.  Raises
    :class:`DependencyError` when anything is unsatisfiable.
    """
    installed = dict(installed or {})
    plan: List[Package] = []
    planned: Set[str] = set()
    for name in names:
        dep = Dependency(name=name)
        existing = installed.get(name)
        if existing is not None:
            continue
        candidate = _best_candidate(pool, dep)
        if candidate is None:
            raise DependencyError(f"unsatisfiable dependency: {dep.render()}")
        _visit_package(candidate, [], pool, installed, planned, plan)
    return plan
