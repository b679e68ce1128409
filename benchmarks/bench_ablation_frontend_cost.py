"""Ablation — front-end analysis cost versus application size.

coMtainer's user-side analysis (trace parsing, build-graph construction,
image classification, cache encoding) must stay cheap even for large
applications: LAMMPS is ~400x LULESH by LoC but its analysis should grow
far slower (the analysis is O(build commands + files), not O(LoC)).

The result file holds only what the analysis produces (graph nodes,
sources), so regenerating it reproduces it byte for byte; the measured
analysis times are printed next to it and checked, never written.
"""

import time

import pytest

from repro.apps import get_app
from repro.containers import ContainerEngine
from repro.core.frontend.build import analyze_build_container
from repro.core.workflow import build_extended_image
from repro.core.images import env_ref, base_ref, install_user_side_images
from repro.apps import app_containerfile, build_context
from repro.oci.layout import OCILayout
from repro.reporting import render_table


def _prepared_build(engine, app):
    """Run the two-stage build; return (build_fs, layout, dist_tag)."""
    spec = get_app(app)
    install_user_side_images(engine)
    containerfile = app_containerfile(
        spec, build_base=env_ref(engine.arch), dist_base=base_ref(engine.arch)
    )
    refs = engine.build_stages(containerfile, context=build_context(spec, engine.arch))
    layout = OCILayout()
    dist_tag = f"{app}.dist"
    engine.push_to_layout(refs["dist"], layout, tag=dist_tag)
    return engine.image_filesystem(refs["build"]), layout, dist_tag


def test_frontend_cost_scaling(benchmark, emit):
    engine = ContainerEngine(arch="amd64")
    rows = []
    costs = {}
    for app in ("hpccg", "lulesh", "hpl", "openmx", "lammps"):
        build_fs, layout, dist_tag = _prepared_build(engine, app)
        t0 = time.perf_counter()
        models, sources = analyze_build_container(build_fs, layout, dist_tag)
        elapsed = time.perf_counter() - t0
        costs[app] = elapsed
        rows.append((app, get_app(app).loc, len(models.graph), len(sources)))
    emit(
        "ablation_frontend_cost",
        render_table(["app", "LoC", "graph nodes", "sources"], rows),
    )
    print(render_table(["app", "analysis (s)"], list(costs.items())))

    # Analysis grows sublinearly in LoC: lammps is ~1455x hpccg by LoC but
    # must cost far less than 100x the analysis time.
    loc_ratio = get_app("lammps").loc / get_app("hpccg").loc
    cost_ratio = costs["lammps"] / max(costs["hpccg"], 1e-9)
    assert cost_ratio < loc_ratio / 10

    build_fs, layout, dist_tag = _prepared_build(engine, "lulesh")
    benchmark(analyze_build_container, build_fs, layout, dist_tag)
