"""Self-tests for the benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/harness -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.harness import definitions, probe
from benchmarks.harness.compare import claim_met, compare_metric
from benchmarks.harness.definitions import END_TO_END, LAYER_NAMES
from benchmarks.harness.stats import percentile, quartiles
from benchmarks.harness.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles ------------------------------------------------------------

@pytest.mark.parametrize("values, q, expected", [
    ([15, 20, 35, 40, 50], 5, 15),
    ([15, 20, 35, 40, 50], 30, 20),
    ([15, 20, 35, 40, 50], 40, 20),
    ([15, 20, 35, 40, 50], 50, 35),
    ([15, 20, 35, 40, 50], 100, 50),
    ([3, 6, 7, 8, 8, 10, 13, 15, 16, 20], 25, 7),
    ([3, 6, 7, 8, 8, 10, 13, 15, 16, 20], 50, 8),
    ([3, 6, 7, 8, 8, 10, 13, 15, 16, 20], 75, 15),
    ([3, 6, 7, 8, 8, 10, 13, 15, 16, 20], 90, 16),
    ([20, 3, 16, 6, 15, 7, 13, 8, 10, 8], 90, 16),
    ([42.0], 90, 42.0),
])
def test_nearest_rank_percentile(values, q, expected):
    assert percentile(values, q) == expected


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)


# -- machine-speed rescaling ------------------------------------------------

def test_speed_factor_is_the_mean_speed_over_the_window():
    ref = probe.REFERENCE_S
    # Half the probes at full speed, half at half speed: the mean speed
    # is 3/4 of the reference, where the median would read 1/2 or 1.
    assert probe.speed_factor([ref, 2 * ref]) == pytest.approx(0.75)
    probes = [ref] * 30 + [2 * ref] * 30
    factors = probe.speed_factors(probes)
    assert len(factors) == len(probes)
    assert factors[0] == pytest.approx(1.0)
    assert factors[-1] == pytest.approx(0.5)
    # An op sees only the probes within WINDOW ops of it.
    assert factors[30 - probe.WINDOW - 1] == pytest.approx(1.0)
    assert factors[30 + probe.WINDOW] == pytest.approx(0.5)


# -- tracer -----------------------------------------------------------------

class FakeClock:
    """Returns scripted instants; advance() moves time forward."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, dt: int) -> None:
        self.now += dt


def _tree(tracer: Tracer, clock: FakeClock):
    """root(a) -> [b -> [c], c]: every frame does some own work."""
    layer = {name: i for i, name in enumerate(tracer.layers)}

    def c():
        clock.advance(3)

    def b():
        clock.advance(5)
        wc()
        clock.advance(7)

    def a():
        clock.advance(11)
        wb()
        clock.advance(13)
        wc()
        clock.advance(17)

    wc = tracer.wrap(layer["c"], c)
    wb = tracer.wrap(layer["b"], b)
    return tracer.wrap(layer["a"], a)


def test_self_time_telescopes_exactly():
    clock = FakeClock()
    tracer = Tracer(["a", "b", "c"], clock=clock, span_ops=1)
    tracer.op = 0
    root = _tree(tracer, clock)
    tracer.active = True
    start = clock()
    root()
    end = clock()
    totals = tracer.totals()
    assert totals["a"] == (1, 11 + 13 + 17, 0)
    assert totals["b"] == (1, 5 + 7, 0)
    assert totals["c"] == (2, 3 + 3, 0)
    assert sum(t[1] for t in totals.values()) == end - start
    # Spans nest: every child interval lies inside its parent's.
    spans = {tracer.span_id[i]: (tracer.span_start[i], tracer.span_end[i],
                                 tracer.span_parent[i])
             for i in range(len(tracer.span_id))}
    for s, e, parent in spans.values():
        if parent >= 0:
            ps, pe, _ = spans[parent]
            assert ps <= s <= e <= pe


def test_same_layer_call_passes_through_untimed():
    clock = FakeClock()
    tracer = Tracer(["vfs", "pkg"], clock=clock)

    def inner():
        clock.advance(2)

    winner = tracer.wrap(0, inner)

    def outer():
        clock.advance(1)
        winner()          # vfs -> vfs: the layer's own work
        winner()

    wouter = tracer.wrap(0, outer)

    def top():
        wouter()          # pkg -> vfs: a boundary crossing

    wtop = tracer.wrap(1, top)
    tracer.active = True
    wtop()
    assert tracer.totals()["vfs"] == (1, 5, 0)
    assert tracer.totals()["pkg"] == (1, 0, 0)


def test_inactive_tracer_records_nothing_and_errors_count():
    clock = FakeClock()
    tracer = Tracer(["x"], clock=clock)

    def boom():
        raise KeyError("missing")

    wrapped = tracer.wrap(0, boom)
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.totals()["x"] == (0, 0, 0)
    tracer.active = True
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.totals()["x"] == (1, 0, 1)


def test_identity_patching_catches_from_import_aliases():
    import repro.core.frontend.build as build
    import repro.oci as oci
    import repro.oci.apply as apply
    import repro.oci.layout as layout
    from repro.oci.layer import Layer

    original = apply.flatten_layers
    assert layout.flatten_layers is original
    tracer = Tracer(["oci"])
    patched = tracer.install([("oci", "repro.oci.apply", "flatten_layers"),
                              ("oci", "repro.oci.layer", "Layer.to_tar_bytes"),
                              ("oci", "repro.oci.layer", "Layer.from_tar_bytes")])
    try:
        assert patched >= 5
        for module in (apply, layout, oci, build):
            assert module.flatten_layers is not original
            assert module.flatten_layers.__wrapped__ is original
        tracer.active = True
        layout.flatten_layers([Layer()])
        Layer.from_tar_bytes(Layer().to_tar_bytes())   # staticmethod kept
        tracer.active = False
        assert tracer.totals()["oci"][0] == 3
    finally:
        tracer.uninstall()
    for module in (apply, layout, oci, build):
        assert module.flatten_layers is original
    assert isinstance(Layer.__dict__["from_tar_bytes"], staticmethod)
    assert tracer.leaks() == []


def test_uninstall_restores_aliases_bound_while_tracing():
    import types

    import repro.simbin as simbin

    original = simbin.read_program_marker
    tracer = Tracer(["simbin"])
    tracer.install([("simbin", "repro.simbin", "read_program_marker")])
    late = types.ModuleType("repro._late_alias_probe")
    late.read_program_marker = simbin.read_program_marker   # the wrapper
    sys.modules[late.__name__] = late
    try:
        assert tracer.leaks() == ["repro._late_alias_probe.read_program_marker",
                                  "repro.simbin.read_program_marker"]
        tracer.uninstall()
        assert late.read_program_marker is original
        assert tracer.leaks() == []
    finally:
        del sys.modules[late.__name__]


def test_every_declared_boundary_resolves():
    import importlib

    for layer in definitions.LAYERS:
        assert layer.most and set(layer.most) <= set(definitions.WORKLOAD_NAMES)
        for module, qualname in layer.boundaries:
            obj = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            assert callable(obj), (module, qualname)


# -- comparison -------------------------------------------------------------

def _metric(name):
    return next(m for m in END_TO_END if m.name == name)


def test_compare_verdicts():
    tput = _metric("throughput_ops_s")
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare_metric("w", tput, base, base).verdict == "same"
    assert compare_metric("w", tput, base,
                          [v * 0.8 for v in base]).verdict == "regression"
    assert compare_metric("w", tput, base,
                          [v * 1.2 for v in base]).verdict == "better"
    noisy = [70.0, 100.0, 130.0, 85.0, 115.0]
    assert compare_metric("w", tput, base, noisy).verdict == "unresolved"
    errors = _metric("error_rate")
    assert compare_metric("w", errors, [0.0] * 5,
                          [0.0] * 5).verdict == "same"
    assert compare_metric("w", errors, [0.0] * 5,
                          [0.0, 0.0, 0.0, 0.0, 0.01]).verdict == "unresolved"
    assert compare_metric("w", errors, [0.0] * 5,
                          [0.01] * 5).verdict == "regression"


def test_claim_needs_nine_in_ten_pair_wins_and_a_gap_beyond_iqr():
    p50 = _metric("latency_p50_ms")
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert claim_met(p50, parent, [v - 1.0 for v in parent])[0]
    one_loss = [v - 1.0 for v in parent]
    one_loss[0], one_loss[1] = 10.5, 10.5
    assert not claim_met(p50, parent, one_loss)[0]
    assert not claim_met(p50, parent, [v - 0.01 for v in parent])[0]


# -- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_mirrors_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(
        definitions.WORKLOAD_NAMES)
    declared = [m for m in END_TO_END if not m.absolute]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in declared]
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in definitions.per_layer_metrics()]
    assert spec["run_seconds"] == definitions.REFERENCE_SECONDS
    assert spec["paths"] == ["benchmarks/harness"]
    assert len(spec["per_layer"]) == len(LAYER_NAMES) * 3 + 6


# -- workloads --------------------------------------------------------------

TINY_OPS = {"cold-adapt": 2, "warm-readapt": 8, "serve-burst": 2,
            "mirror-sync": 3}


def _fold(workload: str, hashseed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    code = ("import json; from benchmarks.harness.measure import measure; "
            f"r = measure({workload!r}, 0, {TINY_OPS[workload]}); "
            "print(json.dumps([r['output_fold'], r['failed']]))")
    return subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)


@pytest.mark.parametrize("workload", definitions.WORKLOAD_NAMES)
def test_output_fold_is_independent_of_hash_seed(workload):
    procs = [_fold(workload, seed) for seed in ("0", "1")]
    results = []
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            results.append(json.loads(out.splitlines()[-1]))
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert results[0] == results[1]
    assert results[0][1] == 0


def test_cold_specs_differ_by_seed_only_in_pairing_and_order():
    from benchmarks.harness.workloads import cold_specs

    a, b = cold_specs(0, 60), cold_specs(1, 60)
    for field in ("cache_size", "n_sources", "n_compile_commands"):
        assert sorted(getattr(s, field) for s in a) == sorted(
            getattr(s, field) for s in b)
    assert [(s.cache_size, s.n_sources) for s in a] != [
        (s.cache_size, s.n_sources) for s in b]
    sizes = [s.cache_size for s in a]
    assert sizes == sorted(sizes, reverse=True)
    assert len({s.name for s in a}) == 60
    assert cold_specs(0, 60) == a
