"""Run workloads in fresh subprocesses and turn what they measured into
the benchmark's metrics, checks and report."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .definitions import (
    END_TO_END,
    LAYER_NAMES,
    LAYERS,
    MAX_TRACE_OVERHEAD,
    SETUP_SAMPLES,
    per_layer_units,
)
from .probe import speed_factor, speed_factors
from .stats import percentile

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = Path(__file__).with_name("expected.json")
#: Longest one measuring subprocess may take before it is killed (a
#: healthy one takes under 40 s).
CHILD_TIMEOUT_S = 150


class HarnessError(Exception):
    """A measuring subprocess could not run (no result is printed)."""


def _child(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-m", "benchmarks.harness.measure",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), *flags]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} timed out after {exc.timeout}s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} measurement exited {proc.returncode}")
    return json.loads(lines[-1])


def expected_fold(workload: str, seed: int, seconds: float) -> Optional[str]:
    """The checked-in ``output_fold`` for this run, if one exists."""
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    if seconds != expected["seconds"]:
        return None
    return expected["folds"].get(workload, {}).get(str(seed))


def _timings(latencies_s: List[float]) -> Dict[str, float]:
    """Throughput and nearest-rank latency percentiles of one run's ops."""
    return {
        "throughput_ops_s": len(latencies_s) / sum(latencies_s),
        "latency_p50_ms": percentile(latencies_s, 50) * 1e3,
        "latency_p90_ms": percentile(latencies_s, 90) * 1e3,
    }


def _rescaled(child: dict) -> Tuple[List[float], float]:
    """A measured child's op latencies at reference machine speed (see
    :mod:`.probe`), and its median speed factor."""
    factors = speed_factors(child["probes_s"])
    scaled = [lat * f for lat, f in zip(child["latencies_s"], factors)]
    return scaled, statistics.median(factors)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 trace_file: Optional[str] = None) -> dict:
    """One run of *workload*: the timed subprocess, the set-up samples
    and, with *trace*, a traced twin; returns the run record."""
    main = _child(workload, seed, seconds)
    setups = [main] + [_child(workload, seed, seconds, "--setup-only")
                       for _ in range(SETUP_SAMPLES - 1)]
    scaled, speed = _rescaled(main)
    metrics = _timings(scaled)
    metrics["setup_s"] = statistics.median(
        s["setup_s"] * speed_factor(s["setup_probes_s"]) for s in setups)
    metrics["peak_rss_mb"] = main["peak_rss_mb"]
    metrics["error_rate"] = main["failed"] / main["attempted"]
    raw = _timings(main["latencies_s"])
    raw["speed"] = speed
    raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "ops": main["ops"], "attempted": main["attempted"],
        "failed": main["failed"], "output_fold": main["output_fold"],
        "metrics": metrics,
        "raw": raw,
        "samples": {"ops": main["ops"], "setup": len(setups)},
        "layers": dict(main["ratios"]),
        "problems": [],
    }
    problems = record["problems"]
    if main["failed"]:
        problems.append(f"{main['failed']} of {main['attempted']} ops failed")
    expected = expected_fold(workload, seed, seconds)
    if expected is not None and expected != main["output_fold"]:
        problems.append(f"output_fold {main['output_fold']} != expected "
                        f"{expected}")
    if trace:
        flags = ["--trace"] + (["--trace-file", trace_file] if trace_file
                               else [])
        traced = _child(workload, seed, seconds, *flags)
        record["layers"].update(
            _layer_metrics(traced, metrics["throughput_ops_s"]))
        problems.extend(_trace_problems(workload, traced, main, record))
    record["correct"] = not problems
    return record


def _layer_metrics(traced: dict, throughput: float) -> Dict[str, float]:
    """Per-layer tallies per op; self times rescaled by the traced run's
    median machine speed.  *throughput* is the untraced run's."""
    scaled, speed = _rescaled(traced)
    ms_per_op = speed * 1e3 / traced["ops"]
    out: Dict[str, float] = {}
    for layer in LAYER_NAMES:
        calls, self_s, errors = traced["layers"][layer]
        out[f"{layer}.calls_per_op"] = calls / traced["ops"]
        out[f"{layer}.self_ms_per_op"] = self_s * ms_per_op
        out[f"{layer}.errors"] = errors
    out["unattributed.self_ms_per_op"] = traced["unattributed_s"] * ms_per_op
    out["trace.overhead"] = throughput * sum(scaled) / len(scaled) - 1.0
    return out


def _trace_problems(workload: str, traced: dict, main: dict,
                    record: dict) -> List[str]:
    problems = []
    if traced["output_fold"] != main["output_fold"]:
        problems.append("tracing changed the outputs (output_fold differs)")
    for layer in LAYERS:
        if workload in layer.most and traced["layers"][layer.name][0] == 0:
            problems.append(f"layer {layer.name} recorded 0 calls on "
                            f"{workload}: a wrapper was bypassed")
    if traced["leaks"]:
        problems.append(f"wrappers left installed: {traced['leaks']}")
    overhead = record["layers"]["trace.overhead"]
    if overhead > MAX_TRACE_OVERHEAD:
        problems.append(f"trace overhead {overhead:.1%} exceeds "
                        f"{MAX_TRACE_OVERHEAD:.0%}")
    return problems


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render(run: Dict[str, dict]) -> str:
    """Human-readable metric tables for one run of several workloads."""
    lines = [f"{'workload':<13} {'metric':<36} {'value':>12}  unit"]
    for workload, record in run.items():
        for metric in END_TO_END:
            samples = (f"  ({record['samples']['setup']} set-ups)"
                       if metric.name == "setup_s"
                       else f"  ({record['samples']['ops']} ops)")
            lines.append(f"{workload:<13} {metric.name:<36} "
                         f"{_fmt(record['metrics'][metric.name]):>12}  "
                         f"{metric.unit}{samples}")
        lines.append(f"{workload:<13} {'output_fold':<36} "
                     f"{record['output_fold']}  sha256")
    units = per_layer_units()
    for workload, record in run.items():
        for name, value in record["layers"].items():
            lines.append(f"{workload:<13} {name:<36} {_fmt(value):>12}  "
                         f"{units[name]}")
    for workload, record in run.items():
        for problem in record["problems"]:
            lines.append(f"FAIL {workload}: {problem}")
    return "\n".join(lines)


def result_line(run: Dict[str, dict], traced: bool) -> dict:
    """The machine-read summary: one JSON object, printed last."""
    units = per_layer_units()
    single = len(run) == 1
    metrics = {}
    for workload, record in run.items():
        prefix = "" if single else f"{workload}."
        if traced:
            chosen = {name: (record["layers"][name], units[name])
                      for name in units}
        else:
            chosen = {m.name: (record["metrics"][m.name], m.unit)
                      for m in END_TO_END if not m.absolute}
        for name, (value, unit) in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(r["correct"] for r in run.values()),
        "attempted": sum(r["attempted"] for r in run.values()),
        "failed": sum(r["failed"] for r in run.values()),
        "metrics": metrics,
    }


def run_all(workloads: Sequence[str], seed: int, seconds: float, trace: bool,
            repeat: int = 1, out: Optional[str] = None) -> List[Dict[str, dict]]:
    """*repeat* runs over *workloads*, one subprocess set per workload.
    A traced first run writes its spans next to *out*."""
    runs = []
    for rep in range(repeat):
        run = {}
        for workload in workloads:
            trace_file = None
            if trace and out is not None and rep == 0:
                stem = out[:-5] if out.endswith(".json") else out
                trace_file = f"{stem}.{workload}.trace.json"
            run[workload] = run_workload(workload, seed, seconds, trace,
                                         trace_file)
        runs.append(run)
    return runs
