"""Compare two sets of runs: parent (A) against change (B).

Per (workload, end-to-end metric) it reports both sides' median and
quartiles and one verdict:

* ``regression`` — B's median is worse than A's by more than the
  metric's declared bound;
* ``unresolved`` — the run-to-run spread (interquartile range over
  median) of either side exceeds the bound, unless every B run reads
  better than every A run;
* ``better`` / ``same`` otherwise.

Values that must repeat exactly (``output_fold``, every ``calls_per_op``
and ``errors`` count, the public-output ratios) are checked across all
runs of both sides.  With a named claim it applies the pair-win rule:
B must win at least 9 of every 10 (A, B) pairs, ties counting for
neither, and the medians must differ by more than A's interquartile
range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .definitions import END_TO_END, RATIO_METRICS, Metric
from .stats import quartiles, relative_spread

#: Share of (A, B) pairs B must win for a claimed gain.
PAIR_WIN_SHARE = 0.9


def load_runs(path: str) -> List[Dict[str, dict]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def _worse_by(metric: Metric, a: float, b: float) -> float:
    """How much worse *b* is than *a* (negative when better), as a share
    of *a* or, for an absolute bound, in the metric's unit."""
    delta = (b - a) if metric.better == "lower" else (a - b)
    if metric.absolute:
        return delta
    return delta / abs(a) if a else (0.0 if delta == 0 else float("inf"))


def _spread(metric: Metric, values: Sequence[float]) -> float:
    if metric.absolute:
        q1, _, q3 = quartiles(values)
        return q3 - q1
    return relative_spread(values)


def _better(metric: Metric, a: float, b: float) -> bool:
    return b < a if metric.better == "lower" else b > a


@dataclass
class Row:
    workload: str
    metric: Metric
    a: Tuple[float, float, float]
    b: Tuple[float, float, float]
    worse_by: float
    spread: float
    verdict: str


def compare_metric(workload: str, metric: Metric, a: Sequence[float],
                   b: Sequence[float]) -> Row:
    qa, qb = quartiles(a), quartiles(b)
    worse = _worse_by(metric, qa[1], qb[1])
    spread = max(_spread(metric, a), _spread(metric, b))
    separated = all(_better(metric, x, y) for x in a for y in b)
    if worse > metric.bound:
        verdict = "regression"
    elif spread > metric.bound and not separated:
        verdict = "unresolved"
    elif worse < 0:
        verdict = "better"
    else:
        verdict = "same"
    return Row(workload, metric, qa, qb, worse, spread, verdict)


def claim_met(metric: Metric, a: Sequence[float],
              b: Sequence[float]) -> Tuple[bool, int, int]:
    """Pair-win rule for a claimed gain; returns (met, wins, pairs)."""
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if _better(metric, x, y))
    qa, qb = quartiles(a), quartiles(b)
    gap = qb[1] - qa[1] if metric.better == "higher" else qa[1] - qb[1]
    met = bool(pairs) and wins >= PAIR_WIN_SHARE * len(pairs) \
        and gap > qa[2] - qa[0]
    return met, wins, len(pairs)


def _exact_values(run: dict) -> Dict[str, object]:
    values: Dict[str, object] = {"output_fold": run["output_fold"]}
    for name, value in run["layers"].items():
        if (name.endswith((".calls_per_op", ".errors"))
                or name in RATIO_METRICS):
            values[name] = value
    return values


def nondeterministic(workload: str, runs: Sequence[dict]) -> List[str]:
    """Exact-repeat values that differ between runs of *workload*."""
    seen: Dict[str, set] = {}
    for run in runs:
        for name, value in _exact_values(run).items():
            seen.setdefault(name, set()).add(json.dumps(value))
    return sorted(f"{workload} {name}: {len(v)} distinct values"
                  for name, v in seen.items() if len(v) > 1)


def compare(a_runs: List[Dict[str, dict]], b_runs: List[Dict[str, dict]],
            claim: Optional[Tuple[str, str]] = None) -> Tuple[str, bool]:
    """Render the comparison; returns (report, ok)."""
    workloads = [w for w in a_runs[0] if w in b_runs[0]]
    lines = [f"A: {len(a_runs)} runs, B: {len(b_runs)} runs",
             f"{'workload':<13} {'metric':<17} {'A q1/median/q3':>32} "
             f"{'B q1/median/q3':>32} {'worse':>8} {'spread':>7} "
             f"{'bound':>6}  verdict"]
    ok = True
    for workload in workloads:
        for metric in END_TO_END:
            a = [run[workload]["metrics"][metric.name] for run in a_runs]
            b = [run[workload]["metrics"][metric.name] for run in b_runs]
            row = compare_metric(workload, metric, a, b)
            ok &= row.verdict not in ("regression", "unresolved")
            fa = "/".join(f"{v:.4g}" for v in row.a)
            fb = "/".join(f"{v:.4g}" for v in row.b)
            unit = "" if metric.absolute else "%"
            scale = 1 if metric.absolute else 100
            lines.append(
                f"{workload:<13} {metric.name:<17} {fa:>32} {fb:>32} "
                f"{row.worse_by * scale:>7.2f}{unit} "
                f"{row.spread * scale:>6.2f}{unit} "
                f"{metric.bound * scale:>5.0f}{unit}  {row.verdict}")
        drift = nondeterministic(
            workload, [run[workload] for run in a_runs + b_runs])
        for line in drift:
            lines.append(f"NONDETERMINISTIC {line}")
        ok &= not drift
    if claim is not None:
        workload, name = claim
        metric = next(m for m in END_TO_END if m.name == name)
        a = [run[workload]["metrics"][name] for run in a_runs]
        b = [run[workload]["metrics"][name] for run in b_runs]
        met, wins, pairs = claim_met(metric, a, b)
        lines.append(f"claim {workload} {name}: B wins {wins}/{pairs} pairs; "
                     f"{'met' if met else 'NOT met'}")
        ok &= met
    return "\n".join(lines), ok
