"""Measure alternating (parent, change) harness pairs, then compare them.

    python scripts/bench_pairs.py BASE WORKLOAD OUT [--pairs 10] [--seed 7]
        [--claim WORKLOAD:METRIC]

Exports git revision BASE into a temporary directory with ``git archive``.
For each pair it runs one fresh ``python3 -m benchmarks.harness --workload
WORKLOAD --seed S --seconds T --trace 0 --out ...`` in BASE's tree (the
parent) and one in this script's tree (the change), where T is the
benchmark's ``run_seconds`` from ``BENCHMARK.json``, the same on both
sides.  The parent runs first on even pairs and the change first on odd
ones, so a drift in machine speed falls on both sides alike.  A harness
that exits nonzero, or a run whose outputs did not check out, stops the
script, naming the side and the pair.  Each run's record is kept in
``OUT/runs/``; each side's runs are merged, in pair order, into
``OUT/parent.json`` and ``OUT/change.json`` in the ``{seed, seconds,
trace, runs}`` shape that ``python3 -m benchmarks.harness compare`` reads,
and its report (with the pair-win rule when ``--claim`` is given) is
printed.  Exits with the compare's status.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The benchmark's run length, passed to both sides.
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
    "run_seconds"]
SIDES = ("parent", "change")
#: Fields a merged document takes from its runs; they must agree.
HEAD = ("seed", "seconds", "trace")


def pair_order(pairs):
    """``[(pair, side), ...]`` in run order: the parent first on even pairs."""
    order = []
    for i in range(pairs):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        order.extend((i, side) for side in sides)
    return order


def merge(records):
    """One ``--out`` document holding every run of *records*, in order."""
    head = {key: records[0][key] for key in HEAD}
    for record in records[1:]:
        if {key: record[key] for key in HEAD} != head:
            raise ValueError(f"runs disagree on {HEAD}: {head} vs {record}")
    return {**head, "runs": [run for record in records for run in record["runs"]]}


def harness(*args):
    return [sys.executable, "-m", "benchmarks.harness", *args]


def run_one(argv, cwd, run_out, side, pair):
    """Run one harness *argv* in *cwd* and return the record it wrote to
    *run_out*.  Exits, naming *side* and *pair*, when the harness exits
    nonzero or any of its runs did not check out."""
    run_out.unlink(missing_ok=True)
    code = subprocess.run(argv, cwd=cwd).returncode
    if code:
        sys.exit(f"bench_pairs: pair {pair}: the {side} harness exited {code}")
    record = json.loads(run_out.read_text(encoding="utf-8"))
    if not all(r["correct"] for run in record["runs"] for r in run.values()):
        sys.exit(f"bench_pairs: pair {pair}: the {side} outputs did not "
                 "check out")
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python scripts/bench_pairs.py")
    parser.add_argument("base", help="parent git revision")
    parser.add_argument("workload")
    parser.add_argument("out", help="directory for the runs and merged files")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    (out / "runs").mkdir(parents=True, exist_ok=True)
    records = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as parent_tree:
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_tree], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        for i, side in pair_order(args.pairs):
            run_out = out / "runs" / f"{side}.{i}.json"
            print(f"pair {i}: {side}", flush=True)
            records[side].append(run_one(
                harness("--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(SECONDS), "--trace", "0",
                        "--out", str(run_out)),
                trees[side], run_out, side, i))
    for side in SIDES:
        (out / f"{side}.json").write_text(
            json.dumps(merge(records[side]), indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    claim = ["--claim", args.claim] if args.claim else []
    return subprocess.run(harness("compare", str(out / "parent.json"),
                                  str(out / "change.json"), *claim)).returncode


if __name__ == "__main__":
    sys.exit(main())
