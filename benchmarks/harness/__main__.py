"""Command line: run the benchmark, or compare two sets of runs.

    python -m benchmarks.harness --seed 0 [--workload NAME] [--trace]
        [--seconds S] [--repeat N] [--out FILE]
    python -m benchmarks.harness compare A.json B.json [--claim W:METRIC]

A run prints every metric by name with its unit, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  It
exits 0 when every output checked out, 1 when one did not, and 2 without
a result when the measuring subprocesses could not run at all.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .compare import compare, load_runs
from .definitions import END_TO_END, REFERENCE_SECONDS, WORKLOAD_NAMES
from .runner import HarnessError, render, result_line, run_all


def _run(argv) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all four, in order)")
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="run length; sets each workload's op count "
                             "(its ops at %(default)s s, scaled)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run a traced twin and report per-layer "
                             "metrics instead of end-to-end ones")
    parser.add_argument("--repeat", type=int, default=1,
                        help="whole runs to make (all kept in --out)")
    parser.add_argument("--out", help="write every run record here as JSON "
                                      "(traces go next to it)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    try:
        runs = run_all(workloads, args.seed, args.seconds, bool(args.trace),
                       repeat=args.repeat, out=args.out)
    except HarnessError as exc:
        print(f"harness: {exc}", file=sys.stderr)
        return 2
    for run in runs:
        print(render(run))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": bool(args.trace), "runs": runs}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    result = result_line(runs[-1], bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if all(all(r["correct"] for r in run.values())
                    for run in runs) else 1


def _compare(argv) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness compare")
    parser.add_argument("a", help="parent runs (--out file)")
    parser.add_argument("b", help="change runs (--out file)")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="apply the pair-win rule to a claimed gain")
    args = parser.parse_args(argv)
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in WORKLOAD_NAMES or metric not in {
                m.name for m in END_TO_END}:
            parser.error(f"unknown claim {args.claim!r}")
        claim = (workload, metric)
    report, ok = compare(load_runs(args.a), load_runs(args.b), claim)
    print(report)
    return 0 if ok else 1


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so a running measurement subprocess is
    # killed and reaped on the way out instead of being orphaned.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    return _run(argv)


if __name__ == "__main__":
    sys.exit(main())
