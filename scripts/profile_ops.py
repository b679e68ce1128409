"""Profile the timed region of one harness workload.

    python scripts/profile_ops.py WORKLOAD [--ops 30] [--seed 7]

Builds the workload from ``benchmarks.harness.workloads`` in this process
(its set-up is not profiled), then runs ``workload.run(i)`` for each op
under one cProfile, the region the harness times, and ``check(i, out)``
outside it, as the harness does.  Prints the top 25 ``repro`` functions
by cumulative time, each with its calls per op, its cumulative milliseconds
per op and its share of the profiled time.  For a given workload, seed
and op count the call counts repeat exactly; the times do not.
"""

import argparse
import cProfile
import os
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: What marks a profiled function as part of the system under test.
MARKER = f"{os.sep}repro{os.sep}"
#: How many functions the report lists.
TOP = 25


def label(key):
    """``repro/pkg/module.py:LINE(name)`` for a pstats function key."""
    path, line, name = key
    return f"{path[path.index(MARKER) + 1:]}:{line}({name})"


def report(stats, ops, profiled_s, top=TOP):
    """Table lines for the *top* ``repro`` functions of a pstats *stats*
    dict (``{(path, line, name): (cc, nc, tt, ct, callers)}``), sorted by
    cumulative time.  A share is of *profiled_s*, the wall-clock seconds
    the *ops* profiled ops took."""
    rows = sorted(((key, entry) for key, entry in stats.items()
                   if MARKER in key[0]), key=lambda row: -row[1][3])[:top]
    lines = [f"{'calls/op':>10} {'cum ms/op':>10} {'share':>6}  function"]
    for key, (_, calls, _, cumulative, _) in rows:
        lines.append(f"{calls / ops:>10.1f} {cumulative * 1e3 / ops:>10.3f}"
                     f" {cumulative / profiled_s:>6.1%}  {label(key)}")
    return lines


def profile(name, seed, ops):
    """(pstats dict, set-up seconds, profiled wall-clock seconds) of *ops*
    ops of workload *name* at *seed*."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.harness.workloads import WORKLOAD_TYPES, CheckFailed

    start = time.perf_counter()
    workload = WORKLOAD_TYPES[name](seed, ops)
    setup_s = time.perf_counter() - start
    profiler = cProfile.Profile()
    profiled_s = 0.0
    for i in range(ops):
        profiler.enable()
        start = time.perf_counter()
        out = workload.run(i)
        profiled_s += time.perf_counter() - start
        profiler.disable()
        try:
            workload.check(i, out)
        except CheckFailed as exc:
            sys.exit(f"profile_ops: op {i} did not check out: {exc}")
    return pstats.Stats(profiler).stats, setup_s, profiled_s


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python scripts/profile_ops.py")
    parser.add_argument("workload")
    parser.add_argument("--ops", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    stats, setup_s, profiled_s = profile(args.workload, args.seed, args.ops)
    print(f"# {args.workload} seed {args.seed}: {args.ops} ops,"
          f" {profiled_s:.2f} s profiled (set-up {setup_s:.2f} s, not profiled)")
    print("\n".join(report(stats, args.ops, profiled_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
