"""Profile the timed region of one harness workload.

    python scripts/profile_ops.py WORKLOAD [--ops 30] [--seed 7] [--self]
                                  [--fn NAME[,NAME...]] [--callers NAME[,NAME...]]
                                  [--window N]

Builds the workload from ``benchmarks.harness.workloads`` in this process
(its set-up is not profiled), then runs ``workload.run(i)`` for each op
under one cProfile, the region the harness times, and ``check(i, out)``
outside it, as the harness does.  Prints the top 25 ``repro`` functions
by cumulative time, each with its calls per op, its cumulative milliseconds
per op and its share of the profiled time.  With ``--self`` it then
prints the top 25 functions of any module, standard library and
built-ins included, by self time, so a cost spread over many ``repro``
callers (JSON encoding, say) shows where it is paid.  With ``--fn`` it
then prints the calls per op and cumulative milliseconds per op of every
``repro`` function with one of those names, in or out of the top 25, so a
count that falls out of the top can still be read before and after a
change.  With ``--callers`` it prints, for every ``repro`` function with
one of those names, each of its callers with the calls per op and
cumulative milliseconds per op that caller accounts for (pstats' caller
edges), so a count can be attributed to the code that makes it.  A name
given as ``FILE-SUFFIX:NAME`` (``json/__init__.py:dumps``) matches the
functions of that name in any file whose path ends with the suffix,
outside ``repro`` too.  With ``--window N`` it then prints the mean
profiled milliseconds per op of each window of N consecutive ops (the
last one may be shorter) and the last window's mean over the first's, so
a cost that grows with the workload's history shows as a rising row.
For a given workload, seed and op count the call counts repeat exactly;
the times do not.
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
    """``repro/pkg/module.py:LINE(name)`` for a pstats function key (the
    full path for a function outside ``repro``)."""
    path, line, name = key
    if MARKER in path:
        path = path[path.index(MARKER) + 1:]
    return f"{path}:{line}({name})"


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


def by_self(stats, ops, profiled_s, top=TOP):
    """Table lines for the *top* functions of a pstats *stats* dict, of any
    module, sorted by self time: calls per op, self milliseconds per op and
    share of *profiled_s*."""
    rows = sorted(stats.items(), key=lambda row: (-row[1][2], label(row[0])))[:top]
    lines = [f"{'calls/op':>10} {'self ms/op':>10} {'share':>6}  function"]
    for key, (_, calls, own, _, _) in rows:
        lines.append(f"{calls / ops:>10.1f} {own * 1e3 / ops:>10.3f}"
                     f" {own / profiled_s:>6.1%}  {label(key)}")
    return lines


def wanted(key, names):
    """Whether the function of a pstats *key* is one of *names*: a bare
    name matches the ``repro`` functions of that name, and
    ``FILE-SUFFIX:NAME`` the functions of that name in any file whose
    path ends with the suffix."""
    path, _, function = key
    for name in names:
        suffix, _, bare = name.rpartition(":")
        if bare == function and (path.endswith(suffix.replace("/", os.sep))
                                 if suffix else MARKER in path):
            return True
    return False


def named(stats, ops, names):
    """Table lines for every function of a pstats *stats* dict that
    :func:`wanted` finds in *names*, ordered by label: calls per op and
    cumulative milliseconds per op."""
    rows = sorted((label(key), entry) for key, entry in stats.items()
                  if wanted(key, names))
    lines = [f"{'calls/op':>10} {'cum ms/op':>10}  function"]
    for name, (_, calls, _, cumulative, _) in rows:
        lines.append(f"{calls / ops:>10.1f} {cumulative * 1e3 / ops:>10.3f}  {name}")
    return lines


def callers(stats, ops, names):
    """Table lines for every function of a pstats *stats* dict that
    :func:`wanted` finds in *names*, ordered by label, each followed by its
    callers (``<-``), most calls first: calls per op and cumulative
    milliseconds per op, in total and through each caller."""
    rows = sorted((label(key), entry) for key, entry in stats.items()
                  if wanted(key, names))
    lines = [f"{'calls/op':>10} {'cum ms/op':>10}  function"]
    for name, (_, calls, _, cumulative, by_caller) in rows:
        lines.append(f"{calls / ops:>10.1f} {cumulative * 1e3 / ops:>10.3f}  {name}")
        # A caller edge is (calls, primitive calls, own s, cumulative s).
        edges = sorted(((label(caller), edge) for caller, edge in by_caller.items()),
                       key=lambda item: (-item[1][0], item[0]))
        for caller, (edge_calls, _, _, edge_cumulative) in edges:
            lines.append(f"{edge_calls / ops:>10.1f} {edge_cumulative * 1e3 / ops:>10.3f}"
                         f"    <- {caller}")
    return lines


def windows(laps, size):
    """Table lines for the mean milliseconds per op of each window of
    *size* consecutive ops of *laps* (per-op seconds), then the last
    window's mean over the first's."""
    means = []
    lines = [f"{'ops':>11} {'ms/op':>10}"]
    for start in range(0, len(laps), size):
        window = laps[start:start + size]
        means.append(sum(window) * 1e3 / len(window))
        ops = f"{start}-{start + len(window) - 1}"
        lines.append(f"{ops:>11} {means[-1]:>10.3f}")
    lines.append(f"# last/first {means[-1] / means[0]:.3f}")
    return lines


def profile(name, seed, ops):
    """(pstats dict, set-up seconds, per-op profiled wall-clock seconds)
    of *ops* ops of workload *name* at *seed*."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.harness.workloads import WORKLOAD_TYPES, CheckFailed

    start = time.perf_counter()
    workload = WORKLOAD_TYPES[name](seed, ops)
    setup_s = time.perf_counter() - start
    profiler = cProfile.Profile()
    laps = []
    for i in range(ops):
        profiler.enable()
        start = time.perf_counter()
        out = workload.run(i)
        laps.append(time.perf_counter() - start)
        profiler.disable()
        try:
            workload.check(i, out)
        except CheckFailed as exc:
            sys.exit(f"profile_ops: op {i} did not check out: {exc}")
    return pstats.Stats(profiler).stats, setup_s, laps


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python scripts/profile_ops.py")
    parser.add_argument("workload")
    parser.add_argument("--ops", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--self", action="store_true",
                        help="also list the top functions of any module by"
                             " self time")
    parser.add_argument("--fn", default="", metavar="NAME[,NAME...]",
                        help="also list every repro function of these names"
                             " (FILE-SUFFIX:NAME for any module's)")
    parser.add_argument("--callers", default="", metavar="NAME[,NAME...]",
                        help="also list the callers of every repro function"
                             " of these names (FILE-SUFFIX:NAME for any"
                             " module's)")
    parser.add_argument("--window", type=int, default=0, metavar="N",
                        help="also list the mean profiled ms/op of each"
                             " window of N consecutive ops")
    args = parser.parse_args(argv)
    stats, setup_s, laps = profile(args.workload, args.seed, args.ops)
    profiled_s = sum(laps)
    print(f"# {args.workload} seed {args.seed}: {args.ops} ops,"
          f" {profiled_s:.2f} s profiled (set-up {setup_s:.2f} s, not profiled)")
    print("\n".join(report(stats, args.ops, profiled_s)))
    if args.self:
        print(f"# top {TOP} functions of any module by self time")
        print("\n".join(by_self(stats, args.ops, profiled_s)))
    if args.fn:
        names = args.fn.split(",")
        print(f"# functions named {', '.join(names)}")
        print("\n".join(named(stats, args.ops, set(names))))
    if args.callers:
        names = args.callers.split(",")
        print(f"# callers of functions named {', '.join(names)}")
        print("\n".join(callers(stats, args.ops, set(names))))
    if args.window > 0:
        print(f"# profiled ms/op per window of {args.window} ops")
        print("\n".join(windows(laps, args.window)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
