"""Profile the timed region of one harness workload.

    python scripts/profile_ops.py WORKLOAD [--ops 30] [--seed 7] [--self]
                                  [--fn NAME[,NAME...]] [--callers NAME[,NAME...]]
                                  [--window N] [--gc] [--memo] [--memo-off NAME[,...]]
                                  [--rss]
    python scripts/profile_ops.py WORKLOAD [--ops 30] [--seed 7]
                                  --wall MODULE:QUALNAME[,...] [--window N] [--gc]
                                  [--memo] [--memo-off NAME[,...]] [--rss]

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

cProfile inflates code that makes many small calls, so a share it reports
can overstate a function's share of the wall-clock time.  ``--wall``
runs the ops without cProfile instead and times only the functions it
names (``repro.perf.incremental:plan_rebuild``, a method as
``module:Class.method``): for each, its calls per op, its inclusive
wall-clock milliseconds per op, counting only the outermost of nested or
recursive calls, and that time's share of the timed region.  Every name
is resolved before the workload is built, and one that does not resolve
exits 2 naming it (with the import error, when its module exists but
fails to import).  The functions are wrapped by identity, as the
harness tracer wraps its boundaries, in their module and in every loaded
``repro`` or ``benchmarks`` module that imported them by name (so the
workloads' own ``from repro... import f`` calls are timed), and every
wrapper is removed afterwards.  A row with no recorded call is marked
``(not reached)``: the function did not run, or ran through a reference
the wrapping cannot see (a registry that holds the function itself).
A wrapper costs time of its own, which every row that encloses its
calls reads too: before the ops run, the wrapper is timed on a no-op,
the header gives what one timed call adds, and each row's ``wrap
ms/op`` is its calls per op times that (so a row of a function called
thousands of times per op shows what it added to its callers' rows).

cProfile also charges the garbage collector's pauses to whichever
function happens to allocate when a collection starts.  ``--gc``, with
or without ``--wall``, then prints the collector's cost over the timed
ops only: for each generation, its collections per op, its milliseconds
per op and their share of the timed region, and the objects per op it
found unreachable and freed (cyclic garbage: what reference counting
alone could not free), measured through a ``gc.callbacks`` hook that is
present only while an op runs.

``--memo``, with or without ``--wall``, then prints every registered
memo's traffic (:data:`repro.memo.MEMOS`) over the timed ops only: its
lookups per op, the share of them that hit, its stores per op and its
entries after the last op.

``--memo-off NAME[,...]``, with or without ``--wall``, runs each timed
op with those memos switched off: each gets a cap of 0 and loses its
entries (what the set-up stored among them), so every lookup misses and
nothing is stored; the caps are restored around each check.  The
``--memo`` table reads the memos' own counters either way, so a memo's
worth is the difference between a run with and a run without it.

``--rss``, with or without ``--wall``, then prints the process's RSS
high-water mark (``ru_maxrss``, what the harness reports as
``peak_rss_mb``) and its count of gc-tracked objects twice: after the
set-up, as the first op starts, and after the last timed op.  Neither
reading is timed or profiled.  A workload whose retained state grows
with its ops shows as a gap between the two rows.
"""

import argparse
import contextlib
import cProfile
import functools
import gc
import importlib
import os
import pstats
import resource
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


class WallClock:
    """Calls and inclusive wall-clock seconds of named functions.

    Each name is ``module:qualname``.  A method (or property, cached
    property, static or class method) is replaced on its class; a module
    function on the named module and on every loaded ``repro`` or
    ``benchmarks`` module attribute that *is* it, so ``from x import f``
    aliases are timed too.  Wrappers count only inside a ``with`` block
    of the clock, and time only the outermost of nested or recursive
    calls of one function.  :meth:`uninstall` restores every original.
    """

    #: Top-level packages whose modules' aliases of a timed function are
    #: rebound too.
    PACKAGES = ("repro", "benchmarks")

    def __init__(self, names, clock=time.perf_counter):
        self.names = list(names)
        self.clock = clock
        #: Seconds one timed call adds to the call it wraps
        #: (:func:`wrapper_cost`); None until measured.
        self.per_call_s = None
        self.active = False
        self.calls = [0] * len(self.names)
        self.seconds = [0.0] * len(self.names)
        self._running = [False] * len(self.names)
        self._patches = []

    def wrap(self, index, fn):
        """A counting, timing wrapper around *fn* for name *index*."""
        timer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not timer.active:
                return fn(*args, **kwargs)
            timer.calls[index] += 1
            if timer._running[index]:
                return fn(*args, **kwargs)
            timer._running[index] = True
            start = timer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timer.seconds[index] += timer.clock() - start
                timer._running[index] = False

        return wrapper

    def __enter__(self):
        self.active = True

    def __exit__(self, *exc):
        self.active = False

    @staticmethod
    def _lookup(name):
        """``(module, owner, attr, raw)`` of *name*: *owner* is the class
        that holds a method (None for a module function), and *raw* what
        the class or module holds under *attr*."""
        module_name, _, qualname = name.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if not owner_name:
            return module, None, attr, getattr(module, attr)
        owner = functools.reduce(getattr, owner_name.split("."), module)
        return module, owner, attr, owner.__dict__[attr]

    def unresolved(self):
        """``(missing, broken)``, each in the order given: the names that
        name no function (no module, class or attribute), and a
        ``(name, error)`` pair for each name whose module exists but
        raised *error* on import."""
        missing, broken = [], []
        for name in self.names:
            module = name.partition(":")[0]
            try:
                self._lookup(name)
            except ModuleNotFoundError as exc:
                if f"{module}.".startswith(f"{exc.name}."):
                    missing.append(name)
                else:
                    broken.append((name, exc))
            except ImportError as exc:
                broken.append((name, exc))
            except (AttributeError, KeyError, ValueError):
                missing.append(name)
        return missing, broken

    def install(self):
        """Replace every named function with its wrapper."""
        for index, name in enumerate(self.names):
            module, owner, attr, raw = self._lookup(name)
            if owner is not None:
                if isinstance(raw, property):
                    wrapped = raw.getter(self.wrap(index, raw.fget))
                elif isinstance(raw, functools.cached_property):
                    wrapped = functools.cached_property(self.wrap(index, raw.func))
                    wrapped.__set_name__(owner, attr)
                elif isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self.wrap(index, raw.__func__))
                elif callable(raw):
                    wrapped = self.wrap(index, raw)
                else:
                    raise TypeError(f"cannot time {name}: a {type(raw).__name__}")
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self.wrap(index, raw)
            loaded = [mod for key, mod in list(sys.modules.items())
                      if mod is not None and key.split(".")[0] in self.PACKAGES]
            for mod in {id(mod): mod for mod in [module, *loaded]}.values():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, raw, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self, ops, timed_s):
        """Table lines, one per name in the order given: calls per op,
        inclusive milliseconds per op and share of *timed_s*, then, once
        :attr:`per_call_s` is measured, the milliseconds per op the
        name's own wrapper added (calls times that cost); a name with no
        recorded call is marked ``(not reached)``."""
        cost = self.per_call_s
        wrap = "" if cost is None else f" {'wrap ms/op':>10}"
        lines = [f"{'calls/op':>10} {'incl ms/op':>10} {'share':>6}{wrap}  function"]
        for name, calls, seconds in zip(self.names, self.calls, self.seconds):
            note = "" if calls else "  (not reached)"
            wrap = "" if cost is None else f" {calls * cost * 1e3 / ops:>10.3f}"
            lines.append(f"{calls / ops:>10.1f} {seconds * 1e3 / ops:>10.3f}"
                         f" {seconds / timed_s:>6.1%}{wrap}  {name}{note}")
        return lines


#: Calls per round, and rounds, of the no-op :func:`wrapper_cost` times.
PROBE_CALLS = 20_000
PROBE_ROUNDS = 5


def wrapper_cost(calls=PROBE_CALLS, rounds=PROBE_ROUNDS):
    """Seconds one call through a counting :class:`WallClock` wrapper adds
    to the call it wraps: a no-op called bare and wrapped, *calls* times a
    round, each the fastest of *rounds* rounds."""
    def noop():
        return None

    def fastest(fn):
        laps = []
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            laps.append(time.perf_counter() - start)
        return min(laps)

    probe = WallClock(["noop"])
    wrapped = probe.wrap(0, noop)
    with probe:
        added = fastest(wrapped) - fastest(noop)
    return max(0.0, added / calls)


class GcClock:
    """Collections, seconds and freed objects of the garbage collector per
    generation.

    Counts only inside ``with`` blocks of the clock: entering one adds a
    ``gc.callbacks`` hook, which times each collection from its start to
    its stop and adds up the objects it collected, and leaving it removes
    the hook again.
    """

    GENERATIONS = 3

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.collections = [0] * self.GENERATIONS
        self.seconds = [0.0] * self.GENERATIONS
        self.freed = [0] * self.GENERATIONS
        self._started = None

    def _note(self, phase, info):
        if phase == "start":
            self._started = self.clock()
        elif self._started is not None:
            generation = info["generation"]
            self.collections[generation] += 1
            self.seconds[generation] += self.clock() - self._started
            self.freed[generation] += info["collected"]
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self._note)

    def __exit__(self, *exc):
        gc.callbacks.remove(self._note)
        self._started = None

    def table(self, ops, timed_s):
        """Table lines, one per generation and a total: collections per
        op, milliseconds per op, share of *timed_s* and objects freed per
        op."""
        rows = [(str(g), self.collections[g], self.seconds[g], self.freed[g])
                for g in range(self.GENERATIONS)]
        rows.append(("all", sum(self.collections), sum(self.seconds),
                     sum(self.freed)))
        lines = [f"{'gen':>5} {'colls/op':>10} {'ms/op':>10} {'share':>6}"
                 f" {'freed/op':>10}"]
        for name, collections, seconds, freed in rows:
            lines.append(f"{name:>5} {collections / ops:>10.3f}"
                         f" {seconds * 1e3 / ops:>10.3f} {seconds / timed_s:>6.1%}"
                         f" {freed / ops:>10.2f}")
        return lines


class MemoTraffic:
    """Lookups, hits and stores of every registered memo, counted only
    inside ``with`` blocks of it: entering one notes each memo's counts,
    and leaving it adds what they grew by."""

    def __init__(self):
        self.counts = {}
        self._entered = {}

    @staticmethod
    def _now():
        from repro.memo import MEMOS

        return {name: (memo.hits + memo.misses, memo.hits, memo.stores)
                for name, memo in MEMOS.items()}

    def __enter__(self):
        self._entered = self._now()

    def __exit__(self, *exc):
        for name, now in self._now().items():
            before = self._entered.get(name, (0, 0, 0))
            total = self.counts.setdefault(name, [0, 0, 0])
            for i, (after, start) in enumerate(zip(now, before)):
                total[i] += after - start

    def table(self, ops):
        """Table lines, one per memo in registration order: lookups per
        op, hit ratio, stores per op and entries now."""
        from repro.memo import MEMOS

        lines = [f"{'lookups/op':>10} {'hits':>6} {'stores/op':>10}"
                 f" {'entries':>7}  memo"]
        for name, memo in MEMOS.items():
            lookups, hits, stores = self.counts.get(name, (0, 0, 0))
            ratio = hits / lookups if lookups else 0.0
            lines.append(f"{lookups / ops:>10.2f} {ratio:>6.1%}"
                         f" {stores / ops:>10.2f} {len(memo):>7}  {name}")
        return lines


class MemosOff:
    """The memos named *names* (:data:`repro.memo.MEMOS`) switched off
    inside ``with`` blocks of it: entering one gives each a cap of 0 and
    drops its entries, and leaving it restores the caps.  An unknown name
    exits with the known ones."""

    def __init__(self, names):
        self.names = tuple(names)
        self._caps = {}

    def __enter__(self):
        from repro.memo import MEMOS

        unknown = sorted(set(self.names) - set(MEMOS))
        if unknown:
            sys.exit(f"profile_ops: no memo named {', '.join(unknown)}"
                     f" (memos: {', '.join(MEMOS)})")
        for name in self.names:
            memo = MEMOS[name]
            self._caps[name] = memo.cap
            memo.cap = 0
            memo.clear()

    def __exit__(self, *exc):
        from repro.memo import MEMOS

        for name, cap in self._caps.items():
            MEMOS[name].cap = cap
        self._caps.clear()


class Footprint:
    """The process's RSS high-water mark and gc-tracked objects, read as
    the first of *ops* ``with`` blocks opens (after the set-up) and as
    the last one closes (after the timed ops)."""

    def __init__(self, ops):
        self.ops = ops
        #: ``(after what, ru_maxrss MiB, gc-tracked objects)`` per reading.
        self.marks = []
        self._closed = 0

    @staticmethod
    def _now():
        # ru_maxrss is in KiB on Linux, as the harness reads it.
        return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                len(gc.get_objects()))

    def __enter__(self):
        if not self.marks:
            self.marks.append(("set-up", *self._now()))

    def __exit__(self, *exc):
        self._closed += 1
        if self._closed == self.ops:
            self.marks.append((f"{self.ops} ops", *self._now()))

    def table(self):
        """Table lines, one per reading: the RSS high-water mark in MiB
        and the gc-tracked objects."""
        lines = [f"{'after':>10} {'maxrss MiB':>10} {'gc objects':>10}"]
        for label, mib, objects in self.marks:
            lines.append(f"{label:>10} {mib:>10.1f} {objects:>10}")
        return lines


def _import_paths():
    """Put ``src`` and the repo root first on ``sys.path``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _build(name, seed, ops):
    """(workload *name* at *seed* sized for *ops* ops, its set-up seconds,
    the harness's check failure type)."""
    _import_paths()
    from benchmarks.harness.workloads import WORKLOAD_TYPES, CheckFailed

    start = time.perf_counter()
    workload = WORKLOAD_TYPES[name](seed, ops)
    return workload, time.perf_counter() - start, CheckFailed


def _run(workload, ops, check_failed, *regions):
    """Per-op wall-clock seconds of ``workload.run(i)`` for each op, each
    inside a ``with`` block of every one of *regions* (a profiler, a
    clock), checked outside them."""
    laps = []
    for i in range(ops):
        with contextlib.ExitStack() as stack:
            for region in regions:
                stack.enter_context(region)
            start = time.perf_counter()
            out = workload.run(i)
            laps.append(time.perf_counter() - start)
        try:
            workload.check(i, out)
        except check_failed as exc:
            sys.exit(f"profile_ops: op {i} did not check out: {exc}")
    return laps


def profile(name, seed, ops, *regions):
    """(pstats dict, set-up seconds, per-op profiled wall-clock seconds)
    of *ops* ops of workload *name* at *seed*, each op also inside every
    one of *regions*."""
    workload, setup_s, check_failed = _build(name, seed, ops)
    profiler = cProfile.Profile()
    # The profiler is the innermost region: the others' bookkeeping is
    # not profiled.
    laps = _run(workload, ops, check_failed, *regions, profiler)
    return pstats.Stats(profiler).stats, setup_s, laps


def wall(name, seed, ops, names, *regions):
    """(:class:`WallClock` of *names*, set-up seconds, per-op wall-clock
    seconds) of *ops* ops of workload *name* at *seed*, without cProfile,
    each op also inside every one of *regions*.  Exits 2, before the
    set-up, naming every name that does not resolve, and printing the
    import error of each name whose module fails to import."""
    timer = WallClock(names)
    _import_paths()
    missing, broken = timer.unresolved()
    for name, error in broken:
        print(f"profile_ops: --wall: cannot import {name}: "
              f"{type(error).__name__}: {error}", file=sys.stderr)
    if missing:
        print(f"profile_ops: --wall: no function named {', '.join(missing)}",
              file=sys.stderr)
    if missing or broken:
        sys.exit(2)
    workload, setup_s, check_failed = _build(name, seed, ops)
    timer.per_call_s = wrapper_cost()
    timer.install()
    try:
        laps = _run(workload, ops, check_failed, *regions, timer)
    finally:
        timer.uninstall()
    return timer, setup_s, laps


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
    parser.add_argument("--wall", default="", metavar="MODULE:QUALNAME[,...]",
                        help="run without cProfile and list the calls and"
                             " inclusive wall-clock ms/op of these functions")
    parser.add_argument("--gc", action="store_true",
                        help="also list the garbage collector's collections,"
                             " ms/op and freed objects per op per generation"
                             " over the timed ops")
    parser.add_argument("--memo", action="store_true",
                        help="also list every memo's lookups per op, hit"
                             " ratio, stores per op and entries over the"
                             " timed ops")
    parser.add_argument("--memo-off", default="", metavar="NAME[,NAME...]",
                        help="run the timed ops with these memos switched"
                             " off (a cap of 0)")
    parser.add_argument("--rss", action="store_true",
                        help="also list the RSS high-water mark and the"
                             " gc-tracked objects after the set-up and after"
                             " the timed ops")
    args = parser.parse_args(argv)
    args.memo_off = tuple(filter(None, args.memo_off.split(",")))
    collector = GcClock() if args.gc else None
    traffic = MemoTraffic() if args.memo else None
    switch = MemosOff(args.memo_off) if args.memo_off else None
    footprint = Footprint(args.ops) if args.rss else None
    regions = tuple(r for r in (collector, traffic, switch, footprint)
                    if r is not None)
    if args.wall:
        if args.self or args.fn or args.callers:
            parser.error("--wall runs without cProfile: leave out --self,"
                         " --fn and --callers")
        return main_wall(args, regions, collector, traffic, footprint)
    stats, setup_s, laps = profile(args.workload, args.seed, args.ops, *regions)
    profiled_s = sum(laps)
    print(f"# {args.workload} seed {args.seed}: {args.ops} ops,"
          f" {profiled_s:.2f} s profiled (set-up {setup_s:.2f} s, not profiled)"
          f"{off_note(args.memo_off)}")
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
    print_regions(collector, traffic, footprint, args.ops, profiled_s)
    return 0


def off_note(memo_off):
    """The header's note of the memos switched off, if any."""
    return f"; memos off: {', '.join(memo_off)}" if memo_off else ""


def print_regions(collector, traffic, footprint, ops, timed_s):
    """The ``--gc`` table of a :class:`GcClock`, the ``--memo`` table of a
    :class:`MemoTraffic` and the ``--rss`` table of a :class:`Footprint`,
    of those there are."""
    if collector is not None:
        print("# garbage collector per generation over the timed ops")
        print("\n".join(collector.table(ops, timed_s)))
    if traffic is not None:
        print("# memo traffic over the timed ops")
        print("\n".join(traffic.table(ops)))
    if footprint is not None:
        print("# RSS high-water mark (ru_maxrss) and gc-tracked objects")
        print("\n".join(footprint.table()))


def main_wall(args, regions, collector, traffic, footprint):
    """The ``--wall`` report: the named functions' wall-clock table, each
    op also inside every one of *regions*."""
    names = args.wall.split(",")
    timer, setup_s, laps = wall(args.workload, args.seed, args.ops, names, *regions)
    timed_s = sum(laps)
    cost = ("" if timer.per_call_s is None else
            f"; a timed call adds {timer.per_call_s * 1e6:.3f} us"
            f" (a no-op, timed before the ops)")
    print(f"# {args.workload} seed {args.seed}: {args.ops} ops,"
          f" {timed_s:.2f} s timed without cProfile"
          f" (set-up {setup_s:.2f} s, not timed){cost}{off_note(args.memo_off)}")
    print("\n".join(timer.table(args.ops, timed_s)))
    if args.window > 0:
        print(f"# timed ms/op per window of {args.window} ops")
        print("\n".join(windows(laps, args.window)))
    print_regions(collector, traffic, footprint, args.ops, timed_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
