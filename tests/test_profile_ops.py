"""``scripts/profile_ops.py``'s report arithmetic on a stub profile, its
``--wall`` timer on stub modules and its ``--gc`` clock on a stub workload
that forces collections, without running a harness workload."""

import contextlib
import functools
import gc
import importlib.util
import itertools
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "profile_ops.py"
_spec = importlib.util.spec_from_file_location("profile_ops", SCRIPT)
profile_ops = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_ops)


def _key(module, line, name):
    return (os.path.join(os.sep, "x", "src", "repro", *module.split("/")), line, name)


STATS = {
    # (primitive calls, calls, own seconds, cumulative seconds, callers)
    _key("federation/sync.py", 162, "plan"): (30, 30, 0.5, 8.0, {}),
    _key("oci/blobs.py", 193, "missing_of"): (21150, 21150, 1.0, 6.0, {}),
    _key("oci/blobs.py", 78, "check_blob"): (148950, 148950, 5.5, 5.5, {}),
    (os.path.join(os.sep, "usr", "lib", "json", "decoder.py"), 332, "decode"):
        (900, 900, 3.0, 9.5, {}),
    ("~", 0, "<built-in method builtins.sorted>"): (10, 10, 0.0, 0.1, {}),
}


def test_rows_are_repro_functions_by_cumulative_time():
    lines = profile_ops.report(STATS, ops=30, profiled_s=10.0)
    assert lines[0].split() == ["calls/op", "cum", "ms/op", "share", "function"]
    assert [line.split()[-1] for line in lines[1:]] == [
        "repro/federation/sync.py:162(plan)",
        "repro/oci/blobs.py:193(missing_of)",
        "repro/oci/blobs.py:78(check_blob)",
    ]


def test_calls_and_times_per_op_and_share_of_profiled_time():
    rows = [line.split()
            for line in profile_ops.report(STATS, ops=30, profiled_s=10.0)[1:]]
    assert rows[0][:3] == ["1.0", "266.667", "80.0%"]
    assert rows[1][:3] == ["705.0", "200.000", "60.0%"]
    assert rows[2][:3] == ["4965.0", "183.333", "55.0%"]


def test_top_limits_the_rows():
    assert len(profile_ops.report(STATS, ops=30, profiled_s=10.0, top=1)) == 2


def test_named_lists_every_repro_function_of_those_names_by_label():
    lines = profile_ops.named(STATS, ops=30, names={"check_blob", "plan", "decode"})
    assert lines[0].split() == ["calls/op", "cum", "ms/op", "function"]
    # The json decoder's ``decode`` is not a repro function.
    assert [line.split() for line in lines[1:]] == [
        ["1.0", "266.667", "repro/federation/sync.py:162(plan)"],
        ["4965.0", "183.333", "repro/oci/blobs.py:78(check_blob)"],
    ]


def test_named_reaches_past_the_top_rows():
    stats = dict(STATS)
    stats[_key("oci/digest.py", 18, "digest_bytes")] = (2262, 2262, 0.01, 0.01, {})
    top = profile_ops.report(stats, ops=30, profiled_s=10.0, top=3)
    assert not any("digest_bytes" in line for line in top)
    assert profile_ops.named(stats, ops=30, names={"digest_bytes"})[1].split() == [
        "75.4", "0.333", "repro/oci/digest.py:18(digest_bytes)"]


def test_fn_appends_the_named_table_and_leaves_the_rest_alone(monkeypatch, capsys):
    monkeypatch.setattr(profile_ops, "profile", lambda name, seed, ops: (STATS, 0.5, [10.0]))
    profile_ops.main(["mirror-sync"])
    plain = capsys.readouterr().out
    profile_ops.main(["mirror-sync", "--fn", "missing_of,plan"])
    with_fn = capsys.readouterr().out
    assert with_fn.startswith(plain)
    assert with_fn[len(plain):].splitlines() == [
        "# functions named missing_of, plan",
        *profile_ops.named(STATS, ops=30, names={"missing_of", "plan"}),
    ]


def _with_write_file():
    write_to = _key("pkg/database.py", 106, "write_to")
    run = (os.path.join(os.sep, "x", "benchmarks", "harness", "workloads.py"), 40, "run")
    stats = dict(STATS)
    # A caller edge is (calls, primitive calls, own seconds, cumulative seconds).
    stats[_key("vfs/filesystem.py", 330, "write_file")] = (
        900, 900, 0.3, 1.5,
        {run: (300, 300, 0.1, 0.6), write_to: (600, 600, 0.2, 0.9)})
    return stats, run


def test_callers_attributes_each_named_function_to_its_callers():
    stats, run = _with_write_file()
    lines = profile_ops.callers(stats, ops=30, names={"write_file", "decode"})
    # Callers come most calls first, and a caller outside repro keeps its
    # full path; the json decoder's ``decode`` is not a repro function.
    assert [line.split() for line in lines] == [
        ["calls/op", "cum", "ms/op", "function"],
        ["30.0", "50.000", "repro/vfs/filesystem.py:330(write_file)"],
        ["20.0", "30.000", "<-", "repro/pkg/database.py:106(write_to)"],
        ["10.0", "20.000", "<-", f"{run[0]}:40(run)"],
    ]


def test_callers_appends_its_table_after_the_rest(monkeypatch, capsys):
    stats, _ = _with_write_file()
    monkeypatch.setattr(profile_ops, "profile", lambda name, seed, ops: (stats, 0.5, [10.0]))
    profile_ops.main(["serve-burst", "--fn", "plan"])
    plain = capsys.readouterr().out
    profile_ops.main(["serve-burst", "--fn", "plan", "--callers", "write_file"])
    with_callers = capsys.readouterr().out
    assert with_callers.startswith(plain)
    assert with_callers[len(plain):].splitlines() == [
        "# callers of functions named write_file",
        *profile_ops.callers(stats, ops=30, names={"write_file"}),
    ]


_JSON_DECODE = next(key for key in STATS if key[2] == "decode")


def test_self_lists_any_module_by_self_time():
    lines = profile_ops.by_self(STATS, ops=30, profiled_s=10.0)
    assert lines[0].split() == ["calls/op", "self", "ms/op", "share", "function"]
    # The json decoder is not a repro function; it is listed all the same.
    assert [line.split() for line in lines[1:3]] == [
        ["4965.0", "183.333", "55.0%", "repro/oci/blobs.py:78(check_blob)"],
        ["30.0", "100.000", "30.0%", f"{_JSON_DECODE[0]}:332(decode)"],
    ]
    assert len(lines) == 1 + len(STATS)
    assert len(profile_ops.by_self(STATS, ops=30, profiled_s=10.0, top=2)) == 3


def test_a_qualified_name_reaches_outside_repro():
    names = {"json/decoder.py:decode", "plan"}
    assert [line.split()[-1] for line in profile_ops.named(STATS, ops=30, names=names)[1:]] == [
        f"{_JSON_DECODE[0]}:332(decode)",
        "repro/federation/sync.py:162(plan)",
    ]
    # A qualified name matches only in a file whose path ends with its suffix.
    assert profile_ops.named(STATS, ops=30, names={"json/encoder.py:decode"})[1:] == []
    assert profile_ops.named(STATS, ops=30, names={"oci/blobs.py:check_blob"})[1:] == (
        profile_ops.named(STATS, ops=30, names={"check_blob"})[1:])


def test_callers_takes_qualified_names_too():
    stats, run = _with_write_file()
    decode = (_JSON_DECODE[0], 332, "decode")
    stats[decode] = (900, 900, 3.0, 9.5, {run: (900, 900, 3.0, 9.5)})
    lines = profile_ops.callers(stats, ops=30, names={"json/decoder.py:decode"})
    assert [line.split() for line in lines[1:]] == [
        ["30.0", "316.667", f"{decode[0]}:332(decode)"],
        ["30.0", "316.667", "<-", f"{run[0]}:40(run)"],
    ]


def test_self_appends_its_table_after_the_top_rows(monkeypatch, capsys):
    monkeypatch.setattr(profile_ops, "profile", lambda name, seed, ops: (STATS, 0.5, [10.0]))
    profile_ops.main(["serve-burst"])
    plain = capsys.readouterr().out
    profile_ops.main(["serve-burst", "--self", "--fn", "plan"])
    with_self = capsys.readouterr().out
    assert with_self.startswith(plain)
    assert with_self[len(plain):].splitlines() == [
        "# top 25 functions of any module by self time",
        *profile_ops.by_self(STATS, ops=30, profiled_s=10.0),
        "# functions named plan",
        *profile_ops.named(STATS, ops=30, names={"plan"}),
    ]


def test_windows_are_mean_ms_per_op_then_the_last_over_the_first():
    laps = [0.010] * 4 + [0.012] * 4 + [0.015] * 2
    lines = profile_ops.windows(laps, 4)
    assert [line.split() for line in lines] == [
        ["ops", "ms/op"],
        ["0-3", "10.000"],
        ["4-7", "12.000"],
        ["8-9", "15.000"],
        ["#", "last/first", "1.500"],
    ]


def test_window_appends_its_table_after_the_rest(monkeypatch, capsys):
    laps = [0.010] * 20 + [0.020] * 10
    monkeypatch.setattr(profile_ops, "profile", lambda name, seed, ops: (STATS, 0.5, laps))
    profile_ops.main(["serve-burst", "--fn", "plan"])
    plain = capsys.readouterr().out
    profile_ops.main(["serve-burst", "--fn", "plan", "--window", "10"])
    with_window = capsys.readouterr().out
    assert with_window.startswith(plain)
    assert with_window[len(plain):].splitlines() == [
        "# profiled ms/op per window of 10 ops",
        *profile_ops.windows(laps, 10),
    ]
    assert with_window.splitlines()[-1] == "# last/first 2.000"


# -- --wall: wall-clock timing of named functions, without cProfile --------

def _stub_modules(monkeypatch):
    """``repro.stub_timed`` (a nested pair, a recursive function, a class
    with a method and a property) and ``repro.stub_alias``, which binds
    ``outer`` under another name, as ``from x import f as g`` does."""
    timed = types.ModuleType("repro.stub_timed")
    timed.functools = functools
    exec(textwrap.dedent('''
        def inner(x):
            return x + 1

        def outer(x):
            return inner(inner(x))

        def countdown(n):
            return 0 if n == 0 else 1 + countdown(n - 1)

        class Box:
            def __init__(self, x):
                self.x = x

            def double(self):
                return 2 * self.x

            @property
            def half(self):
                return self.x / 2

            @functools.cached_property
            def square(self):
                return self.x * self.x

            LIMIT = 3
    '''), vars(timed))
    alias = types.ModuleType("repro.stub_alias")
    alias.run_outer = timed.outer
    monkeypatch.setitem(sys.modules, "repro.stub_timed", timed)
    monkeypatch.setitem(sys.modules, "repro.stub_alias", alias)
    return timed, alias


def _ticks():
    """A clock that advances one second per read."""
    return itertools.count().__next__


NAMES = ["repro.stub_timed:outer", "repro.stub_timed:inner",
         "repro.stub_timed:countdown", "repro.stub_timed:Box.double",
         "repro.stub_timed:Box.half", "repro.stub_timed:Box.square"]


def test_wall_times_nested_calls_inclusively(monkeypatch):
    timed, alias = _stub_modules(monkeypatch)
    timer = profile_ops.WallClock(NAMES[:2], clock=_ticks())
    timer.install()
    try:
        with timer:
            assert alias.run_outer(1) == 3        # the alias is wrapped too
        # Clock reads: outer in, inner in, inner out, inner in, inner out,
        # outer out; so outer spans 5 ticks and each inner 1.
        assert timer.calls == [1, 2] and timer.seconds == [5.0, 2.0]
    finally:
        timer.uninstall()


def test_wall_times_only_the_outermost_recursive_call(monkeypatch):
    timed, _ = _stub_modules(monkeypatch)
    timer = profile_ops.WallClock(NAMES[2:3], clock=_ticks())
    timer.install()
    try:
        with timer:
            assert timed.countdown(4) == 4
        assert timer.calls == [5] and timer.seconds == [1.0]
    finally:
        timer.uninstall()


def test_wall_counts_only_inside_its_with_block(monkeypatch):
    timed, _ = _stub_modules(monkeypatch)
    timer = profile_ops.WallClock(NAMES, clock=_ticks())
    timer.install()
    try:
        timed.outer(1)
        timed.Box(4).double()
        with timer:
            box = timed.Box(4)
            assert box.double() == 8 and box.half == 2.0
            assert box.square == box.square == 16       # computed once
        timed.Box(4).half
        assert timer.calls == [0, 0, 0, 1, 1, 1]
    finally:
        timer.uninstall()


def test_wall_refuses_what_it_cannot_call(monkeypatch):
    _stub_modules(monkeypatch)
    timer = profile_ops.WallClock(["repro.stub_timed:Box.LIMIT"])
    with pytest.raises(TypeError, match="cannot time repro.stub_timed:Box.LIMIT: a int"):
        timer.install()


def test_wall_leaves_no_wrapper_behind(monkeypatch):
    timed, alias = _stub_modules(monkeypatch)
    before = {name: value for name, value in vars(timed).items()}
    methods = dict(vars(timed.Box))
    timer = profile_ops.WallClock(NAMES)
    timer.install()
    assert timed.outer is not before["outer"] and alias.run_outer is timed.outer
    timer.uninstall()
    assert vars(timed) == before and dict(vars(timed.Box)) == methods
    assert alias.run_outer is timed.outer is before["outer"]


def test_wall_table_is_calls_inclusive_ms_and_share_per_name():
    timer = profile_ops.WallClock(["m:f", "m:C.g"])
    timer.calls, timer.seconds = [30, 600], [1.5, 0.25]
    assert [line.split() for line in timer.table(ops=30, timed_s=10.0)] == [
        ["calls/op", "incl", "ms/op", "share", "function"],
        ["1.0", "50.000", "15.0%", "m:f"],
        ["20.0", "8.333", "2.5%", "m:C.g"],
    ]


def test_wall_replaces_the_profile(monkeypatch, capsys):
    timer = profile_ops.WallClock(["m:f"])
    timer.calls, timer.seconds = [30], [1.5]
    laps = [0.25] * 30
    seen = []
    monkeypatch.setattr(profile_ops, "profile", lambda *args: pytest.fail("profiled"))
    monkeypatch.setattr(profile_ops, "wall",
                        lambda name, seed, ops, names: seen.append(names) or (timer, 0.5, laps))
    profile_ops.main(["warm-readapt", "--wall", "m:f", "--window", "10"])
    assert seen == [["m:f"]]
    assert capsys.readouterr().out.splitlines() == [
        "# warm-readapt seed 7: 30 ops, 7.50 s timed without cProfile"
        " (set-up 0.50 s, not timed)",
        *timer.table(ops=30, timed_s=7.5),
        "# timed ms/op per window of 10 ops",
        *profile_ops.windows(laps, 10),
    ]


@pytest.mark.parametrize("flag", [["--self"], ["--fn", "plan"], ["--callers", "plan"]])
def test_wall_cannot_be_combined_with_the_profile_tables(flag, capsys):
    with pytest.raises(SystemExit) as info:
        profile_ops.main(["warm-readapt", "--wall", "m:f", *flag])
    assert info.value.code == 2
    assert "--wall runs without cProfile" in capsys.readouterr().err


def test_wall_names_every_name_that_does_not_resolve_before_the_set_up(
        monkeypatch, capsys):
    _stub_modules(monkeypatch)
    monkeypatch.setattr(profile_ops, "_build",
                        lambda *args: pytest.fail("built the workload"))
    names = ["repro.stub_timed:outer", "repro.stub_timed:nosuch",
             "repro.stub_timed:Box.nope", "repro.stub_nosuch:f",
             "repro.stub_timed:Nope.f"]
    with pytest.raises(SystemExit) as info:
        profile_ops.main(["stub", "--wall", ",".join(names)])
    assert info.value.code == 2
    assert capsys.readouterr().err == (
        "profile_ops: --wall: no function named repro.stub_timed:nosuch,"
        " repro.stub_timed:Box.nope, repro.stub_nosuch:f,"
        " repro.stub_timed:Nope.f\n")


def test_wall_prints_the_import_error_of_a_module_that_fails_to_import(
        monkeypatch, tmp_path, capsys):
    _stub_modules(monkeypatch)
    (tmp_path / "stub_broken.py").write_text("import stub_no_such_dependency\n")
    (tmp_path / "stub_raising.py").write_text("raise ImportError('half done')\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(profile_ops, "_build",
                        lambda *args: pytest.fail("built the workload"))
    names = ["stub_broken:f", "repro.stub_nosuch:f", "stub_raising:g"]
    with pytest.raises(SystemExit) as info:
        profile_ops.main(["stub", "--wall", ",".join(names)])
    assert info.value.code == 2
    assert capsys.readouterr().err == (
        "profile_ops: --wall: cannot import stub_broken:f: ModuleNotFoundError:"
        " No module named 'stub_no_such_dependency'\n"
        "profile_ops: --wall: cannot import stub_raising:g: ImportError:"
        " half done\n"
        "profile_ops: --wall: no function named repro.stub_nosuch:f\n")


def test_the_documented_wall_example_runs_in_a_fresh_interpreter():
    """``repro.perf.incremental`` imports first in a new process, as the
    ``--wall`` example of the module docstring needs."""
    names = "repro.perf.incremental:plan_rebuild,repro.oci.layout:OCILayout.resolve"
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "warm-readapt", "--ops", "2", "--wall", names],
        capture_output=True, text=True, cwd=SCRIPT.parents[1])
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[2:]
    assert [row.split()[-1] for row in rows] == names.split(",")
    assert all(float(row.split()[0]) > 0 for row in rows)


def test_wall_rebinds_a_harness_module_alias(monkeypatch):
    timed, _ = _stub_modules(monkeypatch)
    harness = types.ModuleType("benchmarks.stub_workloads")
    harness.outer = timed.outer           # ``from repro.stub_timed import outer``
    monkeypatch.setitem(sys.modules, "benchmarks.stub_workloads", harness)
    timer = profile_ops.WallClock(NAMES[:1], clock=_ticks())
    timer.install()
    try:
        with timer:
            assert harness.outer(1) == 3
        assert timer.calls == [1]
    finally:
        timer.uninstall()
    assert harness.outer is timed.outer


class _OuterWorkload:
    """A stub workload whose every op calls ``repro.stub_timed:outer``
    once."""

    def __init__(self, timed):
        self.timed = timed

    def run(self, i):
        return self.timed.outer(i)

    def check(self, i, out):
        assert out == i + 2


def test_wall_marks_a_name_with_no_call_as_not_reached(monkeypatch, capsys):
    timed, _ = _stub_modules(monkeypatch)
    monkeypatch.setattr(profile_ops, "_build", lambda name, seed, ops: (
        _OuterWorkload(timed), 0.5, AssertionError))
    names = "repro.stub_timed:outer,repro.stub_timed:countdown"
    assert profile_ops.main(["stub", "--ops", "3", "--wall", names]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["1.0", "0.0"]
    assert rows[0].endswith("  repro.stub_timed:outer")
    assert rows[1].endswith("  repro.stub_timed:countdown  (not reached)")


class _RecordingWorkload(_OuterWorkload):
    """:class:`_OuterWorkload` that notes each op in *events*."""

    def __init__(self, timed, events):
        super().__init__(timed)
        self.events = events

    def run(self, i):
        self.events.append(f"op {i}")
        return super().run(i)


def test_wall_reports_what_its_wrapper_costs(monkeypatch, capsys):
    timed, _ = _stub_modules(monkeypatch)
    events = []
    monkeypatch.setattr(profile_ops, "_build", lambda name, seed, ops: (
        _RecordingWorkload(timed, events), 0.5, AssertionError))
    monkeypatch.setattr(profile_ops, "wrapper_cost",
                        lambda: events.append("probe") or 2e-6)
    names = "repro.stub_timed:outer,repro.stub_timed:inner,repro.stub_timed:countdown"
    assert profile_ops.main(["stub", "--ops", "3", "--wall", names]) == 0
    assert events == ["probe", "op 0", "op 1", "op 2"]
    header, columns, *rows = capsys.readouterr().out.splitlines()
    assert header.endswith(
        "; a timed call adds 2.000 us (a no-op, timed before the ops)")
    assert columns.split() == [
        "calls/op", "incl", "ms/op", "share", "wrap", "ms/op", "function"]
    # Per op: outer once, inner twice, countdown never; each call adds 2 us.
    assert [(row.split()[0], row.split()[3], row.split()[4]) for row in rows] == [
        ("1.0", "0.002", "repro.stub_timed:outer"),
        ("2.0", "0.004", "repro.stub_timed:inner"),
        ("0.0", "0.000", "repro.stub_timed:countdown")]


def test_wrapper_cost_is_what_a_wrapped_no_op_adds():
    cost = profile_ops.wrapper_cost(calls=2_000, rounds=3)
    assert 0 < cost < 1e-4


# -- --gc: the garbage collector's cost over the timed ops ---------------

@pytest.fixture
def collector_off():
    """Automatic collections off, so only the ones a test forces happen;
    the collector's state is restored afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


class _CollectingWorkload:
    """A stub workload whose every op forces one generation-1 and one
    generation-2 collection."""

    def run(self, i):
        gc.collect(1)
        gc.collect(2)
        return i

    def check(self, i, out):
        assert out == i


def test_gc_clock_counts_only_inside_its_with_block(collector_off):
    clock = profile_ops.GcClock(clock=_ticks())
    hooks = list(gc.callbacks)
    gc.collect(0)
    with clock:
        gc.collect(2)
        gc.collect(0)
        gc.collect(0)
    gc.collect(1)
    # Each collection reads the clock at its start and its stop: 1 tick.
    assert clock.collections == [2, 0, 1]
    assert clock.seconds == [2.0, 0.0, 1.0]
    assert gc.callbacks == hooks


def test_gc_table_is_collections_ms_and_share_per_generation():
    clock = profile_ops.GcClock()
    clock.collections, clock.seconds = [300, 30, 3], [0.6, 0.3, 1.5]
    clock.freed = [600, 0, 45]
    assert [line.split() for line in clock.table(ops=30, timed_s=10.0)] == [
        ["gen", "colls/op", "ms/op", "share", "freed/op"],
        ["0", "10.000", "20.000", "6.0%", "20.00"],
        ["1", "1.000", "10.000", "3.0%", "0.00"],
        ["2", "0.100", "50.000", "15.0%", "1.50"],
        ["all", "11.100", "80.000", "24.0%", "21.50"],
    ]


def _gc_rows(out, column=1):
    """``{generation: collections per op}`` of a printed ``--gc`` table
    (another *column*: 4 is the objects freed per op)."""
    lines = out.splitlines()
    start = lines.index("# garbage collector per generation over the timed ops")
    return {row.split()[0]: row.split()[column]
            for row in lines[start + 2:start + 6]}


class _CyclingWorkload:
    """A stub workload whose every op sweeps up what came before it with a
    generation-2 collection, then leaves three two-object reference cycles
    for its generation-1 collection to free."""

    @staticmethod
    def _drop_a_cycle():
        a, b = [], []
        a.append(b)
        b.append(a)

    def run(self, i):
        gc.collect(2)
        for _ in range(3):
            self._drop_a_cycle()
        gc.collect(1)
        return i

    def check(self, i, out):
        assert out == i


@pytest.mark.parametrize("extra", [[], ["--wall", "repro.stub_timed:outer"]])
def test_gc_counts_the_cyclic_garbage_each_generation_frees(
        extra, monkeypatch, capsys, collector_off):
    _stub_modules(monkeypatch)
    monkeypatch.setattr(profile_ops, "_build", lambda name, seed, ops: (
        _CyclingWorkload(), 0.5, AssertionError))
    assert profile_ops.main(["stub", "--ops", "4", "--gc", *extra]) == 0
    freed = _gc_rows(capsys.readouterr().out, column=4)
    assert (freed["0"], freed["1"]) == ("0.00", "6.00")
    assert float(freed["all"]) == 6.0 + float(freed["2"])


@pytest.mark.parametrize("extra", [[], ["--wall", "repro.stub_timed:outer"]])
def test_gc_measures_a_stub_workload_and_removes_its_hook(
        extra, monkeypatch, capsys, collector_off):
    _stub_modules(monkeypatch)
    monkeypatch.setattr(profile_ops, "_build", lambda name, seed, ops: (
        _CollectingWorkload(), 0.5, AssertionError))
    hooks = list(gc.callbacks)
    assert profile_ops.main(["stub", "--ops", "4", "--gc", *extra]) == 0
    assert _gc_rows(capsys.readouterr().out) == {
        "0": "0.000", "1": "1.000", "2": "1.000", "all": "2.000"}
    assert gc.callbacks == hooks


def test_gc_appends_its_table_and_leaves_the_rest_alone(monkeypatch, capsys):
    def fake_profile(name, seed, ops, *regions):
        for _ in range(ops):
            with contextlib.ExitStack() as stack:
                for region in regions:
                    stack.enter_context(region)
                gc.collect(1)
        return STATS, 0.5, [10.0]

    monkeypatch.setattr(profile_ops, "profile", fake_profile)
    profile_ops.main(["mirror-sync", "--fn", "plan"])
    plain = capsys.readouterr().out
    profile_ops.main(["mirror-sync", "--fn", "plan", "--gc"])
    with_gc = capsys.readouterr().out
    assert with_gc.startswith(plain)
    assert with_gc[len(plain):].splitlines()[0] == (
        "# garbage collector per generation over the timed ops")
    assert float(_gc_rows(with_gc)["1"]) >= 1.0


# -- --memo: every memo's traffic over the timed ops -----------------------

class _MemoWorkload:
    """A stub workload whose ops look two keys up in turn in one memo and
    store each miss; its check looks one up too, outside the timed ops."""

    def __init__(self, memo):
        self.memo = memo

    def run(self, i):
        if self.memo.get(i % 2) is None:
            self.memo.put(i % 2, i)
        return i

    def check(self, i, out):
        assert self.memo.get(0) is not None and out == i


def _memo_rows(out):
    """``{memo: [lookups/op, hit ratio, stores/op, entries]}`` of a printed
    ``--memo`` table."""
    lines = out.splitlines()
    start = lines.index("# memo traffic over the timed ops")
    assert lines[start + 1].split() == ["lookups/op", "hits", "stores/op",
                                        "entries", "memo"]
    return {row.split()[-1]: row.split()[:-1] for row in lines[start + 2:]}


@pytest.mark.parametrize("extra", [[], ["--wall", "repro.stub_timed:outer"]])
def test_memo_counts_a_stub_workloads_traffic_over_the_timed_ops(
        extra, monkeypatch, capsys):
    from repro import memo as memo_module

    _stub_modules(monkeypatch)
    monkeypatch.setattr(memo_module, "MEMOS", {})
    idle = memo_module.LruMemo(4, name="idle")
    stub = memo_module.LruMemo(4, name="stub")
    stub.get("before")                          # set-up traffic is not counted
    monkeypatch.setattr(profile_ops, "_build", lambda name, seed, ops: (
        _MemoWorkload(stub), 0.5, AssertionError))
    assert profile_ops.main(["stub", "--ops", "4", "--memo", *extra]) == 0
    # Ops look up 0, 1, 0, 1: two misses that store, then two hits; the
    # four checks' lookups fall outside the timed ops.
    assert _memo_rows(capsys.readouterr().out) == {
        "idle": ["0.00", "0.0%", "0.00", "0"],
        "stub": ["1.00", "50.0%", "0.50", "2"],
    }
    assert (idle.hits, idle.misses, idle.stores) == (0, 0, 0)
    assert (stub.hits, stub.misses, stub.stores) == (6, 3, 2)


def test_memo_appends_its_table_after_the_gc_table(monkeypatch, capsys):
    from repro import memo as memo_module

    monkeypatch.setattr(memo_module, "MEMOS", {})
    stub = memo_module.LruMemo(4, name="stub")
    monkeypatch.setattr(profile_ops, "_build", lambda name, seed, ops: (
        _MemoWorkload(stub), 0.5, AssertionError))
    profile_ops.main(["stub", "--ops", "2", "--gc", "--memo"])
    lines = capsys.readouterr().out.splitlines()
    gc_at = lines.index("# garbage collector per generation over the timed ops")
    traffic = profile_ops.MemoTraffic()
    traffic.counts = {"stub": [2, 0, 2]}
    assert lines[gc_at + 6:] == ["# memo traffic over the timed ops",
                                 *traffic.table(ops=2)]


# -- --memo-off: the timed ops with named memos switched off ---------------

class _EachMemoWorkload:
    """A stub workload whose ops look two keys up in turn in each of its
    memos and store each miss; its check reads none."""

    def __init__(self, *memos):
        self.memos = memos

    def run(self, i):
        for memo in self.memos:
            if memo.get(i % 2) is None:
                memo.put(i % 2, i)
        return i

    def check(self, i, out):
        assert out == i


@pytest.mark.parametrize("extra", [[], ["--wall", "repro.stub_timed:outer"]])
def test_memo_off_switches_only_the_named_memos_off_for_the_timed_ops(
        extra, monkeypatch, capsys):
    from repro import memo as memo_module

    _stub_modules(monkeypatch)
    monkeypatch.setattr(memo_module, "MEMOS", {})
    kept = memo_module.LruMemo(4, name="kept")
    off = memo_module.LruMemo(4, name="off")
    off.put(0, "set-up")                # what the set-up stored is dropped
    monkeypatch.setattr(profile_ops, "_build", lambda name, seed, ops: (
        _EachMemoWorkload(kept, off), 0.5, AssertionError))
    assert profile_ops.main(["stub", "--ops", "4", "--memo", "--memo-off", "off",
                             *extra]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].endswith("; memos off: off")
    # The kept memo misses and stores twice, then hits; the memo switched
    # off misses every lookup, and each store is forgotten at once.  Both
    # counts come from the memos' own counters.
    assert _memo_rows(out) == {
        "kept": ["1.00", "50.0%", "0.50", "2"],
        "off": ["1.00", "0.0%", "1.00", "0"],
    }
    assert (kept.cap, off.cap) == (4, 4)


def test_memo_off_refuses_an_unknown_memo(monkeypatch):
    from repro import memo as memo_module

    monkeypatch.setattr(memo_module, "MEMOS", {})
    memo_module.LruMemo(4, name="known")
    monkeypatch.setattr(profile_ops, "_build", lambda name, seed, ops: (
        _EachMemoWorkload(), 0.5, AssertionError))
    with pytest.raises(SystemExit, match=r"no memo named nope \(memos: known\)"):
        profile_ops.main(["stub", "--ops", "1", "--memo-off", "nope"])


# -- --rss: the RSS high-water mark and gc-tracked objects -----------------

class _GrowingWorkload:
    """A stub workload whose every op keeps 1,000 more lists (gc-tracked
    objects)."""

    def __init__(self):
        self.kept = []

    def run(self, i):
        self.kept.extend([] for _ in range(1000))
        return i

    def check(self, i, out):
        assert out == i


def _rss_rows(out):
    """``[after, maxrss MiB, gc objects]`` rows of a printed ``--rss``
    table."""
    lines = out.splitlines()
    start = lines.index("# RSS high-water mark (ru_maxrss) and gc-tracked objects")
    assert lines[start + 1].split() == ["after", "maxrss", "MiB", "gc", "objects"]
    return [line.rsplit(None, 2) for line in lines[start + 2:]]


def test_rss_table_is_the_high_water_mark_and_objects_per_reading():
    footprint = profile_ops.Footprint(ops=600)
    footprint.marks = [("set-up", 47.8125, 39312), ("600 ops", 104.6, 72418)]
    assert [line.rsplit(None, 2) for line in footprint.table()[1:]] == [
        ["    set-up", "47.8", "39312"], ["   600 ops", "104.6", "72418"]]


@pytest.mark.parametrize("extra", [[], ["--wall", "repro.stub_timed:outer"]])
def test_rss_reads_after_the_set_up_and_after_the_timed_ops(
        extra, monkeypatch, capsys, collector_off):
    _stub_modules(monkeypatch)
    workload = _GrowingWorkload()
    monkeypatch.setattr(profile_ops, "_build", lambda name, seed, ops: (
        workload, 0.5, AssertionError))
    assert profile_ops.main(["stub", "--ops", "4", "--rss", *extra]) == 0
    (set_up, mib_0, objects_0), (after, mib_4, objects_4) = _rss_rows(
        capsys.readouterr().out)
    assert (set_up.strip(), after.strip()) == ("set-up", "4 ops")
    assert 0 < float(mib_0) <= float(mib_4)
    # The ops kept 4,000 lists; with the collector off nothing else went.
    assert int(objects_4) - int(objects_0) >= 4000


def test_rss_appends_its_table_and_leaves_the_rest_alone(monkeypatch, capsys):
    def fake_profile(name, seed, ops, *regions):
        for _ in range(ops):
            with contextlib.ExitStack() as stack:
                for region in regions:
                    stack.enter_context(region)
        return STATS, 0.5, [10.0]

    monkeypatch.setattr(profile_ops, "profile", fake_profile)
    profile_ops.main(["mirror-sync", "--fn", "plan"])
    plain = capsys.readouterr().out
    profile_ops.main(["mirror-sync", "--fn", "plan", "--rss"])
    with_rss = capsys.readouterr().out
    assert with_rss.startswith(plain)
    assert [row[0].strip() for row in _rss_rows(with_rss)] == ["set-up", "30 ops"]
