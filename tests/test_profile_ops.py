"""``scripts/profile_ops.py``'s report arithmetic on a stub profile,
without running a workload."""

import importlib.util
import os
from pathlib import Path

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
