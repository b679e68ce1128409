"""``scripts/bench_pairs.py`` without a harness run: run order, merging,
and stopping on a run that failed or did not check out."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _record(*values, seed=7):
    return {"seed": seed, "seconds": 12.0, "trace": False,
            "runs": [{"warm-readapt": {"value": v}} for v in values]}


def test_parent_runs_first_on_even_pairs():
    assert bench_pairs.pair_order(3) == [
        (0, "parent"), (0, "change"),
        (1, "change"), (1, "parent"),
        (2, "parent"), (2, "change"),
    ]


def test_every_pair_runs_each_side_once():
    order = bench_pairs.pair_order(10)
    assert sorted(order) == sorted((i, s) for i in range(10)
                                   for s in ("parent", "change"))


def test_merge_keeps_runs_in_pair_order():
    merged = bench_pairs.merge([_record(1), _record(2, 3), _record(4)])
    assert merged == {"seed": 7, "seconds": 12.0, "trace": False,
                      "runs": [{"warm-readapt": {"value": v}} for v in (1, 2, 3, 4)]}


def test_merge_refuses_runs_of_other_settings():
    with pytest.raises(ValueError):
        bench_pairs.merge([_record(1), _record(2, seed=0)])


def _fake_harness(code):
    """A stand-in harness command: Python running *code* with ``out`` set."""
    return [sys.executable, "-c", "import json, sys; out = sys.argv[1]\n" + code]


def test_run_one_returns_a_correct_record(tmp_path):
    run_out = tmp_path / "change.0.json"
    record = _record(5)
    record["runs"][0]["warm-readapt"]["correct"] = True
    code = f"open(out, 'w').write(json.dumps({record!r}))"
    got = bench_pairs.run_one(_fake_harness(code) + [str(run_out)], tmp_path,
                              run_out, "change", 0)
    assert got == record


def test_run_one_stops_on_a_failed_harness_and_drops_a_stale_record(tmp_path):
    run_out = tmp_path / "change.3.json"
    run_out.write_text(json.dumps(_record(1)))
    with pytest.raises(SystemExit, match="pair 3: the change harness exited 1"):
        bench_pairs.run_one(_fake_harness("raise RuntimeError('boom')")
                            + [str(run_out)], tmp_path, run_out, "change", 3)
    assert not run_out.exists()


def test_run_one_stops_on_outputs_that_did_not_check_out(tmp_path):
    run_out = tmp_path / "parent.2.json"
    record = _record(5)
    record["runs"][0]["warm-readapt"]["correct"] = False
    code = f"open(out, 'w').write(json.dumps({record!r}))"
    with pytest.raises(SystemExit, match="pair 2: the parent outputs did not"):
        bench_pairs.run_one(_fake_harness(code) + [str(run_out)], tmp_path,
                            run_out, "parent", 2)
