"""The durable-log primitive shared by the journal, the ledger and the WAL.

Each salvage rule of :mod:`repro.durable` is tested once here, on a
minimal log; the three schemas only add their validators on top.
"""

import hashlib
import json
import random

import pytest

from repro import durable
from repro.resilience import CorruptionSpec, FaultInjector
from tests.test_recovery_fuzz import DAMAGE_MODELS, mutate

pytestmark = pytest.mark.recovery

KIND = "test-log"


def _valid(record):
    return isinstance(record.get("n"), int) and record["n"] >= 0


def _records(count):
    return [durable.seal({"n": i, "tag": f"r{i}"}) for i in range(count)]


def _log(count=4):
    return durable.header(KIND, 1, owner="x") + b"".join(
        durable.line(record) for record in _records(count))


def _with_lines(*lines):
    """The reference header followed by *lines* (each newline-ended)."""
    return durable.header(KIND, 1) + b"".join(lines)


class TestSealAndSerialize:
    def test_seal_copies_and_adds_the_line_digest(self):
        record = {"rec": "admit", "t": 1.5}
        sealed = durable.seal(record)
        assert record == {"rec": "admit", "t": 1.5}
        body = json.dumps(record, sort_keys=True).encode("utf-8")
        assert sealed == dict(
            record, line_digest="sha256:" + hashlib.sha256(body).hexdigest())

    def test_resealing_is_idempotent(self):
        sealed = durable.seal({"n": 1})
        assert durable.seal(sealed) == sealed

    def test_line_is_sorted_key_json_with_newline(self):
        assert durable.line({"b": 1, "a": [2]}) == b'{"a": [2], "b": 1}\n'

    def test_header_names_kind_and_version(self):
        assert durable.header("k", 3, dist_tag="t") == (
            b'{"dist_tag": "t", "kind": "k", "version": 3}\n')


class TestSalvageRules:
    def test_clean_log_roundtrips(self):
        header, records, dropped = durable.salvage(_log(), KIND, _valid)
        assert header == {"kind": KIND, "owner": "x", "version": 1}
        assert records == _records(4)
        assert dropped == 0

    @pytest.mark.parametrize(
        "blank", [b"", b"   ", b"\n", b"\x00\x00", b"\r\n\t \n\x00"],
        ids=["empty", "spaces", "newline", "nuls", "mixed"])
    def test_blank_bytes_are_an_empty_log(self, blank):
        assert durable.salvage(blank, KIND, _valid) == ({}, [], 0)

    @pytest.mark.parametrize("head", [
        b"{torn", b"\xff\xfe", b"[1, 2]", b"\x00\x00\x00",
        b'{"kind": "other-log", "version": 1}',
    ], ids=["torn", "undecodable", "not-a-dict", "blank", "other-kind"])
    def test_bad_header_costs_one_line_and_records_survive(self, head):
        data = _log()
        data = head + data[data.index(b"\n"):]
        header, records, dropped = durable.salvage(data, KIND, _valid)
        assert header == {}
        assert records == _records(4)
        assert dropped == 1

    @pytest.mark.parametrize("bad", [
        b"\xff\xfe\xfd",
        b'{"n": 1, "line_dig',
        b"[1, 2, 3]",
        durable.line({"n": 1}).rstrip(b"\n"),
        durable.line(dict(durable.seal({"n": 1}), n=3)).rstrip(b"\n"),
        durable.line(durable.seal({"n": -1})).rstrip(b"\n"),
    ], ids=["undecodable", "torn", "not-a-dict", "unsealed",
            "rehash-fails", "invalid"])
    def test_damaged_record_line_is_dropped(self, bad):
        good = _records(2)
        data = _with_lines(durable.line(good[0]), bad + b"\n",
                           durable.line(good[1]))
        header, records, dropped = durable.salvage(data, KIND, _valid)
        assert header == {"kind": KIND, "version": 1}
        assert records == good
        assert dropped == 1

    def test_raising_validator_rejects_the_line(self):
        def picky(record):
            if record["n"] == 1:
                raise TypeError("unhashable")
            return True

        _, records, dropped = durable.salvage(_log(3), KIND, picky)
        assert [r["n"] for r in records] == [0, 2]
        assert dropped == 1

    def test_blank_record_lines_are_not_counted(self):
        first, second = _records(2)
        data = _with_lines(b"\n", durable.line(first), b"  \x00\r\n",
                           durable.line(second), b"\n\n")
        _, records, dropped = durable.salvage(data, KIND, _valid)
        assert records == [first, second]
        assert dropped == 0

    def test_missing_trailing_newline_keeps_the_last_record(self):
        _, records, dropped = durable.salvage(
            _log(3).rstrip(b"\n"), KIND, _valid)
        assert records == _records(3)
        assert dropped == 0

    @pytest.mark.parametrize("model", DAMAGE_MODELS)
    def test_total_and_never_resurrects_under_each_damage_model(self, model):
        original = _log(8)
        lines = set(original.splitlines(keepends=True))
        for seed in range(40):
            mutated = mutate(original, random.Random(seed), model)
            header, records, dropped = durable.salvage(mutated, KIND, _valid)
            # Headers are not sealed: only their kind is checked.
            assert header == {} or header["kind"] == KIND
            assert {durable.line(record) for record in records} <= lines
            assert dropped >= 0


class TestThroughSite:
    def test_passes_bytes_through_without_an_injector(self):
        data = _log()
        assert durable.through_site(None, "log", data) is data

    def test_corrupts_at_the_journal_append_site(self):
        injector = FaultInjector(corruptions=[
            CorruptionSpec(site=durable.APPEND_SITE, mode="bitflip",
                           match="log-a")])
        data = _log()
        assert durable.through_site(injector, "log-b", data) is data
        flipped = durable.through_site(injector, "log-a", data)
        assert flipped != data and len(flipped) == len(data)
        assert [r.key for r in injector.log] == ["log-a"]

    def test_other_sites_leave_bytes_alone(self):
        injector = FaultInjector(corruptions=[
            CorruptionSpec(site="blob.store", mode="bitflip", times=-1)])
        data = _log()
        assert durable.through_site(injector, "log", data) is data
