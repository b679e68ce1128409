"""Each sealed log record is dumped to JSON once.

:func:`repro.durable.seal` and :func:`repro.durable.salvage` hand out
read-only :class:`repro.durable.Sealed` records whose line the dump that
digested (or re-hashed) them already rendered, and :func:`durable.line`
hands that line out, so a journal, artifact-cache, ledger or WAL flush
dumps nothing for records sealed or salvaged earlier.  The bytes stay
what they always were: each line is the record's sorted-key JSON plus a
newline, checked here against a renderer kept in the test, for freshly
sealed records, for records salvaged under every damage model of
:func:`tests.test_recovery_fuzz.mutate`, and for generated records whose
keys sort on both sides of ``line_digest``.
"""

import copy
import json
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import durable
from repro.core.cache.artifacts import (
    CACHE_KIND,
    CACHE_VERSION,
    RebuildArtifactCache,
    SharedArtifactCache,
    cache_key,
)
from repro.federation.ledger import LEDGER_KIND, LEDGER_VERSION, TransferLedger
from repro.oci import mediatypes
from repro.oci.layout import OCILayout
from repro.resilience.journal import JOURNAL_KIND, JOURNAL_VERSION, RebuildJournal
from repro.service import WAL_VERSION, ServiceWAL
from repro.vfs.content import InlineContent
from tests.test_recovery_fuzz import DAMAGE_MODELS, flush_cache, mutate

pytestmark = pytest.mark.recovery

TAG = "hpccg.dist"
JOURNAL_HEAD = {"dist_tag": TAG, "kind": JOURNAL_KIND, "version": JOURNAL_VERSION}
CACHE_HEAD = {"dist_tag": TAG, "kind": CACHE_KIND, "version": CACHE_VERSION}
DAMAGE_SEEDS = range(6)


def reference_line(record):
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def reference_log(head, records):
    """The bytes of a log holding *head* then *records*, rendered here."""
    return b"".join(reference_line(record) for record in [head, *records])


class CountingJson:
    """Stands in for ``json`` inside :mod:`repro.durable` and counts every
    dump it makes for a record: a body digest, a line, a re-hash.  Header
    lines are not records; :attr:`headers` counts their renders, and
    :attr:`records` leaves them out."""

    loads = staticmethod(json.loads)

    def __init__(self):
        self.calls = self.headers = 0

    @property
    def records(self):
        return self.calls - self.headers

    def dumps(self, obj, **kwargs):
        self.calls += 1
        return json.dumps(obj, **kwargs)

    def reset(self):
        self.calls = self.headers = 0


@pytest.fixture
def dumps(monkeypatch):
    counter = CountingJson()
    header = durable.header

    def counted_header(*args, **kwargs):
        counter.headers += 1
        return header(*args, **kwargs)

    monkeypatch.setattr(durable, "json", counter)
    monkeypatch.setattr(durable, "header", counted_header)
    return counter


# -- the logs --------------------------------------------------------------

def _side_blob(layout, annotation):
    desc = layout.side_blob(annotation, TAG)
    return layout.blobs.try_get(desc.digest).as_bytes()


def journal_bytes(layout):
    return _side_blob(layout, mediatypes.ANNOTATION_COMTAINER_JOURNAL)


def cache_bytes(layout):
    return _side_blob(layout, mediatypes.ANNOTATION_COMTAINER_ARTIFACTS)


def journal_records(journal):
    return ([journal._leases[d] for d in sorted(journal._leases)]
            + [journal._nodes[n] for n in sorted(journal._nodes)])


def cache_records(cache):
    return [cache._entries[key] for key in sorted(cache._entries)]


def ledger_records(ledger):
    return [entry for blob in ledger.blobs()
            for _, entry in sorted(ledger.chunks(blob).items())]


def ledger_head(ledger):
    return {"kind": LEDGER_KIND, "mirror": ledger.mirror, "version": LEDGER_VERSION}


def wal_head(wal):
    return {"kind": "service-wal", "seed": wal.seed, "version": WAL_VERSION}


def record_node(journal, i):
    journal.record(f"node-{i}", f"sha256:{i:064x}", f"/src/o{i}.o",
                   InlineContent(f"object-{i}-".encode() * 40), 0o644)


def store_entry(cache, i):
    cache.store(cache_key(f"extra-{i}", []),
                [(f"x{i}", f"/src/x{i}.o", InlineContent(b"x" * (i + 1)), 0o644)])


def record_chunk(ledger, blob, index):
    ledger.record_chunk(f"sha256:{blob:064x}", index, f"sha256:{blob}{index:063x}",
                        index * 1024, 1024, 6 * 1024, 1024)


def make_journal(layout, nodes=12):
    journal = RebuildJournal(layout, TAG)
    for i in range(nodes):
        record_node(journal, i)
    journal.record_lease("sha256:" + "b" * 64, "w1", 2, nodes=["node-3"])
    journal.record_lease("sha256:" + "a" * 64, "w0", 1, nodes=["node-1"])
    journal.flush()
    return journal


def make_ledger():
    ledger = TransferLedger(mirror="edge-0")
    for blob in range(4):
        for index in range(6):
            record_chunk(ledger, blob, index)
    return ledger


def make_wal(records=30):
    wal = ServiceWAL(seed=7)
    for i in range(records):
        kind = ("admit", "dispatch", "terminal")[i % 3]
        wal.append({"rec": kind, "t": float(i), "request_id": f"acme/r{i // 3}"})
    return wal


# -- Sealed records --------------------------------------------------------

class TestSealedRecords:
    WRITES = {
        "setitem": lambda r: r.__setitem__("x", 1),
        "delitem": lambda r: r.__delitem__("rec"),
        "update": lambda r: r.update(x=1),
        "setdefault": lambda r: r.setdefault("x", 1),
        "pop": lambda r: r.pop("rec"),
        "popitem": lambda r: r.popitem(),
        "clear": lambda r: r.clear(),
        "ior": lambda r: r.__ior__({"x": 1}),
    }

    @pytest.mark.parametrize("write", sorted(WRITES))
    def test_a_top_level_write_raises(self, write):
        record = durable.seal({"rec": "admit", "t": 1.0})
        before = dict(record)
        with pytest.raises(TypeError):
            self.WRITES[write](record)
        assert record == before

    def test_seal_and_salvage_hand_out_sealed_records(self):
        record = durable.seal({"n": 1})
        assert isinstance(record, durable.Sealed)
        _, records, _ = durable.salvage(
            durable.header("k", 1) + durable.line(record), "k", lambda r: True)
        assert records == [record]
        assert all(isinstance(r, durable.Sealed) for r in records)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda r: pickle.loads(pickle.dumps(r))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_sealed_records(self, clone):
        record = durable.seal({"n": 1, "outputs": [{"a": 2}]})
        line = durable.line(record)
        copied = clone(record)
        assert isinstance(copied, durable.Sealed)
        assert copied == record and durable.line(copied) == line

    def test_a_sealed_line_is_rendered_once(self, dumps):
        # One dump digests the record and renders its line.
        record = durable.seal({"b": 1, "a": [2]})
        assert dumps.records == 1
        first = durable.line(record)
        assert durable.line(record) is first
        assert dumps.records == 1
        assert first == reference_line(record)

    def test_a_salvaged_record_is_dumped_once(self, dumps):
        data = durable.header("k", 1) + durable.line(durable.seal({"n": 1}))
        dumps.reset()
        _, records, _ = durable.salvage(data, "k", lambda r: True)
        durable.line(records[0])
        assert dumps.records == 1

    def test_a_plain_dict_renders_every_time(self, dumps):
        record = {"line_digest": "sha256:x", "a": 1}
        assert durable.line(record) == durable.line(record)
        assert dumps.records == 2


# -- same bytes ------------------------------------------------------------

class TestSameBytes:
    def test_fresh_logs_render_as_the_reference(self):
        layout = OCILayout()
        journal = make_journal(layout)
        assert journal_bytes(layout) == reference_log(
            JOURNAL_HEAD, journal_records(journal))
        cache_layout = OCILayout()
        flush_cache(cache_layout)
        assert cache_bytes(cache_layout) == reference_log(
            CACHE_HEAD, cache_records(RebuildArtifactCache(cache_layout, TAG)))
        ledger = make_ledger()
        assert ledger.to_bytes() == reference_log(
            ledger_head(ledger), ledger_records(ledger))
        wal = make_wal()
        assert wal.flushed_bytes == reference_log(wal_head(wal), wal.records)

    @pytest.mark.parametrize("model", DAMAGE_MODELS)
    def test_salvaged_journal_flushes_as_the_reference(self, model):
        original = journal_bytes(make_journal(OCILayout()).layout)
        for seed in DAMAGE_SEEDS:
            layout = OCILayout()
            layout.replace_side_blob(
                mediatypes.ANNOTATION_COMTAINER_JOURNAL, TAG,
                mutate(original, random.Random(seed), model),
                mediatypes.REBUILD_JOURNAL)
            journal = RebuildJournal(layout, TAG)
            journal.flush()
            assert journal_bytes(layout) == reference_log(
                JOURNAL_HEAD, journal_records(journal))
            record_node(journal, 99)
            journal.flush()
            assert journal_bytes(layout) == reference_log(
                JOURNAL_HEAD, journal_records(journal))

    @pytest.mark.parametrize("model", DAMAGE_MODELS)
    def test_salvaged_cache_flushes_as_the_reference(self, model):
        original = flush_cache(OCILayout())
        for seed in DAMAGE_SEEDS:
            layout = OCILayout()
            layout.replace_side_blob(
                mediatypes.ANNOTATION_COMTAINER_ARTIFACTS, TAG,
                mutate(original, random.Random(seed), model),
                mediatypes.REBUILD_ARTIFACTS)
            cache = RebuildArtifactCache(layout, TAG)
            for i in range(2):
                store_entry(cache, i)
                cache.flush()
                assert cache_bytes(layout) == reference_log(
                    CACHE_HEAD, cache_records(cache))

    @pytest.mark.parametrize("model", DAMAGE_MODELS)
    def test_salvaged_ledger_flushes_as_the_reference(self, model):
        original = make_ledger().to_bytes()
        for seed in DAMAGE_SEEDS:
            ledger = TransferLedger.from_bytes(
                mutate(original, random.Random(seed), model), mirror="edge-0")
            assert ledger.to_bytes() == reference_log(
                ledger_head(ledger), ledger_records(ledger))
            record_chunk(ledger, 9, 0)
            assert ledger.to_bytes() == reference_log(
                ledger_head(ledger), ledger_records(ledger))

    @pytest.mark.parametrize("model", DAMAGE_MODELS)
    def test_salvaged_wal_flushes_as_the_reference(self, model):
        original = make_wal().flushed_bytes
        for seed in DAMAGE_SEEDS:
            wal = ServiceWAL.from_bytes(mutate(original, random.Random(seed), model))
            assert wal.flushed_bytes == reference_log(wal_head(wal), wal.records)
            wal.append({"rec": "restart", "t": 99.0})
            assert wal.flushed_bytes == reference_log(wal_head(wal), wal.records)


# -- what a flush dumps ----------------------------------------------------

class TestFlushRendersOnlyNewRecords:
    """One dump per sealed or salvaged record, none per flush."""

    def test_journal(self, dumps):
        layout = OCILayout()
        journal = make_journal(layout)
        assert dumps.records == 14
        journal.flush()
        assert dumps.records == 14
        record_node(journal, 12)
        journal.flush()
        assert dumps.records == 15

    def test_salvaged_journal_renders_each_record_once(self, dumps):
        layout = OCILayout()
        make_journal(layout)
        dumps.reset()
        journal = RebuildJournal(layout, TAG)
        journal.flush()
        journal.flush()
        assert dumps.records == 14

    def test_cache(self, dumps):
        layout = OCILayout()
        flush_cache(layout)
        assert dumps.records == 12
        cache = RebuildArtifactCache(layout, TAG)     # the salvage memo
        store_entry(cache, 0)
        cache.flush()
        assert dumps.records == 13

    def test_salvaged_cache_renders_each_record_once(self, dumps):
        data = flush_cache(OCILayout())
        layout = OCILayout()
        layout.replace_side_blob(mediatypes.ANNOTATION_COMTAINER_ARTIFACTS, TAG,
                                 data, mediatypes.REBUILD_ARTIFACTS)
        dumps.reset()
        cache = RebuildArtifactCache(layout, TAG)
        store_entry(cache, 0)
        cache.flush()
        assert dumps.records == 13
        store_entry(cache, 1)
        cache.flush()
        assert dumps.records == 14

    def test_seeding_from_rendered_pool_entries_renders_none(self, dumps):
        source = OCILayout()
        flush_cache(source)
        pool = SharedArtifactCache()
        pool.absorb_layout(source, TAG)
        dumps.reset()
        for _ in range(3):
            assert pool.seed_layout(OCILayout(), TAG) == 12
        assert dumps.records == 0

    def test_ledger(self, dumps):
        ledger = make_ledger()
        ledger.to_bytes()
        assert dumps.records == 24
        ledger.to_bytes()
        assert dumps.records == 24
        record_chunk(ledger, 9, 0)
        ledger.to_bytes()
        assert dumps.records == 25

    def test_a_ledger_renders_its_header_once(self, dumps):
        ledger = make_ledger()
        assert dumps.headers == 1
        flushed = [ledger.to_bytes() for _ in range(5)]
        assert dumps.headers == 1
        assert flushed == [reference_log(ledger_head(ledger),
                                         ledger_records(ledger))] * 5
        ledger.mirror = "edge-9"
        assert dumps.headers == 2
        assert ledger.to_bytes() == reference_log(
            {"kind": LEDGER_KIND, "mirror": "edge-9", "version": LEDGER_VERSION},
            ledger_records(ledger))
        assert dumps.headers == 2

    def test_wal(self, dumps):
        wal = make_wal()
        assert dumps.records == 30
        data = wal.flushed_bytes
        assert dumps.records == 30
        salvaged = ServiceWAL.from_bytes(data)
        assert dumps.records == 60
        assert salvaged.flushed_bytes == data
        salvaged.append({"rec": "restart", "t": 31.0})
        assert dumps.records == 61

    def test_a_wal_line_is_kept_once(self):
        wal = ServiceWAL(seed=7)
        record = wal.append({"rec": "admit", "t": 0.0, "request_id": "a/r0"})
        assert wal._lines[-1] is durable.line(record)


# -- the splice -------------------------------------------------------------

#: Keys that sort before, at and after ``line_digest``.
KEYS = st.sampled_from(["a", "line", "line_digest0", "line_digesta", "m",
                        "rec", "t", "z", "é", "line_digest"])
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=8))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8)


class TestOneDumpMakesDigestAndLine:
    """The splice gives the digest and the line the two dumps gave."""

    @given(st.dictionaries(KEYS, VALUES, max_size=6))
    def test_seal_and_salvage_match_two_dumps(self, record):
        sealed = durable.seal(record)
        assert sealed["line_digest"] == durable._body_digest(record)
        assert durable.line(sealed) == durable._render(sealed)
        data = durable.header("k", 1) + durable.line(sealed)
        _, records, dropped = durable.salvage(data, "k", lambda r: True)
        assert (records, dropped) == ([sealed], 0)
        assert durable.line(records[0]) == durable._render(sealed)

    def test_a_nested_slot_is_dumped_as_body_and_line(self, dumps):
        record = {"a": {"line_digest": None}, "z": 1}
        sealed = durable.seal(record)
        assert dumps.records == 2       # the ambiguous dump, then the body
        rendered = durable.line(sealed)
        assert dumps.records == 3       # then the line
        assert sealed["line_digest"] == durable._body_digest(record)
        assert rendered == durable._render(sealed)
