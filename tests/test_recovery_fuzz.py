"""Seeded property-style fuzz of the salvage tiers (ISSUE 10 satellite).

220 seeds of torn/bit-flipped/truncated/spliced damage against the three
JSONL durability artifacts — the v2 rebuild journal, the mirror transfer
ledger, and the service write-ahead log. Properties:

* **never raises** — salvage is total: any byte string yields a usable
  (possibly empty) artifact;
* **never resurrects a dropped line** — every salvaged record of all
  three logs re-serializes (``repro.durable.line``) to a byte-identical
  line of the original (the ``line_digest`` makes any mutation
  indistinguishable from a tear);
* **untouched lines survive** — damage to one line never drops its
  neighbours (asserted whenever the header line itself is intact).

Plus the torn-header regressions: bytes truncated *inside* the header
line (or down to nothing) salvage to an empty-but-valid artifact
instead of raising.
"""

import json
import random

import pytest

from repro import durable
from repro.federation.ledger import TransferLedger
from repro.oci import mediatypes
from repro.oci.layout import OCILayout
from repro.resilience.journal import RebuildJournal, _parse_journal
from repro.service import AdaptationService, ServiceWAL
from repro.vfs.content import InlineContent

pytestmark = pytest.mark.recovery

SEEDS = 220


# -- reference artifacts (built once per module) ---------------------------

@pytest.fixture(scope="module")
def wal_bytes():
    service = AdaptationService(workers=4, seed=11, durable=True)
    service.add_tenant("acme", max_workers=4)
    service.add_tenant("beta", max_workers=4)
    service.submit("acme", "hpccg", at=0.0)
    service.submit("beta", "minimd", at=1.0)
    service.submit("acme", "lulesh", at=2.0)
    service.run()
    data = service.wal.flushed_bytes
    assert len(data.split(b"\n")) > 10
    return data


@pytest.fixture(scope="module")
def journal_bytes():
    layout = OCILayout()
    journal = RebuildJournal(layout, "hpccg.dist")
    for i in range(12):
        content = InlineContent(f"object-{i}-".encode() * 40)
        journal.record(f"node-{i}", f"sha256:{i:064x}", f"/src/o{i}.o",
                       content, 0o644)
    journal.flush()
    # Pull the flushed blob back out of the layout.
    desc = layout.side_blob(mediatypes.ANNOTATION_COMTAINER_JOURNAL,
                            "hpccg.dist")
    return layout.blobs.try_get(desc.digest).as_bytes()


@pytest.fixture(scope="module")
def ledger_bytes():
    ledger = TransferLedger(mirror="edge-0")
    for blob in range(4):
        for index in range(6):
            ledger.record_chunk(
                f"sha256:{blob:064x}", index, f"sha256:{blob}{index:063x}",
                index * 1024, 1024, 6 * 1024, 1024)
    return ledger.to_bytes()


# -- damage models ---------------------------------------------------------

DAMAGE_MODELS = ("truncate", "tear", "bitflip", "splice", "blank")


def mutate(data: bytes, rng: random.Random, kind: str = "") -> bytes:
    """One seeded act of violence: truncate, tear, flip, splice, blank
    (*kind* picks one; by default the rng does)."""
    kind = kind or rng.choice(DAMAGE_MODELS)
    if kind == "truncate":
        return data[: rng.randrange(len(data) + 1)]
    if kind == "tear":
        # Tear inside the last non-empty line (a torn trailing flush).
        body = data.rstrip(b"\n")
        last = body.rfind(b"\n") + 1
        return body[: rng.randrange(last, len(body) + 1)]
    if kind == "bitflip":
        out = bytearray(data)
        for _ in range(rng.randrange(1, 5)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)
    if kind == "splice":
        at = rng.randrange(len(data) + 1)
        junk = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        return data[:at] + junk + data[at:]
    lines = data.split(b"\n")
    victim = rng.randrange(len(lines))
    lines[victim] = b"\x00" * len(lines[victim])
    return b"\n".join(lines)


def intact_lines(original: bytes, mutated: bytes):
    """Original non-empty lines that survived the mutation byte-identical
    and line-aligned."""
    return set(original.split(b"\n")) & set(mutated.split(b"\n")) - {b""}


def assert_never_resurrects(records, original: bytes):
    """Every salvaged record re-serializes to a line of the original."""
    original_lines = set(original.splitlines(keepends=True))
    assert {durable.line(record) for record in records} <= original_lines


# -- the sweep -------------------------------------------------------------

@pytest.mark.parametrize("seed", range(SEEDS))
def test_salvage_properties(seed, wal_bytes, journal_bytes, ledger_bytes):
    rng = random.Random(seed)
    artifact = rng.choice(("wal", "journal", "ledger"))

    if artifact == "wal":
        original = wal_bytes
        mutated = mutate(original, rng)
        wal = ServiceWAL.from_bytes(mutated)     # property: never raises
        assert_never_resurrects(wal.records, original)
        header_intact = original.split(b"\n")[0] in mutated.split(b"\n")[:1]
        salvaged_lines = {
            json.dumps(record, sort_keys=True).encode("utf-8")
            for record in wal.records
        }
        if header_intact:
            # Untouched record lines always survive.
            survivors = intact_lines(original, mutated) - {
                original.split(b"\n")[0]}
            assert survivors <= salvaged_lines

    elif artifact == "journal":
        original = journal_bytes
        mutated = mutate(original, rng)
        nodes, leases, dropped = _parse_journal(mutated)  # never raises
        assert_never_resurrects(
            list(nodes.values()) + list(leases.values()), original)
        for entry in nodes.values():
            # Self-consistency: salvage only keeps entries whose content
            # reconstructs to the recorded digest (_content_intact), and
            # every entry records one.
            assert entry["content_digest"].startswith("sha256:")
        header_intact = original.split(b"\n")[0] in mutated.split(b"\n")[:1]
        if header_intact:
            survivor_ids = {
                json.loads(line)["node"]
                for line in intact_lines(original, mutated)
                if b'"node"' in line
            }
            assert survivor_ids <= set(nodes)

    else:
        original = ledger_bytes
        mutated = mutate(original, rng)
        ledger = TransferLedger.from_bytes(mutated)       # never raises
        assert_never_resurrects(
            [entry for blob in ledger.blobs()
             for entry in ledger.chunks(blob).values()], original)
        header_intact = original.split(b"\n")[0] in mutated.split(b"\n")[:1]
        if header_intact:
            survivors = {
                (json.loads(line)["blob"], json.loads(line)["index"])
                for line in intact_lines(original, mutated)
                if b'"chunk_size"' in line
            }
            recorded = {
                (blob, index)
                for blob in ledger.blobs()
                for index in ledger.chunks(blob)
            }
            assert survivors <= recorded


# -- torn-header regressions ----------------------------------------------

class TestTornHeader:
    """Truncation inside (or before) the header line yields an
    empty-but-valid artifact, never a raise."""

    def test_ledger_header_truncations(self, ledger_bytes):
        # Cuts strictly *inside* the header text (the full header line
        # minus its newline is a complete, valid header).
        for cut in range(ledger_bytes.index(b"\n")):
            ledger = TransferLedger.from_bytes(ledger_bytes[:cut])
            assert len(ledger) == 0
            assert ledger.blobs() == []
            if cut and ledger_bytes[:cut].strip(b" \t\r\n\x00"):
                assert ledger.torn_entries_dropped == 1
            else:
                # Empty/whitespace bytes are an empty ledger, not a tear.
                assert ledger.torn_entries_dropped == 0

    def test_ledger_header_keeps_mirror_argument(self, ledger_bytes):
        header_end = ledger_bytes.index(b"\n")
        salvaged = TransferLedger.from_bytes(
            ledger_bytes[: header_end // 2], mirror="edge-9")
        assert salvaged.mirror == "edge-9"

    def test_journal_header_truncations(self, journal_bytes):
        for cut in range(journal_bytes.index(b"\n")):
            nodes, leases, dropped = _parse_journal(journal_bytes[:cut])
            assert nodes == {} and leases == {}
            if journal_bytes[:cut].strip(b" \t\r\n\x00"):
                assert dropped == 1
            else:
                assert dropped == 0

    def test_wal_header_truncations(self, wal_bytes):
        header_end = wal_bytes.index(b"\n") + 1
        for cut in range(header_end):
            wal = ServiceWAL.from_bytes(wal_bytes[:cut])
            assert len(wal) == 0
            assert wal.open_request_count() == 0
            # Only a cut strictly inside the header text costs a line:
            # the header line without its newline is complete and valid.
            torn = cut < header_end - 1 and wal_bytes[:cut].strip(
                b" \t\r\n\x00")
            assert wal.torn_records_dropped == (1 if torn else 0)
        for blank in (b"", b"   ", b"\n", b"\x00\x00"):
            # Blank bytes are an empty log, not a phantom torn record.
            assert ServiceWAL.from_bytes(blank).torn_records_dropped == 0

    def test_mirror_crash_with_torn_ledger_header_is_resumable(self):
        """End-to-end: a mirror whose flushed ledger was truncated
        inside the header reloads to an empty ledger and just
        re-transfers (the original failure mode was a raise)."""
        from repro.federation import FederatedRegistry

        fed = FederatedRegistry()
        from tests.test_recovery_chaos import make_image
        manifest, config, layer = make_image()
        fed.push("app:dist", manifest, config, [layer])
        mirror = fed.add_mirror("edge-0")
        fed.sync_mirror("edge-0")
        mirror.ledger_bytes = mirror.ledger_bytes[:10]   # torn header
        dropped = mirror.crash()
        assert dropped == 1
        assert len(mirror.ledger) == 0
        fed.sync_mirror("edge-0")
        assert fed.converged(mirror)
