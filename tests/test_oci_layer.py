"""Unit + property tests for layers, digests, and tar round-trips."""

import copy
import dataclasses
import hashlib
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.oci import Layer, LayerEntry, digest_bytes, is_valid_digest
from repro.oci.digest import short_digest
from repro.vfs import InlineContent, SyntheticContent


class TestDigest:
    def test_digest_bytes_format(self):
        assert is_valid_digest(digest_bytes(b"x"))

    def test_invalid_digests_rejected(self):
        assert not is_valid_digest("sha256:xyz")
        assert not is_valid_digest("md5:" + "0" * 64)
        assert not is_valid_digest("0" * 64)

    def test_short_digest(self):
        d = digest_bytes(b"x")
        assert short_digest(d) == d.split(":")[1][:12]


def _sample_layer():
    layer = Layer(comment="sample")
    layer.add(LayerEntry.directory("/usr/bin", mode=0o755))
    layer.add(LayerEntry.file("/usr/bin/tool", InlineContent(b"#!bin"), mode=0o755))
    layer.add(LayerEntry.symlink("/usr/bin/alias", "tool"))
    layer.add(LayerEntry.whiteout("/etc/old.conf"))
    layer.add(LayerEntry.opaque("/var/cache"))
    return layer


class TestLayer:
    def test_digest_stable(self):
        assert _sample_layer().digest == _sample_layer().digest

    def test_digest_order_sensitive(self):
        a = Layer().add(LayerEntry.directory("/a")).add(LayerEntry.directory("/b"))
        b = Layer().add(LayerEntry.directory("/b")).add(LayerEntry.directory("/a"))
        assert a.digest != b.digest

    def test_digest_content_sensitive(self):
        a = Layer().add(LayerEntry.file("/f", InlineContent(b"1")))
        b = Layer().add(LayerEntry.file("/f", InlineContent(b"2")))
        assert a.digest != b.digest

    def test_size_accounts_tar_framing(self):
        layer = Layer().add(LayerEntry.file("/f", InlineContent(b"x" * 600)))
        # header (512) + payload padded to 1024 + 2 end blocks (1024)
        assert layer.size == 512 + 1024 + 1024

    def test_size_synthetic_no_materialization(self):
        layer = Layer().add(
            LayerEntry.file("/big", SyntheticContent("s", 170 * 1024 * 1024))
        )
        assert layer.size > 170 * 1024 * 1024
        assert layer.payload_size == 170 * 1024 * 1024

    def test_size_equals_a_fresh_sum_after_every_add(self):
        def fresh(layer):
            total = 2 * 512
            for entry in layer.entries:
                total += 512
                if entry.kind == "file":
                    total += (entry.size + 511) // 512 * 512
            return total

        assert Layer().size == fresh(Layer()) == 1024
        entries = _sample_layer().entries + [
            LayerEntry.file("/big", SyntheticContent("s", 5000)),
            LayerEntry.file("/empty", InlineContent(b""))]
        # A read size freezes the layer, so each add is measured on a
        # layer built up to it.
        for count in range(1, len(entries) + 1):
            layer = Layer()
            for entry in entries[:count]:
                layer.add(entry)
            assert layer.size == fresh(layer)
            with pytest.raises(TypeError):
                layer.add(entries[0])
        built = Layer(entries=list(entries))
        assert built.size == fresh(layer)

    def test_a_layer_built_from_a_frozen_ones_entries_is_its_own(self):
        layer = _sample_layer()
        digest = layer.digest                 # frozen from here on
        for working in (Layer(entries=layer.entries, comment=layer.comment),
                        dataclasses.replace(layer)):
            assert working == layer
            working.add(LayerEntry.directory("/more"))
            working.comment = "changed"
            assert working != layer and working.digest != digest
        assert layer.digest == digest and layer == _sample_layer()

    def test_json_roundtrip(self):
        layer = _sample_layer()
        restored = Layer.from_bytes(layer.to_bytes())
        assert restored.digest == layer.digest
        assert [e.kind for e in restored] == [e.kind for e in layer]
        assert restored.comment == "sample"

    def test_json_roundtrip_synthetic(self):
        layer = Layer().add(LayerEntry.file("/big", SyntheticContent("seed7", 4096)))
        restored = Layer.from_bytes(layer.to_bytes())
        assert restored.digest == layer.digest
        assert restored.entries[0].content.read() == SyntheticContent("seed7", 4096).read()

    def test_tar_roundtrip(self):
        layer = _sample_layer()
        restored = Layer.from_tar_bytes(layer.to_tar_bytes())
        assert [e.kind for e in restored] == [e.kind for e in layer]
        assert [e.path for e in restored] == [e.path for e in layer]
        assert restored.entries[1].content.read() == b"#!bin"
        assert restored.entries[2].link_target == "tool"

    def test_entry_path_normalized(self):
        entry = LayerEntry.directory("//usr//bin/")
        assert entry.path == "/usr/bin"

    def test_file_entry_size_from_content(self):
        entry = LayerEntry.file("/f", InlineContent(b"abc"))
        assert entry.size == 3


class TestSyntheticDigest:
    """``SyntheticContent.digest`` is hashed once and kept on the object,
    outside its fields, equality and hash."""

    @staticmethod
    def formula(seed, size):
        ident = f"synthetic\x00{seed}\x00{size}".encode()
        return "sha256:" + hashlib.sha256(ident).hexdigest()

    @pytest.mark.parametrize("seed,size", [("s", 0), ("seed7", 4096), ("é", 170 << 20)])
    def test_digest_equals_the_formula(self, seed, size):
        content = SyntheticContent(seed, size)
        assert content.digest == self.formula(seed, size)
        assert content.digest == self.formula(seed, size)    # the kept one

    def test_copy_and_pickle_keep_equality_and_digest(self):
        content = SyntheticContent("seed7", 4096)
        digest = content.digest
        for other in (copy.copy(content), copy.deepcopy(content),
                      pickle.loads(pickle.dumps(content))):
            assert other == content and hash(other) == hash(content)
            assert other.digest == digest
        assert [f.name for f in dataclasses.fields(content)] == ["seed", "declared_size"]
        assert content == SyntheticContent("seed7", 4096)       # one never read
        assert repr(content) == "SyntheticContent(seed='seed7', declared_size=4096)"


_names = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@st.composite
def _entries(draw):
    kind = draw(st.sampled_from(["dir", "file", "symlink", "whiteout"]))
    path = "/" + "/".join(draw(st.lists(_names, min_size=1, max_size=3)))
    if kind == "dir":
        return LayerEntry.directory(path)
    if kind == "file":
        return LayerEntry.file(path, InlineContent(draw(st.binary(max_size=64))))
    if kind == "symlink":
        return LayerEntry.symlink(path, draw(_names))
    return LayerEntry.whiteout(path)


class TestLayerProperties:
    @given(st.lists(_entries(), max_size=8))
    def test_json_roundtrip_preserves_digest(self, entries):
        layer = Layer(entries=entries)
        assert Layer.from_bytes(layer.to_bytes()).digest == layer.digest

    @given(st.lists(_entries(), max_size=8))
    def test_size_is_positive_and_block_aligned(self, entries):
        layer = Layer(entries=entries)
        assert layer.size >= 1024
        assert layer.size % 512 == 0
