"""What a ``Blob`` remembers about itself, and what stays out of it.

A blob with a ``bytes`` payload keeps its ``check_blob`` verdict, its
``manifest_closure`` and (an artifact cache) its salvaged entries in
fixed slots beside its four fields.  The slots are no fields: equality,
hash, repr and ``dataclasses.fields`` are the descriptor and payload
alone, and every copy (``dataclasses.replace``, ``copy``, ``deepcopy``,
a pickle round trip) is a new object that carries no memo and is checked
afresh.  No payload can change under the memo: a blob takes only
``bytes`` or a ``Layer``, and the layer refuses ``add`` once a blob
holds it.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.integrity import KIND_DIGEST_MISMATCH
from repro.oci import ImageConfig, Layer, LayerEntry, Manifest, mediatypes
from repro.oci import blobs as blobs_mod
from repro.oci.blobs import Blob, check_blob, manifest_closure
from repro.oci.digest import digest_bytes
from repro.vfs import InlineContent

MEMOS = ("_finding", "_closure", "_entries")


def _layer(data: bytes = b"x") -> Layer:
    return Layer().add(LayerEntry.file("/app/bin", InlineContent(data), mode=0o755))


def _manifest_blob() -> Blob:
    layer = _layer()
    config = ImageConfig(architecture="amd64")
    config.diff_ids.append(layer.digest)
    manifest = Manifest(config=config.descriptor(),
                        layers=[Blob.from_layer(layer).descriptor()])
    return Blob.from_bytes(manifest.to_bytes(), mediatypes.IMAGE_MANIFEST)


def _checked() -> Blob:
    """A manifest blob whose verdict and closure are remembered."""
    blob = _manifest_blob()
    assert check_blob(blob) is None
    assert manifest_closure(blob) is not None
    return blob


def _memos(blob) -> set:
    """The memo slots *blob* holds a remembered fact in."""
    return {name for name in MEMOS
            if getattr(blob, name, blobs_mod._UNSET) is not blobs_mod._UNSET}


@pytest.fixture
def rehashed(monkeypatch):
    """The payloads ``check_blob`` hashes from here on."""
    seen = []
    real = blobs_mod._rehash
    monkeypatch.setattr(blobs_mod, "_rehash",
                        lambda blob: (seen.append(bytes(blob.payload)), real(blob))[1])
    return seen


COPIES = {
    "replace": dataclasses.replace,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda blob: pickle.loads(pickle.dumps(blob)),
}


class TestFieldsEqualityHashRepr:
    def test_the_fields_are_the_descriptor_and_the_payload(self):
        assert [f.name for f in dataclasses.fields(Blob)] == [
            "media_type", "digest", "size", "payload"]

    def test_a_checked_blob_equals_hashes_and_reprs_as_a_fresh_one(self):
        blob = _checked()
        fresh = Blob(blob.media_type, blob.digest, blob.size, blob.payload)
        assert _memos(blob) == {"_finding", "_closure"}
        assert _memos(fresh) == set()
        assert blob == fresh
        assert hash(blob) == hash(fresh)
        assert repr(blob) == repr(fresh) == (
            f"Blob(media_type={blob.media_type!r}, digest={blob.digest!r},"
            f" size={blob.size!r}, payload={blob.payload!r})")
        assert dataclasses.astuple(blob) == dataclasses.astuple(fresh)

    def test_no_instance_dict_and_no_attribute_beside_the_slots(self):
        blob = _checked()
        assert not hasattr(blob, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(blob, "_verified", True)

    def test_fields_and_memos_refuse_plain_assignment(self):
        blob = _checked()
        with pytest.raises(dataclasses.FrozenInstanceError):
            blob.payload = b"{}"
        # The frozen __setattr__ refuses a slot that is no field too (which
        # error it raises there varies between CPython versions).
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            blob._finding = "forged"
        assert check_blob(blob) is None


class TestCopiesCarryNoMemo:
    @pytest.mark.parametrize("how", COPIES)
    def test_a_copy_of_a_checked_blob(self, how, rehashed):
        blob = _checked()
        twin = COPIES[how](blob)
        assert twin is not blob
        assert twin == blob and hash(twin) == hash(blob) and repr(twin) == repr(blob)
        assert _memos(twin) == set()
        del rehashed[:]
        assert check_blob(twin) is None
        assert manifest_closure(twin) == manifest_closure(blob)
        assert rehashed == [blob.payload]     # checked afresh, once
        assert check_blob(twin) is None and rehashed == [blob.payload]

    @pytest.mark.parametrize("how", COPIES)
    def test_a_copy_of_a_layer_blob(self, how):
        blob = Blob.from_layer(_layer())
        assert check_blob(blob) is None
        twin = COPIES[how](blob)
        assert twin == blob and repr(twin) == repr(blob)
        assert check_blob(twin) is None

    def test_a_replaced_payload_is_checked_afresh(self):
        blob = _checked()
        rotten = dataclasses.replace(blob, payload=blob.payload[:-1] + b"!")
        assert check_blob(rotten).kind == KIND_DIGEST_MISMATCH
        assert manifest_closure(rotten) is None
        assert check_blob(blob) is None


class TestPayloadsAreValues:
    @pytest.mark.parametrize("payload", [
        bytearray(b"{}"), memoryview(b"{}"), "{}", None,
    ], ids=["bytearray", "memoryview", "str", "None"])
    def test_other_payloads_are_refused(self, payload):
        with pytest.raises(TypeError):
            Blob(mediatypes.IMAGE_CONFIG, digest_bytes(b"{}"), 2, payload)

    def test_a_layer_payload_refuses_add_and_is_remembered(self):
        layer = _layer()
        blob = Blob.from_layer(layer)
        assert check_blob(blob) is None
        assert manifest_closure(blob) is None      # no manifest
        assert _memos(blob) == {"_finding", "_closure"}
        with pytest.raises(TypeError):
            layer.add(LayerEntry.file("/app/extra", InlineContent(b"y")))
        assert len(layer) == 1
        assert check_blob(blob) is None

    def test_a_blob_freezes_an_unread_layer(self):
        layer = _layer()
        Blob(mediatypes.SIM_LAYER, "sha256:" + "0" * 64, 0, layer)
        with pytest.raises(TypeError):
            layer.add(LayerEntry.file("/app/extra", InlineContent(b"y")))
