"""Deeper property tests over the OCI substrate."""

from hypothesis import given
from hypothesis import strategies as st

from repro.memo import MEMOS
from repro.oci import Layer, LayerEntry, apply_layer, diff_filesystems, flatten_layers
from repro.oci import apply as oci_apply
from repro.oci.diff import layer_from_tree
from repro.vfs import InlineContent, VirtualFilesystem
from tests.test_vfs_filesystem import tree_snapshot

_names = st.text(alphabet="abcd", min_size=1, max_size=3)
_paths = st.builds(lambda parts: "/" + "/".join(parts),
                   st.lists(_names, min_size=1, max_size=3))


@st.composite
def _random_fs(draw):
    fs = VirtualFilesystem()
    for path in draw(st.lists(_paths, max_size=6, unique=True)):
        try:
            fs.write_file(path, draw(st.binary(max_size=16)), create_parents=True)
        except Exception:
            pass  # path collides with an existing directory: fine
    return fs


def _file_map(fs):
    return {p: n.content.digest for p, n in fs.iter_files()}


class TestFlattenProperties:
    @given(_random_fs())
    def test_layer_from_tree_flattens_back(self, fs):
        layer = layer_from_tree(fs)
        rebuilt = flatten_layers([layer])
        assert _file_map(rebuilt) == _file_map(fs)

    @given(_random_fs(), _random_fs())
    def test_flatten_equals_sequential_diffs(self, a, b):
        """flatten([tree(a), diff(a,b)]) reproduces b exactly."""
        layers = [layer_from_tree(a), diff_filesystems(a, b)]
        assert _file_map(flatten_layers(layers)) == _file_map(b)

    @given(_random_fs())
    def test_apply_layer_idempotent_for_pure_adds(self, fs):
        layer = layer_from_tree(fs)
        once = flatten_layers([layer])
        twice = apply_layer(once.clone(), layer)
        assert _file_map(once) == _file_map(twice)

    @given(_random_fs(), _random_fs(), _random_fs())
    def test_three_way_stack(self, a, b, c):
        layers = [
            layer_from_tree(a),
            diff_filesystems(a, b),
            diff_filesystems(b, c),
        ]
        assert _file_map(flatten_layers(layers)) == _file_map(c)


# Paths over a two-letter alphabet collide often, so stacks replace
# directories with files and files with directories, white out and
# opaque-clear populated trees, and write through symlinks.
_stack_paths = st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts))
_entries = st.one_of(
    st.builds(LayerEntry.file, _stack_paths, st.binary(max_size=3).map(InlineContent),
              mode=st.sampled_from((0o644, 0o600)), mtime=st.integers(0, 2)),
    st.builds(LayerEntry.directory, _stack_paths, mode=st.sampled_from((0o755, 0o700))),
    st.builds(LayerEntry.whiteout, _stack_paths),
    st.builds(LayerEntry.opaque, _stack_paths),
    st.builds(LayerEntry.symlink, _stack_paths,
              st.sampled_from(("a", "b", "/a", "/b/a", "..", "/nowhere"))),
)
_stacks = st.lists(st.lists(_entries, max_size=6).map(lambda es: Layer(entries=es)),
                   min_size=1, max_size=4)


def _outcome(flatten):
    """Every node of the tree *flatten* returns, or the type it raised."""
    try:
        return tree_snapshot(flatten())
    except Exception as exc:  # a stack can fail to apply; both ways alike
        return type(exc)


def apply_fresh(layers):
    """The stack applied layer by layer, each with a fresh applier, past
    every memo."""
    fs = VirtualFilesystem()
    for layer in layers:
        apply_layer(fs, layer)
    return fs


class TestPrefixFlatten:
    """A flatten that starts from a memoised prefix of its stack equals a
    fresh application of every layer, whatever the memo holds."""

    @given(_stacks, st.data())
    def test_flatten_after_any_primed_prefix_equals_fresh_application(self, stack, data):
        MEMOS["flatten"].clear()
        cut = data.draw(st.integers(0, len(stack)), label="primed prefix")
        prefix = stack[:cut]
        if cut:
            _outcome(lambda: flatten_layers(prefix))
        expected = _outcome(lambda: apply_fresh(stack))
        assert _outcome(lambda: flatten_layers(stack)) == expected
        if cut:
            assert _outcome(lambda: flatten_layers(prefix)) == _outcome(
                lambda: apply_fresh(prefix))
        if not isinstance(expected, type):
            # A handed-out tree is the caller's: changing it changes no memo.
            mine = flatten_layers(stack)
            for name in list(mine.root.children):
                mine.remove("/" + name, recursive=True)
            mine.write_file("/a", b"mine")
            assert _outcome(lambda: flatten_layers(stack)) == expected
            if cut:
                assert _outcome(lambda: flatten_layers(prefix)) == _outcome(
                    lambda: apply_fresh(prefix))

    def test_a_stack_over_a_flattened_prefix_applies_only_its_top(self, monkeypatch):
        MEMOS["flatten"].clear()
        prefix = [
            Layer(entries=[LayerEntry.directory("/usr"),
                           LayerEntry.file("/usr/a", InlineContent(b"a")),
                           LayerEntry.file("/usr/b", InlineContent(b"b"))]),
            Layer(entries=[LayerEntry.whiteout("/usr/b"),
                           LayerEntry.symlink("/lib", "/usr")]),
        ]
        top = Layer(entries=[LayerEntry.file("/lib/c", InlineContent(b"c")),
                             LayerEntry.opaque("/etc")])
        flatten_layers(prefix)
        applied = []
        real = oci_apply._LayerApplier.apply_entry
        monkeypatch.setattr(oci_apply._LayerApplier, "apply_entry",
                            lambda self, entry: (applied.append(entry), real(self, entry)))
        got = flatten_layers([*prefix, top])
        assert applied == top.entries
        assert tree_snapshot(got) == tree_snapshot(apply_fresh([*prefix, top]))


class TestTarCodecProperties:
    @given(_random_fs())
    def test_tar_roundtrip_preserves_files(self, fs):
        layer = layer_from_tree(fs)
        restored = Layer.from_tar_bytes(layer.to_tar_bytes())
        rebuilt = flatten_layers([restored])
        assert _file_map(rebuilt) == _file_map(fs)

    @given(st.lists(_paths, min_size=1, max_size=5, unique=True))
    def test_whiteouts_roundtrip_through_tar(self, paths):
        layer = Layer(entries=[LayerEntry.whiteout(p) for p in paths])
        restored = Layer.from_tar_bytes(layer.to_tar_bytes())
        assert [e.kind for e in restored] == ["whiteout"] * len(paths)
        assert sorted(e.path for e in restored) == sorted(
            e.path for e in layer
        )

    def test_opaque_roundtrip_through_tar(self):
        layer = Layer(entries=[LayerEntry.opaque("/var/cache")])
        restored = Layer.from_tar_bytes(layer.to_tar_bytes())
        assert restored.entries[0].kind == "opaque"
        assert restored.entries[0].path == "/var/cache"


class TestDiffMinimality:
    @given(_random_fs())
    def test_self_diff_empty(self, fs):
        assert len(diff_filesystems(fs, fs.clone())) == 0

    @given(_random_fs(), st.data())
    def test_single_change_single_entry(self, fs, data):
        files = sorted(p for p, _ in fs.iter_files())
        if not files:
            return
        target = data.draw(st.sampled_from(files))
        changed = fs.clone()
        changed.write_file(target, b"CHANGED-CONTENT-UNIQUE")
        layer = diff_filesystems(fs, changed)
        assert layer.paths() == [target]


def _mtime_layer(mtime):
    return Layer().add(LayerEntry.file("/x", InlineContent(b"hi"), mtime=mtime))


class TestFileMtimeInTheDigest:
    """A file entry's non-zero mtime is part of its layer's digest, so the
    digest-keyed flatten memo never hands one layer's mtimes to another."""

    def test_layers_differing_only_in_mtime_have_distinct_digests(self):
        assert _mtime_layer(5).digest != _mtime_layer(9).digest

    def test_flatten_keeps_each_layers_mtime(self):
        assert flatten_layers([_mtime_layer(5)]).get_node("/x").mtime == 5
        assert flatten_layers([_mtime_layer(9)]).get_node("/x").mtime == 9

    def test_tar_round_trip_keeps_mtime_and_digest(self):
        layer = _mtime_layer(9)
        back = Layer.from_tar_bytes(layer.to_tar_bytes())
        assert back.entries[0].mtime == 9
        assert back.digest == layer.digest

    def test_mtime_zero_digest_is_unchanged(self):
        assert _mtime_layer(0).digest == (
            "sha256:206c506a290e21ab8760f255760ac214d96bdcc71988f9e2c60e7fb6d0ec3a0a")
