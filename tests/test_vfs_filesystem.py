"""Unit tests for the virtual filesystem."""

import copy
import pickle
import random

import pytest

from repro.vfs import (
    Directory,
    InlineContent,
    NotFoundError,
    RegularFile,
    Symlink,
    SymlinkLoopError,
    SyntheticContent,
    VfsError,
    VirtualFilesystem,
)
from repro.vfs import paths as vpath
from repro.vfs.errors import FileExistsVfsError, IsADirectoryVfsError, NotADirectoryVfsError


@pytest.fixture
def fs():
    return VirtualFilesystem()


class TestBasicOps:
    def test_root_exists(self, fs):
        assert fs.exists("/")
        assert fs.is_dir("/")

    def test_write_read_file(self, fs):
        fs.write_file("/hello.txt", "hi", create_parents=True)
        assert fs.read_text("/hello.txt") == "hi"
        assert fs.is_file("/hello.txt")

    def test_write_bytes(self, fs):
        fs.write_file("/b.bin", b"\x00\x01", create_parents=True)
        assert fs.read_file("/b.bin") == b"\x00\x01"

    def test_write_without_parent_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.write_file("/no/such/dir/f", "x")

    def test_write_with_create_parents(self, fs):
        fs.write_file("/a/b/c/f", "x", create_parents=True)
        assert fs.is_dir("/a/b/c")
        assert fs.read_text("/a/b/c/f") == "x"

    def test_mkdir(self, fs):
        fs.mkdir("/opt")
        assert fs.is_dir("/opt")

    def test_mkdir_existing_raises(self, fs):
        fs.mkdir("/opt")
        with pytest.raises(FileExistsVfsError):
            fs.mkdir("/opt")

    def test_mkdir_exist_ok(self, fs):
        fs.mkdir("/opt")
        fs.mkdir("/opt", exist_ok=True)

    def test_makedirs(self, fs):
        fs.makedirs("/a/b/c")
        assert fs.is_dir("/a/b/c")
        fs.makedirs("/a/b/c")  # idempotent

    def test_makedirs_through_file_raises(self, fs):
        fs.write_file("/a", "x")
        with pytest.raises(NotADirectoryVfsError):
            fs.makedirs("/a/b")

    def test_listdir_sorted(self, fs):
        fs.makedirs("/d")
        fs.write_file("/d/z", "1")
        fs.write_file("/d/a", "2")
        assert fs.listdir("/d") == ["a", "z"]

    def test_read_directory_raises(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryVfsError):
            fs.read_file("/d")

    def test_overwrite_file(self, fs):
        fs.write_file("/f", "one")
        fs.write_file("/f", "two")
        assert fs.read_text("/f") == "two"

    def test_overwrite_dir_with_file_raises(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryVfsError):
            fs.write_file("/d", "x")

    def test_file_size(self, fs):
        fs.write_file("/f", b"12345")
        assert fs.file_size("/f") == 5

    def test_chmod(self, fs):
        fs.write_file("/f", "x")
        fs.chmod("/f", 0o755)
        assert fs.get_node("/f").mode == 0o755


class TestRemoveRename:
    def test_remove_file(self, fs):
        fs.write_file("/f", "x")
        fs.remove("/f")
        assert not fs.exists("/f")

    def test_remove_missing_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.remove("/nope")

    def test_remove_missing_ok(self, fs):
        fs.remove("/nope", missing_ok=True)

    def test_remove_nonempty_dir_requires_recursive(self, fs):
        fs.makedirs("/d/sub")
        with pytest.raises(VfsError):
            fs.remove("/d")
        fs.remove("/d", recursive=True)
        assert not fs.exists("/d")

    def test_rename(self, fs):
        fs.write_file("/a", "x")
        fs.rename("/a", "/b")
        assert not fs.exists("/a")
        assert fs.read_text("/b") == "x"

    def test_rename_dir(self, fs):
        fs.makedirs("/d1/s")
        fs.write_file("/d1/s/f", "x")
        fs.rename("/d1", "/d2")
        assert fs.read_text("/d2/s/f") == "x"


class TestSymlinks:
    def test_create_and_read(self, fs):
        fs.write_file("/target", "data")
        fs.symlink("/target", "/link")
        assert fs.is_symlink("/link")
        assert fs.read_text("/link") == "data"
        assert fs.readlink("/link") == "/target"

    def test_relative_symlink(self, fs):
        fs.makedirs("/usr/bin")
        fs.write_file("/usr/bin/gcc-12", "real")
        fs.symlink("gcc-12", "/usr/bin/gcc")
        assert fs.read_text("/usr/bin/gcc") == "real"

    def test_symlink_through_directory(self, fs):
        fs.makedirs("/real/dir")
        fs.write_file("/real/dir/f", "x")
        fs.symlink("/real", "/alias")
        assert fs.read_text("/alias/dir/f") == "x"

    def test_resolve_path_canonicalizes(self, fs):
        fs.makedirs("/real")
        fs.write_file("/real/f", "x")
        fs.symlink("/real", "/alias")
        assert fs.resolve_path("/alias/f") == "/real/f"

    def test_dangling_symlink(self, fs):
        fs.symlink("/nowhere", "/dangling")
        assert fs.lexists("/dangling")
        assert not fs.exists("/dangling")

    def test_symlink_loop_detected(self, fs):
        fs.symlink("/b", "/a")
        fs.symlink("/a", "/b")
        with pytest.raises(SymlinkLoopError):
            fs.read_file("/a")

    def test_self_loop(self, fs):
        fs.symlink("/self", "/self")
        with pytest.raises(SymlinkLoopError):
            fs.get_node("/self")

    def test_symlink_chain(self, fs):
        fs.write_file("/end", "v")
        fs.symlink("/end", "/l1")
        fs.symlink("/l1", "/l2")
        fs.symlink("/l2", "/l3")
        assert fs.read_text("/l3") == "v"

    def test_no_follow_final(self, fs):
        fs.write_file("/t", "x")
        fs.symlink("/t", "/l")
        node = fs.get_node("/l", follow_symlinks=False)
        assert isinstance(node, Symlink)


class TestTraversal:
    def _populate(self, fs):
        fs.makedirs("/usr/bin")
        fs.makedirs("/usr/lib")
        fs.makedirs("/etc")
        fs.write_file("/usr/bin/gcc", "g")
        fs.write_file("/usr/lib/libc.so", "c")
        fs.write_file("/etc/passwd", "p")
        fs.symlink("/usr/bin/gcc", "/usr/bin/cc")

    def test_walk_preorder_sorted(self, fs):
        self._populate(fs)
        dirs = [d for d, _, _ in fs.walk("/")]
        assert dirs == ["/", "/etc", "/usr", "/usr/bin", "/usr/lib"]

    def test_walk_does_not_follow_symlinks(self, fs):
        fs.makedirs("/a")
        fs.symlink("/", "/a/rootlink")
        dirs = [d for d, _, _ in fs.walk("/")]
        assert "/a/rootlink" not in dirs

    def test_iter_files(self, fs):
        self._populate(fs)
        files = dict(fs.iter_files("/"))
        assert set(files) == {"/usr/bin/gcc", "/usr/lib/libc.so", "/etc/passwd"}

    def test_iter_entries_includes_symlinks(self, fs):
        self._populate(fs)
        entries = dict(fs.iter_entries("/"))
        assert isinstance(entries["/usr/bin/cc"], Symlink)
        assert isinstance(entries["/usr"], Directory)
        assert isinstance(entries["/etc/passwd"], RegularFile)

    def test_total_size(self, fs):
        fs.write_file("/a", b"123")
        fs.write_file("/b", b"4567")
        assert fs.total_size() == 7

    def test_total_size_synthetic(self, fs):
        fs.write_file("/big", SyntheticContent("seed", 10_000_000))
        assert fs.total_size() == 10_000_000


class TestTreeOps:
    def test_clone_independent(self, fs):
        fs.write_file("/f", "orig", create_parents=True)
        clone = fs.clone()
        clone.write_file("/f", "changed")
        clone.write_file("/new", "n")
        assert fs.read_text("/f") == "orig"
        assert not fs.exists("/new")

    def test_copy_tree_within(self, fs):
        fs.makedirs("/src/sub")
        fs.write_file("/src/sub/f", "x")
        fs.symlink("f", "/src/sub/l")
        fs.copy_tree("/src", "/dst")
        assert fs.read_text("/dst/sub/f") == "x"
        assert fs.readlink("/dst/sub/l") == "f"

    def test_copy_tree_across_filesystems(self, fs):
        other = VirtualFilesystem()
        other.write_file("/data/f", "远", create_parents=True)
        fs.copy_tree("/data", "/imported", source_fs=other)
        assert fs.read_text("/imported/f") == "远"

    def test_overlay(self, fs):
        fs.write_file("/kept", "k")
        fs.write_file("/replaced", "old")
        other = VirtualFilesystem()
        other.write_file("/replaced", "new")
        other.write_file("/added", "a")
        fs.overlay(other)
        assert fs.read_text("/kept") == "k"
        assert fs.read_text("/replaced") == "new"
        assert fs.read_text("/added") == "a"


class TestContent:
    def test_synthetic_deterministic(self):
        a = SyntheticContent("s", 100)
        b = SyntheticContent("s", 100)
        assert a.digest == b.digest
        assert a.read() == b.read()
        assert len(a.read()) == 100

    def test_synthetic_distinct_seeds(self):
        assert SyntheticContent("a", 10).digest != SyntheticContent("b", 10).digest

    def test_synthetic_distinct_sizes(self):
        assert SyntheticContent("a", 10).digest != SyntheticContent("a", 11).digest

    def test_synthetic_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SyntheticContent("a", -1)

    def test_inline_digest_matches_sha(self):
        import hashlib

        c = InlineContent(b"hello")
        assert c.digest == "sha256:" + hashlib.sha256(b"hello").hexdigest()

    def test_inline_content_hashes_once_and_has_one_field(self, monkeypatch):
        import dataclasses
        import hashlib
        import types

        from repro.vfs import content as content_module

        hashed = []

        def sha256(data):
            hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(content_module, "hashlib", types.SimpleNamespace(sha256=sha256))
        first, second = InlineContent(b"hello"), InlineContent(b"hello")
        assert first.digest == first.digest == second.digest
        assert hashed == [b"hello", b"hello"]            # once per object
        assert [f.name for f in dataclasses.fields(InlineContent)] == ["data"]
        assert first == second and hash(first) == hash(second)
        assert repr(first) == "InlineContent(data=b'hello')"

    def test_inline_synthetic_never_collide(self):
        # A synthetic file and an inline file with identical bytes must not
        # share a digest: digests identify providers, not streams.
        syn = SyntheticContent("x", 32)
        inline = InlineContent(syn.read())
        assert syn.digest != inline.digest


class TestSortedItemsCache:
    def _dir(self):
        d = Directory()
        d.children["zeta"] = RegularFile(content=InlineContent(b"z"))
        d.children["alpha"] = RegularFile(content=InlineContent(b"a"))
        d.children["mid"] = RegularFile(content=InlineContent(b"m"))
        return d

    def test_iteration_order_is_lexicographic(self):
        # Pinned: every consumer (diffing, layer encoding, tar walks)
        # relies on name order regardless of insertion order.
        d = self._dir()
        assert [name for name, _ in d.sorted_items()] == [
            "alpha", "mid", "zeta"]

    def test_repeat_calls_reuse_cached_list(self):
        d = self._dir()
        assert d.sorted_items() is d.sorted_items()

    def test_cache_invalidated_on_every_mutation(self):
        d = self._dir()
        first = d.sorted_items()
        d.children["beta"] = RegularFile(content=InlineContent(b"b"))
        assert [n for n, _ in d.sorted_items()] == [
            "alpha", "beta", "mid", "zeta"]
        del d.children["zeta"]
        assert [n for n, _ in d.sorted_items()] == ["alpha", "beta", "mid"]
        d.children.pop("mid")
        assert [n for n, _ in d.sorted_items()] == ["alpha", "beta"]
        d.children.update({"omega": RegularFile(content=InlineContent(b"o"))})
        assert [n for n, _ in d.sorted_items()] == ["alpha", "beta", "omega"]
        d.children.clear()
        assert d.sorted_items() == []
        assert first[0][0] == "alpha"   # old snapshots are unaffected

    def test_clone_does_not_share_cache_entries(self):
        d = self._dir()
        d.sorted_items()
        twin = d.clone()
        twin.children["extra"] = RegularFile(content=InlineContent(b"e"))
        assert [n for n, _ in twin.sorted_items()] == [
            "alpha", "extra", "mid", "zeta"]
        assert [n for n, _ in d.sorted_items()] == ["alpha", "mid", "zeta"]

    @pytest.mark.parametrize("mutated", ["given", "built"])
    def test_no_two_directories_share_a_map(self, mutated):
        # The sorted view lives on the child map, so a directory built
        # from another's map must get a map of its own.
        given = self._dir()
        given.sorted_items()
        built = Directory(children=given.children)
        assert built.children is not given.children
        built.sorted_items()
        changed, other = (given, built) if mutated == "given" else (built, given)
        changed.children["beta"] = RegularFile(content=InlineContent(b"b"))
        del changed.children["zeta"]
        assert sorted(other.children) == ["alpha", "mid", "zeta"]
        assert [n for n, _ in other.sorted_items()] == ["alpha", "mid", "zeta"]
        assert [n for n, _ in changed.sorted_items()] == ["alpha", "beta", "mid"]

    @staticmethod
    def _fs():
        fs = VirtualFilesystem()
        fs.write_file("/etc/zeta", "z", create_parents=True)
        fs.write_file("/etc/alpha", "a")
        fs.symlink("/etc/alpha", "/bin/alpha", create_parents=True)
        list(fs.iter_entries())   # fills every directory's sorted view
        return fs

    @pytest.mark.parametrize("copy_of", ["deepcopy", "pickle"])
    def test_copies_keep_a_mutable_map_and_a_correct_view(self, copy_of):
        copier = {"deepcopy": copy.deepcopy,
                  "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}[copy_of]
        original = self._dir()
        original.sorted_items()
        d = copier(original)
        assert [n for n, _ in d.sorted_items()] == ["alpha", "mid", "zeta"]
        d.children["beta"] = RegularFile(content=InlineContent(b"b"))
        assert [n for n, _ in d.sorted_items()] == [
            "alpha", "beta", "mid", "zeta"]
        assert [n for n, _ in original.sorted_items()] == ["alpha", "mid", "zeta"]
        fs = copier(self._fs())
        assert tree_snapshot(fs) == tree_snapshot(self._fs())
        fs.write_file("/etc/mid", "m")
        fs.remove("/etc/zeta")
        assert fs.listdir("/etc") == ["alpha", "mid"]
        assert [p for p, _ in fs.iter_entries("/etc")] == ["/etc/alpha", "/etc/mid"]


# ---------------------------------------------------------------------------
# The write path against the resolving walk
# ---------------------------------------------------------------------------

def tree_snapshot(fs):
    """Every node of *fs* as plain data, by path (the root as "/"): kind,
    mode, mtime, uid, gid, and content digest or symlink target.  A
    directory that holds itself (a rename through a symlink into its own
    subtree can make one) is marked, not walked again."""
    snapshot = {}

    def visit(path, node, ancestors):
        meta = (node.mode, node.mtime, node.uid, node.gid)
        if isinstance(node, RegularFile):
            snapshot[path] = ("file", *meta, node.content.digest)
        elif isinstance(node, Symlink):
            snapshot[path] = ("link", *meta, node.target)
        elif id(node) in ancestors:
            snapshot[path] = ("dir", *meta, "cycle")
        else:
            snapshot[path] = ("dir", *meta)
            for name, child in node.sorted_items():
                visit(vpath.join(path, name), child, ancestors | {id(node)})

    visit("/", fs.root, frozenset())
    return snapshot


class ResolvingWalkFs(VirtualFilesystem):
    """The reference write path: every write through the resolving walk
    alone, i.e. ``makedirs``' probe and per-component loop, then
    ``_resolve`` and ``_writable_dir_at``, called explicitly."""

    def clone(self):
        other = ResolvingWalkFs()
        other.root = self.root.clone()
        return other

    def _dir(self, path, create):
        if create:
            self.makedirs(path, exist_ok=True)
        canonical, node = self._resolve(path)
        if node is None:
            raise NotFoundError(f"no such directory: {path!r}")
        if not isinstance(node, Directory):
            raise NotADirectoryVfsError(f"not a directory: {canonical!r}")
        return self._writable_dir_at(canonical)

    def _parent_dir(self, path, *, create=False):
        name = vpath.basename(path)
        if not name:
            raise VfsError("cannot address the root this way")
        return self._dir(vpath.dirname(path), create), name

    def writable_dir(self, path, *, create=False):
        return self._dir(path, create)

    def makedirs(self, path, *, exist_ok=True, mode=0o755):
        if exist_ok:
            try:
                _, node = self._resolve(path)
            except VfsError:
                node = None
            if isinstance(node, Directory):
                return
        cur = "/"
        for comp in vpath.components(path):
            cur = vpath.join(cur, comp)
            canonical, node = self._resolve(cur)
            if node is None:
                self.mkdir(canonical, mode=mode)
            elif not isinstance(node, Directory):
                raise NotADirectoryVfsError(f"not a directory: {canonical!r}")
            elif cur == vpath.normalize(path) and not exist_ok:
                raise FileExistsVfsError(f"file exists: {cur!r}")


_NAMES = ("a", "b", "l", "f")
_TARGETS = (
    "/a", "/a/b", "/b/a/l", "a", "b/a", "../a", "../../b", "..", ".",
    "/gone/x", "gone", "l", "/l", "/a/l", "f", "/f/a",
)


def _random_tree(rng, depth=3):
    """A tree built from nodes directly (no write path): directories,
    files where directories are looked for, and absolute, relative,
    dangling and looping symlinks, all under a few reused names."""
    def fill(directory, level):
        for name in _NAMES:
            roll = rng.random()
            if roll < 0.4 and level < depth:
                child = Directory(mode=rng.choice((0o755, 0o700)), mtime=level)
                fill(child, level + 1)
            elif roll < 0.6:
                child = RegularFile(content=InlineContent(name.encode()))
            elif roll < 0.8:
                child = Symlink(mode=0o777, target=rng.choice(_TARGETS))
            else:
                continue
            directory.children[name] = child

    root = Directory()
    fill(root, 0)
    return root


def _random_path(rng):
    comps = [rng.choice(_NAMES + ("new", "..", ".", "")) for _ in range(rng.randint(0, 4))]
    path = "/".join(comps)
    return path if rng.random() < 0.1 else "/" + path


def _random_op(rng):
    """``(method, args, kwargs)`` of one random write."""
    path = _random_path(rng)
    flag = rng.random() < 0.5
    kind = rng.choice(("write_file", "symlink", "remove", "mkdir", "makedirs",
                       "rename", "writable_dir", "clone"))
    if kind == "write_file":
        return kind, (path, rng.choice((b"x", b"yy"))), {"create_parents": flag}
    if kind == "symlink":
        return kind, (rng.choice(_TARGETS), path), {"create_parents": flag}
    if kind == "remove":
        return kind, (path,), {"recursive": flag, "missing_ok": rng.random() < 0.5}
    if kind in ("mkdir", "makedirs"):
        return kind, (path,), {"exist_ok": flag, "mode": rng.choice((0o755, 0o711))}
    if kind == "rename":
        return kind, (path, _random_path(rng)), {}
    if kind == "writable_dir":
        return kind, (path,), {"create": flag}
    return kind, (), {"keep_going_on_clone": flag}


def _apply(fs, clones, op):
    """Run *op* on *fs*; ``(fs to go on with, outcome)``.  A clone op keeps
    a clone (with its snapshot) in *clones* and goes on with one of the
    two; ``writable_dir`` adds a file to the directory it returns."""
    kind, args, kwargs = op
    if kind == "clone":
        twin = fs.clone()
        kept, live = (fs, twin) if kwargs["keep_going_on_clone"] else (twin, fs)
        clones.append((kept, tree_snapshot(kept)))
        return live, None
    try:
        result = getattr(fs, kind)(*args, **kwargs)
        if kind == "writable_dir":
            result.children["w"] = RegularFile(content=InlineContent(b"w"))
    except Exception as exc:  # both walks must fail alike
        return fs, (type(exc), str(exc))
    return fs, None


class TestWritePathMatchesResolvingWalk:
    """Every write takes one walk from the root and hands a path that meets
    a symlink, a non-directory or a missing directory it may not create to
    the resolving walk: seeded op sequences must leave the same tree, raise
    the same errors, and leave every earlier clone alone."""

    @staticmethod
    def _start(fs_type, seed, clones):
        """A *fs_type* on seed's random tree that shares structure from the
        start: its root is a subtree of another tree, and it is a clone."""
        fs = fs_type()
        fs.root = _random_tree(random.Random(seed))
        holder = fs_type()
        holder.root = Directory(children={"r": fs.root}).clone()
        clones.append((holder, tree_snapshot(holder)))
        fs, _ = _apply(fs, clones, ("clone", (), {"keep_going_on_clone": False}))
        return fs

    @pytest.mark.parametrize("seed", range(40))
    def test_random_writes_match_the_reference(self, seed):
        rng = random.Random(seed)
        our_clones, reference_clones = [], []
        ours = self._start(VirtualFilesystem, seed, our_clones)
        reference = self._start(ResolvingWalkFs, seed, reference_clones)
        outcomes = []
        for _ in range(30):
            op = _random_op(rng)
            ours, outcome = _apply(ours, our_clones, op)
            reference, expected = _apply(reference, reference_clones, op)
            assert outcome == expected, op
            assert tree_snapshot(ours) == tree_snapshot(reference), op
            for clone, snapshot in our_clones:
                assert tree_snapshot(clone) == snapshot, op
            outcomes.append(outcome)
        assert [snap for _, snap in our_clones] == [snap for _, snap in reference_clones]
        assert any(outcomes) and not all(outcomes)

    def test_created_parents_are_plain_directories(self, fs):
        fs.write_file("/a/b/c", "x", create_parents=True)
        fs.makedirs("/a/d/e", mode=0o700)
        assert [(p, n.mode, n.mtime) for p, n in fs.iter_entries("/")
                if isinstance(n, Directory)] == [
            ("/a", 0o755, 0), ("/a/b", 0o755, 0), ("/a/d", 0o700, 0), ("/a/d/e", 0o700, 0)]

    def test_a_write_through_a_symlinked_parent_lands_at_its_target(self, fs):
        fs.makedirs("/real")
        fs.symlink("/real", "/alias")
        twin = fs.clone()
        fs.write_file("/alias/sub/f", "x", create_parents=True)
        assert fs.read_text("/real/sub/f") == "x"
        assert fs.is_symlink("/alias")
        assert not twin.exists("/real/sub")


def test_the_random_writes_reach_both_walks(monkeypatch):
    # The descent serves most writes; symlinks, files in the way and
    # missing directories send the rest to the resolving walk.
    calls = {"descend": 0, "resolving": 0}
    descend, resolving = VirtualFilesystem._descend, VirtualFilesystem._resolving_dir

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(VirtualFilesystem, "_descend", counted("descend", descend))
    monkeypatch.setattr(VirtualFilesystem, "_resolving_dir",
                        counted("resolving", resolving))
    for seed in range(10):
        rng = random.Random(seed)
        fs = VirtualFilesystem()
        fs.root = _random_tree(random.Random(seed))
        clones = []
        for _ in range(30):
            fs, _ = _apply(fs, clones, _random_op(rng))
    assert calls["descend"] > calls["resolving"] > 0
