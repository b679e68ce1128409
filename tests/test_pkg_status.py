"""The dpkg status parse: memoised on content, private copies, total errors;
and the dpkg write, which skips the lists already on disk."""

import itertools

import pytest

from repro.containers import ContainerEngine
from repro.images import UBUNTU_REF, install_ubuntu_base
from repro.pkg import AptFacade, Package, PackagedFile, Repository, RepositoryPool
from repro.pkg import database
from repro.pkg.database import (
    INFO_DIR,
    STATUS_PATH,
    DpkgDatabase,
    DpkgStatusError,
    PackageDatabaseError,
)
from repro.pkg.rpm import RPM_DB_PATH, RpmDatabase, RpmDatabaseError
from repro.vfs import IsADirectoryVfsError, SyntheticContent, VirtualFilesystem
from tests.test_vfs_filesystem import tree_snapshot


def _pool():
    repo = Repository("memo-test", "amd64")
    for name in ("liba", "libb", "libc"):
        repo.add(Package(name=name, version="1.0", architecture="amd64",
                         files=[PackagedFile(path=f"/usr/lib/{name}.so", size=32)]))
    return RepositoryPool([repo])


def _installed_fs(*names):
    fs = VirtualFilesystem()
    AptFacade(fs, _pool()).install(list(names))
    return fs


def _status_with(stanza):
    fs = _installed_fs("liba")
    text = fs.read_text(STATUS_PATH)
    fs.write_file(STATUS_PATH, text + "\n" + stanza + "\n")
    return fs


class TestStatusMemo:
    def test_equal_status_reads_are_equal_and_independent(self):
        fs = _installed_fs("liba", "libb")
        first = DpkgDatabase.read_from(fs)
        second = DpkgDatabase.read_from(fs.clone())
        assert first is not second
        assert first.names() == second.names() == ["liba", "libb"]
        assert first.file_index() == second.file_index()
        first.add(Package(name="libz", version="9", architecture="amd64"))
        first.remove("liba")
        assert DpkgDatabase.read_from(fs).names() == ["liba", "libb"]

    def test_install_through_a_copy_leaves_the_next_read_alone(self):
        fs = _installed_fs("liba")
        twin = fs.clone()
        AptFacade(fs, _pool()).install(["libb"])
        assert DpkgDatabase.read_from(fs).names() == ["liba", "libb"]
        assert DpkgDatabase.read_from(twin).names() == ["liba"]

    def test_copy_writes_every_list_on_its_first_write(self):
        db = DpkgDatabase.read_from(_installed_fs("liba", "libb"))
        target = VirtualFilesystem()
        db.write_to(target)
        assert target.read_text(f"{INFO_DIR}/liba.list") == "/usr/lib/liba.so\n"
        assert target.read_text(f"{INFO_DIR}/libb.list") == "/usr/lib/libb.so\n"

    def test_editing_a_list_or_the_status_changes_the_result(self):
        fs = _installed_fs("liba", "libb")
        assert DpkgDatabase.read_from(fs).file_list("liba") == ["/usr/lib/liba.so"]
        fs.write_file(f"{INFO_DIR}/liba.list", "/usr/lib/liba.so\n/usr/lib/extra\n")
        assert DpkgDatabase.read_from(fs).file_list("liba") == [
            "/usr/lib/extra", "/usr/lib/liba.so"]
        text = fs.read_text(STATUS_PATH).replace("Version: 1.0", "Version: 2.0", 1)
        fs.write_file(STATUS_PATH, text)
        assert DpkgDatabase.read_from(fs).get("liba").version == "2.0"

    def test_symlinked_list_reads_through_its_link(self):
        fs = _installed_fs("liba")
        fs.write_file("/srv/liba.list", "/opt/elsewhere\n", create_parents=True)
        fs.remove(f"{INFO_DIR}/liba.list")
        fs.symlink("/srv/liba.list", f"{INFO_DIR}/liba.list")
        assert DpkgDatabase.read_from(fs).file_list("liba") == ["/opt/elsewhere"]
        fs.write_file("/srv/liba.list", "/opt/moved\n")
        assert DpkgDatabase.read_from(fs).file_list("liba") == ["/opt/moved"]

    def test_memo_stays_within_its_cap(self):
        for i in range(database._READ_MEMO_CAP + 4):
            fs = _installed_fs("liba")
            fs.write_file(f"{INFO_DIR}/liba.list", f"/usr/lib/v{i}\n")
            DpkgDatabase.read_from(fs)
            assert len(database._READ_MEMO) <= database._READ_MEMO_CAP


class TestStatusErrors:
    @pytest.mark.parametrize("stanza, detail", [
        ("Status: install ok installed\nVersion: 1", "missing 'Package' field"),
        ("Package: libq\nX-Comtainer-Quality: fast", "fast"),
        ("Package: libd\nDepends: libc6 (>= ", "malformed dependency"),
    ])
    def test_bad_stanza_raises_one_typed_error(self, stanza, detail):
        fs = _status_with(stanza)
        for _ in range(2):  # a failed parse is never memoised
            with pytest.raises(DpkgStatusError) as info:
                DpkgDatabase.read_from(fs)
            assert "stanza 2" in str(info.value)
            assert detail in str(info.value)
        assert isinstance(info.value, ValueError)

    def test_undecodable_status_raises_the_typed_error(self):
        fs = _installed_fs("liba")
        fs.write_file(STATUS_PATH, b"Package: \xff\xfe\n")
        with pytest.raises(DpkgStatusError):
            DpkgDatabase.read_from(fs)

    def test_status_that_is_not_a_file_raises_the_typed_error(self):
        fs = _installed_fs("liba")
        fs.remove(STATUS_PATH)
        fs.mkdir(STATUS_PATH)
        for _ in range(2):  # a failed parse is never memoised
            with pytest.raises(DpkgStatusError, match="not a regular file"):
                DpkgDatabase.read_from(fs)

    @pytest.mark.parametrize("document", [
        b"not json",
        b"\xff\xfe",
        b"[1, 2]",
        b'{"headers": 3}',
        b'{"headers": [3]}',
        b'{"headers": [{"Version": "1"}]}',
        b'{"headers": [{"Name": "x", "X-Comtainer-Quality": "fast"}]}',
        b'{"headers": [{"Name": "x", "Requires": ["libc6 (>= "]}]}',
    ])
    def test_rpm_document_of_another_shape_raises_one_typed_error(self, document):
        fs = VirtualFilesystem()
        fs.write_file(RPM_DB_PATH, document, create_parents=True)
        with pytest.raises(RpmDatabaseError, match=RPM_DB_PATH) as info:
            RpmDatabase.read_from(fs)
        assert isinstance(info.value, PackageDatabaseError)
        assert isinstance(info.value, ValueError)

    def test_rpm_database_that_is_not_a_file_raises_the_typed_error(self):
        fs = VirtualFilesystem()
        fs.makedirs(RPM_DB_PATH)
        with pytest.raises(RpmDatabaseError, match="not a regular file"):
            RpmDatabase.read_from(fs)

    @pytest.mark.parametrize("argv", [["dpkg", "-l"], ["apt-get", "install", "make"]])
    def test_programs_refuse_a_status_that_is_a_directory(self, argv):
        engine = ContainerEngine(arch="amd64")
        install_ubuntu_base(engine)
        ctr = engine.from_image(UBUNTU_REF, name="status-dir")
        ctr.fs.remove(STATUS_PATH)
        ctr.fs.mkdir(STATUS_PATH)
        result = engine.run(ctr, argv)
        assert result.exit_code == 1
        assert result.stderr.startswith(argv[0])
        assert STATUS_PATH in result.stderr

    @pytest.mark.parametrize("document", [
        b"not json", b'{"headers": [{"Version": "1"}]}'])
    def test_apt_refuses_a_corrupt_rpm_database(self, document):
        engine = ContainerEngine(arch="amd64")
        install_ubuntu_base(engine)
        ctr = engine.from_image(UBUNTU_REF, name="rpm-corrupt")
        ctr.fs.remove(STATUS_PATH)
        ctr.fs.write_file(RPM_DB_PATH, document, create_parents=True)
        result = engine.run(ctr, ["apt-get", "install", "make"])
        assert result.exit_code == 1
        assert result.stderr.startswith("apt-get")
        assert RPM_DB_PATH in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["dpkg", "-l"], ["apt-get", "install", "make"]])
    @pytest.mark.parametrize("stanza", [
        "Description: no name here",
        "Package: libq\nX-Comtainer-Quality: fast",
    ])
    def test_programs_refuse_a_corrupt_status(self, argv, stanza):
        engine = ContainerEngine(arch="amd64")
        install_ubuntu_base(engine)
        ctr = engine.from_image(UBUNTU_REF, name="corrupt")
        text = ctr.fs.read_text(STATUS_PATH)
        ctr.fs.write_file(STATUS_PATH, text + "\n\n" + stanza + "\n")
        result = engine.run(ctr, argv)
        assert result.exit_code == 1
        assert result.stderr.startswith(argv[0])
        assert STATUS_PATH in result.stderr


# ---------------------------------------------------------------------------
# write_to skips the lists already on disk
# ---------------------------------------------------------------------------

def _write_as_before(db, fs):
    """A first ``write_to`` as it was before lists already on disk were
    skipped: the status, then every list, each through ``write_file``."""
    stanzas = [db.get(name).to_control() for name in db.names()]
    fs.write_file(STATUS_PATH, "\n\n".join(stanzas) + "\n", create_parents=True)
    fs.makedirs(INFO_DIR)
    for name in db.names():
        listing = "\n".join(db.file_list(name)) + "\n"
        fs.write_file(f"{INFO_DIR}/{name}.list", listing, create_parents=True)


def _outcome(write):
    try:
        write()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _assert_writes_as_before(fs, read=None):
    """A private copy's first ``write_to`` into a clone of *fs* (read from
    *fs*, or made by *read*) leaves the tree, and raises the error, that
    writing every list does; *fs*, which shares structure with the clone,
    is left alone.  Returns the outcome."""
    read = read or (lambda: DpkgDatabase.read_from(fs))
    snapshot = tree_snapshot(fs)
    ours, theirs = fs.clone(), fs.clone()
    outcome = _outcome(lambda: read().write_to(ours))
    assert outcome == _outcome(lambda: _write_as_before(read(), theirs))
    assert tree_snapshot(ours) == tree_snapshot(theirs)
    assert tree_snapshot(fs) == snapshot
    return outcome


LIST = f"{INFO_DIR}/liba.list"


def _rewrite_list(fs, text, **kwargs):
    fs.write_file(LIST, text, **kwargs)


def _set_owner(fs, field):
    setattr(fs.get_node(LIST), field, 1000)


def _symlink_list(fs):
    fs.write_file("/srv/liba.list", "/usr/lib/liba.so\n", create_parents=True)
    fs.remove(LIST)
    fs.symlink("/srv/liba.list", LIST)


class TestWriteSkipsListsOnDisk:
    @pytest.mark.parametrize("damage", [
        pytest.param(lambda fs: None, id="unchanged"),
        pytest.param(lambda fs: _rewrite_list(fs, "/usr/lib/z\n/usr/lib/liba.so\n"),
                     id="unsorted"),
        pytest.param(lambda fs: _rewrite_list(fs, "/usr/lib/liba.so\n\n\n"),
                     id="blank-lines"),
        pytest.param(_symlink_list, id="symlinked"),
        pytest.param(lambda fs: _rewrite_list(fs, "/usr/lib/liba.so\n", mode=0o600),
                     id="mode"),
        pytest.param(lambda fs: _rewrite_list(fs, "/usr/lib/liba.so\n", mtime=7),
                     id="mtime"),
        pytest.param(lambda fs: _set_owner(fs, "uid"), id="uid"),
        pytest.param(lambda fs: _set_owner(fs, "gid"), id="gid"),
    ])
    def test_a_list_on_disk_is_rewritten_exactly_as_before(self, damage):
        fs = _installed_fs("liba", "libb", "libc")
        damage(fs)
        assert _assert_writes_as_before(fs) is None

    def test_a_synthetic_list_with_equal_bytes_is_rewritten_as_before(self):
        # Synthetic bytes that read as a one-line list: a write must still
        # replace them with inline content, whose digest differs.
        content = next(
            c for c in (SyntheticContent(str(seed), 2) for seed in itertools.count())
            if c.read()[1:] == b"\n" and c.read()[:1].isalpha())
        source = VirtualFilesystem()
        db = DpkgDatabase()
        db.add(Package(name="liba", version="1", architecture="amd64"),
               file_paths=[content.read()[:1].decode()])
        db.write_to(source)
        target = source.clone()
        _rewrite_list(target, content)
        assert _assert_writes_as_before(target, lambda: DpkgDatabase.read_from(source)) is None
        assert target.read_file(LIST) == source.read_file(LIST)

    def test_a_directory_in_a_lists_place_still_raises(self):
        fs = _installed_fs("liba", "libb")
        fs.remove(LIST)
        fs.mkdir(LIST)
        kind, message = _assert_writes_as_before(fs)
        assert kind is IsADirectoryVfsError and LIST in message

    def test_names_with_a_slash_or_dots_write_as_before(self):
        # "./liba" lands on liba's own list, so a write that holds it must
        # not decide liba's list from what was on disk before the write.
        fs = _installed_fs("liba", "libb")
        text = fs.read_text(STATUS_PATH)
        for name in ("./liba", "../up", "sub/x", ".."):
            text += f"\nPackage: {name}\nVersion: 1\nArchitecture: amd64\n"
        fs.write_file(STATUS_PATH, text)
        assert "./liba" in DpkgDatabase.read_from(fs)
        assert _assert_writes_as_before(fs) is None

    def test_a_fresh_target_gets_every_list(self):
        source = _installed_fs("liba", "libb")
        target = VirtualFilesystem()
        assert _assert_writes_as_before(target, lambda: DpkgDatabase.read_from(source)) is None

    def test_a_memo_hit_copy_rewrites_only_the_status(self, monkeypatch):
        fs = _installed_fs("liba", "libb", "libc")
        DpkgDatabase.read_from(fs)
        db = DpkgDatabase.read_from(fs)  # a memo hit: a private copy
        writes, renders = [], []
        write_file, to_control = VirtualFilesystem.write_file, Package.to_control

        def counted_write(self, path, *args, **kwargs):
            writes.append(path)
            return write_file(self, path, *args, **kwargs)

        def counted_render(self):
            renders.append(self.name)
            return to_control(self)

        monkeypatch.setattr(VirtualFilesystem, "write_file", counted_write)
        monkeypatch.setattr(Package, "to_control", counted_render)
        db.write_to(fs)
        assert writes == [STATUS_PATH]
        assert renders == []
