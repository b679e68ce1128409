"""The dpkg status parse: memoised on content, private copies, total errors."""

import pytest

from repro.containers import ContainerEngine
from repro.images import UBUNTU_REF, install_ubuntu_base
from repro.pkg import AptFacade, Package, PackagedFile, Repository, RepositoryPool
from repro.pkg import database
from repro.pkg.database import INFO_DIR, STATUS_PATH, DpkgDatabase, DpkgStatusError
from repro.vfs import VirtualFilesystem


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
