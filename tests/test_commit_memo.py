"""``ContainerEngine.commit`` reuses the layer an earlier commit of the
same tree made.

The memo (:data:`repro.containers.engine._COMMIT_MEMO`) keys on the
container's image layers, the comment and the identity of each top-level
node of the tree, and its entry holds a clone of that tree; a lookup hits
only while the container's tree is unwritten since that clone.  A
redirect-memo hit adopts the tree the miss committed, so its commit hits.
Every case checks that the committed layer is a fresh diff's, byte for
byte, and that the span and counters are the ones a diff makes.
"""

import pytest

from repro.containers import ContainerEngine
from repro.containers import engine as engine_module
from repro.core.frontend.build import IO_MOUNT
from repro.core.images import rebase_ref
from repro.oci.diff import diff_filesystems
from repro.oci.image import ImageConfig
from repro.telemetry import Telemetry
from repro.vfs import VirtualFilesystem
from tests.conftest import memos_switched_off
from tests.test_adapt_memo import World

COMMENT = "coMtainer redirected image"


@pytest.fixture(autouse=True)
def empty_memo():
    engine_module._COMMIT_MEMO.clear()
    yield
    engine_module._COMMIT_MEMO.clear()


def _traffic():
    memo = engine_module._COMMIT_MEMO
    return memo.hits, memo.misses, memo.stores


def _commit(engine, ctr, comment=COMMENT, ref="app:adapted"):
    """What one commit of *ctr* made: the committed layer's bytes and
    digest, a fresh diff's bytes and digest, the commit span's attributes,
    the counter increments, and the memo traffic it caused."""
    tele = engine.telemetry
    counters = ("engine_commits_total", "engine_layer_bytes_total")
    before = [tele.metrics.counter(name).value for name in counters]
    traffic = _traffic()
    ids = len(ctr.config.diff_ids)
    stored = engine.commit(ctr, ref=ref, comment=comment)
    layers = stored.layers[len(engine.image(ctr.image_ref).layers):]
    fresh = diff_filesystems(ctr.base_fs, ctr.fs, comment=comment)
    span = [s for s in tele.iter_spans() if s.name == "engine.commit"][-1]
    return {
        "layer": [(layer.to_bytes(), layer.digest) for layer in layers],
        "fresh": [(fresh.to_bytes(), fresh.digest)] if len(fresh) else [],
        "span": {k: span.attributes[k] for k in ("layer_entries", "layer_bytes")},
        "expected_span": {"layer_entries": len(fresh),
                          "layer_bytes": fresh.size if len(fresh) else 0},
        "counters": [tele.metrics.counter(name).value - b
                     for name, b in zip(counters, before)],
        "expected_counters": [1, fresh.size if len(fresh) else 0],
        "traffic": tuple(b - a for a, b in zip(traffic, _traffic())),
        "diff_ids": list(stored.config.diff_ids[ids:]),
    }


def _assert_fresh(made):
    assert made["layer"] == made["fresh"]
    assert made["span"] == made["expected_span"]
    assert made["counters"] == made["expected_counters"]
    assert made["diff_ids"] == [digest for _, digest in made["layer"]]


def _redirect(world, after=None, comment=COMMENT):
    """Rebuild, then redirect and commit one of *world*'s app, with
    *after* writing to the redirect container's tree before the commit."""
    world.rebuild(world.args())
    engine = world.engine
    ctr = engine.from_image(rebase_ref("x86"), name="memo-redirect",
                            mounts={IO_MOUNT: world.layout})
    try:
        engine.run(ctr, ["coMtainer-redirect"]).check()
        if after is not None:
            after(ctr.fs)
        return _commit(engine, ctr, comment=comment)
    finally:
        engine.remove_container(ctr.name)


def _world(app):
    world = World(app)
    world.engine.telemetry = Telemetry()
    return world


class TestAHitIsAFreshDiff:
    @pytest.mark.parametrize("app", ["hpccg", "lammps"])
    def test_identical_redirects_commit_through_the_memo(self, app):
        world = _world(app)
        made = [_redirect(world) for _ in range(5)]
        for step in made:
            _assert_fresh(step)
        # Once the redirect memo hits, the commit adopts the tree its
        # miss committed, and the commit memo hits too.
        hits = [step["traffic"][0] for step in made]
        assert hits[-1] == 1 and sum(hits) >= 1
        assert len({tuple(step["layer"]) for step in made}) == 1

    @pytest.mark.parametrize("app", ["hpccg", "lammps"])
    def test_the_same_run_with_every_memo_off_commits_the_same(self, app):
        world = _world(app)
        with_memos = [_redirect(world) for _ in range(4)]
        with memos_switched_off():
            world = _world(app)
            without = [_redirect(world) for _ in range(4)]
        keep = ("layer", "span", "counters", "diff_ids")
        assert ([{k: step[k] for k in keep} for step in with_memos]
                == [{k: step[k] for k in keep} for step in without])
        assert all(step["traffic"] == (0, 1, 1) for step in without)


class TestKeyMisses:
    def _primed(self):
        """A world whose identical redirect now hits the commit memo."""
        world = _world("hpccg")
        for _ in range(4):
            made = _redirect(world)
        assert made["traffic"][0] == 1
        return world

    def test_a_tree_written_after_the_adopt(self):
        world = self._primed()
        made = _redirect(world, after=lambda fs: fs.write_file(
            "/srv/extra.txt", "more\n", create_parents=True))
        assert made["traffic"][:2] == (0, 1)
        _assert_fresh(made)
        assert any(b"/srv/extra.txt" in layer for layer, _ in made["layer"])

    def test_a_root_attribute_written_after_the_adopt(self):
        world = self._primed()
        made = _redirect(world, after=lambda fs: fs.chmod("/", 0o700))
        assert made["traffic"][:2] == (0, 1)
        _assert_fresh(made)

    def test_another_comment(self):
        world = self._primed()
        made = _redirect(world, comment="another comment")
        assert made["traffic"][:2] == (0, 1)
        _assert_fresh(made)
        assert made["layer"] != _redirect(world)["layer"]

    def test_another_apps_tree(self):
        world = self._primed()
        other = World("lammps")
        other.engine = world.engine
        made = _redirect(other)
        assert made["traffic"][:2] == (0, 1)
        _assert_fresh(made)

    def test_memos_off(self):
        world = self._primed()
        with memos_switched_off():
            made = _redirect(world)
        assert made["traffic"] == (0, 1, 1)
        _assert_fresh(made)


class TestSyntheticTrees:
    """The key and its check on small trees: the same tree over another
    base image misses, a tree no other tree holds is not stored, and a
    container built any other way is not keyed."""

    @staticmethod
    def _engine():
        engine = ContainerEngine(arch="amd64")
        engine.telemetry = Telemetry()
        for ref, text in (("base:a", "a\n"), ("base:b", "b\n")):
            fs = VirtualFilesystem()
            fs.write_file("/etc/release", text, create_parents=True)
            engine.add_image(ref, ImageConfig(),
                             [diff_filesystems(VirtualFilesystem(), fs)])
        return engine

    @staticmethod
    def _written(engine):
        """A container of ``base:a`` with a file written, and a clone of
        its tree kept, as the redirect memo keeps one."""
        ctr = engine.from_image("base:a")
        ctr.fs.write_file("/app/bin", "x", create_parents=True)
        return ctr, ctr.fs.clone()

    def test_the_same_tree_over_the_same_image_hits(self):
        engine = self._engine()
        first, kept = self._written(engine)
        made = _commit(engine, first)
        _assert_fresh(made)
        assert made["traffic"] == (0, 1, 1)
        second = engine.from_image("base:a")
        second.fs.adopt(kept)
        again = _commit(engine, second)
        assert again["traffic"] == (1, 0, 0)
        _assert_fresh(again)
        assert again["layer"] == made["layer"]

    def test_a_tree_no_other_tree_holds_is_not_stored(self):
        engine = self._engine()
        ctr = engine.from_image("base:a")
        ctr.fs.write_file("/app/bin", "x", create_parents=True)
        assert not ctr.fs.cloned_since_written()
        made = _commit(engine, ctr)
        assert made["traffic"] == (0, 1, 0)
        _assert_fresh(made)

    def test_the_same_tree_over_another_image_misses(self):
        engine = self._engine()
        first, kept = self._written(engine)
        made = _commit(engine, first)
        other = engine.from_image("base:b")
        other.fs.adopt(kept)
        again = _commit(engine, other)
        assert again["traffic"][:2] == (0, 1)
        _assert_fresh(again)
        assert again["layer"] != made["layer"]

    def test_a_container_without_image_layers_is_not_keyed(self):
        engine = self._engine()
        ctr = engine.from_image("base:a")
        ctr.image_layers = None
        ctr.fs.write_file("/app/bin", "x", create_parents=True)
        made = _commit(engine, ctr)
        assert made["traffic"] == (0, 0, 0)
        _assert_fresh(made)


class TestClonedSinceWritten:
    """The gate on storing: a tree is kept only while another tree may
    hold its top-level nodes."""

    def test_a_write_clears_it_and_a_clone_or_adopt_restores_it(self):
        fs = VirtualFilesystem()
        fs.write_file("/etc/release", "a\n", create_parents=True)
        assert not fs.cloned_since_written()
        kept = fs.clone()
        assert fs.cloned_since_written() and kept.cloned_since_written()
        fs.write_file("/etc/other", "b\n")
        assert not fs.cloned_since_written() and kept.cloned_since_written()
        fs.adopt(kept)
        assert fs.cloned_since_written()
        fs.mkdir("/srv")
        assert not fs.cloned_since_written()
