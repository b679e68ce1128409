"""VFS hot paths — the structural-sharing wins behind the incremental PR.

Three microbenches with hard bars:

* ``VirtualFilesystem.clone`` is copy-on-write: cloning a wide tree is
  orders of magnitude cheaper than rebuilding it, and the first mutation
  pays only for the path it touches;
* ``Directory.sorted_items`` is cached between mutations, so repeated
  directory scans (diffing, layer encoding, tar walks) stop re-sorting;
* ``flatten_layers`` memoizes on the layer-digest tuple, so re-resolving
  the same image (every warm rebuild does) replays a cached snapshot.
"""

import time

from repro.memo import MEMOS
from repro.oci.apply import flatten_layers
from repro.oci.layer import Layer, LayerEntry
from repro.reporting import render_table
from repro.vfs import InlineContent, VirtualFilesystem

FILES = 2000
DIRS = 50


def _build_tree():
    fs = VirtualFilesystem()
    for d in range(DIRS):
        for f in range(FILES // DIRS):
            fs.write_file(f"/data/d{d:02d}/f{f:03d}",
                          InlineContent(b"x" * 64), create_parents=True)
    return fs


def _best_of(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_clone_is_copy_on_write(emit):
    fs = _build_tree()

    rebuild_s = _best_of(_build_tree, rounds=3)
    clone_s = _best_of(lambda: fs.clone())

    # First mutation on a clone pays for one path, not the whole tree.
    def clone_and_touch():
        child = fs.clone()
        child.write_file("/data/d00/f000", InlineContent(b"y"))

    touch_s = _best_of(clone_and_touch)

    rows = [
        ("rebuild tree", f"{rebuild_s * 1e3:.3f}ms"),
        ("clone (CoW)", f"{clone_s * 1e6:.1f}us"),
        ("clone + 1 write", f"{touch_s * 1e6:.1f}us"),
    ]
    emit("vfs_hotpaths_clone",
         render_table([f"operation ({FILES} files)", "best time"], rows))

    # The clone really shares structure and unshares on write.
    child = fs.clone()
    child.write_file("/data/d00/f000", InlineContent(b"y"))
    assert child.read_file("/data/d00/f000") == b"y"
    assert fs.read_file("/data/d00/f000") == b"x" * 64
    assert clone_s * 50 < rebuild_s, (
        f"CoW clone ({clone_s * 1e6:.1f}us) should be >=50x cheaper than "
        f"rebuilding ({rebuild_s * 1e3:.3f}ms)"
    )
    assert touch_s * 10 < rebuild_s


def test_sorted_items_cached(emit):
    fs = _build_tree()
    root = fs.get_node("/data")

    cold = _best_of(lambda: [d.sorted_items() for d in root.children.values()],
                    rounds=1)
    warm = _best_of(lambda: [d.sorted_items() for d in root.children.values()])

    rows = [
        ("first scan (sorts)", f"{cold * 1e6:.1f}us"),
        ("repeat scan (cached)", f"{warm * 1e6:.1f}us"),
    ]
    emit("vfs_hotpaths_sorted",
         render_table([f"sorted_items over {DIRS} dirs", "best time"], rows))

    # Cache invalidates on mutation and repeat scans are not slower.
    d0 = fs.writable_dir("/data/d00")
    before = d0.sorted_items()
    d0.children["zzz"] = VirtualFilesystem().root
    after = d0.sorted_items()
    assert [n for n, _ in after] != [n for n, _ in before]
    assert after[-1][0] == "zzz"
    assert warm <= cold * 1.5


def test_flatten_layers_memoized(emit):
    layer = Layer(comment="bench")
    layer.add(LayerEntry.directory("/opt"))
    for i in range(500):
        layer.add(LayerEntry.file(f"/opt/f{i:03d}", InlineContent(b"z" * 32)))
    layers = [layer]

    MEMOS["flatten"].clear()
    miss = _best_of(
        lambda: (MEMOS["flatten"].clear(), flatten_layers(layers))[1])
    hit = _best_of(lambda: flatten_layers(layers))

    rows = [
        ("miss (applies entries)", f"{miss * 1e3:.3f}ms"),
        ("hit (clones snapshot)", f"{hit * 1e6:.1f}us"),
    ]
    emit("vfs_hotpaths_flatten",
         render_table(["flatten_layers, 500 entries", "best time"], rows))

    # The hit returns an independent filesystem, not the cached one.
    a = flatten_layers(layers)
    b = flatten_layers(layers)
    a.write_file("/opt/f000", InlineContent(b"mutated"))
    assert b.read_file("/opt/f000") == b"z" * 32
    assert hit * 10 < miss, (
        f"flatten memo hit ({hit * 1e6:.1f}us) should be >=10x cheaper "
        f"than a miss ({miss * 1e3:.3f}ms)"
    )
