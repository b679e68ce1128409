"""Every ``repro`` module imports on its own: no import cycle leaves a
module partially initialised when it is the first one a program imports
(``scripts/profile_ops.py --wall`` imports the module it times first)."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports each module named on stdin with no ``repro`` module loaded
#: before it, and prints one line per module that raised.
ALONE = """
import importlib, sys
for name in sys.stdin.read().split():
    for key in [k for k in sys.modules if k.partition(".")[0] == "repro"]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
"""


def _modules():
    """Every module of the ``repro`` package, packages included."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_imports_alone():
    names = list(_modules())
    assert "repro.perf.incremental" in names
    result = subprocess.run([sys.executable, "-c", ALONE], input="\n".join(names),
                            capture_output=True, text=True, cwd=SRC)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
