"""The installed package imports nothing outside the standard library, and
keeps its import path short."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coronageo

MODULES = sorted(Path(coronageo.__file__).parent.glob("*.py"))


def test_every_module_is_checked():
    assert {"harness.py", "geodesic.py", "steiner.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    outside = {
        name for name in imported
        if name.partition(".")[0] not in sys.stdlib_module_names | {"coronageo"}
    }
    assert not outside, f"{module.name} imports {sorted(outside)}"


# stdlib packages the package needs only for annotations or for reading a
# file; importing them costs tens of milliseconds on each CLI start
SLOW_IMPORTS = ("typing", "pathlib", "importlib.resources")


def test_import_path_leaves_out_slow_stdlib_packages():
    # -S keeps site and its .pth files, which may import these, out of the check
    code = (
        "import sys\n"
        "import coronageo, coronageo.harness, coronageo.cli\n"
        f"print(*[m for m in {SLOW_IMPORTS!r} if m in sys.modules])\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(coronageo.__file__)))
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": root}, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []
