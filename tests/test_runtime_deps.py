"""The installed package imports nothing outside the standard library."""

import ast
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
