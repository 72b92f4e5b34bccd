"""The installed package imports nothing outside the standard library, and
keeps its import path short."""

import ast
import dataclasses
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


def _loaded_after(imports: str, names: tuple[str, ...]) -> list[str]:
    """The ``names`` in ``sys.modules`` of a fresh interpreter after
    ``import <imports>``; -S keeps site and its .pth files, which may
    import them, out of the check."""
    code = (
        "import sys\n"
        f"import {imports}\n"
        f"print(*[m for m in {names!r} if m in sys.modules])\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(coronageo.__file__)))
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": root}, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_import_path_leaves_out_slow_stdlib_packages():
    assert _loaded_after("coronageo, coronageo.harness, coronageo.cli", SLOW_IMPORTS) == []


# what ``census``, ``compute`` and ``corona`` start without: ``dataclasses``
# brings in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and ``random``
# serves random corpora only
CENSUS_PATH_SKIPS = ("dataclasses", "inspect", "random")


def test_census_path_leaves_out_dataclasses_inspect_and_random():
    assert _loaded_after("coronageo, coronageo.cli, coronageo.corpus", CENSUS_PATH_SKIPS) == []


def test_every_theorem_entry_takes_dataclasses_replace():
    """The benchmark tracer swaps each claim's checker by
    ``dataclasses.replace``, so ``TheoremInfo`` stays a dataclass."""
    from coronageo.harness import THEOREMS

    def checker(*args):
        return None

    for tid, info in THEOREMS.items():
        swapped = dataclasses.replace(info, checker=checker)
        assert swapped.checker is checker
        assert (swapped.id, swapped.kind, swapped.claim) == (tid, info.kind, info.claim)
