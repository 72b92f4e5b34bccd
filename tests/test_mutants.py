"""The mutant list of ``scripts/mutants.py`` still fits the code, checked
without running a mutant: each mutant's text occurs exactly once in its
file, and each test it names is collected.  Running the mutants is
``python scripts/mutants.py``."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 19


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_exactly_once(mutant):
    assert mutant.text != mutant.replacement and mutant.tests
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.text) == 1


def test_every_named_test_is_collected():
    ids = sorted({t for m in mutants.MUTANTS for t in m.tests})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="10000")
    res = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
                          *ids], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    assert set(ids) <= set(res.stdout.splitlines())


def test_failed_tests_reads_the_summary_lines():
    out = ("..F\nFAILED tests/test_a.py::test_x[1-2] - AssertionError: a - b\n"
           "FAILED tests/test_b.py::test_y\nERROR tests/test_c.py::test_z\n1 failed")
    assert mutants.failed_tests(out) == {"tests/test_a.py::test_x[1-2]", "tests/test_b.py::test_y"}
