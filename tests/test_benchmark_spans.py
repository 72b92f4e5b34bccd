"""Every function the benchmark tracer wraps still exists in the package.

``perfbench/tracer.py`` reports a span whose name it cannot resolve as
``null`` instead of failing, so a renamed or deleted function would only
show up as a malformed benchmark record.  This reads the tracer's ``SPANS``
table from its source, without importing the benchmark, and resolves every
(module, attribute path) pair here.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans() -> dict[str, tuple[str, str]]:
    for node in ast.parse(TRACER.read_text(), filename=str(TRACER)).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS table in {TRACER}")


SPANS = _spans()


def test_spans_table_is_read():
    assert "steiner.steiner_hull" in SPANS and "subsets.ascending_subsets" in SPANS


@pytest.mark.parametrize("name", sorted(SPANS))
def test_traced_name_resolves(name):
    module, path = SPANS[name]
    functools.reduce(getattr, path.split("."), importlib.import_module(module))
