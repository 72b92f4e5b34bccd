"""Every function the benchmark tracer wraps still exists in the package,
and one traced run gives a whole record.

``perfbench/tracer.py`` reports a span whose name it cannot resolve as
``null`` instead of failing, so a renamed or deleted function would only
show up as a malformed benchmark record.  This reads the tracer's ``SPANS``
table from its source, without importing the benchmark, and resolves every
(module, attribute path) pair here.  The tracer also hashes the arguments of
every search span, so one traced run of a workload checks that they stay
hashable.  Each workload gets one traced run, checked against its recorded
digest.  Nothing under ``perfbench/`` is changed.
"""

import ast
import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


@pytest.mark.parametrize("workload", ["geo-pairs", "census-7", "diam2-hull"])
def test_traced_run_gives_a_whole_record(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(TRACER), workload, "1"],
                         capture_output=True, text=True, timeout=120, env=env)
    assert res.returncode == 0, res.stderr
    trace = json.loads(res.stdout.splitlines()[-1])
    assert [n for n, span in trace["spans"].items() if span is None] == []
    recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())[workload]
    want = recorded.get("1", recorded.get("*"))
    got = {"rc": trace["rc"], "sha256": hashlib.sha256(trace["stdout"].encode()).hexdigest()}
    assert got == want
    # the memoized distance tables still call the traced module-level name
    assert trace["spans"]["graphs.bfs_distances"]["calls"] > 0
