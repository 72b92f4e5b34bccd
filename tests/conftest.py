import functools
import os
import subprocess
import sys

import pytest

import coronageo
from coronageo.corpus import census_graphs
from coronageo.geodesic import _block_pick

# Directory holding the imported ``coronageo`` package, so that CLI
# subprocesses run the same checkout as the in-process tests, installed or not.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(coronageo.__file__)))


@functools.lru_cache(maxsize=None)
def _census(order: int):
    return tuple(census_graphs(order))


@pytest.fixture(autouse=True)
def cold_block_picks():
    """Each test starts with an empty block-pick cache, which otherwise lives
    as long as the process and holds the pick of every graph searched, so no
    test depends on the ones run before it."""
    _block_pick.cache_clear()


@pytest.fixture(scope="session")
def census():
    """census(order) -> tuple of all connected graphs of that order."""
    return _census


@pytest.fixture(scope="session")
def run_cli():
    """Invoke the CLI in a subprocess and capture the result.

    The environment is read at each call, so ``monkeypatch.setenv`` reaches
    the subprocess.
    """

    def run(*argv: str, timeout: int = 600) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_ROOT, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "coronageo", *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
        )

    return run
