"""One traced in-process run of ``coronageo.cli.main`` for a workload.

Usage: python3 perfbench/tracer.py WORKLOAD SEED

Wraps the public functions listed in ``SPANS`` at every module attribute
that binds them (the package uses ``from .graphs import bfs_distances`` and
the like, so each caller holds its own reference), runs the CLI with stdout
captured, and prints one JSON object: exit code, stdout and, for every
span, its calls, total and self seconds and its work counters.  A
span's self time is its duration minus the time of the wrapped calls it
made.  Names missing from the package are reported with ``null`` stats.

Per-candidate primitives (``bits``, ``mask_of``, ``vertex_tuple``) and the
private engines (``_steiner_dp``, ``_closure``) are not wrapped: they run
millions of times per workload, so a wrapper there would dwarf the work it
measures.  Their time lands in the self time of the span that calls them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import io
import json
import sys
from time import perf_counter

import workloads

# span name -> (module, attribute path); "harness.checker" is special-cased
SPANS = {
    "cli.main": ("coronageo.cli", "main"),
    "formats.parse_graph6": ("coronageo.formats", "parse_graph6"),
    "formats.encode_graph6": ("coronageo.formats", "encode_graph6"),
    "corpus.load": ("coronageo.corpus", "CorpusSpec.load"),
    "graphs.bfs_distances": ("coronageo.graphs", "bfs_distances"),
    "graphs.corona": ("coronageo.graphs", "corona"),
    "subsets.ascending_subsets": ("coronageo.subsets", "ascending_subsets"),
    "geodesic.geodetic_number": ("coronageo.geodesic", "geodetic_number"),
    "geodesic.k_geodetic_number": ("coronageo.geodesic", "k_geodetic_number"),
    "geodesic.is_geodetic": ("coronageo.geodesic", "is_geodetic"),
    "steiner.steiner_number": ("coronageo.steiner", "steiner_number"),
    "steiner.steiner_hull": ("coronageo.steiner", "steiner_hull"),
    "steiner.steiner_distance": ("coronageo.steiner", "steiner_distance"),
    "harness.to_json": ("coronageo.harness", "VerificationReport.to_json"),
    "harness.checker": ("coronageo.harness", "THEOREMS"),
}

# spans that are exact searches: count candidates and repeated inputs
SEARCHES = {"geodesic.geodetic_number", "geodesic.k_geodetic_number", "steiner.steiner_number"}


@dataclasses.dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    explored: int = 0
    repeat_calls: int = 0
    yielded: int = 0
    bytes: int = 0
    graphs: int = 0


class Tracer:
    """Span accounting: ``stack`` holds, per open span, the time of its
    wrapped children so far; index 0 collects top-level spans."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.stack = [0.0]

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        stack = self.stack
        seen = set() if name in SEARCHES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                span.repeat_calls += key in seen
                seen.add(key)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - child
            if seen is not None:
                span.explored += out.explored
            elif name == "harness.to_json":
                span.bytes += len(out.encode())
            elif name == "corpus.load":
                span.graphs += len(out)
            return out

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Times every ``next()`` of the generator as its own span."""
        span = self.spans.setdefault(name, Span())
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span.calls += 1
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    span.total_s += dt
                    span.self_s += dt - child
                span.yielded += 1
                yield item

        return wrapper


def _rebind(old, new) -> None:
    """Point every coronageo module attribute bound to ``old`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "coronageo" or mod_name.startswith("coronageo."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(tracer: Tracer) -> None:
    for name, (mod_name, path) in SPANS.items():
        try:
            mod = importlib.import_module(mod_name)
        except ModuleNotFoundError:
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or not hasattr(owner, attr):
            continue
        if name == "harness.checker":
            theorems = getattr(mod, attr)
            for tid, info in theorems.items():
                theorems[tid] = dataclasses.replace(info, checker=tracer.wrap(name, info.checker))
            continue
        old = getattr(owner, attr)
        wrap = tracer.wrap_generator if name == "subsets.ascending_subsets" else tracer.wrap
        new = wrap(name, old)
        if owner_name:
            setattr(owner, attr, new)
        else:
            _rebind(old, new)


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    import coronageo.cli

    tracer = Tracer()
    install(tracer)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = coronageo.cli.main(workloads.cli_argv(name, seed))
    stats = {n: (dataclasses.asdict(tracer.spans[n]) if n in tracer.spans else None) for n in SPANS}
    print(json.dumps({"rc": rc, "stdout": out.getvalue(), "spans": stats}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
