"""coronageo benchmark: the CLI end to end on fixed workloads, and a traced
in-process run for per-layer numbers.

Usage:
    python3 perfbench/run.py --workload {geo-pairs,census-7,diam2-hull,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Load model: a closed loop with one client.  One ``coronageo`` process runs at
a time, with ``--parallel 1``.  ``--workload all`` interleaves the workloads
round-robin so that host drift spreads over all of them alike.

``--trace 0`` runs the CLI as a subprocess again and again for ``--seconds``
(per workload, in whole cycles of ``workloads.CYCLE`` runs) and reports the
medians.  ``--trace 1`` runs the CLI a few times untraced and twice under
``tracer.py`` and reports per-layer spans and counters.  Either way every
run's exit code and stdout are checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up probes per workload, in groups with a calibration loop after each
SETUP_SAMPLES = 15
SETUP_GROUP = 5
# CLI runs of one workload in a --trace 1 set
UNTRACED_RUNS = 3
TRACED_RUNS = 2
CHILD_TIMEOUT_S = 150
# About 0.25 s on a 2.1 GHz Xeon.  The normalised metrics are in units of
# this loop's time, so changing it changes them all.
CALIB_LOOPS = 3_000_000
# setup_s is given in seconds on a host where the calibration loop takes this
CALIB_REF_S = 0.25

# Reported by --trace 0, each the median over the runs of a set.  The
# "_calib" metrics divide a CLI run's time by the mean of the calibration
# loops timed just before and just after it, so they hold still while the
# host's speed drifts; setup_s is scaled the same way, to CALIB_REF_S.  The
# raw times are printed in the table above the result line.
END_TO_END = {
    "wall_calib": "calib",
    "cpu_calib": "calib",
    "first_report_calib": "calib",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
RAW = {"wall_s": "s", "cpu_s": "s", "first_report_s": "s", "items_per_s": "1/s"}

_SEARCH = ("calls", "self_s", "explored", "explored_per_call", "us_per_candidate", "repeat_calls")
PER_LAYER_FIELDS = {
    "geodesic.geodetic_number": _SEARCH,
    "subsets.ascending_subsets": ("yielded", "self_s"),
    "geodesic.k_geodetic_number": ("calls", "self_s", "explored", "us_per_candidate", "repeat_calls"),
    "geodesic.is_geodetic": ("calls", "self_s"),
    "steiner.steiner_number": _SEARCH,
    "steiner.steiner_hull": ("calls", "self_s"),
    "steiner.steiner_distance": ("calls", "self_s"),
    "graphs.bfs_distances": ("calls", "self_s"),
    "graphs.corona": ("calls", "self_s"),
    "formats.parse_graph6": ("calls", "self_s"),
    "formats.encode_graph6": ("calls", "self_s"),
    "corpus.load": ("graphs", "self_s"),
    "harness.checker": ("calls", "self_s"),
    "harness.to_json": ("calls", "self_s", "bytes"),
    "cli.main": ("self_s",),
}
FIELD_UNITS = {"self_s": "s", "us_per_candidate": "us", "bytes": "B"}
TRACE_METRICS = {"trace.overhead_s": "s", "trace.unattributed_share": "share", "host.calib_s": "s"}
# counters that must repeat exactly across traced runs of the same code
COUNTERS = ("calls", "explored", "yielded", "repeat_calls", "bytes", "graphs")


def per_layer_units() -> dict:
    units = {f"{span}.{f}": FIELD_UNITS.get(f, "count")
             for span, fields in PER_LAYER_FIELDS.items() for f in fields}
    return {**units, **TRACE_METRICS}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CORONA_CENSUS_DIR"}
    env["PYTHONPATH"] = str(SRC)
    # line-buffered stdout, as on a terminal, so first_report sees the first line
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(argv: list[str]) -> dict:
    """Run one child; returns wall, rusage CPU and peak RSS, exit code, stdout
    and the time of its first stdout line, all from spawn."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        chunks, first = [], None
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            if first is None and b"\n" in chunk:
                first = perf_counter() - t0
            chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "first_report_s": wall if first is None else first,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "rc": proc.returncode,
        "stdout": b"".join(chunks),
    }


def calibrate() -> float:
    """A fixed stdlib-only loop; its time tracks how fast the host runs now."""
    t0 = perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc += i * i % 7
    return perf_counter() - t0


def git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Checker:
    """Judges every run of one workload against the exit code and stdout
    digest recorded for its corpus seed, after a shape check."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.recorded = json.loads((HERE / "expected.json").read_text())[name]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        if problem not in self.problems:
            self.problems.append(problem)

    def output(self, rc: int, stdout: bytes, what: str, corpus_seed: int) -> None:
        self.attempted += 1
        digest = hashlib.sha256(stdout).hexdigest()
        want = self.recorded.get("*") or self.recorded[str(corpus_seed)]
        problem = workloads.check_stdout(self.name, rc, stdout)
        if problem is None and (rc, digest) != (want["rc"], want["sha256"]):
            problem = f"exit {rc} sha256 {digest[:12]}, expected exit {want['rc']} sha256 {want['sha256'][:12]}"
        if problem is not None:
            self.failed += 1
            self.fail(f"{self.name} {what}: {problem}")


def run_cli(name: str, seed: int, check: Checker) -> dict:
    sample = spawn([sys.executable, "-m", "coronageo", *workloads.cli_argv(name, seed)])
    check.output(sample["rc"], sample["stdout"], "cli", seed)
    lines = sample["stdout"].count(b"\n")
    items = lines if name == "census-7" else lines - 1
    sample["items_per_s"] = items / sample["wall_s"]
    return sample


def normalise(sample: dict, host_s: float) -> None:
    """Adds the "_calib" metrics, given the calibration time around the run."""
    for m in ("wall", "cpu", "first_report"):
        sample[f"{m}_calib"] = sample[f"{m}_s"] / host_s


def run_setup(name: str, seed: int, check: Checker) -> float:
    # -S: the host's site-packages are not part of coronageo's set-up cost
    sample = spawn([sys.executable, "-S", str(HERE / "setup_probe.py"), name, str(seed)])
    got = sample["stdout"].strip()
    if sample["rc"] != 0 or got != str(workloads.EXPECTED_ITEMS[name]).encode():
        check.fail(f"{name} setup: exit {sample['rc']}, built {got!r} inputs")
    return sample["wall_s"]


def run_traced(name: str, seed: int, check: Checker) -> dict:
    """One traced in-process CLI run: its spans, or None if the tracer failed."""
    sample = spawn([sys.executable, str(HERE / "tracer.py"), name, str(seed)])
    if sample["rc"] != 0:
        check.fail(f"{name} tracer exited {sample['rc']}")
        return None
    trace = json.loads(sample["stdout"].splitlines()[-1])
    check.output(trace["rc"], trace["stdout"].encode(), "traced", seed)
    trace["wall_s"] = sample["wall_s"]
    return trace


def layer_metrics(trace: dict, untraced_s: float) -> dict:
    spans = trace["spans"]
    metrics = {}
    for span, fields in PER_LAYER_FIELDS.items():
        s = spans.get(span)
        for field in fields:
            value = None
            if s is not None:
                if field == "explored_per_call":
                    value = s["explored"] / s["calls"] if s["calls"] else 0.0
                elif field == "us_per_candidate":
                    value = s["total_s"] * 1e6 / s["explored"] if s["explored"] else 0.0
                else:
                    value = s[field]
            metrics[f"{span}.{field}"] = value
    self_total = sum(s["self_s"] for s in spans.values() if s is not None)
    metrics["trace.overhead_s"] = trace["wall_s"] - untraced_s
    metrics["trace.unattributed_share"] = (trace["wall_s"] - self_total) / trace["wall_s"]
    return metrics


def counters(trace: dict) -> dict:
    return {n: {c: s[c] for c in COUNTERS} for n, s in trace["spans"].items() if s is not None}


class Bench:
    """One set of runs over one or more workloads, interleaved round-robin,
    with a calibration loop timed between every two CLI runs."""

    def __init__(self, names: list[str], seed: int) -> None:
        self.names = names
        self.seed = seed
        self.checks = {n: Checker(n) for n in names}
        self.samples: dict[str, list[dict]] = {n: [] for n in names}
        self.setups: dict[str, list[float]] = {n: [] for n in names}
        self.calib = [calibrate()]

    def cli(self, name: str, k: int) -> dict:
        """The k-th CLI run of ``name`` in this set."""
        seed = workloads.corpus_seed(self.seed, k)
        sample = run_cli(name, seed, self.checks[name])
        self.calib.append(calibrate())
        normalise(sample, (self.calib[-2] + self.calib[-1]) / 2)
        self.samples[name].append(sample)
        return sample

    def setup(self) -> None:
        """SETUP_SAMPLES probes per workload, scaled by the calibration loops
        timed around each group of SETUP_GROUP probes."""
        seed = workloads.corpus_seed(self.seed, 0)
        for _ in range(SETUP_SAMPLES // SETUP_GROUP):
            walls = {n: [] for n in self.names}
            for _ in range(SETUP_GROUP):
                for n in self.names:
                    walls[n].append(run_setup(n, seed, self.checks[n]))
            self.calib.append(calibrate())
            host_s = (self.calib[-2] + self.calib[-1]) / 2
            for n in self.names:
                self.setups[n] += [w * CALIB_REF_S / host_s for w in walls[n]]

    def end_to_end(self, seconds: float) -> dict:
        self.setup()
        cycle = {n: workloads.CYCLE[n] for n in self.names}
        budget = seconds * len(self.names)
        t0 = perf_counter()
        while True:
            # one round: a whole cycle of each workload, interleaved
            for k in range(max(cycle.values())):
                for n in self.names:
                    if k < cycle[n]:
                        self.cli(n, len(self.samples[n]))
            round_s = sum(cycle[n] * statistics.median(s["wall_s"] for s in self.samples[n])
                          for n in self.names)
            round_s += sum(cycle.values()) * statistics.median(self.calib)
            # stop at the round whose predicted end lies nearest the budget
            if perf_counter() - t0 + round_s / 2 > budget:
                break
        metrics = {}
        for n in self.names:
            runs = self.samples[n]
            metrics[n] = {m: statistics.median(s[m] for s in runs) for m in (*END_TO_END, *RAW)
                          if m != "setup_s"}
            metrics[n]["setup_s"] = statistics.median(self.setups[n])
        return metrics

    def traced(self) -> dict:
        """Per workload, UNTRACED_RUNS CLI runs and TRACED_RUNS traced runs of
        the set's first corpus; each per-layer metric is the median over the
        traced runs, and their counters must agree exactly."""
        metrics = {}
        for n in self.names:
            seed = workloads.corpus_seed(self.seed, 0)
            for _ in range(UNTRACED_RUNS):
                self.cli(n, 0)
            untraced_s = statistics.median(s["wall_s"] for s in self.samples[n])
            traces = []
            for _ in range(TRACED_RUNS):
                traces.append(run_traced(n, seed, self.checks[n]))
                self.calib.append(calibrate())
            if None in traces:
                metrics[n] = {}
                continue
            if any(counters(t) != counters(traces[0]) for t in traces):
                self.checks[n].failed += 1
                self.checks[n].fail(f"{n}: counters differ between traced runs")
            runs = [layer_metrics(t, untraced_s) for t in traces]
            metrics[n] = {m: v if v is None or m.rpartition(".")[2] in COUNTERS
                          else statistics.median(r[m] for r in runs)
                          for m, v in runs[0].items()}
        for n in self.names:
            metrics[n]["host.calib_s"] = statistics.median(self.calib)
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time per workload (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "coronageo" / "__init__.py").is_file():
        print(f"error: no coronageo sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.NAMES) if args.workload == "all" else [args.workload]

    bench = Bench(names, args.seed)
    if args.trace:
        metrics, units, shown = bench.traced(), per_layer_units(), per_layer_units()
    else:
        metrics, units, shown = bench.end_to_end(args.seconds), END_TO_END, {**RAW, **END_TO_END}

    print(json.dumps({"run_record": {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {n: len(bench.samples[n]) for n in names},
        "wall_s": {n: [s["wall_s"] for s in bench.samples[n]] for n in names},
        "host.calib_s": bench.calib,
    }}))
    for n in names:
        c = bench.checks[n]
        print(f"{n}: {len(bench.samples[n])} CLI runs, "
              f"error_rate {c.failed / max(c.attempted, 1):.3f} share ({c.failed}/{c.attempted})")
        for m, unit in shown.items():
            value = metrics[n].get(m)
            print(f"  {m:<44} {'null' if value is None else f'{value:.6g}':>12} {unit}")
        for problem in c.problems:
            print(f"  FAILED {problem}", file=sys.stderr)

    prefix = len(names) > 1
    print(json.dumps({
        "correct": not any(c.problems for c in bench.checks.values()),
        "attempted": sum(c.attempted for c in bench.checks.values()),
        "failed": sum(c.failed for c in bench.checks.values()),
        "metrics": {
            (f"{n}.{m}" if prefix else m): {"value": metrics[n].get(m), "unit": unit}
            for n in names for m, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
