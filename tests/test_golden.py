"""Golden-output gate: byte-exact stdout and exit codes of fixed CLI runs.

Each ``MANIFEST`` entry runs ``coronageo.cli.main`` in-process, with
``tests/golden`` as the working directory, and must reproduce
``tests/golden/<name>.jsonl`` byte for byte and the exit code recorded in
``tests/golden/exit_codes.json``.  Regenerate every file from the current
code with

    PYTHONPATH=src python tests/test_golden.py

and state the reason for any change to them in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

SINGLE = ["GEO_KN", "GEO_K1_LB", "EXTREME_IN_GEODETIC", "G2_EQUIV", "STEINER_KN",
          "STEINER_K1_LB", "STEINER_K1_IFF_DIAM2", "DIAM2_STEINER_GEODETIC", "DIAM2_G_LE_S"]
PAIR = ["CORONA_GEO_STRUCT", "GEO_BOUNDS", "GEO_CORONA_EQ", "G2_CORONA_EQUIV",
        "DIAM2_GEO_EQ", "GEO_LOWER_MINUS1"]
# Steiner pair claims keep the H grid (order <= 3) their files were first
# recorded on; order 4 would now take each of them about 0.2 s
PAIR_SMALL_H = ["STEINER_CORONA_STRUCT", "STEINER_CORONA_EQ", "CORONA_G_LE_S"]
RANGE = ["WHEEL_GEO", "FAN_GEO", "WHEEL_STEINER", "FAN_STEINER"]


def _verify(theorem: str, *flags: str) -> list[str]:
    return ["verify", "--theorem", theorem, *flags]


MANIFEST: dict[str, list[str]] = {
    **{t.lower(): _verify(t, "--family-g", "all-connected:1..6") for t in SINGLE},
    **{t.lower(): _verify(t, "--family-g", "all-connected:1..2", "--family-h", "all-connected:1..4")
       for t in PAIR},
    **{t.lower(): _verify(t, "--family-g", "all-connected:1..2", "--family-h", "all-connected:1..3")
       for t in PAIR_SMALL_H},
    **{t.lower(): _verify(t, "--range", "0..8") for t in RANGE},
    "corona_cycle_path": _verify("CORONA_CYCLE_PATH", "--family-g", "all-connected:1..3",
                                 "--range", "1..5"),
    "pendant_corollary": _verify("PENDANT_COROLLARY", "--family-g", "all-connected:1..2",
                                 "--family-h", "all-connected:1..3", "--k", "2"),
    # one entry per reason code the grid above does not produce
    "cap_exceeded": _verify("GEO_CORONA_EQ", "--family-g", "all-connected:1..3",
                            "--family-h", "all-connected:1..4", "--max-n", "10"),
    "g_not_connected": _verify("GEO_KN", "--family-g", "empty:1..3"),
    "h_not_connected": _verify("G2_CORONA_EQUIV", "--family-g", "path:2..2",
                               "--family-h", "empty:1..3"),
    "k_lt_2": _verify("PENDANT_COROLLARY", "--family-g", "all-connected:1..2",
                      "--family-h", "all-connected:1..3", "--k", "1"),
    # the report names the corpus path, so it is given relative to tests/golden
    "parse_error": _verify("GEO_KN", "--family-g", "file:parse_errors.g6"),
    "random_diam2_g_le_s": _verify("DIAM2_G_LE_S", "--random", "n=7,p=0.5,count=12",
                                   "--seed", "3"),
    # order 8 reaches DIAM2_STEINER_GEODETIC's FAIL lines
    "random_diam2_steiner_geodetic": _verify("DIAM2_STEINER_GEODETIC", "--random",
                                             "n=8,p=0.6,count=40", "--seed", "1",
                                             "--parallel", "1"),
    # orders 10 and 12 get the full check too: Ithp^a?Zw and K~Pc[LGeEZsh fail it
    "random_diam2_steiner_geodetic_order10": _verify("DIAM2_STEINER_GEODETIC", "--random",
                                                     "n=10,p=0.5,count=40", "--seed", "1",
                                                     "--parallel", "1"),
    "random_diam2_steiner_geodetic_order12": _verify("DIAM2_STEINER_GEODETIC", "--random",
                                                     "n=12,p=0.45,count=40", "--seed", "1",
                                                     "--parallel", "1"),
    # order-15 products: part (i) of STEINER_CORONA_STRUCT with n1 = 3
    "steiner_corona_struct_order15": _verify("STEINER_CORONA_STRUCT",
                                             "--family-g", "all-connected:3..3",
                                             "--family-h", "all-connected:4..4"),
    "census_6": ["census", "--order", "6", "--json"],
    # the table form: its header and the row layout, which census_6 does not show
    "census_6_table": ["census", "--order", "6"],
    # single-set measures on the order-6 census, P8 and the order-16 P2 ⊙ C7
    "compute_single_set": ["compute", "--g6-file", "single_set.g6",
                           "--measure", "steiner-distance,steiner-hull",
                           "--vertices", "0,2,5", "--json"],
}

REASON_CODES = ["g-not-connected", "h-not-connected", "h-complete", "n1-lt-2",
                "diameter-ne-2", "g-equals-g2", "n-below-min", "k-lt-2",
                "cap-exceeded", "parse-error"]


@contextlib.contextmanager
def _golden_cwd():
    old = os.getcwd()
    os.chdir(GOLDEN)
    try:
        yield
    finally:
        os.chdir(old)


def _run(argv: list[str]) -> tuple[int, bytes]:
    from coronageo.cli import main

    out = io.StringIO()
    with _golden_cwd(), contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue().encode()


def regenerate() -> None:
    codes = {}
    for name, argv in MANIFEST.items():
        codes[name], stdout = _run(argv)
        (GOLDEN / f"{name}.jsonl").write_bytes(stdout)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


@pytest.fixture(autouse=True)
def _bundled_census(monkeypatch):
    monkeypatch.delenv("CORONA_CENSUS_DIR", raising=False)


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_output(name):
    rc, stdout = _run(MANIFEST[name])
    assert rc == json.loads(EXIT_CODES.read_text())[name]
    assert stdout == (GOLDEN / f"{name}.jsonl").read_bytes()


def test_golden_files_cover_every_verdict_and_reason_code():
    text = "".join((GOLDEN / f"{name}.jsonl").read_text() for name in MANIFEST)
    for verdict in ("PASS", "FAIL", "SKIPPED"):
        assert f'"verdict":"{verdict}"' in text
    for code in REASON_CODES:
        assert f'"reason":"{code}' in text, code
    assert set(json.loads(EXIT_CODES.read_text()).values()) == {0, 1}
    assert set(MANIFEST) == {p.stem for p in GOLDEN.glob("*.jsonl")}


if __name__ == "__main__":
    os.environ.pop("CORONA_CENSUS_DIR", None)
    regenerate()
