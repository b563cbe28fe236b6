"""Byte-for-byte stdout and exit codes of the CLI against recorded files.

Each case runs ``cli.main`` in-process and compares ``exit=<code>`` followed by
the captured stdout with ``tests/golden/out/<name>.txt``.  After a change
that is meant to alter a report, re-record the files with

    PYTHONPATH=src python tests/golden/test_golden.py

and review the diff.
"""

import contextlib
import glob
import io
import os

import pytest

from quasigrade import cli

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "polytopes", "*.poly"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        cases[f"ehrhart-{stem}"] = ["ehrhart", path, "--max-dilate", "12"]
        cases[f"faces-{stem}"] = ["faces", path]
        cases[f"verify-polytope-{stem}"] = ["verify-polytope", path]
    for name, weights, numerator in [
        ("123", "1,2,3", ""),
        ("23-alternating", "2,3", "1,-1,1"),
        ("224-negative", "2,2,4", "1,0,-1,2"),
        ("112-negative-lead", "1,1,2", "-1,3"),
        ("6-cancelling", "6", "1,-1"),
    ]:
        cases[f"hilbert-{name}"] = ["hilbert", "--weights", weights, f"--numerator={numerator}"]
    cases["hilbert-zero-weight"] = ["hilbert", "--weights", "2,0"]
    for name, weights, shifts in [
        ("123", "1,2,3", "0"),
        ("246", "2,4,6", "0,1"),
        ("35", "3,5", "0,2,4"),
        ("2346", "2,3,4,6", "1"),
    ]:
        cases[f"verify-weighted-{name}"] = ["verify-weighted", "--weights", weights, "--shifts", shifts]
    cases["qp-grade-noncanonical"] = ["qp-grade", os.path.join(HERE, "noncanonical.qp")]
    for mode in ("polytope", "weighted", "lemma"):
        cases[f"random-suite-{mode}"] = ["random-suite", "--mode", mode, "--seed", "1", "--count", "40"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit={code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recording(name):
    with open(os.path.join(OUT, f"{name}.txt"), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert _run(CASES[name]) == expected


def test_every_recording_has_a_case():
    recorded = {os.path.splitext(f)[0] for f in os.listdir(OUT)}
    assert recorded == set(CASES)


def record() -> None:
    os.makedirs(OUT, exist_ok=True)
    for name, argv in CASES.items():
        with open(os.path.join(OUT, f"{name}.txt"), "w", encoding="utf-8", newline="") as fh:
            fh.write(_run(argv))


if __name__ == "__main__":
    record()
