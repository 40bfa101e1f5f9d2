"""The exact output of ``lodehn alexander --pq P/Q --roots --digits 30``.

``fixtures/alexander_roots.json`` records the stdout for the 24 knots
that the benchmark's ``alexander-roots`` workload draws with seed 1
(degree-8 Alexander polynomials with a root in (0, 1), p in [101, 301])
and for 29/17, 485/283, 41/1 and 9/1.  Every printed isolating interval
is pinned, so a change to isolation or refinement that moves an
endpoint fails here.  Regenerate only for a change meant to alter the
output, from a checkout with

    PYTHONPATH=src python3 tests/test_alexander_roots.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

from helpers import FIXTURES, load_fixture
from lodehn.cli import main

FIXTURE = "alexander_roots.json"
DIGITS = 30
EXTRA = ("29/17", "485/283", "41/1", "9/1")


def alexander_roots_stdout(fraction):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["alexander", "--pq", fraction, "--roots", "--digits", str(DIGITS)])
    assert code == 0
    return out.getvalue()


def test_alexander_roots_output_is_reproduced():
    table = load_fixture(FIXTURE)
    fractions = [row["fraction"] for row in table]
    assert len(fractions) == 24 + len(EXTRA)
    assert tuple(fractions[-len(EXTRA):]) == EXTRA
    for row in table:
        assert alexander_roots_stdout(row["fraction"]) == row["stdout"]


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.workloads import passes

    drawn = [pq for _, pq in next(passes("alexander-roots", 1))]
    rows = [
        {"fraction": fraction, "stdout": alexander_roots_stdout(fraction)}
        for fraction in drawn + list(EXTRA)
    ]
    with open(os.path.join(FIXTURES, FIXTURE), "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1)
        handle.write("\n")
