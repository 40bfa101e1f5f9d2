"""The verdict table of every two-bridge knot with p <= 23, and of four
knots with long words.

``fixtures/census_p23.json`` records, per knot, the verdict, the number
of qualifying roots, the Alexander coefficients and, per branch, the
modulus, multiplicity, cohomology dimensions and rigidity.
``fixtures/long_words.json`` holds the same records for 485/283,
201/77, 147/53 and 41/1, whose relators and longitudes run to 970
letters, whose moduli reach degree 80 and whose word blocks span up to
476 exponents; the census only has short words.  Both pin the verdicts:
regenerate them only for a change meant to alter them, from a checkout
with

    PYTHONPATH=src python3 tests/test_census_table.py
"""

import json
import os

from helpers import FIXTURES, census, load_fixture
from lodehn.cli import build_report
from lodehn.certify import certify
from lodehn.twobridge import TwoBridgeFraction

FIXTURE = "census_p23.json"
P_MAX = 23
LONG_WORDS_FIXTURE = "long_words.json"
LONG_WORDS = ("485/283", "201/77", "147/53", "41/1")


def verdict_row(fraction):
    p, q = (int(part) for part in fraction.split("/"))
    report = build_report(certify(TwoBridgeFraction(p, q)), {})
    return {
        "fraction": fraction,
        "verdict": report["certificate"]["verdict"],
        "qualifying_roots": report["certificate"]["qualifying_roots"],
        "alexander": report["alexander"],
        "branches": [
            {key: branch[key] for key in (
                "modulus", "multiplicity", "dims_knot", "dims_filled", "rigid"
            )}
            for branch in report["branches"]
        ],
    }


def test_census_verdict_table_is_reproduced():
    table = load_fixture(FIXTURE)
    assert [row["fraction"] for row in table] == census(P_MAX)
    for row in table:
        assert verdict_row(row["fraction"]) == row


def test_long_word_verdicts_are_reproduced():
    table = load_fixture(LONG_WORDS_FIXTURE)
    assert [row["fraction"] for row in table] == list(LONG_WORDS)
    for row in table:
        assert verdict_row(row["fraction"]) == row


if __name__ == "__main__":
    for name, fractions in ((FIXTURE, census(P_MAX)), (LONG_WORDS_FIXTURE, LONG_WORDS)):
        rows = [verdict_row(fraction) for fraction in fractions]
        with open(os.path.join(FIXTURES, name), "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=1)
            handle.write("\n")
