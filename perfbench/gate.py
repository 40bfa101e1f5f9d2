"""Correctness gate, run on each operation's output after the timed loop.

``certify`` reports are compared to digests of the canonical reports
(the JSON minus ``timings``) that the seed's code produced, and the exit
code must match the verdict. ``alexander --roots`` output is checked
without a reference, by exact rational arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REFERENCE = Path(__file__).resolve().parent / "reference.json"

DIGITS = 30

_ROOT_LINE = re.compile(
    r"root in \((-?\d+/\d+), (-?\d+/\d+)\) ~ \S+  .*, multiplicity \d+$"
)


def load_reference() -> Dict[str, Dict[str, str]]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def report_digest(report: Dict) -> str:
    canonical = {k: v for k, v in report.items() if k != "timings"}
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_certify(
    pq: str, code: Optional[int], report_path: Path, reference: Dict
) -> Optional[str]:
    """None when the report matches the reference and the exit code
    matches the verdict, else the reason it does not."""
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return f"no readable report: {err}"
    expected = reference.get(pq)
    if expected is None:
        return "no reference digest"
    if report_digest(report) != expected["sha256"]:
        return "canonical report differs from the reference"
    verdict = report["certificate"]["verdict"]
    if code != (0 if verdict == "APPLIES" else 1):
        return f"exit code {code} does not match verdict {verdict}"
    return None


# Polynomials below are coefficient lists, constant term first.


def _value(poly: Sequence, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _trim(poly: List[Fraction]) -> List[Fraction]:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _divmod(a: Sequence, b: Sequence):
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem.pop()
        _trim(rem)
    return quot, rem


def squarefree_part(poly: Sequence[int]) -> List[Fraction]:
    a = [Fraction(c) for c in poly]
    b = _trim([i * c for i, c in enumerate(a)][1:])
    g = a
    while b:
        g, b = b, _divmod(g, b)[1]
    return _divmod(a, g)[0]


def check_alexander(pq: str, code: Optional[int], stdout: str) -> Optional[str]:
    """None when the printed polynomial and root intervals pass every
    reference-free check, else the reason they do not."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    try:
        delta = [int(c) for c in lines[0].split()]
    except (IndexError, ValueError):
        return "no polynomial line"
    if not delta:
        return "no polynomial line"
    p = int(pq.split("/")[0])
    if abs(_value(delta, -1)) != p:
        return "|Delta(-1)| is not p"
    if _value(delta, 1) not in (1, -1):
        return "Delta(1) is not +-1"
    if delta != delta[::-1]:
        return "Delta is not palindromic"
    squarefree = squarefree_part(delta)
    width = Fraction(1, 10 ** (DIGITS + 2))
    intervals = []
    for line in lines[1:]:
        match = _ROOT_LINE.match(line)
        if match is None:
            return f"unparsable root line {line!r}"
        lo, hi = Fraction(match.group(1)), Fraction(match.group(2))
        if not 0 < hi - lo <= width:
            return f"interval ({lo}, {hi}) is empty or wider than {width}"
        if _value(squarefree, lo) * _value(squarefree, hi) >= 0:
            return f"no sign change across ({lo}, {hi})"
        intervals.append((lo, hi))
    if _value(delta, 0) * _value(delta, 1) < 0 and not any(
        0 < lo and hi < 1 for lo, hi in intervals
    ):
        return "Delta changes sign on (0, 1) but no interval lies there"
    return None
