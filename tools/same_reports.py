#!/usr/bin/env python3
"""Compare the canonical ``certify`` reports of a parent commit and the
working tree, knot by knot.

    python3 tools/same_reports.py --p-max 151

The knots are one fraction per two-bridge knot class with p <= P_MAX
(the least q with q ~ -q and q ~ q^-1 mod p) and the named knots of
``NAMED``: those whose elimination splits a branch, those with a
squared Alexander factor, and the long-word knots.  The parent side is
the committed tree of ``--parent`` (default ``HEAD``), exported with
``git archive`` into a temporary directory as ``bench_pairs.py`` does.
Each side runs ``certify --pq P/Q --json FILE --quiet`` and
``alexander --pq P/Q --roots`` at 30, at 100 and at the default 6
digits on every knot in one fresh interpreter with only its own
``src/`` on the path.  At 100 digits every root is refined on a grid
some 340 levels deep, where the refinement's float seed proposes a
bracket far narrower than at 30.  Each report is
reduced to its digest, the SHA-256 of the canonical JSON without
``timings`` (the digest that ``perfbench/gate.py`` compares), and each
``alexander`` output to the SHA-256 of its stdout: the benchmark's
gate checks that command only without a reference.  Every fraction
whose exit codes or digests differ is printed, and the exit code is 1
if any does.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from math import gcd
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench_pairs import ROOT, export

NAMED = (
    "115/42", "195/82", "205/78",  # the elimination splits a branch
    "49/17", "81/32", "147/53",  # a squared Alexander factor
    "485/283", "125/73", "201/77",  # long words
)

# Run in a fresh interpreter: reads fractions from argv and prints, per
# fraction, one JSON line [certify exit code, report or null, then the
# exit code and stdout of alexander --roots at 30, 100 and 6 digits].
WORKER = """
import contextlib, io, json, os, sys, tempfile
from lodehn.cli import main
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "report.json")
    for pq in sys.argv[1:]:
        code = main(["certify", "--pq", pq, "--json", path, "--quiet"])
        report = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
            os.remove(path)
        line = [code, report]
        for digits in (["--digits", "30"], ["--digits", "100"], []):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                line.append(main(["alexander", "--pq", pq, "--roots", *digits]))
            line.append(out.getvalue())
        print(json.dumps(line), flush=True)
"""


def report_digest(report: Dict) -> str:
    """The SHA-256 of the canonical report: sorted keys, no spaces, and
    no ``timings``."""
    canonical = {k: v for k, v in report.items() if k != "timings"}
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def classes(p_max: int) -> List[str]:
    """One fraction p/q per two-bridge knot with p <= p_max: the least q
    of its class under q ~ -q and q ~ q^-1 mod p."""
    out = []
    for p in range(3, p_max + 1, 2):
        seen = set()
        for q in range(1, p):
            if gcd(p, q) != 1 or q in seen:
                continue
            inv = pow(q, -1, p)
            orbit = {q, p - q, inv, p - inv}
            seen |= orbit
            out.append(f"{p}/{min(orbit)}")
    return out


def knots(p_max: int) -> List[str]:
    """:func:`classes` of ``p_max`` followed by the ``NAMED`` fractions
    not already among them."""
    out = classes(p_max)
    listed = set(out)
    return out + [pq for pq in NAMED if pq not in listed]


Outcome = Tuple[int, Optional[str], int, str, int, str, int, str]


def outcomes(src: Path, fractions: List[str]) -> Dict[str, Outcome]:
    """Per fraction, with ``src`` alone on the path: the exit code and
    report digest (None without a report) of ``certify``, and the exit
    code and stdout digest of ``alexander --roots --digits 30``,
    ``--digits 100`` and of ``alexander --roots``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, *fractions], cwd=src.parent, env=env,
        stdout=subprocess.PIPE, text=True, check=True,
    )
    out = {}
    for pq, line in zip(fractions, proc.stdout.splitlines()):
        code, report, *roots = json.loads(line)
        digest = None if report is None else report_digest(report)
        for i in (1, 3, 5):
            roots[i] = hashlib.sha256(roots[i].encode("utf-8")).hexdigest()
        out[pq] = (code, digest, *roots)
    if len(out) != len(fractions):
        raise SystemExit(f"same_reports: {len(out)} of {len(fractions)} reports from {src}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p-max", type=int, required=True)
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args(argv)

    fractions = knots(args.p_max)
    with tempfile.TemporaryDirectory(prefix="same-reports-") as tmp:
        export(args.parent, Path(tmp))
        parent = outcomes(Path(tmp) / "src", fractions)
    change = outcomes(ROOT / "src", fractions)
    differ = [pq for pq in fractions if parent[pq] != change[pq]]
    for pq in differ:
        print(f"{pq}: parent {parent[pq]}, change {change[pq]}")
    print(f"{len(fractions) - len(differ)} of {len(fractions)} knots: identical "
          "exit codes, canonical report and alexander --roots outputs")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
