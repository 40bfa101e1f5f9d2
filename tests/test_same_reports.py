"""The knot list and the digests of ``tools/same_reports.py``; the
parent export is not run."""

import hashlib
import importlib.util
import json
import os

from helpers import load_fixture
from lodehn.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool(monkeypatch):
    # The tool imports bench_pairs from its own directory.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    path = os.path.join(ROOT, "tools", "same_reports.py")
    spec = importlib.util.spec_from_file_location("same_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classes_list_one_fraction_per_knot(monkeypatch):
    tool = _load_tool(monkeypatch)
    census = [row["fraction"] for row in load_fixture("census_p23.json")]
    assert tool.classes(23) == census and len(census) == 37
    knots = tool.knots(151)
    assert len(tool.classes(151)) == 1242
    assert len(knots) == len(set(knots)) == 1247
    assert set(tool.NAMED) <= set(knots)


def test_worker_digests_match_the_benchmark_reference(monkeypatch, capsys):
    # The worker runs certify as the benchmark does, and the digest is
    # the gate's: each digest is the one perfbench/reference.json pins.
    # It also runs alexander --roots at 30 digits, which the benchmark
    # checks without a reference, at 100 and at the default 6; their
    # exit codes and the digests of their stdout are those of the same
    # commands run in this process.
    tool = _load_tool(monkeypatch)
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    real_roots = {"29/17": 4, "3/1": 0, "9/1": 0}
    fractions = list(real_roots)
    outcomes = tool.outcomes(tool.ROOT / "src", fractions)
    expected = {}
    for pq in fractions:
        expected[pq] = (
            0 if reference[pq]["verdict"] == "APPLIES" else 1,
            reference[pq]["sha256"],
        )
        for digits in (["--digits", "30"], ["--digits", "100"], []):
            code = main(["alexander", "--pq", pq, "--roots", *digits])
            out = capsys.readouterr().out
            assert out.count("root in ") == real_roots[pq]
            expected[pq] += (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert outcomes == expected
    report = {"timings": {"total_seconds": 1.0}, "b": [1, 2], "a": {"y": 1, "x": 2}}
    assert tool.report_digest(report) == tool.report_digest({"a": {"x": 2, "y": 1}, "b": [1, 2]})
