"""The canonical reports still match the benchmark's reference digests.

``perfbench/gate.py`` compares every ``certify`` report the benchmark
makes with a digest in ``perfbench/reference.json``, and marks a run
whose report drifts as incorrect.  This test recomputes every entry of
that file in-process, so a drift fails here first.
"""

import importlib.util
import os

from lodehn.certify import certify
from lodehn.cli import build_report
from lodehn.twobridge import TwoBridgeFraction

GATE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "gate.py",
)


def _load_gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_reference_digest_and_verdict_is_reproduced():
    gate = _load_gate()
    reference = gate.load_reference()
    assert len(reference) >= 40
    drifted = []
    for pq, expected in reference.items():
        p, q = (int(part) for part in pq.split("/"))
        report = build_report(
            certify(TwoBridgeFraction(p, q)),
            {"mode": "pq", "value": pq, "fraction": pq},
        )
        verdict = report["certificate"]["verdict"]
        if (gate.report_digest(report), verdict) != (expected["sha256"], expected["verdict"]):
            drifted.append(pq)
    assert drifted == []
