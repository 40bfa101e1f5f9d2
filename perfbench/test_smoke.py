"""Smoke tests of the benchmark itself, at the smallest workload sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
from itertools import islice

import pytest

import gate
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def small(monkeypatch):
    """One cheap knot per family pass, the p <= 7 census and two
    alexander-roots knots."""
    monkeypatch.setattr(workloads, "FAMILY", ("29/17",))
    monkeypatch.setattr(workloads, "CENSUS_P_MAX", 7)
    monkeypatch.setattr(workloads, "ALEXANDER_KNOTS", 2)
    run.OUT.mkdir(parents=True, exist_ok=True)


def _units(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("workload", list(workloads.COMMAND))
def test_every_metric_is_emitted_with_its_unit(small, workload):
    metrics, attempted, failed, details = run.measure(workload, 1, 1)
    assert failed == 0 and attempted >= 1
    assert {name: unit for name, (_, unit) in metrics.items()} == _units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())

    metrics, attempted, failed, details = run.measure_layers(workload, 1)
    assert failed == 0
    assert {name: unit for name, (_, unit) in metrics.items()} == _units("per_layer")
    assert metrics["cli.main.calls"][0] == attempted // 2
    assert details["self_within_op"]


def test_traced_self_times_fit_inside_each_operation(small):
    cli, ops, _, _ = run.setup("census", 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, results = run.run_ops(
            cli, ops, "selftest", lambda index: setattr(tracer, "op", index))
    finally:
        tracer.uninstall()
    assert run.self_within_op(tracer, results)
    assert all(own >= 0 for own in tracer.self_times())
    assert cli.main.__module__ == "lodehn.cli"


def test_corrupted_reference_trips_the_gate(small, monkeypatch):
    reference = gate.load_reference()
    reference["5/2"] = dict(reference["5/2"], sha256="0" * 64)
    monkeypatch.setattr(gate, "load_reference", lambda: reference)
    _, attempted, failed, details = run.measure("census", 1, 1)
    assert failed == details["passes"] >= 1
    assert attempted == details["passes"] * len(workloads.census())


def test_alexander_checks_reject_wrong_output():
    # 5/2 is the figure-eight knot: Delta = 1 - 3t + t^2, roots (3 +- sqrt 5)/2.
    pq, delta = "5/2", "1 -3 1"
    lo, hi = "38196601125010515179541316563436/100000000000000000000000000000000", \
        "38196601125010515179541316563437/100000000000000000000000000000000"
    good = f"{delta}\nroot in ({lo}, {hi}) ~ 0.38  positive, multiplicity 1\n"
    assert gate.check_alexander(pq, 0, good) is None
    assert gate.check_alexander(pq, 1, good) is not None
    assert gate.check_alexander("7/2", 0, good) is not None
    assert gate.check_alexander(pq, 0, good.replace("1 -3 1", "1 -3 2")) is not None
    assert gate.check_alexander(pq, 0, good.replace(f"{hi})", "1/2)")) is not None
    assert gate.check_alexander(pq, 0, delta + "\n") is not None


def test_failed_run_exits_nonzero(small, monkeypatch, capsys):
    monkeypatch.setattr(gate, "load_reference", lambda: {})
    assert run.main(["--workload", "family", "--seed", "1", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_alexander_shape_matches_the_program():
    run.import_cli()
    from lodehn import TwoBridgeFraction, alexander_via_fox

    for pq in ("5/2", "29/17", "101/42", "135/52", "227/71", "301/250"):
        p, q = map(int, pq.split("/"))
        delta = alexander_via_fox(TwoBridgeFraction(p, q))
        assert workloads.alexander_shape(p, q) == (delta.degree, delta(1) < 0 < delta(0))


def test_same_seed_same_inputs():
    def first(workload, seed, count=2):
        return list(islice(workloads.passes(workload, seed), count))

    for workload in workloads.COMMAND:
        assert first(workload, 7) == first(workload, 7)
    assert first("alexander-roots", 1, 1) != first("alexander-roots", 2, 1)
    assert len(workloads.census()) == 37


def test_percentiles():
    assert run.percentiles([3.0, 1.0, 2.0]) == (2.0, 3.0, 100.0)
    same = run.percentiles([0.5] * 37)
    assert same[0] == pytest.approx(0.5) and same[1] == pytest.approx(0.5)
    ranks = [float(rank) for rank in range(1, 38)]
    p50, tail, percentile = run.percentiles(ranks)
    assert percentile == pytest.approx(100 * 27 / 37)
    assert p50 == pytest.approx(19.0, abs=0.01) and 27.0 <= tail <= 28.0
