"""The summary that ``tools/bench_pairs.py`` writes into BENCH_<n>.json,
on fixed run lines; no benchmark is run."""

import importlib.util
import os

import pytest

BENCH_PAIRS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "bench_pairs.py",
)


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(ops, p50, trace_s):
    return {
        "correct": True,
        "attempted": 100,
        "failed": 0,
        "metrics": {
            "ops_per_s": {"value": ops, "unit": "ops/s"},
            "op_p50_s": {"value": p50, "unit": "s"},
            "trace_s": {"value": trace_s, "unit": "s"},
        },
    }


def _runs(parent, change, parent_p50=None, change_p50=None):
    parent_p50 = parent_p50 or [1.0] * len(parent)
    change_p50 = change_p50 or [1.0] * len(change)
    return [
        {"parent": _line(p, pl, 1.0), "change": _line(c, cl, 2.0)}
        for p, c, pl, cl in zip(parent, change, parent_p50, change_p50)
    ]


def test_summary_counts_wins_and_compares_the_median_gain_with_the_parent_iqr():
    bench_pairs = _load_bench_pairs()
    parent_ops = [300, 310, 320, 330, 340, 300, 310, 320, 330, 340]
    change_ops = [350, 305, 400, 410, 420, 350, 350, 400, 410, 420]
    parent_p50 = [4.0] * 10
    change_p50 = [3.0, 3.0, 4.0, 5.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0]
    runs = _runs(parent_ops, change_ops, parent_p50, change_p50)
    summary = bench_pairs.summarize(runs, {"ops_per_s": "higher", "op_p50_s": "lower"}, {})

    ops = summary["ops_per_s"]
    assert ops["unit"] == "ops/s" and ops["better"] == "higher"
    assert ops["parent"] == {"median": 320, "q1": 310, "q3": 330, "iqr": 20}
    assert ops["change"] == {"median": 400, "q1": 350, "q3": 410, "iqr": 60}
    assert ops["change_wins"] == 9  # 305 < 310 loses its pair
    assert ops["clear_gain"] is True  # 9 of 10 pairs, 400 - 320 > 20

    p50 = summary["op_p50_s"]
    assert p50["change_wins"] == 8  # lower is better; ties do not count
    assert p50["change"]["median"] == 3.0
    assert p50["clear_gain"] is False  # 4.0 - 3.0 > 0, but 8 of 10 pairs

    # A metric with no direction gets quartiles but no verdict.
    assert summary["trace_s"]["better"] is None
    assert "change_wins" not in summary["trace_s"]
    assert summary["trace_s"]["change"]["median"] == 2.0


def test_summary_refuses_a_gain_inside_the_parent_spread():
    bench_pairs = _load_bench_pairs()
    parent = [200, 300, 400, 200, 300, 400, 200, 300, 400, 300]
    runs = _runs(parent, [p + 20 for p in parent])
    ops = bench_pairs.summarize(runs, {"ops_per_s": "higher"}, {})["ops_per_s"]
    assert ops["change_wins"] == 10
    assert ops["parent"]["iqr"] == 150
    assert ops["clear_gain"] is False  # 320 - 300 < 150


def test_summary_shows_no_gain_from_too_few_pairs():
    bench_pairs = _load_bench_pairs()
    runs = _runs([300, 300, 300, 300], [600, 600, 600, 600])
    ops = bench_pairs.summarize(runs, {"ops_per_s": "higher"}, {})["ops_per_s"]
    assert ops["change_wins"] == 4  # every pair won, far past the parent IQR of 0
    assert ops["clear_gain"] is False  # but 4 pairs < MIN_PAIRS


def test_quartiles_of_one_value_and_directions_from_the_benchmark():
    bench_pairs = _load_bench_pairs()
    assert bench_pairs.quartiles([7.5]) == (7.5, 7.5, 7.5)
    assert bench_pairs.quartiles([1, 2, 3, 4]) == pytest.approx((1.75, 2.5, 3.25))
    benchmark = {
        "end_to_end": [{"name": "ops_per_s", "better": "higher"}],
        "per_layer": [{"name": "cli.main.self_s", "better": "lower"}],
    }
    assert bench_pairs.directions(benchmark) == {
        "ops_per_s": "higher",
        "cli.main.self_s": "lower",
    }


def test_summary_flags_a_median_worse_than_the_bound():
    bench_pairs = _load_bench_pairs()
    # Census setup_s read 0.1446 s at the parent and 0.1810 s at the
    # change, 25.2 % worse against a bound of 0.25, with a tight parent.
    parent_p50 = [0.1440, 0.1446, 0.1450, 0.1443, 0.1446] * 2
    change_p50 = [0.1805, 0.1810, 0.1815, 0.1808, 0.1810] * 2
    slower = _runs([300] * 10, [330] * 10, parent_p50, change_p50)
    bounds = {"ops_per_s": 0.25, "op_p50_s": 0.25}
    summary = bench_pairs.summarize(
        slower, {"ops_per_s": "higher", "op_p50_s": "lower"}, bounds
    )
    p50 = summary["op_p50_s"]
    assert p50["regressed"] is True  # 0.1810 - 0.1446 > 0.25 * 0.1446
    assert p50["unresolved"] is False  # parent IQR 0.0004 < 0.036
    assert summary["ops_per_s"]["regressed"] is False  # 10 % better
    # A metric without a bound, here trace_s, gets neither flag.
    assert "regressed" not in summary["trace_s"]

    within = _runs([300] * 10, [250] * 10)  # 16.7 % fewer ops/s
    ops = bench_pairs.summarize(within, {"ops_per_s": "higher"}, bounds)["ops_per_s"]
    assert ops["regressed"] is False and ops["unresolved"] is False


def test_summary_flags_a_parent_spread_wider_than_the_bound():
    bench_pairs = _load_bench_pairs()
    # Five census runs of one parent read 338.0, 213.4, 282.1, 208.4
    # and 202.8 ops/s: an IQR of 35 % of the median.
    parent = [338.0, 213.4, 282.1, 208.4, 202.8] * 2
    bounds = {"ops_per_s": 0.25}
    same = _runs(parent, [p * 1.01 for p in parent[1:] + parent[:1]])
    ops = bench_pairs.summarize(same, {"ops_per_s": "higher"}, bounds)["ops_per_s"]
    assert ops["parent"]["iqr"] > 0.25 * ops["parent"]["median"]
    assert ops["unresolved"] is True
    assert ops["regressed"] is False

    # Every change run above every parent run tells, however wide the
    # parent's spread.
    faster = _runs(parent, [340.0 + i for i in range(10)])
    ops = bench_pairs.summarize(faster, {"ops_per_s": "higher"}, bounds)["ops_per_s"]
    assert ops["unresolved"] is False
    # The same spread with a slower change: unresolved, and regressed
    # only once the median falls by more than the bound.
    slower = _runs(parent, [p * 0.7 for p in parent])
    ops = bench_pairs.summarize(slower, {"ops_per_s": "higher"}, bounds)["ops_per_s"]
    assert ops["unresolved"] is True and ops["regressed"] is True


def test_bounds_from_the_benchmark():
    bench_pairs = _load_bench_pairs()
    benchmark = {
        "end_to_end": [
            {"name": "ops_per_s", "better": "higher", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
        ],
        "per_layer": [{"name": "cli.main.self_s", "better": "lower"}],
    }
    assert bench_pairs.bounds(benchmark) == {"ops_per_s": 0.25, "peak_rss_mb": 0.05}
