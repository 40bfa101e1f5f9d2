#!/usr/bin/env python3
"""Alternating parent/change perfbench runs of one workload, written
with their summary into BENCH_<n>.json.

    python3 tools/bench_pairs.py --n 16 --workload alexander-roots \\
        --pairs 10 --seed 11

The parent side is the committed tree of ``--parent`` (default
``HEAD``, which measures the uncommitted working tree against the last
commit; give ``HEAD~1`` once the change is committed), exported with
``git archive`` into a temporary directory, so the repository gains no
worktree entry.  The change side is the working tree as it stands.
Both run ``perfbench/run.py`` from their own tree, so each imports its
own ``src/``, for the ``run_seconds`` that BENCHMARK.json sets.  Pair i runs the parent first when i is even and the
change first when i is odd, so a drift of the host's speed does not
favour one side.

Every run's final JSON line is kept as perfbench printed it.  The
summary gives, per metric, each side's quartiles, the number of pairs
the change wins in the metric's better direction (read from
BENCHMARK.json), and ``clear_gain``: whether the change's median beats
the parent's by more than the parent's interquartile range with at
least ``MIN_PAIRS`` pairs and the change winning at least
``MIN_WIN_SHARE`` of them; with fewer pairs no gain is shown.  For an
end-to-end metric it also gives ``regressed``: the change's median is
worse than the parent's by more than the metric's ``bound`` (from
BENCHMARK.json) times the parent's median; and ``unresolved``: the
parent's interquartile range exceeds that same margin, so its runs
spread too widely to tell, unless every change run beats every parent
run.  The file holds a list of rounds per workload (traced runs apart
from untraced ones); a run appends its round and keeps the earlier
ones.  It is rewritten after every pair.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    runs: Sequence[Dict],
    better: Dict[str, str],
    bounds: Dict[str, float],
) -> Dict[str, Dict]:
    """Per metric of the runs' final lines: each side's quartiles and
    interquartile range and, for a metric with a direction in
    ``better`` ("higher" or "lower"), the change's wins over its pair's
    parent run and ``clear_gain``: at least ``MIN_PAIRS`` pairs, wins in
    at least ``MIN_WIN_SHARE`` of them, and a median gain above the
    parent's interquartile range.  A metric that also has a relative
    bound in ``bounds`` gets ``regressed`` and ``unresolved`` (see the
    module docstring).  ``runs`` holds one ``{"parent": line,
    "change": line}`` per pair."""
    summary = {}
    for name, metric in runs[0]["parent"]["metrics"].items():
        entry: Dict = {"unit": metric["unit"], "better": better.get(name)}
        values = {}
        for side in SIDES:
            values[side] = [run[side]["metrics"][name]["value"] for run in runs]
            q1, median, q3 = quartiles(values[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
        direction = {"higher": 1, "lower": -1}.get(entry["better"])
        if direction is not None:
            entry["change_wins"] = sum(
                (c - p) * direction > 0 for p, c in zip(values["parent"], values["change"])
            )
            gain = (entry["change"]["median"] - entry["parent"]["median"]) * direction
            entry["clear_gain"] = (
                len(runs) >= MIN_PAIRS
                and entry["change_wins"] >= MIN_WIN_SHARE * len(runs)
                and gain > entry["parent"]["iqr"]
            )
            bound = bounds.get(name)
            if bound is not None:
                margin = bound * abs(entry["parent"]["median"])
                entry["regressed"] = -gain > margin
                entry["unresolved"] = entry["parent"]["iqr"] > margin and not all(
                    (c - p) * direction > 0
                    for p in values["parent"] for c in values["change"]
                )
        summary[name] = entry
    return summary


def directions(benchmark: Dict) -> Dict[str, str]:
    """Metric name -> better direction, from BENCHMARK.json."""
    return {
        metric["name"]: metric["better"]
        for group in ("end_to_end", "per_layer")
        for metric in benchmark.get(group, ())
    }


def bounds(benchmark: Dict) -> Dict[str, float]:
    """End-to-end metric name -> relative bound, from BENCHMARK.json."""
    return {metric["name"]: metric["bound"] for metric in benchmark.get("end_to_end", ())}


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev``, extracted under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def run_perfbench(tree: Path, argv: List[str]) -> Dict:
    """The final JSON line of one ``perfbench/run.py`` run in ``tree``,
    with the run's exit code added as ``exit_code``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=tree,
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit(f"bench_pairs: no output from the run in {tree} "
                         f"(exit code {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True, help="BENCH_<n>.json")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = directions(benchmark)
    limits = bounds(benchmark)
    seconds = benchmark["run_seconds"]
    perfbench_argv = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(seconds), "--trace", str(args.trace)]
    out = ROOT / f"BENCH_{args.n}.json"
    records = json.loads(out.read_text()) if out.exists() else {}
    key = args.workload + (" traced" if args.trace else "")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "command": ["python3", "perfbench/run.py", *perfbench_argv],
        "parent_commit": git("rev-parse", args.parent),
        "change_tree": "working tree at " + git("rev-parse", "HEAD")
                  + (" with uncommitted changes" if git("status", "--porcelain") else ""),
        "runs": [],
    }
    records.setdefault(key, []).append(record)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(args.parent, trees["parent"])
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run = {"pair": pair, "first": order[0]}
            for side in order:
                run[side] = run_perfbench(trees[side], perfbench_argv)
                metrics = run[side]["metrics"]
                print(f"pair {pair} {side}: " + ", ".join(
                    f"{name} {metric['value']:.6g}" for name, metric in metrics.items()
                ), file=sys.stderr, flush=True)
            record["runs"].append(run)
            record["summary"] = summarize(record["runs"], better, limits)
            out.write_text(json.dumps(records, indent=1) + "\n")
    return 0 if all(
        run[side]["correct"] and not run[side]["failed"]
        for run in record["runs"] for side in SIDES
    ) else 1


if __name__ == "__main__":
    sys.exit(main())
