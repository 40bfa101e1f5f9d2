"""Benchmark of the lodehn command line, one workload per run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

A run is a closed loop: one process, one thread, one ``lodehn.cli.main``
call at a time, so argument parsing, the computation, serialization and
the exit code are all inside each timed operation. After one untimed
warm-up call it makes passes over the workload's inputs until another
pass would not end within ``--seconds``. Outputs are checked after the
loop (see gate.py). The last line of standard output is the result
object; the line before it gives the run's details. With ``--trace 1``
the first pass runs once untraced and once with every layer wrapped (see
tracing.py), and the per-layer metrics are reported.
``--workload all`` runs every workload, each in its own process, and
prints a table.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stdout
from itertools import count
from math import exp, lgamma, log, log1p
from pathlib import Path
from typing import Callable, Dict, List, NoReturn, Optional, Tuple

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 7
# The figure-eight knot: a call of a few hundredths of a second that goes
# through every layer its command uses.
WARM_UP = "5/2"

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    """lodehn.cli from the checkout's src/, or exit 2 when it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        from lodehn import cli
    except ImportError as err:
        fail(f"cannot import lodehn from {SRC}: {err}")
    if SRC not in Path(cli.__file__).resolve().parents:
        fail(f"lodehn was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int):
    """The program's CLI module, the first pass's operations, the stream
    of further passes and the reference digests."""
    cli = import_cli()
    stream = workloads.passes(workload, seed)
    first = next(stream)
    reference = gate.load_reference() if workloads.COMMAND[workload] == "certify" else None
    return cli, first, stream, reference


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its set-up is done:
    interpreter start, import, input generation, loading the reference."""
    argv = [sys.executable, __file__, "--setup-only", "--workload", workload,
            "--seed", str(seed), "--seconds", "1"]
    started = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
    if ready.strip() != "ready" or proc.returncode != 0:
        fail(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def op_argv(command: str, pq: str, report: Path) -> List[str]:
    if command == "certify":
        return ["certify", "--pq", pq, "--json", str(report), "--quiet"]
    return ["alexander", "--pq", pq, "--roots", "--digits", str(gate.DIGITS)]


def run_ops(
    cli, ops, tag: str, before: Optional[Callable[[int], None]] = None
) -> Tuple[float, List[Tuple[float, Optional[int], str]]]:
    """Run every operation, calling ``before(index)`` ahead of each;
    returns the loop's wall time and, per operation, its latency, exit
    code (None if it raised) and stdout."""
    results = []
    loop_started = time.perf_counter()
    for index, (command, pq) in enumerate(ops):
        if before is not None:
            before(index)
        argv = op_argv(command, pq, OUT / f"{tag}-{index}.json")
        captured = io.StringIO()
        started = time.perf_counter()
        try:
            with redirect_stdout(captured):
                code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
        except Exception:
            traceback.print_exc()
            code = None
        results.append((time.perf_counter() - started, code, captured.getvalue()))
    return time.perf_counter() - loop_started, results


def count_failures(ops, results, reference, tag: str) -> int:
    failed = 0
    for index, ((command, pq), (_, code, stdout)) in enumerate(zip(ops, results)):
        if command == "certify":
            reason = gate.check_certify(pq, code, OUT / f"{tag}-{index}.json", reference)
        else:
            reason = gate.check_alexander(pq, code, stdout)
        if reason is not None:
            failed += 1
            print(f"perfbench: {command} {pq} failed: {reason}", file=sys.stderr)
    return failed


def harrell_davis(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) mass over each
    one's share of [0, 1]. Unlike a single order statistic it does not
    jump when two values near the quantile swap ranks. Needs
    0 < p < 1 and (n+1)p, (n+1)(1-p) > 1."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return exp(log_norm + (a - 1) * log(x) + (b - 1) * log1p(-x))

    steps = 16  # Simpson's rule on each share; the density is smooth
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        ys = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def percentiles(latencies: List[float]) -> Tuple[float, float, float]:
    """The median and the highest percentile with at least 10 latencies
    beyond it; returns (median, tail, tail percentile). With 11 or more
    latencies both are Harrell-Davis estimates; with fewer, the plain
    median and the slowest."""
    n = len(latencies)
    if n < 11:
        return statistics.median(latencies), max(latencies), 100.0
    p = (n - 10) / n
    return harrell_davis(latencies, 0.5), harrell_davis(latencies, p), 100.0 * p


Measured = Tuple[Dict[str, Tuple[float, str]], int, int, Dict]


def measure(workload: str, seed: int, seconds: int) -> Measured:
    """End-to-end metrics of one untraced run, with the operation count,
    the failure count and the run's details.

    The run makes whole passes while the loop's elapsed time plus its
    longest pass so far stays within ``seconds``, and at least one. The
    program is deterministic, so calls on one input differ only by the
    machine's noise: each input's latency is the mean of its calls over
    the whole run, and ``op_p50_s`` and ``op_tail_s`` are percentiles
    over the inputs (see ``percentiles``), which do not depend on how
    many passes fit into the run. A mean, not a median, because a shared
    host's speed can switch between levels up to 2x apart for 5-60 s at
    a time: the median of a few calls snaps to one level, the mean weighs
    the levels by the time spent in each.
    """
    cli, ops, stream, reference = setup(workload, seed)
    setup_s = statistics.median(probe_setup(workload, seed) for _ in range(SETUP_PROBES))
    run_ops(cli, [(workloads.COMMAND[workload], WARM_UP)], "warm-up")
    by_input: Dict[str, List[float]] = defaultdict(list)
    attempted = failed = 0
    wall = longest = 0.0
    started = time.perf_counter()
    for index in count():
        pass_wall, results = run_ops(cli, ops, f"pass{index}")
        failed += count_failures(ops, results, reference, f"pass{index}")
        attempted += len(ops)
        for (_, pq), (latency, _, _) in zip(ops, results):
            by_input[pq].append(latency)
        wall += pass_wall
        longest = max(longest, pass_wall)
        if time.perf_counter() - started + longest > seconds:
            break
        ops = next(stream)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    typical = [statistics.fmean(latencies) for latencies in by_input.values()]
    p50_s, tail_s, percentile = percentiles(typical)
    values = {
        "ops_per_s": attempted / wall,
        "op_p50_s": p50_s,
        "op_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {"passes": index + 1, "inputs": len(typical),
               "op_tail_percentile": percentile, "loop_wall_s": wall}
    return ({name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()},
            attempted, failed, details)


def measure_layers(workload: str, seed: int) -> Measured:
    """Per-layer metrics of the first pass. Each operation runs twice in
    a row, once untraced and once traced, alternating which goes first,
    so that drift in machine speed and warm caches cancel out of the
    tracing overhead."""
    cli, ops, _, reference = setup(workload, seed)
    paired = [op for op in ops for _ in range(2)]
    traced_at = [index % 4 in (1, 2) for index in range(len(paired))]
    tracer = tracing.Tracer()

    def start(index: int) -> None:
        tracer.op = index
        tracer.active = traced_at[index]

    tracer.install()
    try:
        _, results = run_ops(cli, paired, "pair", start)
    finally:
        tracer.uninstall()
    failed = count_failures(paired, results, reference, "pair")
    untraced = sum(r[0] for r, traced in zip(results, traced_at) if not traced)
    traced = sum(r[0] for r, traced in zip(results, traced_at) if traced)
    tracer.add("json.dump.report_bytes", sum(
        (OUT / f"pair-{index}.json").stat().st_size
        for index, (command, _) in enumerate(paired)
        if traced_at[index] and command == "certify"))
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    values = tracer.metrics(traced - untraced)
    details = {"untraced_s": untraced, "traced_s": traced,
               "self_within_op": self_within_op(tracer, results)}
    return ({name: (values[name], unit) for name, unit in tracing.metric_units().items()},
            len(paired), failed, details)


def self_within_op(tracer: tracing.Tracer, results) -> bool:
    """Whether, for every operation, the self times of its spans sum to
    no more than the operation's measured wall time."""
    totals = [0.0] * len(results)
    for span, own in zip(tracer.spans, tracer.self_times()):
        totals[span[4]] += own
    return all(total <= latency for total, (latency, _, _) in zip(totals, results))


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    status = 0
    for workload in workloads.COMMAND:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: {lines[-2]}")
        print(f"  {'failed_frac':<58} {result['failed'] / result['attempted']:>14.6g} ratio")
        for name, metric in result["metrics"].items():
            print(f"  {name:<58} {metric['value']:>14.6g} {metric['unit']}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.COMMAND, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    if args.trace:
        metrics, attempted, failed, details = measure_layers(args.workload, args.seed)
    else:
        metrics, attempted, failed, details = measure(args.workload, args.seed, args.seconds)
    details.update(workload=args.workload, seed=args.seed, ops=attempted,
                   failed_frac=failed / attempted)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
