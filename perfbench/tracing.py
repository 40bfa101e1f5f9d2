"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces each layer's function at every name a caller
binds it through (module globals of every loaded ``lodehn`` module, the
package namespace, and the class attribute for methods) by a wrapper
that records a span: name, start, end, parent span and operation index.
Spans stay in memory until the run ends. Counters are computed from the
arguments and return values of the wrapped calls. While ``active`` is
false the wrappers only pass calls through.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


def _presentation(tracer: "Tracer", args, result) -> None:
    tracer.maximum("twobridge.build_presentation.relator_len", len(result.relator))
    tracer.maximum("twobridge.build_presentation.longitude_len", len(result.longitude))


def _assignment(tracer: "Tracer", args, result) -> None:
    tracer.branch_calls[(tracer.op, args[0].modulus.coeffs)] += 1


def _coeff_bits(entry) -> int:
    coeffs = entry.value.coeffs if hasattr(entry, "value") else (entry,)
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for c in coeffs if hasattr(c, "denominator")),
        default=0,
    )


def _blocks(tracer: "Tracer", args, result) -> None:
    word, rep = args
    name = "cohomology.word_value_blocks"
    tracer.add(f"{name}.letters", len(word))
    branch = getattr(rep.ring, "branch", None)
    tracer.maximum(f"{name}.modulus_degree_max", branch.degree if branch else 0)
    bits = max(_coeff_bits(e) for block in result for row in block.rows for e in row)
    tracer.maximum(f"{name}.max_coeff_bits", bits)


def _nullspace(tracer: "Tracer", args, result) -> None:
    name = "quotient.MatrixOverField.nullspace"
    tracer.add(f"{name}.leaves", len(result))
    tracer.add(f"{name}.d5_splits", len(result) - 1)
    lineage = max((len(r.branch.lineage) for r in result if r.branch), default=0)
    tracer.maximum(f"{name}.lineage_len_max", lineage)


# (layer name, module, attribute, observer). The name is the module and
# function, as the benchmark's metrics call them; cli.main is the span
# of the whole operation.
LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli.main", "lodehn.cli", "main", None),
    ("twobridge.build_presentation", "lodehn.twobridge", "build_presentation", _presentation),
    ("reps.alexander_via_rep", "lodehn.reps", "alexander_via_rep", None),
    ("reps.alexander_via_fox", "lodehn.reps", "alexander_via_fox", None),
    ("certify.analyze_roots", "lodehn.certify", "analyze_roots", None),
    ("polynomials.isolate_real_roots", "lodehn.polynomials", "isolate_real_roots", None),
    ("polynomials.refine_isolating_interval", "lodehn.polynomials",
     "refine_isolating_interval", None),
    ("reps.burde_de_rham_assignment", "lodehn.reps", "burde_de_rham_assignment", _assignment),
    ("cohomology.word_value_blocks", "lodehn.cohomology", "word_value_blocks", _blocks),
    ("quotient.MatrixOverField.nullspace", "lodehn.quotient",
     "MatrixOverField.nullspace", _nullspace),
    ("cohomology.cohomology_dims", "lodehn.cohomology", "cohomology_dims", None),
    ("certify.meridian_trace_check", "lodehn.certify", "meridian_trace_check", None),
    ("cli.build_report", "lodehn.cli", "build_report", None),
    ("json.dump", "json", "dump", None),
)

STURM = "polynomials.sturm_count.calls"
REFINE = "polynomials.refine_isolating_interval"

# Counters and their units; every one is reported, zero when unused.
COUNTERS: Dict[str, str] = {
    "twobridge.build_presentation.relator_len": "letters",
    "twobridge.build_presentation.longitude_len": "letters",
    STURM: "count",
    "reps.burde_de_rham_assignment.calls_per_branch": "calls/branch",
    "cohomology.word_value_blocks.letters": "letters",
    "cohomology.word_value_blocks.modulus_degree_max": "degree",
    "cohomology.word_value_blocks.max_coeff_bits": "bit",
    "quotient.MatrixOverField.nullspace.leaves": "count",
    "quotient.MatrixOverField.nullspace.d5_splits": "count",
    "quotient.MatrixOverField.nullspace.lineage_len_max": "count",
    "json.dump.report_bytes": "B",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, *_ in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units["trace_overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1, op index].
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.active = True
        self.counters: Dict[str, float] = defaultdict(int)
        self.branch_calls: Dict[tuple, int] = defaultdict(int)
        self._restore: List[Tuple[object, str, object]] = []

    def add(self, name: str, amount) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value) -> None:
        self.counters[name] = max(self.counters[name], value)

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _count_sturm(self, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self.stack, self.counters

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == REFINE:
                counters[STURM] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` to ``wrapper`` under every global name of
        the loaded lodehn modules and the json module."""
        for module_name, module in list(sys.modules.items()):
            if module_name != "json" and module_name.split(".")[0] != "lodehn":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for name, module_name, attr, observe in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                class_name, attr = attr.split(".")
                owner = getattr(owner, class_name)
                original = vars(owner)[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, observe))
            else:
                original = getattr(owner, attr)
                self._replace(original, self._wrap(name, original, observe))
        sturm = sys.modules["lodehn.polynomials"].sturm_count
        self._replace(sturm, self._count_sturm(sturm))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, overhead_s: float) -> Dict[str, float]:
        values = {name: 0 for name in metric_units()}
        for (name, *_), own in zip(self.spans, self.self_times()):
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += own
        values.update(self.counters)
        if self.branch_calls:
            values["reps.burde_de_rham_assignment.calls_per_branch"] = (
                sum(self.branch_calls.values()) / len(self.branch_calls)
            )
        values["trace_overhead_s"] = overhead_s
        return values

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op}) + "\n")
