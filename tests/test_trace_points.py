"""The benchmark's trace points resolve in the package.

``perfbench/tracing.py`` wraps each layer it times by module and
attribute name, reads the arguments and results of some of them, and
counts the calls of ``lodehn.polynomials.sturm_count``.  A rename or a
changed signature in the package would otherwise show only when the
benchmark runs.
"""

import importlib
import importlib.util
import os

from lodehn.certify import certify
from lodehn.twobridge import TwoBridgeFraction

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "tracing.py",
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves():
    tracing = _load_tracing()
    missing = []
    for name, module_name, attr, _ in tracing.LAYERS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(owner, class_name, None)
            found = isinstance(owner, type) and callable(vars(owner).get(method))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(name)
    assert missing == []
    assert callable(importlib.import_module("lodehn.polynomials").sturm_count)


def _traced(call):
    """The tracer's metrics for one ``call()``, run as one operation."""
    tracing = _load_tracing()
    # The tracer wraps the layers of every module it names, cli included.
    importlib.import_module("lodehn.cli")
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    return tracer.metrics(0.0)


def _traced_certify(p, q):
    """The tracer's metrics for one ``certify(p/q)`` call."""
    return _traced(lambda: certify(TwoBridgeFraction(p, q)))


def test_observers_read_a_traced_certify_call():
    metrics = _traced_certify(29, 17)
    assert metrics["reps.burde_de_rham_assignment.calls"] == 1
    assert metrics["reps.burde_de_rham_assignment.calls_per_branch"] == 1.0
    # No word's blocks: one walk of w (cohomology.knot_walk) gives every
    # relator and longitude row, so the block observers read nothing.
    assert metrics["cohomology.word_value_blocks.calls"] == 0
    assert metrics["cohomology.word_value_blocks.modulus_degree_max"] == 0
    assert metrics["cohomology.word_value_blocks.letters"] == 0
    assert metrics["quotient.MatrixOverField.nullspace.leaves"] >= 2
    # One elimination per relator system: the knot's and the 0-filled
    # group's on the one branch.
    assert metrics["quotient.MatrixOverField.nullspace.calls"] == 2
    assert metrics["cohomology.cohomology_dims.calls"] == 2
    assert metrics["twobridge.build_presentation.relator_len"] > 0


def test_observers_read_the_lineage_of_a_split():
    # 115/42 is the only knot class with p <= 151 whose elimination
    # splits a branch (D5): its knot system splits the one branch into
    # two leaves, the filled system on each leaf keeps it whole, and
    # each filled leaf, with a lineage of one record, is trace-checked.
    metrics = _traced_certify(115, 42)
    name = "quotient.MatrixOverField.nullspace"
    assert metrics[f"{name}.calls"] == 3
    assert metrics[f"{name}.leaves"] == 4
    assert metrics[f"{name}.d5_splits"] == 1
    assert metrics[f"{name}.lineage_len_max"] == 1
    assert metrics["cohomology.cohomology_dims.calls"] == 3
    assert metrics["certify.meridian_trace_check.calls"] == 2


def test_observers_read_a_traced_alexander_roots_call(capsys):
    # The alexander-roots workload's operation: both routes read the
    # Riley exponents, so no presentation is built, each route runs
    # once, and each printed root is refined once.
    cli = importlib.import_module("lodehn.cli")
    argv = ["alexander", "--pq", "101/42", "--roots", "--digits", "30"]
    # cli.main is looked up at call time, so the traced wrapper runs.
    metrics = _traced(lambda: cli.main(argv))
    lines = capsys.readouterr().out.splitlines()
    roots = [line for line in lines if line.startswith("root in ")]
    assert lines[0] == "4 -25 43 -25 4" and len(roots) == 4
    assert metrics["cli.main.calls"] == 1
    assert metrics["twobridge.build_presentation.calls"] == 0
    assert metrics["reps.alexander_via_rep.calls"] == 1
    assert metrics["reps.alexander_via_fox.calls"] == 1
    assert metrics["polynomials.refine_isolating_interval.calls"] == len(roots)
