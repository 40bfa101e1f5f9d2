"""Checks on the source text of the package."""

import ast
import os

import lodehn

PACKAGE = os.path.dirname(os.path.abspath(lodehn.__file__))


def test_no_tuple_is_built_from_a_generator():
    # CPython 3.11 builds tuple(<generator>) in a tuple of 10 slots and
    # resizes it, which leaves the tuple free lists of every other size
    # filling up until a full collection; tuple([...]) allocates once.
    offenders = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []
