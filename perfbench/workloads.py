"""Seeded inputs of the three workloads.

A run is a sequence of passes, each a list of operations: a
``(command, "p/q")`` pair that ``run.py`` turns into one
``lodehn.cli.main`` call. The seed fixes the sequence; how many passes a
run makes depends on its length (see ``run.py``). The program sees only
the fractions.
"""

from __future__ import annotations

import random
from itertools import accumulate
from math import gcd
from typing import Iterator, List, Tuple

Op = Tuple[str, str]

# The [1,1,2,2,2j] family for j = 1, 5, 20: p = 24j + 5, q = 14j + 3.
FAMILY = ("29/17", "125/73", "485/283")

CENSUS_P_MAX = 23

ALEXANDER_KNOTS = 24
ALEXANDER_P = tuple(range(101, 302, 2))
# Root refinement dominates the cost and grows with the degree of the
# Alexander polynomial and its number of real roots. Drawing only knots
# of one degree with a root in (0, 1), which in practice have exactly two
# real roots, keeps the cost of a pass and the shape of the latency
# distribution nearly the same for every seed while the knots change.
ALEXANDER_DEGREE = 8

COMMAND = {"family": "certify", "census": "certify", "alexander-roots": "alexander"}


def census() -> List[str]:
    """Every two-bridge knot with p <= CENSUS_P_MAX, one fraction per
    class of q under q ~ -q and q ~ q^-1 mod p (the smallest q)."""
    out = []
    for p in range(3, CENSUS_P_MAX + 1, 2):
        seen = set()
        for q in range(1, p):
            if gcd(p, q) != 1 or q in seen:
                continue
            inv = pow(q, -1, p)
            orbit = {q, p - q, inv, p - inv}
            seen |= orbit
            out.append(f"{p}/{min(orbit)}")
    return out


def alexander_shape(p: int, q: int) -> Tuple[int, bool]:
    """Degree of the Alexander polynomial of p/q, and whether it changes
    sign on (0, 1), from Hartley's formula: Delta(t) is the sum over
    i < p of (-1)^i t^(s_i), where s_i are the partial sums of the Riley
    exponent signs for odd q. Terms with equal s_i share the sign
    (-1)^(s_i), so the degree is max s - min s and, with the leading
    coefficient made positive, Delta(1) = (-1)^(max s)."""
    if q % 2 == 0:
        q -= p
    sums = list(accumulate(1 - 2 * ((i * q // p) & 1) for i in range(1, p)))
    top = max(0, max(sums))
    return top - min(0, min(sums)), top % 2 == 1


def _alexander_knot(rng: random.Random, slot: int) -> str:
    """A knot with odd p from the slot's share of ALEXANDER_P and a
    random coprime q whose Alexander polynomial has degree
    ALEXANDER_DEGREE and a root in (0, 1)."""
    lo = slot * len(ALEXANDER_P) // ALEXANDER_KNOTS
    hi = (slot + 1) * len(ALEXANDER_P) // ALEXANDER_KNOTS
    # Every slot's share holds such knots; a few dozen draws find one.
    while True:
        p = rng.choice(ALEXANDER_P[lo:hi])
        q = rng.randrange(1, p)
        if gcd(p, q) == 1 and alexander_shape(p, q) == (ALEXANDER_DEGREE, True):
            return f"{p}/{q}"


def passes(workload: str, seed: int) -> Iterator[List[Op]]:
    """The run's passes, without end: each reorders one set of inputs,
    which for alexander-roots the seed draws."""
    rng = random.Random(f"{workload}:{seed}")
    command = COMMAND[workload]
    if workload == "alexander-roots":
        fractions = [_alexander_knot(rng, slot) for slot in range(ALEXANDER_KNOTS)]
    else:
        fractions = list(FAMILY if workload == "family" else census())
    while True:
        rng.shuffle(fractions)
        yield [(command, pq) for pq in fractions]

