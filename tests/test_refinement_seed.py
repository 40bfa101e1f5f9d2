"""The float seed of ``polynomials.refine_isolating_interval``.

On a grid deeper than ``_SEED_LEVEL`` levels the search starts from a
bracket that safeguarded Newton in floats proposes and two exact
evaluations check.  The seed may change only the number of
evaluations: every cell must be the one that the search of the whole
grid without a seed finds, also when the seed fails or lies.
"""

import math
from fractions import Fraction

import pytest

from helpers import census, load_fixture, refine_isolating_interval_oracle
from lodehn import polynomials
from lodehn.cli import _parse_pq
from lodehn.polynomials import (
    Poly,
    isolate_real_roots,
    refine_isolating_interval,
    root_form,
    squarefree_decomposition,
)
from lodehn.reps import alexander_polynomial

WIDTHS = (Fraction(1, 10**32), Fraction(1, 10**102))


def _roots(fractions):
    """(Delta, its root form, lo, hi) for each isolating interval of a
    real root of each square-free Delta of ``fractions``."""
    out = []
    for pq in fractions:
        delta = alexander_polynomial(_parse_pq(pq))
        form = root_form(delta)
        if form.squarefree:
            out += [(delta, form, lo, hi) for lo, hi in isolate_real_roots(form)]
    return out


def _cells(roots, width):
    """The refined interval of every root, through its form and its Poly."""
    return [
        (refine_isolating_interval(form, lo, hi, width),
         refine_isolating_interval(delta, lo, hi, width))
        for delta, form, lo, hi in roots
    ]


def _recording(monkeypatch, name):
    """Replace ``polynomials.<name>`` by a wrapper that records the
    arguments and the result of every call."""
    calls = []
    original = getattr(polynomials, name)

    def wrapper(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(polynomials, name, wrapper)
    return calls


def _without_seed(monkeypatch):
    monkeypatch.setattr(polynomials, "_seed_guess", lambda *args: None)


def test_the_seeded_search_finds_the_cells_of_the_whole_grid(monkeypatch):
    # Every root of a square-free Delta with p <= 101, at 10^-32 (grid
    # level about 107) and 10^-102 (about 340): the seeded cells through
    # the form and the Poly equal those of the search without a seed.
    roots = _roots(census(101))
    assert len(roots) > 300
    guesses = _recording(monkeypatch, "_seed_guess")
    seeded = {width: _cells(roots, width) for width in WIDTHS}
    # Two seeds per root and width, one per input, and every one a
    # bracket: the floats never fail on these polynomials.
    assert len(guesses) == 2 * len(WIDTHS) * len(roots)
    assert all(guess is not None for _, guess in guesses)
    monkeypatch.undo()
    _without_seed(monkeypatch)
    for width in WIDTHS:
        unseeded = _cells(roots, width)
        assert seeded[width] == unseeded
        assert all(by_form == by_poly for by_form, by_poly in unseeded)


def test_the_seeded_search_matches_the_bisection_oracle():
    # The knots of the alexander-roots fixture, each Yun factor refined
    # to the width that `alexander --roots --digits 30` asks for.
    width = Fraction(1, 10**32)
    checked = 0
    for row in load_fixture("alexander_roots.json"):
        delta = alexander_polynomial(_parse_pq(row["fraction"]))
        for factor, _ in squarefree_decomposition(delta):
            form = root_form(factor)
            for lo, hi in isolate_real_roots(form):
                assert refine_isolating_interval(form, lo, hi, width) == (
                    refine_isolating_interval_oracle(factor, lo, hi, width)
                )
                checked += 1
    assert checked > 50


def _far_below(ints, lo, hi, positive, t):
    return lo - 1e6 * (hi - lo)


def _wrong_inside(ints, lo, hi, positive, t):
    # A point of the interval that is not the root: its bracket misses,
    # and the search goes on from the side that holds the root.
    return lo + (0.25 if t > 0.5 else 0.75) * (hi - lo)


def _overflow(*args):
    raise OverflowError("int too large to convert to float")


@pytest.mark.parametrize("seed", [
    _overflow,
    lambda *args: math.nan,
    lambda *args: math.inf,
    _far_below,
    _wrong_inside,
])
def test_a_failed_or_lying_seed_falls_back_to_the_same_cells(seed, monkeypatch):
    roots = _roots(census(41))
    expected = {}
    _without_seed(monkeypatch)
    for width in WIDTHS:
        expected[width] = _cells(roots, width)
    monkeypatch.undo()
    monkeypatch.setattr(polynomials, "_float_root", seed)
    for width in WIDTHS:
        assert _cells(roots, width) == expected[width]


def test_a_root_on_the_grid_with_the_seed_active():
    # 2t^2 - 5t + 2 has the roots 1/2 and 2, the midpoints of (0, 1)
    # and (1, 3), so grid points of every level: the seeded search finds
    # each on the grid and goes on to bisection's nudged interval, as
    # the oracle does.
    p = Poly([2, -5, 2])
    width = Fraction(1, 10**32)
    intervals = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(3))]
    with pytest.MonkeyPatch.context() as patch:
        cells = _recording(patch, "_grid_cell")
        refined = [refine_isolating_interval(p, lo, hi, width) for lo, hi in intervals]
    on_grid = [args for args, (_, on_root) in cells if on_root]
    assert len(on_grid) == 2 and all(args[-1] is not None for args in on_grid)
    assert refined == [
        refine_isolating_interval_oracle(p, lo, hi, width) for lo, hi in intervals
    ]
    for (lo, hi), root in zip(refined, (Fraction(1, 2), Fraction(2))):
        assert lo < root < hi and hi - lo <= width


def _evaluations_per_root(monkeypatch, pq, width):
    form = root_form(alexander_polynomial(_parse_pq(pq)))
    intervals = isolate_real_roots(form)
    calls = _recording(monkeypatch, "_eval_int")
    for lo, hi in intervals:
        refine_isolating_interval(form, lo, hi, width)
    return len(calls) / len(intervals)


def test_the_seed_cuts_the_exact_evaluations(monkeypatch):
    # 101/42, at the width of `alexander --roots --digits 30`: two end
    # values, the seed's bracket and a secant step or two against about
    # 18 evaluations without a seed, so a seed that always fell back
    # would fail here.
    width = Fraction(1, 10**32)
    assert _evaluations_per_root(monkeypatch, "101/42", width) <= 10
    monkeypatch.undo()
    _without_seed(monkeypatch)
    assert _evaluations_per_root(monkeypatch, "101/42", width) > 15


def test_the_float_root_is_close_and_fails_soft():
    # sqrt(2) on (1, 2), from either sign convention of x^2 - 2.
    for ints, positive in (([-2, 0, 1], False), ([2, 0, -1], True)):
        x = polynomials._float_root(ints, 1.0, 2.0, positive, 0.5)
        assert abs(x - math.sqrt(2)) <= 2.0**-46
    # A polynomial whose float values overflow to infinity yields NaN
    # or a point, never an exception past the caller's guard.
    huge = [-(10**300), 0, 10**300]
    x = polynomials._float_root(huge, 0.5, 1e10, False, 1e-10)
    assert math.isnan(x) or 0.5 <= x <= 1e10
