"""Root forms: isolation, refinement and the trace check through the
even lift F(x^2) and the palindromic core g of x^k g(x + 1/x) give the
results of the full-degree chain routines.

The oracles are the bisection of ``helpers.isolate_real_roots_oracle``
on the Sturm chain of p itself, ``sturm_count`` on p's own integer
chain, ``_eval_int`` on p's own coefficients, and refinement through
the plain form ``RootForm(ints, ints)``, which evaluates p's own
coefficients as refinement did before the forms existed.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers import isolate_real_roots_oracle, load_fixture
from lodehn import cli, polynomials
from lodehn.certify import meridian_trace_check
from lodehn.polynomials import (
    Poly,
    RootForm,
    _EvenLift,
    _Palindrome,
    _eval_int,
    _int_multiple,
    isolate_real_roots,
    refine_isolating_interval,
    root_form,
    squarefree_decomposition,
    sturm_count,
)

WIDTH = Fraction(1, 10**32)


def _plain(p):
    ints = _int_multiple(p)
    return RootForm(ints, ints)


def _fixture_polynomials():
    """Every square-free Alexander factor (palindromic) and every leaf
    modulus F(t^2) (an even lift) of the certify fixtures, and every
    square-free factor of the Alexander polynomials whose root lines
    ``alexander_roots.json`` pins."""
    out = []
    for name in ("census_p23.json", "long_words.json"):
        for row in load_fixture(name):
            out += [f for f, _ in squarefree_decomposition(Poly(row["alexander"]))]
            out += [
                Poly([Fraction(c) for c in branch["modulus"]])
                for branch in row["branches"]
            ]
    for row in load_fixture("alexander_roots.json"):
        delta = Poly([int(c) for c in row["stdout"].splitlines()[0].split()])
        out += [f for f, _ in squarefree_decomposition(delta)]
    return out


def _assert_form_matches_the_chain_routines(p, points=()):
    """Isolation against the full-degree oracle, refinement of every
    root against the plain form, the values against ``_eval_int`` and
    the root counts against ``sturm_count`` at the refined endpoints and
    at ``points``."""
    form, plain = root_form(p), _plain(p)
    intervals = isolate_real_roots(form)
    assert intervals == isolate_real_roots_oracle(p) == isolate_real_roots(p)
    for lo, hi in intervals:
        refined = refine_isolating_interval(form, lo, hi, WIDTH)
        assert refined == refine_isolating_interval(plain, lo, hi, WIDTH)
        points = (*points, *refined)
    for x in (*points, Fraction(-1), Fraction(0), Fraction(1)):
        a, b = x.numerator, x.denominator
        assert form.value(a, b) == _eval_int(plain.ints, a, b)
        if p(x):
            assert form._below(a, b) == sturm_count(p, (None, x))
    return form, intervals


def test_forms_match_the_chain_routines_on_every_fixture_factor():
    polys = _fixture_polynomials()
    kinds = {_EvenLift: 0, _Palindrome: 0}
    for p in polys:
        form, intervals = _assert_form_matches_the_chain_routines(p)
        kinds[type(form)] += 1
        if isinstance(form, _EvenLift):
            assert meridian_trace_check(form, intervals) == (True,) * len(intervals)
            assert meridian_trace_check(p, intervals) == (True,) * len(intervals)
    # 41 Alexander factors of the certify fixtures and 29 of the root
    # lines are palindromes; the 42 leaf moduli are even lifts.
    assert kinds == {_Palindrome: 70, _EvenLift: 42}


def test_an_even_lift_whose_midpoint_is_a_root_is_nudged(monkeypatch):
    # x^4 - 3x^2 + 2 has roots +-1 and +-sqrt(2); bisection on (-4, 4)
    # meets the roots -1 and 1 as midpoints and nudges them right.
    p = Poly([2, 0, -3, 0, 1])
    assert isinstance(root_form(p), _EvenLift)
    nudges = []
    dodge = polynomials._interior_non_root

    def recording(evaluate, a, b, den):
        a2, mid, b2, e = dodge(evaluate, a, b, den)
        nudges.append(2 * mid != a2 + b2)
        return a2, mid, b2, e

    monkeypatch.setattr(polynomials, "_interior_non_root", recording)
    _, intervals = _assert_form_matches_the_chain_routines(p)
    assert len(intervals) == 4 and any(nudges)


_HALF = st.lists(st.integers(-12, 12), min_size=2, max_size=5)
# A rational root r = n / 2^e (with 1/r for a palindrome) that the
# bisection grid can meet as a midpoint.
_DYADIC = st.tuples(st.integers(-16, 16), st.integers(0, 3))


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(half=_HALF, root=st.none() | _DYADIC, data=st.data())
def test_random_palindromes_match_the_chain_routines(half, root, data):
    assume(half[0])
    ints = half + half[-2::-1]
    if root is not None and root[0]:
        n, d = root[0], 2 ** root[1]
        ints = _times(ints, [n * d, -(n * n + d * d), n * d])
    p = Poly(ints)
    assume(p.degree >= 2 and p(1) and p(-1))
    # A palindrome with only even powers is an even lift first.
    assert type(root_form(p)) is (_Palindrome if any(ints[1::2]) else _EvenLift)
    points = data.draw(st.lists(
        st.fractions(min_value=-40, max_value=40, max_denominator=64), max_size=4
    ))
    _assert_against_oracle(p, points)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(half=_HALF, root=st.none() | _DYADIC, data=st.data())
def test_random_even_lifts_match_the_chain_routines(half, root, data):
    if root is not None and root[0]:
        n, d = root[0], 2 ** root[1]
        half = _times(half, [-n * n, d * d])
    ints = [0] * (2 * len(half) - 1)
    ints[::2] = half
    p = Poly(ints)
    assume(p.degree >= 2)
    assert isinstance(root_form(p), _EvenLift)
    points = data.draw(st.lists(
        st.fractions(min_value=-40, max_value=40, max_denominator=64), max_size=4
    ))
    _assert_against_oracle(p, points)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ints=st.lists(st.integers(-12, 12), min_size=3, max_size=8))
def test_a_non_symmetric_polynomial_keeps_the_plain_form(ints):
    p = Poly(ints)
    assume(p.degree >= 2 and any(p.coeffs[1::2]))
    assume(p.coeffs != p.coeffs[::-1] or not p(1) or not p(-1))
    form = root_form(p)
    assert type(form) is RootForm and form.small == form.ints
    _assert_against_oracle(p, [Fraction(1, 3), Fraction(-5, 2)])


def _assert_against_oracle(p, points):
    try:
        isolate_real_roots_oracle(p)
    except ValueError:
        with pytest.raises(ValueError, match="square-free"):
            isolate_real_roots(root_form(p))
        return
    _assert_form_matches_the_chain_routines(p, points)


def test_kept_errors_fire_through_every_form(monkeypatch):
    cases = {
        # (polynomial with real roots, one that is not square-free)
        _EvenLift: (Poly([2, 0, -3, 0, 1]), Poly([4, 0, -4, 0, 1])),
        _Palindrome: (Poly([1, -3, 1]), Poly([1, -6, 11, -6, 1])),
        RootForm: (Poly([-2, 0, 1, 1]), Poly([-2, 3, 0, -1])),
    }
    # An even lift with F(0) = 0 has the square x^2 as a factor.
    assert not root_form(Poly([0, 0, -2, 0, 1])).squarefree
    for kind, (p, square) in cases.items():
        form, bad = root_form(p), root_form(square)
        assert type(form) is kind and type(bad) is kind
        with pytest.raises(ValueError, match="square-free"):
            isolate_real_roots(bad)
        lo, hi = isolate_real_roots(form)[-1]
        with pytest.raises(ValueError, match="does not change sign"):
            refine_isolating_interval(form, hi, hi + 100, WIDTH)
        with monkeypatch.context() as patched:
            patched.setattr(polynomials, "_bisect", lambda *args: [])
            with pytest.raises(AssertionError, match="isolation lost a root"):
                isolate_real_roots(form)


def test_the_trace_check_keeps_refine_errors():
    # An interval across 1 without a sign change (it holds the roots 1
    # and sqrt(2)) isolates no root.
    with pytest.raises(ValueError, match="does not change sign"):
        meridian_trace_check(
            Poly([2, 0, -3, 0, 1]), [(Fraction(1, 2), Fraction(3, 2))]
        )


def test_the_trace_check_refines_across_each_unit_point():
    # (t^2 - 1/4)(t^2 - 4) has roots +-1/2 and +-2.  (-3/10, 3/2) holds
    # only 1/2 and straddles 0 and 1, (-3/2, 3/10) holds only -1/2 and
    # straddles -1 and 0, and so on.
    modulus = Poly([1, 0, Fraction(-17, 4), 0, 1])
    form = root_form(modulus)
    for interval in ((Fraction(-3, 10), Fraction(3, 2)), (Fraction(-3, 2), Fraction(3, 10)),
                     (Fraction(-3, 2), Fraction(-3, 10)), (Fraction(-5, 2), Fraction(-3, 2))):
        assert meridian_trace_check(modulus, [interval]) == (True,)
        assert meridian_trace_check(form, [interval]) == (True,)


# 81/32: Delta = (2t^2 - 5t + 2)^2, whose roots 1/2 and 2 the bisection
# grid holds, printed as the command printed them before root forms.
SQUARED_LINES = (
    "root in (134217727/268435456, 536870915/1073741824) ~ 0.500000"
    "  positive, multiplicity 2",
    "root in (1073741823/536870912, 2147483653/1073741824) ~ 2.000000"
    "  positive, multiplicity 2",
)


@pytest.mark.parametrize(
    "pq, yun_calls", [("29/17", 0), ("101/42", 0), ("81/32", 1), ("49/17", 1)]
)
def test_root_lines_run_yun_only_on_a_square(pq, yun_calls, monkeypatch, capsys):
    # Delta's core chain ends in a constant exactly when Delta is
    # square-free; only otherwise does Yun's split run.
    calls = []

    def counting(delta):
        calls.append(delta)
        return squarefree_decomposition(delta)

    monkeypatch.setattr(cli, "squarefree_decomposition", counting)
    assert cli.main(["alexander", "--pq", pq, "--roots"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == yun_calls
    if pq == "81/32":
        assert tuple(lines[1:]) == SQUARED_LINES
