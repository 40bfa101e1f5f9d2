import random
import time
from fractions import Fraction

import pytest

from helpers import (
    laurent_dict_add,
    laurent_dict_mul,
    laurent_dict_value,
    poly_gcd,
    poly_gcd_oracle,
    poly_xgcd,
    refine_isolating_interval_oracle,
    root_bound,
    squarefree_decomposition_oracle,
    squarefree_part,
    sturm_chain,
    sturm_count_oracle,
)
from lodehn import polynomials
from lodehn.polynomials import (
    LaurentPoly,
    Poly,
    RootAtEndpoint,
    _chain_variations,
    _int_multiple,
    _int_sturm_chain,
    _sign_int,
    isolate_real_roots,
    refine_isolating_interval,
    squarefree_decomposition,
    sturm_count,
)
from lodehn.reps import alexander_via_rep
from lodehn.twobridge import TwoBridgeFraction

DELTA1 = Poly([1, -7, 13, -7, 1])


def test_gcd_shared_factor():
    assert poly_gcd(Poly([-1, 0, 1]), Poly([-1, 1])) == Poly([-1, 1])


def test_gcd_delta1_with_derivative_is_one():
    assert poly_gcd(DELTA1, DELTA1.derivative()) == Poly([1])


def test_gcd_with_zero_returns_monic():
    f = Poly([2, 0, 4])
    assert poly_gcd(f, Poly()) == f.monic()


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError):
        poly_gcd(Poly(), Poly())


def test_gcd_matches_the_euclid_oracle():
    # Seeded pairs with rational coefficients: zero and constant
    # operands, and non-coprime pairs f*g, f*h next to g, h.
    rng = random.Random(17)

    def rand(degree):
        return Poly([
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
            for _ in range(degree + 1)
        ])

    pairs = [
        (Poly(), Poly([3])),
        (DELTA1, Poly()),
        (Poly([Fraction(-2, 3)]), DELTA1),
        (Poly([5]), Poly([Fraction(1, 7)])),
    ]
    for _ in range(40):
        f, g, h = rand(rng.randint(1, 6)), rand(rng.randint(0, 8)), rand(rng.randint(0, 8))
        pairs += [(g, h), (f * g, f * h)]
    for a, b in pairs:
        if a.is_zero and b.is_zero:
            continue
        expected = poly_gcd_oracle(a, b)
        assert poly_gcd(a, b) == expected
        assert poly_gcd(b, a) == expected
    assert sum(poly_gcd(a, b).degree > 0 for a, b in pairs) >= 40


def test_xgcd_bezout():
    rng = random.Random(3)
    for _ in range(30):
        a = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        b = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        if a.is_zero and b.is_zero:
            continue
        g, s, u = poly_xgcd(a, b)
        assert s * a + u * b == g
        if not a.is_zero and not b.is_zero:
            assert (a % g).is_zero and (b % g).is_zero


def test_divmod_reconstruction():
    rng = random.Random(9)
    for _ in range(40):
        a = Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 8))])
        b = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        if b.is_zero:
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_squarefree_double_root():
    assert squarefree_decomposition(Poly([1, -2, 1])) == [(Poly([-1, 1]), 2)]


def test_squarefree_delta1_trivial():
    assert squarefree_decomposition(DELTA1) == [(DELTA1, 1)]


def test_squarefree_mixed():
    # t^3 - t^2 = t^2 (t - 1)
    assert squarefree_decomposition(Poly([0, 0, -1, 1])) == [
        (Poly([-1, 1]), 1),
        (Poly([0, 1]), 2),
    ]


def test_squarefree_reconstructs_random_products():
    rng = random.Random(11)
    for _ in range(25):
        product = Poly([1])
        for root in rng.sample(range(-5, 6), rng.randint(1, 3)):
            product = product * Poly([-root, 1]) ** rng.randint(1, 3)
        rebuilt = Poly([1])
        for factor, mult in squarefree_decomposition(product):
            assert poly_gcd(factor, factor.derivative()).degree == 0
            rebuilt = rebuilt * factor**mult
        assert rebuilt == product.monic()


def test_squarefree_matches_the_fraction_yun_oracle():
    # Products of up to four random factors (shared roots, constant
    # and linear factors among them) with multiplicities 1-3 and a
    # rational scalar: the integer split and Yun over Q give equal lists.
    rng = random.Random(15)
    for _ in range(2000):
        product = Poly([random_fraction(rng) or 1])
        for _ in range(rng.randint(1, 4)):
            factor = Poly(
                [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
                + [rng.randint(1, 3)]
            )
            product = product * factor ** rng.randint(1, 3)
        assert squarefree_decomposition(product) == (
            squarefree_decomposition_oracle(product)
        )


def test_sturm_delta1_on_0_5():
    assert sturm_count(DELTA1, (Fraction(0), Fraction(5))) == 4


def test_sturm_golden_quadratic():
    assert sturm_count(Poly([1, -3, 1]), (Fraction(0), Fraction(1))) == 1


def test_sturm_no_real_roots():
    assert sturm_count(Poly([1, 0, 1]), (None, None)) == 0


def test_sturm_endpoint_root_detected():
    with pytest.raises(RootAtEndpoint):
        sturm_count(Poly([-1, 1]), (Fraction(1), Fraction(2)))


def test_sturm_counts_distinct_roots_of_nonsquarefree_input():
    p = Poly([-1, 1]) ** 2 * Poly([-2, 1])
    assert sturm_count(p, (Fraction(0), Fraction(3))) == 2


def test_isolate_delta1_matches_sign_table():
    intervals = isolate_real_roots(DELTA1)
    assert len(intervals) == 4
    table = [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1)),
        (Fraction(1), Fraction(2)),
        (Fraction(2), Fraction(5)),
    ]
    for lo, hi in table:
        assert sturm_count(DELTA1, (lo, hi)) == 1


def test_isolate_golden_quadratic():
    p = Poly([1, -3, 1])
    intervals = isolate_real_roots(p)
    assert len(intervals) == 2
    (lo1, hi1), (lo2, hi2) = intervals
    lo1, hi1 = refine_isolating_interval(p, lo1, hi1, Fraction(1, 10**8))
    lo2, hi2 = refine_isolating_interval(p, lo2, hi2, Fraction(1, 10**8))
    assert lo1 < Fraction(38196601, 10**8) < hi1 or lo1 < Fraction(3819660113, 10**10) < hi1
    assert lo2 < Fraction(2618033988, 10**9) < hi2


def test_isolate_linear():
    intervals = isolate_real_roots(Poly([-1, 1]))
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert lo < 1 < hi


def test_isolate_rejects_nonsquarefree():
    for p in (
        Poly([1, -2, 1]),
        Poly([-1, 1]) ** 2 * Poly([2, 1]),
        Poly([Fraction(-1, 3), Fraction(2, 5)]) ** 2 * Poly([Fraction(7, 2), 1]),
        Poly([Fraction(1, 2), 0, 1]) ** 3 * Poly([Fraction(-5, 4), Fraction(3, 7)]),
    ):
        with pytest.raises(ValueError, match="square-free"):
            isolate_real_roots(p)


def test_isolation_count_matches_sturm_for_random_polys():
    rng = random.Random(5)
    for _ in range(30):
        p = Poly([rng.randint(-6, 6) for _ in range(rng.randint(2, 7))])
        if p.is_zero or p.degree < 1:
            continue
        p = squarefree_part(p)
        if p.degree < 1:
            continue
        assert len(isolate_real_roots(p)) == sturm_count(p, (None, None))


def test_refinement_keeps_the_root():
    p = Poly([1, -3, 1])
    (lo, hi) = isolate_real_roots(p)[0]
    lo2, hi2 = refine_isolating_interval(p, lo, hi, Fraction(1, 2**30))
    assert hi2 - lo2 <= Fraction(1, 2**30)
    assert sturm_count(p, (lo2, hi2)) == 1
    assert p(lo2) != 0 and p(hi2) != 0


def random_fraction(rng, num=20, den=12):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_squarefree(rng):
    """A square-free polynomial with Fraction coefficients, a random
    (possibly negative) leading coefficient, rational roots that
    bisection midpoints can hit, and an irreducible quadratic or
    cubic factor."""
    while True:
        p = Poly([random_fraction(rng) for _ in range(rng.randint(3, 4))])
        for _ in range(rng.randint(0, 3)):
            p = p * Poly([random_fraction(rng, 6, 4), 1])
        p = p * random_fraction(rng)
        if p.degree >= 1 and poly_gcd(p, p.derivative()).degree == 0:
            return p


def test_sign_helper_matches_fraction_evaluation():
    rng = random.Random(11)
    for _ in range(200):
        p = Poly([random_fraction(rng, 50, 30) for _ in range(rng.randint(1, 9))])
        if p.is_zero:
            continue
        coeffs = _int_multiple(p)
        assert all(isinstance(c, int) for c in coeffs)
        scale = coeffs[-1] / p.leading
        assert scale > 0 and Poly(coeffs) == p * scale
        points = [
            Fraction(0),
            -Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)),
            Fraction(rng.randint(-(2**110), 2**110), rng.randint(2**100, 2**101)),
            random_fraction(rng),
        ]
        for x in points:
            value = p(x)
            sign = _sign_int(coeffs, x.numerator, x.denominator)
            assert sign == (value > 0) - (value < 0)
    # At a root the sign is 0, on either side of it +-1.
    p = Poly([Fraction(-2, 3), Fraction(1, 1)]) * Fraction(-5, 7)
    coeffs = _int_multiple(p)
    assert coeffs[-1] < 0
    assert [_sign_int(coeffs, k, 3) for k in (1, 2, 3)] == [1, 0, -1]


def test_sturm_count_matches_the_fraction_chain_oracle():
    rng = random.Random(12)
    for _ in range(60):
        p = Poly([rng.randint(-6, 6) for _ in range(rng.randint(2, 7))])
        if p.degree < 1:
            continue
        # Squared input now and then: both count distinct roots.
        p = p * p * random_fraction(rng) if rng.random() < 0.3 else p
        if p.is_zero:
            continue
        lo, hi = sorted((random_fraction(rng, 40, 7), random_fraction(rng, 40, 7)))
        if lo == hi or p(lo) == 0 or p(hi) == 0:
            continue
        assert sturm_count(p, (lo, hi)) == sturm_count_oracle(p, lo, hi)


def test_sturm_count_of_repeated_roots_needs_no_square_free_pass():
    # The chain of p and p' ends at gcd(p, p'), so it counts the
    # distinct roots as the chain of the square-free part does, at
    # finite endpoints and at +-oo.  Factors of multiplicity up to 3.
    rng = random.Random(14)
    checked = 0
    for _ in range(150):
        p = Poly([random_fraction(rng) or 1])
        for _ in range(rng.randint(1, 3)):
            coeffs = [random_fraction(rng, 6, 3) for _ in range(rng.randint(2, 3))]
            p = p * Poly(coeffs) ** rng.randint(1, 3)
        lo, hi = sorted((random_fraction(rng, 40, 7), random_fraction(rng, 40, 7)))
        if p.degree < 1 or lo == hi:
            continue
        bound = root_bound(p)
        for interval in ((None, None), (None, hi), (lo, None), (lo, hi)):
            a, b = interval
            if any(x is not None and p(x) == 0 for x in interval):
                continue
            finite = (-bound if a is None else a, bound if b is None else b)
            expected = sturm_count_oracle(p, *finite)
            assert sturm_count(p, interval) == expected
            assert sturm_count(squarefree_part(p), interval) == expected
            checked += 1
    assert checked > 300


def test_refinement_matches_the_sturm_bisection_oracle():
    rng = random.Random(13)
    cases = []
    for _ in range(25):
        p = random_squarefree(rng)
        cases.append((p, Fraction(1, 2 ** rng.randint(1, 40))))
    for p_q in ((29, 17), (41, 1), (485, 283)):
        delta = alexander_via_rep(TwoBridgeFraction(*p_q))
        for factor, _ in squarefree_decomposition(delta):
            cases.append((factor, Fraction(1, 10**32)))
            cases.append((factor.monic().inflate(2), Fraction(1, 10**8)))
    # Bisection midpoints that hit the root itself: 1/2 at once, 3/8 on
    # the third step, and 0 at once, so the interior non-root is nudged.
    nudged = [
        (Poly([-1, 2]), Fraction(0), Fraction(1)),
        (Poly([-3, 8]) * Poly([-5, 0, 1]), Fraction(0), Fraction(1)),
        (Poly([0, -2, 0, 1]), Fraction(-1), Fraction(1)),
    ]
    for p, lo, hi in nudged:
        width = Fraction(1, 10**6)
        assert refine_isolating_interval(p, lo, hi, width) == (
            refine_isolating_interval_oracle(p, lo, hi, width)
        )
    # Dyadic roots r = n / 2^l of depth l = 1..6: on (0, 8) bisection
    # meets r as a midpoint at step l + 3 and nudges there; on (-1, 8)
    # and (1/3, 8) a dyadic r is seldom a grid point.
    nudge_rng = random.Random(17)
    for depth in range(1, 7):
        for lo in (Fraction(0), Fraction(-1), Fraction(1, 3)):
            odd = [n for n in range(1, 2 ** (depth + 3), 2) if Fraction(n, 2**depth) > lo]
            for n in nudge_rng.sample(odd, min(3, len(odd))):
                p = Poly([-Fraction(n, 2**depth), 1]) * Poly([-100, 1]) * Poly([3, 0, 1])
                for width in (Fraction(1, 10**3), Fraction(1, 10**20)):
                    assert refine_isolating_interval(p, lo, Fraction(8), width) == (
                        refine_isolating_interval_oracle(p, lo, Fraction(8), width)
                    )
    refined = 0
    for p, width in cases:
        for lo, hi in isolate_real_roots(p):
            assert refine_isolating_interval(p, lo, hi, width) == (
                refine_isolating_interval_oracle(p, lo, hi, width)
            )
            refined += 1
    assert refined > 40


def test_refinement_rejects_an_interval_without_a_sign_change():
    p = Poly([-2, 0, 1])  # roots -sqrt(2), sqrt(2)
    for lo, hi in (
        (Fraction(2), Fraction(3)),  # no root
        (Fraction(-2), Fraction(2)),  # two roots
        (Fraction(0), Fraction(1)),  # no root, p < 0 throughout
    ):
        with pytest.raises(ValueError):
            refine_isolating_interval(p, lo, hi, Fraction(1, 10**6))
    with pytest.raises(ValueError):  # an endpoint is the root
        refine_isolating_interval(Poly([-1, 1]), Fraction(1), Fraction(2), Fraction(1, 8))


def test_refinement_rejects_a_width_that_is_not_positive():
    # Bisection can never get below a width of 0 or less.
    p = Poly([-2, 0, 1])
    for width in (0, -1, Fraction(-1, 3)):
        with pytest.raises(ValueError, match="max_width"):
            refine_isolating_interval(p, Fraction(1), Fraction(2), width)


def test_root_bound_is_the_cauchy_bound_of_the_rational_coefficients():
    # root_bound reads 1 + max |c_i| / |c_d| off the integer multiple of
    # p, as isolate_real_roots reads it off its Sturm chain's first
    # member; the value is that of the rational coefficients.
    rng = random.Random(31)
    for _ in range(200):
        p = Poly([random_fraction(rng, 50, 9) for _ in range(rng.randint(1, 7))])
        if p.is_zero:
            continue
        lead = abs(p.leading)
        expected = 1 + max((abs(c) / lead for c in p.coeffs[:-1]), default=Fraction(0))
        assert root_bound(p) == expected


def test_refinement_builds_no_fraction_per_step(monkeypatch):
    # Refining the same interval to 10^-302 ends on a dyadic grid ten
    # times as deep as for 10^-32 (level 1004 against 107), which
    # quadratic interval refinement searches by secant guesses on
    # integer numerators; it builds Fractions only for its arguments and
    # its result, so their count must not grow with the level.
    constructed = []
    original_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        constructed.append(args)
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic since 3.12
        original_coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            constructed.append(args)
            return original_coprime(cls, *args)

        monkeypatch.setattr(
            Fraction, "_from_coprime_ints", classmethod(counting_coprime)
        )
    p, lo, hi = Poly([-2, 0, 1]), Fraction(1), Fraction(2)
    widths = (Fraction(1, 10**32), Fraction(1, 10**302))
    counts, refined = [], []
    for width in widths:
        del constructed[:]
        refined.append(refine_isolating_interval(p, lo, hi, width))
        counts.append(len(constructed))
    monkeypatch.undo()
    assert counts[0] == counts[1]
    for (a, b), width in zip(refined, widths):
        assert 0 < b - a <= width and p(a) < 0 < p(b)


def test_refinement_evaluations_grow_like_log_log_of_the_width(monkeypatch):
    # Bisection evaluates once per halving: about 9.3 times the calls
    # at 10^-302 as at 10^-32.  Quadratic interval refinement doubles
    # the bits gained per step, so the count grows far slower.
    calls = []
    original = polynomials._eval_int

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polynomials, "_eval_int", counting)
    p, lo, hi = Poly([-2, 0, 1]), Fraction(1), Fraction(2)
    counts = []
    for width in (Fraction(1, 10**32), Fraction(1, 10**302)):
        del calls[:]
        a, b = refine_isolating_interval(p, lo, hi, width)
        counts.append(len(calls))
        assert 0 < b - a <= width and p(a) < 0 < p(b)
    assert counts[1] < 3 * counts[0]


def test_integer_sturm_chain_matches_the_fraction_chain():
    # Every member of the integer chain is a positive multiple of the
    # Fraction chain's member, so the sign variations agree everywhere.
    # Sparse inputs such as t^4 + t + 1 make the degree drop by two, so
    # the pseudo-division factor lc^3 can be negative.
    rng = random.Random(21)
    for _ in range(400):
        sparse = rng.random() < 0.5
        p = Poly([
            0 if sparse and rng.random() < 0.6 else random_fraction(rng)
            for _ in range(rng.randint(2, 13))
        ])
        if rng.random() < 0.2:
            p = p * Poly([random_fraction(rng, 6, 4), 1]) ** 2
        if p.degree < 1:
            continue
        chain, oracle = _int_sturm_chain(p), sturm_chain(p)
        assert len(chain) == len(oracle)
        for member, expected in zip(chain, oracle):
            scale = Fraction(member[-1]) / expected.leading
            assert scale > 0 and Poly(member) == expected * scale
        points = [random_fraction(rng, 50, 9) for _ in range(4)]
        for x in points:
            assert _chain_variations(chain, x) == _variations_oracle(oracle, x)
        for plus in (False, True):
            assert _chain_variations(chain, None, plus) == (
                _variations_oracle(oracle, None, plus)
            )


def _variations_oracle(chain, x, at_plus_infinity=False):
    """Sign variations of a Fraction Sturm chain at x, or at +-oo for
    ``x`` None, from the members' values and leading terms."""
    signs = []
    for q in chain:
        if x is None:
            value = q.leading * (1 if at_plus_infinity or q.degree % 2 == 0 else -1)
        else:
            value = q(x)
        if value:
            signs.append(value > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def test_dense_moduli_of_high_degree_isolate_quickly():
    # Euclid over Q blows up the Sturm chain's coefficients: the Fraction
    # oracle takes about 45 s at degree 100 (2 vCPUs, CPython 3.11), so
    # it checks the count at degree 40 only; sympy's continued-fraction
    # isolation, an independent algorithm, checks both degrees.
    import sympy

    rng = random.Random(100)
    for degree in (40, 100):
        p = Poly([rng.randint(-9, 9) for _ in range(degree)] + [3])
        assert poly_gcd(p, p.derivative()).degree == 0
        start = time.perf_counter()
        intervals = isolate_real_roots(p)
        assert time.perf_counter() - start < 2
        x = sympy.Symbol("x")
        reference = sympy.Poly([int(c) for c in reversed(p.coeffs)], x).intervals()
        assert len(intervals) == len(reference) > 0
        assert all(p(lo) * p(hi) < 0 for lo, hi in intervals)
        assert all(left[1] <= right[0] for left, right in zip(intervals, intervals[1:]))
        if degree == 40:
            bound = root_bound(p)
            assert len(intervals) == sturm_count_oracle(p, -bound, bound)


def test_inflate_linear():
    assert Poly([-1, 1]).inflate(2) == Poly([-1, 0, 1])


def test_inflate_delta1():
    assert DELTA1.inflate(2) == Poly([1, 0, -7, 0, 13, 0, -7, 0, 1])


def test_inflate_constant():
    assert Poly([5]).inflate(2) == Poly([5])


def test_laurent_arithmetic():
    a = LaurentPoly.from_terms({-1: 1, 1: 2})
    b = LaurentPoly.from_terms({0: 3, -2: 1})
    assert a + b == LaurentPoly.from_terms({-2: 1, -1: 1, 0: 3, 1: 2})
    assert a * b == LaurentPoly.from_terms({-3: 1, -1: 5, 1: 6})
    assert a - a == LaurentPoly()
    assert (a * LaurentPoly.monomial(5)).valuation == 4


def test_laurent_reciprocal():
    a = LaurentPoly.from_terms({-3: 1, 1: 5})
    assert a.reciprocal() == LaurentPoly.from_terms({3: 1, -1: 5})


def test_laurent_zero_and_scalar_comparisons():
    assert LaurentPoly() == 0
    assert LaurentPoly.from_terms({0: 7}) == 7
    assert LaurentPoly.monomial(1) != 1


def _random_laurent_terms(rng):
    """Up to five terms with exponents in [-6, 6]; zero coefficients,
    repeated exponents and the empty dict all occur."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[rng.randint(-6, 6)] = rng.choice(
            (rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        )
    return terms


def test_laurent_arithmetic_matches_the_dict_oracle():
    rng = random.Random(61)
    scalars = (0, 1, -3, Fraction(2, 5), Fraction(-7, 3))
    for _ in range(400):
        ta, tb = _random_laurent_terms(rng), _random_laurent_terms(rng)
        a, b = LaurentPoly.from_terms(ta), LaurentPoly.from_terms(tb)
        da, db = laurent_dict_add(ta, {}), laurent_dict_add(tb, {})
        assert a.terms() == da
        if da:
            assert a.poly.constant != 0
            assert (a.valuation, a.degree) == (min(da), max(da))
            if a.valuation >= 0:
                assert a.to_poly() == Poly([da.get(e, 0) for e in range(a.degree + 1)])
        else:
            assert a.is_zero and a == LaurentPoly()
        neg_b = {e: -c for e, c in db.items()}
        assert (a + b).terms() == laurent_dict_add(da, db)
        assert (a - b).terms() == laurent_dict_add(da, neg_b)
        assert (a * b).terms() == laurent_dict_mul(da, db)
        assert (-a).terms() == {e: -c for e, c in da.items()}
        k = rng.randint(-5, 5)
        assert a.shift(k).terms() == {e + k: c for e, c in da.items()}
        assert a.reciprocal().terms() == {-e: c for e, c in da.items()}
        s = rng.choice(scalars)
        ds = laurent_dict_add({0: s}, {})
        assert (a + s).terms() == (s + a).terms() == laurent_dict_add(da, ds)
        assert (a - s).terms() == laurent_dict_add(da, {0: -s})
        assert (s - a).terms() == laurent_dict_add(ds, {e: -c for e, c in da.items()})
        assert (a * s).terms() == (s * a).terms() == laurent_dict_mul(da, ds)
        assert (a == b) == (da == db)
        assert (a == s) == (s == a) == (da == ds)
        rebuilt = (a + b) - b
        assert rebuilt == a and hash(rebuilt) == hash(a)
        x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        assert a(x) == laurent_dict_value(da, x)
        if all(e >= 0 for e in da):
            assert a(0) == da.get(0, 0)
        else:
            with pytest.raises(ZeroDivisionError):
                a(0)
