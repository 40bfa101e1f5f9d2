import random
from math import gcd

import pytest

from helpers import census, presentation_oracle
from lodehn.twobridge import (
    FAMILY_S,
    FAMILY_U,
    TwoBridgeFraction,
    build_presentation,
    cf_to_fraction,
    family_fraction,
    family_v,
    family_word,
    parity_period_holds,
    riley_exponents,
)
from lodehn.words import _LETTERS, Word


def test_cf_family_j1():
    assert cf_to_fraction([1, 1, 2, 2, 2]) == TwoBridgeFraction(29, 17)


def test_cf_single_term():
    assert cf_to_fraction([3]) == TwoBridgeFraction(3, 1)


def test_cf_two_terms():
    assert cf_to_fraction([2, 2]) == TwoBridgeFraction(5, 2)


def test_cf_rejects_even_numerator():
    with pytest.raises(ValueError, match="link"):
        cf_to_fraction([1, 1])


def test_cf_rejects_zero_terms():
    with pytest.raises(ValueError):
        cf_to_fraction([1, 0, 2])


def test_cf_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        cf_to_fraction([1])  # 1/1 has q = p


def test_fraction_validation():
    with pytest.raises(ValueError, match=r"got 4 \(p even is a two-bridge link, not a knot\)$"):
        TwoBridgeFraction(4, 1)
    # A negative odd p, as from the continued fraction [-3], is not
    # blamed on evenness.
    with pytest.raises(ValueError, match=r"positive odd integer, got -3$"):
        cf_to_fraction([-3])
    with pytest.raises(ValueError):
        TwoBridgeFraction(9, 3)
    with pytest.raises(ValueError):
        TwoBridgeFraction(5, 5)
    # The message quotes the fraction as given, p first.
    with pytest.raises(ValueError, match=r"0 < q < p, got 29/46$"):
        TwoBridgeFraction(29, 46)


def test_riley_exponents_trefoil():
    assert riley_exponents(TwoBridgeFraction(3, 1)) == (1, 1)


def test_riley_exponents_k1_prefix():
    assert riley_exponents(TwoBridgeFraction(29, 17))[:4] == (1, -1, -1, 1)


@pytest.mark.parametrize("p,q", [(29, 17), (53, 31), (5, 2), (7, 3), (13, 5)])
def test_riley_exponent_symmetry(p, q):
    exps = riley_exponents(TwoBridgeFraction(p, q))
    for i in range(1, p):
        assert exps[i - 1] == exps[p - i - 1]


def test_presentation_trefoil():
    pres = build_presentation(TwoBridgeFraction(3, 1))
    assert pres.w == Word.parse("yx")
    assert pres.relator == Word.parse("xyxy^-1x^-1y^-1")
    assert pres.meridian == Word.parse("x")
    assert pres.longitude.total_exponent_sum() == 0


def test_presentation_k1_word():
    pres = build_presentation(TwoBridgeFraction(29, 17))
    assert pres.w == Word.parse("yx^-1y^-1x") * FAMILY_U


def test_presentation_word_shape():
    for p, q in [(29, 17), (15, 4), (11, 4), (5, 2)]:
        pres = build_presentation(TwoBridgeFraction(p, q))
        assert len(pres.w) == p - 1
        gens = [gen for gen, _ in pres.w]
        assert gens == ["y" if i % 2 == 0 else "x" for i in range(p - 1)]
        assert pres.v == pres.w.spelled_backwards()


def test_presentation_words_match_full_reduction():
    # build_presentation spells w straight from the shared letter tuples;
    # the validating constructor, reducing every letter list in full,
    # must give the same w, relator and longitude.
    shared = set(map(id, _LETTERS.values()))
    for p in range(3, 62, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            pres = build_presentation(TwoBridgeFraction(p, q))
            exps = riley_exponents(TwoBridgeFraction(p, q))
            w = [("y" if i % 2 == 0 else "x", e) for i, e in enumerate(exps)]
            inverse_w = [(gen, -sign) for gen, sign in reversed(w)]
            total = 2 * sum(exps)
            correction = [("x", -1 if total > 0 else 1)] * abs(total)
            assert pres.w == Word(w)
            assert pres.relator == Word([("x", 1)] + w + [("y", -1)] + inverse_w)
            assert pres.longitude == Word(correction + w + w[::-1])
            for word in (pres.w, pres.v, pres.relator, pres.longitude):
                assert all(id(letter) in shared for letter in word)


def test_v_is_w_with_the_generators_exchanged():
    # w = y^e1 x^e2 ... x^e(p-1) and e_i = e_(p-i), so w spelled
    # backwards, v, is w with x and y exchanged: the premise of the one
    # walk of w that gives v's entries too (cohomology.knot_walk).  Every
    # fraction with p <= 151, every q, even q (q - p) included.
    fractions = 0
    for p in range(3, 152, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            pres = build_presentation(TwoBridgeFraction(p, q))
            assert pres.v == pres.w.generators_exchanged()
            fractions += 1
    assert fractions == 4700


def test_presentation_matches_the_letter_by_letter_oracle():
    # build_presentation spells w from the exponents' even and odd
    # slices and takes the longitude correction from 2 * sum(exps); the
    # letter-by-letter construction must give the same five words on
    # every knot class with p <= 151 and on the family up to j = 20.
    fractions = [TwoBridgeFraction(*map(int, pq.split("/"))) for pq in census(151)]
    fractions += [family_fraction(j) for j in range(1, 21)]
    for fraction in fractions:
        pres, oracle = build_presentation(fraction), presentation_oracle(fraction)
        for name in ("w", "v", "relator", "longitude", "meridian"):
            assert getattr(pres, name) == getattr(oracle, name), (fraction, name)
    assert len(fractions) == 1242 + 20


@pytest.mark.parametrize("j", range(1, 7))
def test_family_longitude_needs_no_correction(j):
    pres = build_presentation(family_fraction(j))
    assert pres.longitude == pres.w * pres.v
    assert pres.longitude.exponent_sum("x") == 0
    assert pres.longitude.exponent_sum("y") == 0


def test_general_longitude_is_null_homologous():
    rng = random.Random(7)
    for _ in range(20):
        p = rng.randrange(3, 60, 2)
        q = rng.randrange(1, p)
        from math import gcd
        if gcd(p, q) != 1:
            continue
        pres = build_presentation(TwoBridgeFraction(p, q))
        assert pres.longitude.total_exponent_sum() == 0


def test_family_word_matches_presentation():
    assert family_word(1) == build_presentation(TwoBridgeFraction(29, 17)).w
    assert family_word(2) == build_presentation(TwoBridgeFraction(53, 31)).w


def test_family_v_matches_presentation():
    for j in (1, 2, 3):
        assert family_v(j) == build_presentation(family_fraction(j)).v


def test_family_s_is_u_backwards():
    assert FAMILY_S == FAMILY_U.spelled_backwards()


def test_family_word_rejects_nonpositive():
    with pytest.raises(ValueError):
        family_word(0)


@pytest.mark.parametrize("j", range(1, 9))
def test_parity_period(j):
    assert parity_period_holds(j)
