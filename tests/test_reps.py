import random
from fractions import Fraction

import pytest

from helpers import (
    L,
    Mat2,
    TBasisRep,
    adjoint,
    alexander_hartley,
    alexander_via_fox_word,
    alexander_via_rep_oracle,
    alexander_via_rep_word,
    burde_de_rham_oracle,
    eval_word_matrix,
    generator_adjoints,
    generator_images,
    image_terms,
    meridian_walk,
    random_unimodular_laurent,
    random_word,
    to_tau_basis,
)
from lodehn.cohomology import knot_walk
from lodehn.polynomials import Poly
from lodehn.quotient import LaurentRing, ModulusBranch, QuotientRing
from lodehn.reps import (
    MeridianRep,
    alexander_via_fox,
    alexander_via_rep,
    burde_de_rham_assignment,
    f_upper_entry,
    normalize_alexander,
    tau_terms,
)
from lodehn.twobridge import TwoBridgeFraction, build_presentation, family_fraction, family_word
from lodehn.words import Word

DELTA1 = Poly([1, -7, 13, -7, 1])


def test_adjoint_of_diagonal():
    m = Mat2(L({1: 1}), L({}), L({}), L({-1: 1}))
    assert adjoint(m).rows == (
        (L({2: 1}), L({}), L({})),
        (L({}), L({0: 1}), L({})),
        (L({}), L({}), L({-2: 1})),
    )


def test_adjoint_of_upper_triangular():
    rep = TBasisRep(LaurentRing())
    ad = adjoint(generator_images(rep)[("y", 1)])
    assert ad.rows[0] == (L({2: 1}), L({1: -2}), L({0: -1}))
    assert ad.rows[1] == (L({}), L({0: 1}), L({-1: 1}))
    assert ad.rows[2] == (L({}), L({}), L({-2: 1}))


def test_adjoint_of_identity():
    from lodehn.reps import Mat3

    assert adjoint(Mat2(1, 0, 0, 1)) == Mat3.identity()


def test_adjoint_rejects_non_unimodular():
    with pytest.raises(ValueError):
        adjoint(Mat2(2, 0, 0, 1))


def test_adjoint_multiplicative_on_random_unimodular_pairs():
    rng = random.Random(2024)
    for _ in range(100):
        a = random_unimodular_laurent(rng)
        b = random_unimodular_laurent(rng)
        assert adjoint(a @ b) == adjoint(a) @ adjoint(b)


def test_eval_empty_word_is_identity():
    rep = TBasisRep(LaurentRing())
    assert eval_word_matrix(Word(), rep).is_identity()


@pytest.mark.parametrize("j", [1, 2, 3])
def test_family_word_image_is_unipotent_with_f(j):
    rep = TBasisRep(LaurentRing())
    m = eval_word_matrix(family_word(j), rep)
    assert m.a == 1 and m.c == 0 and m.d == 1
    assert m.b == f_upper_entry(j)


def test_eval_word_matrix_homomorphism():
    rng = random.Random(77)
    rep = TBasisRep(LaurentRing())
    for _ in range(25):
        w = random_word(rng, 20)
        prod = eval_word_matrix(w, rep) @ eval_word_matrix(w.inverse(), rep)
        assert prod.is_identity()
    for _ in range(25):
        a, b = random_word(rng, 12), random_word(rng, 12)
        assert eval_word_matrix(a * b, rep) == (
            eval_word_matrix(a, rep) @ eval_word_matrix(b, rep)
        )


def test_f_upper_entry_values():
    assert f_upper_entry(1) == L({3: -1, 1: 6, -1: -6, -3: 1})
    assert f_upper_entry(2) == L({3: -2, 1: 11, -1: -11, -3: 2})


def test_f_upper_entry_antisymmetry():
    for j in (1, 2, 5):
        f = f_upper_entry(j)
        assert f.reciprocal() == -f


def test_alexander_via_rep_values():
    assert alexander_via_rep(TwoBridgeFraction(29, 17)) == DELTA1
    assert alexander_via_rep(TwoBridgeFraction(5, 2)) == Poly([1, -3, 1])
    assert alexander_via_rep(TwoBridgeFraction(3, 1)) == Poly([1, -1, 1])


def test_alexander_via_rep_matches_the_laurent_route_oracle():
    from math import gcd

    rng = random.Random(301)
    seen = 0
    while seen < 30:
        p = rng.randrange(3, 302, 2)
        q = rng.randrange(1, p)
        if gcd(p, q) != 1:
            continue
        seen += 1
        fraction = TwoBridgeFraction(p, q)
        assert alexander_via_rep(fraction) == alexander_via_rep_oracle(fraction)


def test_every_alexander_route_agrees_with_the_word_walks_and_hartley():
    # Both routes read the Riley exponents; the walks over the words of
    # the presentation and Hartley's formula are independent of them.
    from math import gcd

    count = 0
    for p in range(3, 102, 2):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            fraction = TwoBridgeFraction(p, q)
            delta = alexander_hartley(fraction)
            assert alexander_via_rep(fraction) == delta, fraction
            assert alexander_via_fox(fraction) == delta, fraction
            assert alexander_via_rep_word(fraction) == delta, fraction
            assert alexander_via_fox_word(fraction) == delta, fraction
            count += 1
    assert count == 2106


def test_alexander_via_fox_values():
    assert alexander_via_fox(TwoBridgeFraction(29, 17)) == DELTA1
    assert alexander_via_fox(TwoBridgeFraction(53, 31)) == Poly([2, -13, 23, -13, 2])
    assert alexander_via_fox(TwoBridgeFraction(5, 2)) == Poly([1, -3, 1])


@pytest.mark.parametrize("j", range(1, 11))
def test_family_alexander_closed_form(j):
    expected = Poly([j, -(6 * j + 1), 10 * j + 3, -(6 * j + 1), j])
    assert alexander_via_rep(family_fraction(j)) == expected
    assert alexander_via_fox(family_fraction(j)) == expected
    assert expected(1) == 1


def test_two_routes_agree_on_random_fractions():
    from math import gcd

    rng = random.Random(5)
    seen = 0
    while seen < 15:
        p = rng.randrange(3, 46, 2)
        q = rng.randrange(1, p)
        if gcd(p, q) != 1:
            continue
        seen += 1
        fr = TwoBridgeFraction(p, q)
        delta = alexander_via_rep(fr)
        assert delta == alexander_via_fox(fr)
        # knot determinant conditions and reciprocal symmetry
        assert delta.coeffs == tuple(reversed(delta.coeffs))
        assert abs(delta(1)) == 1


def test_fox_derivative_symmetric_in_the_generators():
    # the fundamental identity forces the two free derivatives to agree
    # up to a unit once abelianized, so either normalizes to the same
    # polynomial
    from helpers import L as laurent

    for p, q in [(29, 17), (5, 2), (7, 3), (9, 1)]:
        pres = build_presentation(TwoBridgeFraction(p, q))
        terms = {}
        total = 0
        for gen, sign in pres.relator:
            if gen == "y":
                if sign > 0:
                    terms[total] = terms.get(total, 0) + 1
                else:
                    terms[total - 1] = terms.get(total - 1, 0) - 1
            total += sign
        via_y = normalize_alexander(terms)
        assert via_y == alexander_via_fox(TwoBridgeFraction(p, q))


def test_normalize_shifts_to_constant():
    assert normalize_alexander(L({-2: 1, -1: -3, 0: 1}).terms()) == Poly([1, -3, 1])


def test_normalize_fixes_sign():
    assert normalize_alexander(dict(enumerate(Poly([-1, 7, -13, 7, -1]).coeffs))) == DELTA1


def test_normalize_idempotent():
    assert normalize_alexander(dict(enumerate(DELTA1.coeffs))) == DELTA1


def test_normalize_clears_content():
    assert normalize_alexander({0: Fraction(1, 2), 1: Fraction(3, 2)}) == Poly([1, 3])


def test_burde_de_rham_on_k1_branch():
    pres = build_presentation(TwoBridgeFraction(29, 17))
    branch = ModulusBranch(DELTA1)
    rep, values = burde_de_rham_assignment(branch, [knot_walk(pres).relator])
    assert rep.ring.branch is branch and values == []
    # Over t, on the lifted branch, the relator maps to the identity; the
    # longitude lies in the second commutator subgroup, so it maps to the
    # identity as well.
    t_rep = TBasisRep(QuotientRing(ModulusBranch(DELTA1.inflate(2))))
    assert eval_word_matrix(pres.relator, t_rep).is_identity()
    assert eval_word_matrix(pres.longitude, t_rep).is_identity()


def test_adjoints_built_on_first_use_invert_each_other():
    from lodehn.reps import Mat3

    # 53/31 is the j = 2 family knot: its integer modulus
    # 2tau^4 - 13tau^3 + 23tau^2 - 13tau + 2 has leading coefficient 2
    # and constant term 2, so 1/tau reduces to a non-integral residue.
    # Each adjoint is the t-basis oracle's conjugated by diag(1, t, 1)
    # and written in tau.
    cases = []
    for fraction in (TwoBridgeFraction(29, 17), TwoBridgeFraction(53, 31)):
        pres = build_presentation(fraction)
        branch = ModulusBranch(alexander_via_fox(fraction))
        rep, _ = burde_de_rham_assignment(branch, [knot_walk(pres).relator])
        assert rep.tau == branch.t() and rep.tau * rep.tau_inverse == 1
        t_ring = QuotientRing(ModulusBranch(branch.modulus.inflate(2)))
        cases.append((rep, TBasisRep(t_ring)))
    assert cases[1][0].ring.branch._ints == [2, -13, 23, -13, 2]
    laurent = MeridianRep(LaurentRing())
    assert laurent.tau == L({1: 1}) and laurent.tau_inverse == L({-1: 1})
    cases.append((laurent, TBasisRep(LaurentRing())))
    for rep, t_rep in cases:
        ring = rep.ring if isinstance(rep.ring, QuotientRing) else None
        # oracle[(g, 1)] is adjoint(Mat2(t, 0 or 1, 0, 1/t)) over t_rep.ring
        oracle = generator_adjoints(t_rep)
        for gen, ad in (("x", rep.ad_x), ("y", rep.ad_y)):
            assert ad == to_tau_basis(oracle[(gen, 1)], ring)
            assert ad @ to_tau_basis(oracle[(gen, -1)], ring) == Mat3.identity()


def test_burde_de_rham_rejects_non_root_branch():
    pres = build_presentation(TwoBridgeFraction(3, 1))
    with pytest.raises(ValueError, match="relator"):
        burde_de_rham_assignment(ModulusBranch(Poly([-2, 1])), [knot_walk(pres).relator])


def test_meridian_walk_image_matches_eval_word_matrix():
    rng = random.Random(5)
    modulus = alexander_via_rep(TwoBridgeFraction(201, 77)).monic()
    branch = ModulusBranch(modulus.inflate(2))
    # u cancels back to zero after every commutator; x^7 has no y at
    # all; 151/1's w spreads its y letters over 150 exponent sums.
    edges = [
        Word.parse("yxy^-1x^-1") ** 5,
        Word.parse("x") ** 7,
        build_presentation(TwoBridgeFraction(151, 1)).w,
    ]
    for rep in (TBasisRep(LaurentRing()), TBasisRep(QuotientRing(branch))):
        words = [random_word(rng, rng.randint(0, 60)) for _ in range(20)]
        for word in words + edges:
            assert meridian_walk(word, rep) == eval_word_matrix(word, rep)


def test_relator_check_rejects_a_nonzero_exponent_sum():
    # The word oracle's check is n = 0, not t^n = 1 mod F(t^2): t^n with
    # n odd is not in Q[tau].  On 9/1's branch Phi6 * Phi18 in tau
    # (Phi12 * Phi36 in t), x^36 maps to the identity over t, and the
    # check still refuses it, as it refuses x^12 and y^12 (whose images
    # are not the identity).  The walk's residue needs no such check:
    # x w y^-1 w^-1 has exponent sum 0 for every w.
    branch = ModulusBranch(alexander_via_rep(TwoBridgeFraction(9, 1)))
    assert branch.degree == 8
    t_rep = TBasisRep(QuotientRing(ModulusBranch(branch.modulus.inflate(2))))
    assert eval_word_matrix(Word.parse("x") ** 36, t_rep).is_identity()
    for word in (Word.parse("x"), Word.parse("x") ** 12, Word.parse("y") ** 12,
                 Word.parse("x") ** 36):
        with pytest.raises(ValueError, match="relator"):
            burde_de_rham_oracle(branch, word)
    pres = build_presentation(TwoBridgeFraction(9, 1))
    assert burde_de_rham_oracle(branch, pres.relator).ring.branch is branch
    rep, _ = burde_de_rham_assignment(branch, [knot_walk(pres).relator])
    assert rep.ring.branch is branch


def test_relator_check_rejects_another_knots_branch():
    # 29/17's relator on the branch of the figure-eight knot,
    # tau^2 - 3 tau + 1: the exponent sum is 0, so the nonzero residue of
    # b/t, b the upper-right entry of the image, decides.  The walk's
    # residue (tau - 1) u/t - tau^n of w is that b/t.
    pres = build_presentation(TwoBridgeFraction(29, 17))
    branch = ModulusBranch(Poly([1, -3, 1]))
    n, b = image_terms(pres.relator)
    assert n == 0 and QuotientRing(branch).evaluate([tau_terms(b, -1)])[0]
    assert knot_walk(pres).relator == tau_terms(b, -1)
    for check in (
        lambda: burde_de_rham_oracle(branch, pres.relator),
        lambda: burde_de_rham_assignment(branch, [knot_walk(pres).relator]),
    ):
        with pytest.raises(ValueError, match="relator"):
            check()


def test_burde_de_rham_trefoil():
    pres = build_presentation(TwoBridgeFraction(3, 1))
    trefoil = Poly([1, -1, 1])  # tau^2 - tau + 1
    rep, _ = burde_de_rham_assignment(ModulusBranch(trefoil), [knot_walk(pres).relator])
    assert rep.ring.branch.modulus == trefoil
    t_rep = TBasisRep(QuotientRing(ModulusBranch(trefoil.inflate(2))))
    assert eval_word_matrix(pres.relator, t_rep).is_identity()


def test_burde_de_rham_rejects_t_pm1():
    # A branch touching tau = 0 or tau = 1 (t = 0 or t = +-1) cannot be
    # built, so the assignment never sees one: the trefoil's branch
    # tau^2 - tau + 1 is refused with tau - 1 or tau beside it.  A root
    # at tau = -1, t = +-i, is allowed: t and t^2 - 1 are units there.
    trefoil = Poly([1, -1, 1])
    with pytest.raises(ValueError, match="tau = 1:"):
        ModulusBranch(trefoil * Poly([-1, 1]))
    with pytest.raises(ValueError, match="tau = 0:"):
        ModulusBranch(trefoil * Poly([0, 1]))
    assert ModulusBranch(trefoil * Poly([1, 1])).degree == 3
