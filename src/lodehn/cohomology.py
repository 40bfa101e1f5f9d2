"""Twisted sl2 group cohomology for two-generator presentations.

A cocycle is determined by its values on the generators; it extends
along a word by z(gh) = z(g) + g.z(h) with g acting through the adjoint
of the representation, and z(g^-1) = -Ad(g^-1) z(g).  A value pair is a
genuine cocycle of a presented group exactly when it kills every
relator, which turns cocycle spaces into nullspaces of explicit linear
systems (one 3x6 block per relator, columns ordered z(x) then z(y)).
The 0-filled group's system is the knot group's relator rows plus the
longitude rows, both built once on a branch and reduced onto its leaves.

The blocks of a word are the signed sums of the adjoints of its
prefixes.  Under the meridian representation those adjoints are upper
triangular with monomial diagonals (see ``reps``), so
:func:`word_value_blocks` sums them in one integer walk over
Z[t, t^-1] (:func:`_block_terms`).  That walk keeps u = t^n b, for the
prefix image [[t^n, b], [0, t^-n]], and u^2 as packed ints, sums the
prefix adjoints per generator and per n at a few bigint operations per
letter, and maps each of the 12 live entries into Q[t]/(m) (or
Q[t, t^-1]) once, by evaluation at t.  Evaluation at t is a ring
homomorphism, so the blocks are exactly the letter-by-letter products
over that ring; the step-by-step oracles live in the tests.

Coboundaries are the value pairs ((Ad x - 1) V, (Ad y - 1) V).  Since
Ad(x) - 1 = diag(t^2 - 1, 0, t^-2 - 1), Ad(x) fixes only the multiples
of v0 when t^2 - 1 is a unit, and Ad(y) moves v0, as (Ad(y) - 1) v0 =
(-2t, 0, 0), when t is a unit.  Every modulus branch is coprime to
t^3 - t, so both are units (see ``quotient.ModulusBranch``), and every
leaf has H^0 = 0, B^1 = 3 and

    dim H^1 = dim Z^1 - 3.

The closed forms of the family cocycle values and the two vanishing
identities they satisfy are exposed at the end of the module.  On every
call the forms are checked against the walks over Q[t, t^-1] (the
blocks of w and v, the images of u and s), and the
identities are checked symbolically from the forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Sequence, Tuple

from .polynomials import LaurentPoly
from .quotient import LaurentRing, MatrixOverField, ModulusBranch, QuotientRing, _unpack
from .reps import IntLaurent, Mat3, MeridianRep, adjoint, f_upper_entry, meridian_walk
from .twobridge import FAMILY_S, FAMILY_U, family_v, family_word
from .words import Word


def _terms(packed: int, width: int, slots: int, base: int) -> IntLaurent:
    """The Laurent polynomial whose slot j of ``packed`` holds the
    coefficient of t^(base + 2j)."""
    if not packed:
        return {}
    coeffs = _unpack(packed, width, slots)
    return {base + 2 * j: c for j, c in enumerate(coeffs) if c}


def _block_terms(word: Word) -> List[IntLaurent]:
    """The integer kernel of :func:`word_value_blocks`: for x, then y,
    the six upper-triangular entries (00, 01, 02, 11, 12, 22) of the
    signed sum of prefix adjoints, each as an ``{exponent: coefficient}``
    dict.

    A letter g^sign takes the adjoint of the prefix with exponent sum
    m: the prefix before it for sign +1, the prefix ending with it for
    sign -1.  A y^sign also moves u = t^n b by sign t^(2m+1), and the
    adjoint it takes has u without that monomial.  With low and high
    the least and greatest exponent sums of the word's prefixes, m runs
    over [low, high - 1], so u has only the odd exponents 2m + 1 and
    u^2 only even ones: one slot per exponent they can carry.  u and
    u^2 are each one Python int by Kronecker substitution: slot j, of
    ``width`` bits, holds the coefficient of t^(2 low + 1 + 2j) in u
    and of t^(4 low + 2 + 2j) in u^2.  A y^sign adds sign 2^(width j)
    to u and sign (2 t^(2m+1) u + t^(4m+2)) to u^2, each a shift and an
    add; a letter g^sign adds sign (1, u, u^2) to the accumulator of
    (g, m).  A letter thus costs a few bigint operations, however many
    terms u has.  At the end each accumulator (c_m, U_m, V_m) is
    shifted by t^-2m (by high - 1 - m slots, so every shift is to the
    left) and summed: entries 00, 11 and 22 are the sums of c_m t^2m,
    c_m and c_m t^-2m, 01 is -2 times the sum of U_m, 12 the sum of
    t^-2m U_m and 02 minus the sum of t^-2m V_m.  Each is unpacked
    once.

    The slot width bounds every packed coefficient.  For a word of L
    letters the absolute values of the coefficients of u sum to at most
    L, those of u^2 to at most L^2, and each letter adds at most one
    u^2 to the sums, so no packed coefficient exceeds L^3 in absolute
    value; a slot of w bits holds signed values below 2^(w-1).
    """
    letters = word.letters
    n = low = high = 0
    for _, sign in letters:
        n += sign
        if n < low:
            low = n
        elif n > high:
            high = n
    width = ((len(letters) ** 3).bit_length() + 8) & -8
    span = high - low
    # Slot j of u, 2^(width j), is t^(2(low + j) + 1); its square is
    # slot 2j of u^2.
    ones = [1 << (width * j) for j in range(span)]
    squares = [1 << (2 * width * j) for j in range(span)]
    n = u = u_squared = 0
    groups: Dict[str, Dict[int, List[int]]] = {"x": {}, "y": {}}
    for gen, sign in letters:
        if sign > 0:
            group = groups[gen].get(n)
            if group is None:
                groups[gen][n] = [1, u, u_squared]
            else:
                group[0] += 1
                group[1] += u
                group[2] += u_squared
            if gen == "y":
                j = n - low
                u_squared += (u << (width * j + 1)) + squares[j]
                u += ones[j]
            n += 1
        else:
            n -= 1
            if gen == "y":
                j = n - low
                u -= ones[j]
                u_squared -= (u << (width * j + 1)) + squares[j]
            group = groups[gen].get(n)
            if group is None:
                groups[gen][n] = [-1, -u, -u_squared]
            else:
                group[0] -= 1
                group[1] -= u
                group[2] -= u_squared
    top = high - 1
    entries: List[IntLaurent] = []
    for group in groups.values():
        e00: IntLaurent = {}
        e22: IntLaurent = {}
        count = u_sum = u_shifted = u_squared_shifted = 0
        for m, (c, u_m, u_squared_m) in group.items():
            if c:
                e00[2 * m] = c
                e22[-2 * m] = c
                count += c
            u_sum += u_m
            shift = width * (top - m)
            u_shifted += u_m << shift
            u_squared_shifted += u_squared_m << shift
        e01 = _terms(u_sum, width, span, 2 * low + 1)
        entries += [
            e00,
            {e: -2 * c for e, c in e01.items()},
            _terms(-u_squared_shifted, width, 3 * span - 2, 2 * (2 * low - top + 1)),
            {0: count} if count else {},
            _terms(u_shifted, width, 2 * span - 1, 2 * (low - top) + 1),
            e22,
        ]
    return entries


def word_value_blocks(word: Word, rep: MeridianRep) -> Tuple[Mat3, Mat3]:
    """The pair (Mx, My) with z(word) = Mx z(x) + My z(y) for every
    value assignment z, over ``rep.ring``.  By the cocycle law, a letter
    g^+1 adds Ad of the prefix before it to Mg and a letter g^-1
    subtracts Ad of the prefix ending with it; :func:`_block_terms`
    sums those over Z[t, t^-1] and each entry is mapped into the ring
    once."""
    ring = rep.ring
    values = ring.evaluate(_block_terms(word))
    zero = ring.zero
    mx, my = (
        Mat3(((e00, e01, e02), (zero, e11, e12), (zero, zero, e22)))
        for e00, e01, e02, e11, e12, e22 in (values[:6], values[6:])
    )
    return mx, my


def relator_system(relators: Sequence[Word], rep: MeridianRep) -> MatrixOverField:
    """Stacked 3x6 blocks, one per relator (a single zero row when there
    are none); the nullspace is the space of cocycle value pairs of the
    presented group."""
    rows: List[Tuple] = []
    for relator in relators:
        mx, my = word_value_blocks(relator, rep)
        for i in range(3):
            rows.append(mx.rows[i] + my.rows[i])
    return MatrixOverField(rows or [(rep.ring.zero,) * 6], rep.ring)


@dataclass(frozen=True)
class CohomologyDims:
    z1: int
    b1: int
    h0: int
    h1: int


@dataclass
class BranchCohomology:
    ring: QuotientRing
    dims: CohomologyDims

    @property
    def branch(self) -> ModulusBranch:
        return self.ring.branch


def cohomology_dims(
    system: MatrixOverField, rep: MeridianRep
) -> List[BranchCohomology]:
    """Dimensions of Z^1, B^1, H^0 and H^1 for the presentation with
    relator system ``system``, one record per leaf branch.  ``rep`` may
    live on a branch whose modulus the system's modulus divides.

    Z^1 is the nullity of the system on each leaf, from its rank under
    the fraction-free elimination of :meth:`MatrixOverField.nullspace`;
    no cocycle basis is built.  t and t^2 - 1 are units on every
    branch, which gives H^0 = 0 and B^1 = 3 (see the module docstring).
    Every coboundary is checked to be a nullvector of the system on
    each leaf; a failure would falsify the linear systems and raises.
    """
    results: List[BranchCohomology] = []
    for leaf in system.nullspace():
        _check_coboundaries_are_cocycles(system, rep, leaf.ring)
        dims = CohomologyDims(z1=leaf.dim, b1=3, h0=0, h1=leaf.dim - 3)
        results.append(BranchCohomology(leaf.ring, dims))
    return results


def _check_coboundaries_are_cocycles(
    system: MatrixOverField, rep: MeridianRep, ring: QuotientRing
) -> None:
    """The coboundary of the basis vector e_k is the pair of columns k
    of Ad(x) - 1 and of Ad(y) - 1; each must be a nullvector of
    ``system`` over ``ring``, onto whose branch the system is reduced
    when it lives on another."""
    rows = system.entries
    if ring.branch is not system.ring.branch and ring.branch != system.ring.branch:
        rows = [[ring.coerce(e) for e in row] for row in rows]
    ad_x, ad_y = rep.ad_x, rep.ad_y
    for k in range(3):
        column = [
            ring.coerce(ad.rows[i][k] - (1 if i == k else 0))
            for ad in (ad_x, ad_y)
            for i in range(3)
        ]
        for row in rows:
            entry = ring.zero
            for a, b in zip(row, column):
                entry = entry + a * b
            if entry:
                raise AssertionError("a coboundary escaped the cocycle space")


class ClosedFormMismatch(RuntimeError):
    """A symbolic evaluation disagrees with an expected closed form."""


@dataclass(frozen=True)
class FamilyCocycleForms:
    """Closed forms of the family's cocycle values z(w) and z(v) for the
    normalized values z(x) = (0, alpha, beta), z(y) = (0, alpha, 0).

    The v+ coordinates carry unspecified beta multiples; those are
    returned computed-only (``h_beta``, ``nu1_alpha``, ``nu1_beta``) and
    never asserted.
    """

    omega1_alpha: LaurentPoly
    omega2_beta: LaurentPoly
    omega3_beta: LaurentPoly
    nu2_beta: LaurentPoly
    nu3_beta: LaurentPoly
    sum_u: Mat3
    sum_s: Mat3
    h_beta: LaurentPoly
    nu1_alpha: LaurentPoly
    nu1_beta: LaurentPoly


def _geometric_sum(m: Mat3, count: int) -> Mat3:
    """m^0 + m^1 + ... + m^(count-1) for a unipotent m, in two products:
    N = m - 1 must satisfy N^3 = 0 (else ClosedFormMismatch), and then
    m^i = 1 + i N + C(i, 2) N^2, which sums to
    count + C(count, 2) N + C(count, 3) N^2."""
    n = m - Mat3.identity()
    n2 = n @ n
    if n2 @ n != Mat3.zero():
        raise ClosedFormMismatch("the matrix is not unipotent of order 3")
    c2, c3 = comb(count, 2), comb(count, 3)
    return Mat3([
        [
            (count if i == j else 0) + c2 * n.rows[i][j] + c3 * n2.rows[i][j]
            for j in range(3)
        ]
        for i in range(3)
    ])


def _half(n: int) -> Fraction:
    return Fraction(n, 2)


def _family_closed_forms(j: int):
    L = LaurentPoly.from_terms
    omega1_alpha = L({3: -4 * j, 1: 10 * j + 2, -3: -2 * j})
    omega2_beta = L({
        7: _half(j * (j + 1)),
        5: -5 * j * (j + 1),
        3: _half(35 * j * j + 31 * j + 2),
        1: -_half(52 * j * j + 28 * j + 4),
        -1: _half(j * (35 * j - 3)),
        -3: -_half(j * (10 * j - 6)),
        -5: _half(j * (j - 1)),
    })
    nu2_beta = L({
        7: _half(j * (j + 1)),
        5: -5 * j * (j + 1),
        3: _half(35 * j * j + 27 * j + 2),
        1: -_half(52 * j * j + 12 * j),
        -1: _half(j * (35 * j - 7)),
        -3: -_half(j * (10 * j - 6)),
        -5: _half(j * (j - 1)),
    })
    f = f_upper_entry(j)
    omega3_beta = LaurentPoly.monomial(1) * f
    nu3_beta = -omega3_beta
    g = L({3: 1, 1: -5, -1: 5, -3: -1})
    c12 = (j * j - j) * g
    c13 = -Fraction(2 * j**3 - 3 * j * j + j, 6) * (g * g)
    c23 = -Fraction(j * j - j, 2) * g
    sum_u = Mat3(((j, c12, c13), (0, j, c23), (0, 0, j)))
    sum_s = Mat3(((j, -c12, c13), (0, j, -c23), (0, 0, j)))
    return omega1_alpha, omega2_beta, nu2_beta, omega3_beta, nu3_beta, sum_u, sum_s


def _alpha_beta_parts(word: Word, rep: MeridianRep) -> Tuple[Tuple, Tuple]:
    """The alpha and beta parts of z(word) for z(x) = (0, alpha, beta),
    z(y) = (0, alpha, 0): column 1 of Mx plus column 1 of My, and
    column 2 of Mx."""
    mx, my = word_value_blocks(word, rep)
    alpha = tuple([mx.rows[i][1] + my.rows[i][1] for i in range(3)])
    beta = tuple([mx.rows[i][2] for i in range(3)])
    return alpha, beta


def family_cocycle_forms(j: int) -> FamilyCocycleForms:
    """Closed forms for z(w), z(v) and the two geometric-sum matrices of
    the family, each verified against the meridian walk over
    Q[t, t^-1]."""
    if j < 1:
        raise ValueError(f"family index must be >= 1, got {j}")
    (omega1_alpha, omega2_beta, nu2_beta, omega3_beta, nu3_beta,
     sum_u, sum_s) = _family_closed_forms(j)

    rep = MeridianRep(LaurentRing())
    ring = rep.ring
    ew_alpha, ew_beta = _alpha_beta_parts(family_word(j), rep)
    ev_alpha, ev_beta = _alpha_beta_parts(family_v(j), rep)

    checks = [
        ("z(w) v+ alpha part", ew_alpha[0], omega1_alpha),
        ("z(w) v0 alpha part", ew_alpha[1], ring.zero),
        ("z(w) v- alpha part", ew_alpha[2], ring.zero),
        ("z(w) v0 beta part", ew_beta[1], omega2_beta),
        ("z(w) v- beta part", ew_beta[2], omega3_beta),
        ("z(v) v0 alpha part", ev_alpha[1], ring.zero),
        ("z(v) v- alpha part", ev_alpha[2], ring.zero),
        ("z(v) v0 beta part", ev_beta[1], nu2_beta),
        ("z(v) v- beta part", ev_beta[2], nu3_beta),
    ]
    for label, computed, closed in checks:
        if computed != closed:
            raise ClosedFormMismatch(
                f"{label} disagrees at j={j}: {computed!r} != {closed!r}"
            )
    ad_u = adjoint(meridian_walk(FAMILY_U, rep))
    ad_s = adjoint(meridian_walk(FAMILY_S, rep))
    if _geometric_sum(ad_u, j) != sum_u:
        raise ClosedFormMismatch(f"geometric sum over u disagrees at j={j}")
    if _geometric_sum(ad_s, j) != sum_s:
        raise ClosedFormMismatch(f"geometric sum over s disagrees at j={j}")

    return FamilyCocycleForms(
        omega1_alpha=omega1_alpha,
        omega2_beta=omega2_beta,
        omega3_beta=omega3_beta,
        nu2_beta=nu2_beta,
        nu3_beta=nu3_beta,
        sum_u=sum_u,
        sum_s=sum_s,
        h_beta=ew_beta[0],
        nu1_alpha=ev_alpha[0],
        nu1_beta=ev_beta[0],
    )


def vanishing_identity(j: int) -> LaurentPoly:
    """The two scalar identities behind H^1(filled) = 0 for the family.

    The longitude condition reduces, in the v0 coordinate, to

        omega2 + nu2 + f nu3 = (t^4 - 1)(t^4 + j (t^4 - 4 t^2 + 1)^2) / t^5

    times beta, and the relator's v+ coordinate (once beta = 0) to

        (t^2 - 1) omega1_alpha + 2 f = -2 t^-3 (t^4 - 1)(2j t^4 - (6j+1) t^2 + 2j)

    times alpha.  Both are asserted exactly from the closed forms; a
    mismatch is a hard error.  Returns the first (beta) identity
    polynomial.
    """
    if j < 1:
        raise ValueError(f"family index must be >= 1, got {j}")
    (omega1_alpha, omega2_beta, nu2_beta, _omega3_beta, nu3_beta,
     _su, _ss) = _family_closed_forms(j)
    f = f_upper_entry(j)
    L = LaurentPoly.from_terms

    beta_lhs = omega2_beta + nu2_beta + f * nu3_beta
    quartic = L({4: 1, 2: -4, 0: 1})
    beta_rhs = (L({4: 1, 0: -1}) * (L({4: 1}) + j * quartic * quartic)).shift(-5)
    if beta_lhs != beta_rhs:
        raise ClosedFormMismatch(f"longitude beta identity fails at j={j}")

    alpha_lhs = L({2: 1, 0: -1}) * omega1_alpha + 2 * f
    alpha_rhs = L({4: 1, 0: -1}) * L({4: 2 * j, 2: -(6 * j + 1), 0: 2 * j})
    if alpha_lhs.shift(3) != -2 * alpha_rhs:
        raise ClosedFormMismatch(f"relator alpha identity fails at j={j}")
    return beta_lhs
