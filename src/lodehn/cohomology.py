"""Twisted sl2 group cohomology for two-generator presentations.

A cocycle is determined by its values on the generators; it extends
along a word by z(gh) = z(g) + g.z(h) with g acting through the adjoint
of the representation, and z(g^-1) = -Ad(g^-1) z(g).  A value pair is a
genuine cocycle of a presented group exactly when it kills every
relator, which turns cocycle spaces into nullspaces of explicit linear
systems (one 3x6 block per relator, columns ordered z(x) then z(y)),
of which only three columns are kept (see below).  The knot group's
system is the relator's three rows.  The 0-filled group adds the
longitude lambda as a relator, and of its rows only row 1 counts.  The
preferred longitude lies in the second commutator subgroup of the knot
group (Burde-Zieschang, *Knots*), and the representation is upper
triangular, hence metabelian, so lambda maps to the identity:
:func:`longitude_row` checks that on the branch, off the walk that
builds its row, as ``reps.burde_de_rham_assignment`` checks the
relator.  lambda commutes with x, so for a knot cocycle z,
z(x lambda) = z(lambda x) gives
(Ad x - 1) z(lambda) = (Ad lambda - 1) z(x) = 0: z(lambda) lies in the
line t v0 that Ad(x) fixes (see below), so its coordinates 0 and 2,
longitude rows 0 and 2 applied to z, vanish on every knot cocycle.  The
filled system is the knot rows plus longitude row 1
(:func:`longitude_row`), all built and checked once on a branch and
reduced onto its leaves.

Everything here runs in the basis (v+, t v0, v-) of ``reps``, where the
adjoint of the meridian representation is defined over Q[tau], tau =
t^2: the systems live on Q[tau]/(F), F a factor of the Alexander
polynomial, at half the degree of its lift F(t^2).

The blocks of a word are the signed sums of the adjoints of its
prefixes.  Under the meridian representation those adjoints are upper
triangular with monomial diagonals (see ``reps``), so
:func:`word_value_blocks` sums them in one integer walk over
Z[t, t^-1] (:func:`_block_terms`).  That walk keeps u = t^n b, for the
prefix image [[t^n, b], [0, t^-n]], and u^2 as packed ints, sums the
prefix adjoints of the basis (v+, v0, v-) per generator and per n at a
few bigint operations per letter, and returns the 12 live entries as
Laurent polynomials in t.  Conjugating by diag(1, t, 1) multiplies
entry 01 by t and divides entry 12 by t; every exponent is then even
and is halved (:func:`reps.tau_terms`), and each entry is mapped into
Q[tau]/(F) (or Q[tau, tau^-1]) once, by evaluation at tau.  Evaluation
is a ring homomorphism, so the blocks are exactly the letter-by-letter
products over that ring; the step-by-step oracles, in t, live in the
tests.

Coboundaries are the value pairs ((Ad x - 1) V, (Ad y - 1) V).  Here
Ad(x) - 1 = diag(tau - 1, 0, 1/tau - 1), so Ad(x) fixes only the
multiples of t v0 when tau - 1 is a unit, and Ad(y) moves t v0, as
(Ad(y) - 1) t v0 = (-2 tau, 0, 0), when tau is a unit.  Every modulus
branch is coprime to tau^2 - tau, so both are units (see
``quotient.ModulusBranch``), and every leaf has H^0 = 0 and B^1 = 3.

A row (a0, a1, a2 | b0, b1, b2) kills every coboundary exactly when
a (Ad x - 1) + b (Ad y - 1) = 0, that is when (a0 + b0)(tau - 1),
-2 tau b0 and (a2 + b2)(1/tau - 1) - b0 + b1/tau vanish.  With tau and
tau - 1 units, that is a0 = b0 = 0 and b1 = (tau - 1)(a2 + b2): one ring
product per row, which :func:`relator_system` and :func:`longitude_row`
check on every row they build, on the branch.

Those rows have zero columns 0 and 3, and column 4 is tau - 1 times
column 2 plus column 5.  So :func:`relator_system` keeps only the live
columns (a1, a2, b2), and on every leaf

    dim H^1 = dim Z^1 - 3 = 3 - rank,

the nullity of the three-column system.  The elimination of the six
columns would give the same rank and the same leaves.  Row operations
keep the column relation, so once columns 1 and 2 are cleared, a row's
entry in column 4 is tau - 1, a unit, times its entry in column 5.
Column 4 then pivots on the row where column 5 would, with the same gcd
with F, hence the same D5 split, and leaves column 5 nothing to pivot
on.  A row checked on the branch passes on each leaf, since the leaf
moduli are coprime and multiply back to F (CRT).

The closed forms of the family cocycle values and the two vanishing
identities they satisfy are exposed at the end of the module.  They
are written in t, in the basis (v+, v0, v-).  On every call the forms
are mapped into the basis (v+, t v0, v-) and into tau and checked
against the walks over Q[tau, tau^-1] (the blocks of w and v, the
adjoints of u and s), and the identities are checked symbolically from
the forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Sequence, Tuple

from .polynomials import LaurentPoly
from .quotient import LaurentRing, MatrixOverField, NullspaceResult, _unpack
from .reps import IntLaurent, Mat3, MeridianRep, f_upper_entry, tau_terms
from .twobridge import FAMILY_S, FAMILY_U, family_v, family_word
from .words import Word


def _terms(packed: int, width: int, slots: int, base: int) -> IntLaurent:
    """The Laurent polynomial whose slot j of ``packed`` holds the
    coefficient of t^(base + 2j)."""
    if not packed:
        return {}
    coeffs = _unpack(packed, width, slots)
    return {base + 2 * j: c for j, c in enumerate(coeffs) if c}


def _exponent_range(letters) -> Tuple[int, int]:
    """The least and greatest exponent sums of the prefixes of a word
    with ``letters``, the empty prefix included."""
    n = low = high = 0
    for _, sign in letters:
        n += sign
        if n < low:
            low = n
        elif n > high:
            high = n
    return low, high


def _block_terms(word: Word) -> List[IntLaurent]:
    """The integer kernel of :func:`word_value_blocks`: for x, then y,
    the six upper-triangular entries (00, 01, 02, 11, 12, 22) of the
    signed sum of prefix adjoints in the basis (v+, v0, v-), each as an
    ``{exponent: coefficient}`` dict in t.

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
    low, high = _exponent_range(letters)
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


def _row_terms(word: Word) -> Tuple[int, IntLaurent, IntLaurent, IntLaurent]:
    """n and u = t^n b of the image [[t^n, b], [0, t^-n]] of ``word``,
    and entry 12 of the x block and of the y block of ``word`` in the
    basis (v+, v0, v-), in t: the walk of :func:`_block_terms` without
    u^2, whose final n and u are those of the whole word.  The
    accumulator of (g, m) holds the signed sum U_m of the values of u,
    and entry 12 of g is the sum of t^-2m U_m.  The absolute
    coefficients of u sum to at most L for a word of L letters, and
    each letter adds at most one u to the sums, so no packed
    coefficient exceeds L^2 in absolute value."""
    letters = word.letters
    low, high = _exponent_range(letters)
    width = ((len(letters) ** 2).bit_length() + 8) & -8
    span = high - low
    ones = [1 << (width * j) for j in range(span)]
    n = u = 0
    groups: Dict[str, Dict[int, int]] = {"x": {}, "y": {}}
    for gen, sign in letters:
        group = groups[gen]
        if sign > 0:
            group[n] = group.get(n, 0) + u
            if gen == "y":
                u += ones[n - low]
            n += 1
        else:
            n -= 1
            if gen == "y":
                u -= ones[n - low]
            group[n] = group.get(n, 0) - u
    top = high - 1
    x12, y12 = (
        _terms(
            sum([u_m << (width * (top - m)) for m, u_m in group.items()]),
            width, 2 * span - 1, 2 * (low - top) + 1,
        )
        for group in groups.values()
    )
    return n, _terms(u, width, span, 2 * low + 1), x12, y12


# diag(1, t, 1) = diag(t^d_0, t^d_1, t^d_2): in the basis (v+, t v0, v-)
# the entry ij of a matrix picks up t^(d_j - d_i), the coordinate i of a
# vector t^-d_i.
_T_POWERS = (0, 1, 0)

# Those powers on the entries 00, 01, 02, 11, 12, 22 of each block.
_BLOCK_SHIFTS = tuple([
    _T_POWERS[c] - _T_POWERS[r] for r in range(3) for c in range(r, 3)
]) * 2


def word_value_blocks(word: Word, rep: MeridianRep) -> Tuple[Mat3, Mat3]:
    """The pair (Mx, My) with z(word) = Mx z(x) + My z(y) for every
    value assignment z, in the basis (v+, t v0, v-) over ``rep.ring``.
    By the cocycle law, a letter g^+1 adds Ad of the prefix before it to
    Mg and a letter g^-1 subtracts Ad of the prefix ending with it;
    :func:`_block_terms` sums those over Z[t, t^-1], and each entry is
    moved into the basis and into tau and mapped into the ring once."""
    ring = rep.ring
    values = ring.evaluate([
        tau_terms(terms, shift)
        for terms, shift in zip(_block_terms(word), _BLOCK_SHIFTS)
    ])
    zero = ring.zero
    mx, my = (
        Mat3(((e00, e01, e02), (zero, e11, e12), (zero, zero, e22)))
        for e00, e01, e02, e11, e12, e22 in (values[:6], values[6:])
    )
    return mx, my


def relator_system(relators: Sequence[Word], rep: MeridianRep) -> MatrixOverField:
    """The live columns (a1, a2, b2) of the stacked 3x6 blocks, one per
    relator (a single zero row when there are none); the nullity is
    dim H^1 of the presented group.  Every block row (a0, a1, a2 | b0,
    b1, b2) is checked first to kill every coboundary, a0 = b0 = 0 and
    b1 = (tau - 1)(a2 + b2); a failure would falsify the system and
    raises (see the module docstring)."""
    tau_minus_one = rep.tau - 1
    rows: List[Tuple] = []
    for relator in relators:
        mx, my = word_value_blocks(relator, rep)
        for (a0, a1, a2), (b0, b1, b2) in zip(mx.rows, my.rows):
            if a0 or b0 or b1 != tau_minus_one * (a2 + b2):
                raise AssertionError("a coboundary escaped the cocycle space")
            rows.append((a1, a2, b2))
    return MatrixOverField(rows or [(rep.ring.zero,) * 3], rep.ring)


_LONGITUDE_OFF_IDENTITY = (
    "longitude does not map to the identity on this branch: its rows 0 "
    "and 2 would not vanish on the knot cocycles"
)


def longitude_row(longitude: Word, rep: MeridianRep) -> Tuple:
    """The live columns (x11, x12, y12) of row 1 of the blocks of the
    longitude, the one longitude row of the 0-filled system (see the
    module docstring).  x11 and y11 are the exponent sums of x and y in
    the longitude; x12 and y12 come from :func:`_row_terms`, moved into
    the basis (v+, t v0, v-) and into tau and mapped into the ring.

    The row rests on rho(longitude) = I, which is read off the same
    walk first: the image [[t^n, b], [0, t^-n]] must have n = 0, and
    then b = u has only odd powers of t, so b/t is a polynomial in tau
    that must vanish mod F (else ValueError); one ``evaluate`` maps it
    into the ring with x12 and y12.  The row is then checked to kill
    every coboundary,
    y11 = (tau - 1)(x12 + y12) (its entries 10 vanish in every block); a
    failure would falsify the system and raises AssertionError."""
    n, u, x12, y12 = _row_terms(longitude)
    if n:
        raise ValueError(_LONGITUDE_OFF_IDENTITY)
    b, x12, y12 = rep.ring.evaluate([tau_terms(terms, -1) for terms in (u, x12, y12)])
    if b:
        raise ValueError(_LONGITUDE_OFF_IDENTITY)
    if (rep.tau - 1) * (x12 + y12) != longitude.exponent_sum("y"):
        raise AssertionError("a coboundary escaped the cocycle space")
    return longitude.exponent_sum("x"), x12, y12


def cohomology_dims(system: MatrixOverField) -> List[NullspaceResult]:
    """dim H^1 for the presentation with relator system ``system``, one
    record per leaf branch: the nullity ``dim`` of the system on the
    leaf, from its rank under the fraction-free elimination of
    :meth:`MatrixOverField.nullspace`; no cocycle basis is built.  The
    system may be a :func:`relator_system` reduced onto a factor of its
    modulus, or a leaf's echelon rows with a :func:`longitude_row`
    below them, from which the elimination resumes."""
    return system.nullspace()



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


def _in_tau(form: LaurentPoly, shift: int) -> LaurentPoly:
    """t^shift times ``form``, a Laurent polynomial in t, as one in tau."""
    return LaurentPoly.from_terms(tau_terms(form.terms(), shift))


def _in_t(value: LaurentPoly, shift: int) -> LaurentPoly:
    """t^shift times ``value``, a Laurent polynomial in tau, as one in t."""
    return LaurentPoly.from_terms({2 * e + shift: c for e, c in value.terms().items()})


def _alpha_beta_parts(word: Word, rep: MeridianRep) -> Tuple[Tuple, Tuple]:
    """The alpha and beta parts of z(word) in the basis (v+, t v0, v-),
    where z(x) = (0, alpha, beta) and z(y) = (0, alpha, 0) in the basis
    (v+, v0, v-) read z(x) = (0, alpha/t, beta), z(y) = (0, alpha/t, 0):
    column 1 of Mx plus column 1 of My, per unit of alpha/t, and column
    2 of Mx."""
    mx, my = word_value_blocks(word, rep)
    alpha = tuple([mx.rows[i][1] + my.rows[i][1] for i in range(3)])
    beta = tuple([mx.rows[i][2] for i in range(3)])
    return alpha, beta


def _word_adjoint(word: Word, rep: MeridianRep) -> Mat3:
    """Ad of the image of ``word``.  A coboundary z(g) = (Ad(g) - 1) V
    satisfies the cocycle law, so (Ad(word) - 1) V = Mx (Ad(x) - 1) V +
    My (Ad(y) - 1) V for every V."""
    mx, my = word_value_blocks(word, rep)
    one = Mat3.identity()
    return one + mx @ (rep.ad_x - one) + my @ (rep.ad_y - one)


def family_cocycle_forms(j: int) -> FamilyCocycleForms:
    """Closed forms for z(w), z(v) and the two geometric-sum matrices of
    the family, each mapped into the basis (v+, t v0, v-) and into tau
    and verified against the walks over Q[tau, tau^-1]."""
    if j < 1:
        raise ValueError(f"family index must be >= 1, got {j}")
    (omega1_alpha, omega2_beta, nu2_beta, omega3_beta, nu3_beta,
     sum_u, sum_s) = _family_closed_forms(j)

    ring = LaurentRing()
    rep = MeridianRep(ring)
    ew_alpha, ew_beta = _alpha_beta_parts(family_word(j), rep)
    ev_alpha, ev_beta = _alpha_beta_parts(family_v(j), rep)

    # A closed form c_i of coordinate i, per unit of alpha or of beta, is
    # t^(1 - d_i) c_i or t^-d_i c_i in the basis (v+, t v0, v-).
    zero = ring.zero
    checks = [
        ("z(w) v+ alpha part", ew_alpha[0], omega1_alpha, 1),
        ("z(w) v0 alpha part", ew_alpha[1], zero, 0),
        ("z(w) v- alpha part", ew_alpha[2], zero, 1),
        ("z(w) v0 beta part", ew_beta[1], omega2_beta, -1),
        ("z(w) v- beta part", ew_beta[2], omega3_beta, 0),
        ("z(v) v0 alpha part", ev_alpha[1], zero, 0),
        ("z(v) v- alpha part", ev_alpha[2], zero, 1),
        ("z(v) v0 beta part", ev_beta[1], nu2_beta, -1),
        ("z(v) v- beta part", ev_beta[2], nu3_beta, 0),
    ]
    for label, computed, closed, shift in checks:
        if computed != _in_tau(closed, shift):
            raise ClosedFormMismatch(
                f"{label} disagrees at j={j}: {_in_t(computed, -shift)!r} != {closed!r}"
            )
    for name, word, closed in (("u", FAMILY_U, sum_u), ("s", FAMILY_S, sum_s)):
        expected = Mat3([
            [_in_tau(ring.coerce(e), _T_POWERS[c] - _T_POWERS[r]) for c, e in enumerate(row)]
            for r, row in enumerate(closed.rows)
        ])
        if _geometric_sum(_word_adjoint(word, rep), j) != expected:
            raise ClosedFormMismatch(f"geometric sum over {name} disagrees at j={j}")

    return FamilyCocycleForms(
        omega1_alpha=omega1_alpha,
        omega2_beta=omega2_beta,
        omega3_beta=omega3_beta,
        nu2_beta=nu2_beta,
        nu3_beta=nu3_beta,
        sum_u=sum_u,
        sum_s=sum_s,
        h_beta=_in_t(ew_beta[0], 0),
        nu1_alpha=_in_t(ev_alpha[0], -1),
        nu1_beta=_in_t(ev_beta[0], 0),
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
