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
:func:`knot_rows` checks that on the branch, as it checks the relator.
lambda commutes with x, so for a knot cocycle z, z(x lambda) =
z(lambda x) gives (Ad x - 1) z(lambda) = (Ad lambda - 1) z(x) = 0:
z(lambda) lies in the line t v0 that Ad(x) fixes (see below), so its
coordinates 0 and 2, longitude rows 0 and 2 applied to z, vanish on
every knot cocycle.  The filled system is the knot rows plus longitude
row 1, all built and checked once on a branch and reduced onto its
leaves.

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

The rigidity checks take no word's blocks: one walk of w per knot
(:func:`knot_walk`) gives every relator and longitude row.  The
relator is r = x w y^-1 w^-1 and the longitude lambda = c w v with
c = x^-2n, n the exponent sum of w, so for W the image of w the
cocycle law gives

    Mx(r) = I + (Ad x - Ad r) Mx(w),
    My(r) = (Ad x - Ad r) My(w) - Ad(x W y^-1),
    M(lambda) = M(c) + Ad(c) (M(w) + Ad(W) M(v)).

On a branch the relator maps to the identity, so Ad r = 1 and
x W y^-1 = W: Ad(x) - 1 and Ad(W), read off n, u and u^2 of w, turn
w's blocks into the relator's rows.  Row 1 of Ad(c) = diag(tau^-2n, 1,
tau^2n) is (0, 1, 0), and row 1 of M(c) is -2n in entry 11 of Mx
alone, so row 1 of M(lambda) is that plus row 1 of M(w) + Ad(W) M(v):
x11 = -n, y11 = n and
x12(lambda) = x12(w) + x12(v) + tau^-n (u/t) x22(v), the same with y,
in the basis (v+, t v0, v-).

v is w spelled backwards, and e_i = e_(p-i) (see ``twobridge``), so v
is w with x and y exchanged (``Word.generators_exchanged``, which
``verify-family`` checks): v's letter at each position has the sign
and the prefix exponent sum of w's.  One pass over w's letters
(:func:`_riley_walk`) therefore sums the prefix adjoints of both, and
v's counts are w's exchanged, so x22(v) = y22(w) and y22(v) = x22(w).
The walk's p - 1 letters replace the 2p of the relator, walked twice
(for its blocks and its identity check), and the about 2p of the
longitude, and every factor of the Alexander polynomial reads the same
walk.

Every check the word walks made is kept (:func:`knot_rows`), on every
branch: the relator residue (tau - 1) u/t - tau^n, exactly b/t of the
relator's image, must vanish mod F (ValueError, from
``reps.burde_de_rham_assignment``); every knot row must kill every
coboundary (AssertionError); the longitude's image, composed as
c W V, must be the identity, with exponent sum x11 + y11 = 0 and
b/t = tau^-n u_v/t + tau^-2n u/t = 0 mod F, u_v = t^n b_v for v
(ValueError); and its row must kill every coboundary.  The relator
and longitude words, walked letter by letter, are the oracles of the
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
product per row, which :func:`knot_rows` checks on every row it builds,
on the branch.

Those rows have zero columns 0 and 3, and column 4 is tau - 1 times
column 2 plus column 5.  So :func:`knot_rows` keeps only the live
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
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .polynomials import LaurentPoly
from .quotient import (
    LaurentRing,
    MatrixOverField,
    ModulusBranch,
    NullspaceResult,
    _unpack,
)
from .reps import (
    IntLaurent,
    Mat3,
    MeridianRep,
    burde_de_rham_assignment,
    f_upper_entry,
    tau_terms,
)
from .twobridge import FAMILY_S, FAMILY_U, KnotPresentation, family_v, family_word
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


class _WalkSums(NamedTuple):
    """The sums of :func:`_riley_walk`, indexed by j = m - low for the
    prefix exponent sums m of w in [low, high - 1].  ``u``, the packed
    sums and the entries of ``u_sums`` and ``v_u_sums`` are in the odd
    layout, ``u_squared`` and the entries of ``u_squared_sums`` in the
    even one (see :func:`_block_terms`); each pair is (x, y)."""

    low: int
    n: int
    width: int
    u: int
    u_squared: int
    u_v: int
    counts: Tuple[List[int], List[int]]
    u_sums: Tuple[List[int], List[int]]
    u_squared_sums: Tuple[List[int], List[int]]
    v_u_sums: Tuple[List[int], List[int]]


def _riley_walk(letters) -> _WalkSums:
    """One integer walk of the letters of w, y^e1 x^e2 ... x^e(p-1),
    that sums the prefix adjoints of w and of v, as :func:`_block_terms`
    does for one word.

    v is w with x and y exchanged (see the module docstring), so its
    letter at each position has the sign and the prefix exponent sum m
    of w's letter there: a y letter of w is an x letter of v and the
    reverse.  One pass over the exponent pairs (y^e, x^e') keeps u and
    u^2 for w and u_v = t^n b_v for v, and adds, per generator g of w
    and per m, the count c_m and the signed sums U_m of u and V_m of
    u^2, and, per generator of v, the signed sum of u_v.  v's counts
    are w's with x and y exchanged and need no sum of their own.  One
    slot width serves everything that :func:`knot_walk` builds from the
    sums: for w of L letters no packed coefficient there exceeds 4 L^3
    in absolute value (the sums of V_m reach L^3, as in
    :func:`_block_terms`)."""
    low, high = _exponent_range(letters)
    span = high - low
    width = ((4 * len(letters) ** 3).bit_length() + 8) & -8
    ones = [1 << (width * j) for j in range(span)]
    squares = [1 << (2 * width * j) for j in range(span)]
    shifts = [width * j + 1 for j in range(span)]
    cx, cy = [0] * span, [0] * span  # counts of w's x and y letters
    ux, uy = [0] * span, [0] * span  # sums of u
    sx, sy = [0] * span, [0] * span  # sums of u^2
    vx, vy = [0] * span, [0] * span  # sums of u_v at v's x and y letters
    j = -low
    u = u_squared = u_v = 0
    for (_, a), (_, b) in zip(letters[0::2], letters[1::2]):
        # w's y^a is v's x^a; only w's u moves.
        if a > 0:
            cy[j] += 1
            uy[j] += u
            sy[j] += u_squared
            vx[j] += u_v
            u_squared += (u << shifts[j]) + squares[j]
            u += ones[j]
            j += 1
        else:
            j -= 1
            u -= ones[j]
            u_squared -= (u << shifts[j]) + squares[j]
            cy[j] -= 1
            uy[j] -= u
            sy[j] -= u_squared
            vx[j] -= u_v
        # w's x^b is v's y^b; only v's u moves.
        if b > 0:
            cx[j] += 1
            ux[j] += u
            sx[j] += u_squared
            vy[j] += u_v
            u_v += ones[j]
            j += 1
        else:
            j -= 1
            u_v -= ones[j]
            cx[j] -= 1
            ux[j] -= u
            sx[j] -= u_squared
            vy[j] -= u_v
    return _WalkSums(
        low, j + low, width, u, u_squared, u_v,
        (cx, cy), (ux, uy), (sx, sy), (vx, vy),
    )


def _unpack_terms(polys: Sequence[Tuple[int, int]], width: int) -> List[IntLaurent]:
    """The Laurent polynomials in tau of the packed ``polys``, pairs
    (packed, base) whose slot j holds the coefficient of tau^(base + j),
    all unpacked at once: each takes the next k slots of one sum, where a
    nonzero top slot k - 1 makes |packed| at least 2^(width (k-1) - 1)
    and below 2^(width k), so k = bit_length // width + 1 slots hold
    it, and each slot of the sum holds one coefficient."""
    total = offset = 0
    spans = []
    for packed, base in polys:
        k = abs(packed).bit_length() // width + 1
        total += packed << (width * offset)
        spans.append((offset, k, base))
        offset += k
    coeffs = _unpack(total, width, offset)
    return [
        {base + j: c for j, c in enumerate(coeffs[start:start + k]) if c}
        for start, k, base in spans
    ]


def _aligned(a: int, base_a: int, b: int, base_b: int, width: int) -> Tuple[int, int]:
    """The sum of the packed polynomials ``a`` and ``b`` whose slots 0
    hold tau^base_a and tau^base_b, with the lower base: one shift."""
    if base_a > base_b:
        return (a << (width * (base_a - base_b))) + b, base_b
    return a + (b << (width * (base_b - base_a))), base_a


class KnotWalk(NamedTuple):
    """What the rigidity checks of a knot read off its presentation, one
    walk of w for all its branches (see :func:`knot_walk`): the exponent
    sums x11 = -n and y11 = n of the longitude, for n that of w, and
    integer Laurent polynomials in tau, all in the basis (v+, t v0, v-):
    the relator residue, b/t for the longitude image
    [[1, b], [0, 1]], the knot rows (a0, a1, a2, b0, b1, b2 of row 0,
    b2 of row 1, a2 and b2 of row 2; the other entries are constants),
    and the entries x12 and y12 of the longitude row."""

    x11: int
    y11: int
    relator: IntLaurent
    longitude: IntLaurent
    rows: Tuple[IntLaurent, ...]
    row: Tuple[IntLaurent, IntLaurent]


def knot_walk(pres: KnotPresentation) -> KnotWalk:
    """The relator and longitude rows of ``pres`` over Z[tau, tau^-1]
    from one walk of w (:func:`_riley_walk`), by the cocycle law (see
    the module docstring).  With n, u = t^n b and u^2 from w's image
    and the (tau - 1) and (1/tau - 1) of Ad(x) - 1, each is a packed
    sum of the walk's sums, shifted by a slot and subtracted where a
    factor tau - 1 or 1/tau - 1 stands, and all are unpacked together:

    - the relator residue (tau - 1) u/t - tau^n;
    - row 0: a0 = 1 + (tau - 1) x00, a1 = (tau - 1) x01, a2 = (tau - 1)
      x02, b0 = (tau - 1) y00 - tau^n, b1 = (tau - 1) y01 + 2 t u and
      b2 = (tau - 1) y02 + tau^-n u^2;
    - row 1: (0, 1, 0 | 0, -1, -tau^-n u/t);
    - row 2: a2 = 1 + (1/tau - 1) x22, b2 = (1/tau - 1) y22 - tau^-n;
    - the longitude image b/t = tau^-n u_v/t + tau^-2n u/t;
    - the longitude row x12(w) + x12(v) + tau^-n (u/t) x22(v), and the
      same with y, where x22(v) = y22(w) and y22(v) = x22(w), and the
      product is one packed multiply.

    x_ij and y_ij are the entries of w's blocks in the basis
    (v+, t v0, v-)."""
    sums = _riley_walk(pres.w.letters)
    low, n, width = sums.low, sums.n, sums.width
    u, u_squared, u_v = sums.u, sums.u_squared, sums.u_v
    (cx, cy), (ux, uy), (sx, sy), (vx, vy) = (
        sums.counts, sums.u_sums, sums.u_squared_sums, sums.v_u_sums
    )
    high = low + len(cx)
    top = high - 1
    # The sums over m of t^-2m S_m, by Horner from m = low: slot top - m
    # holds S_m.
    x12 = y12 = x02 = y02 = x22 = y22 = 0
    for a, b, c, d, e, f, g, h in zip(ux, vx, uy, vy, sx, sy, cx, cy):
        x12 = (x12 << width) + a + b
        y12 = (y12 << width) + c + d
        x02 = (x02 << width) + e
        y02 = (y02 << width) + f
        x22 = (x22 << width) + g
        y22 = (y22 << width) + h
    # The sums over m of t^2m c_m, from m = top down: slot m - low holds
    # c_m.
    x00 = y00 = 0
    for g, h in zip(reversed(cx), reversed(cy)):
        x00 = (x00 << width) + g
        y00 = (y00 << width) + h
    x01, y01 = sum(ux), sum(uy)

    def one(k: int) -> int:
        return 1 << (width * k)

    def tau_minus_one(p: int) -> int:
        return (p << width) - p

    # Bases, as powers of tau: low for u/t and for entries 00, low + 1
    # for t u and entries 01, 2 low + 1 - top for entries 02,
    # 2 low + 1 for u^2, -top for entries 22 and low - top for 12.
    relator, longitude, *rows, x12_row, y12_row = _unpack_terms([
        (tau_minus_one(u) - one(n - low), low),
        _aligned(u_v, low - n, u, low - 2 * n, width),
        (tau_minus_one(x00) + one(-low), low),
        (-2 * tau_minus_one(x01), low + 1),
        (-tau_minus_one(x02), 2 * low + 1 - top),
        (tau_minus_one(y00) - one(n - low), low),
        (2 * (u - tau_minus_one(y01)), low + 1),
        _aligned(-tau_minus_one(y02), 2 * low + 1 - top, u_squared, 2 * low + 1 - n, width),
        (-u, low - n),
        (x22 - (x22 << width) + one(high), -high),
        (y22 - (y22 << width) - one(high - n), -high),
        _aligned(x12, low - top, u * y22, low - top - n, width),
        _aligned(y12, low - top, u * x22, low - top - n, width),
    ], width)
    return KnotWalk(-n, n, relator, longitude, tuple(rows), (x12_row, y12_row))


_LONGITUDE_OFF_IDENTITY = (
    "longitude does not map to the identity on this branch: its rows 0 "
    "and 2 would not vanish on the knot cocycles"
)


def knot_rows(walk: KnotWalk, branch: ModulusBranch) -> Tuple[MatrixOverField, Tuple]:
    """The knot's relator system over Q[tau]/(F), F the modulus of
    ``branch``, and the longitude's row 1, both in the live columns
    (a1, a2, b2), from the walk of :func:`knot_walk`.

    ``reps.burde_de_rham_assignment`` maps tau and every polynomial of
    the walk into the ring in one ``evaluate`` and checks the relator residue
    first (else ValueError).  Every knot row (a0, a1, a2 | b0, b1, b2)
    is then checked to kill every coboundary, a0 = b0 = 0 and
    b1 = (tau - 1)(a2 + b2) (else AssertionError).  The longitude must
    map to the identity: its exponent sum x11 + y11 must vanish, and b/t
    mod F (else ValueError).  Last its row is checked, y11 =
    (tau - 1)(x12 + y12) (its entries 10 vanish in every block)."""
    ring, tau, values = burde_de_rham_assignment(
        branch, (walk.relator, walk.longitude, *walk.rows, *walk.row)
    )
    longitude, a0, a1, a2, b0, b1, b2, b2_1, a2_2, b2_2, x12, y12 = values
    zero, one = ring.zero, ring.one
    tau_minus_one = tau - 1
    rows = (
        (a0, a1, a2, b0, b1, b2),
        (zero, one, zero, zero, -one, b2_1),
        (zero, zero, a2_2, zero, zero, b2_2),
    )
    for a0, a1, a2, b0, b1, b2 in rows:
        if a0 or b0 or b1 != tau_minus_one * (a2 + b2):
            raise AssertionError("a coboundary escaped the cocycle space")
    if walk.x11 + walk.y11 or longitude:
        raise ValueError(_LONGITUDE_OFF_IDENTITY)
    if tau_minus_one * (x12 + y12) != walk.y11:
        raise AssertionError("a coboundary escaped the cocycle space")
    knot = MatrixOverField([(a1, a2, b2) for _, a1, a2, _, _, b2 in rows], ring)
    return knot, (walk.x11, x12, y12)


def cohomology_dims(system: MatrixOverField) -> List[NullspaceResult]:
    """dim H^1 for the presentation with relator system ``system``, one
    record per leaf branch: the nullity ``dim`` of the system on the
    leaf, from its rank under the fraction-free elimination of
    :meth:`MatrixOverField.nullspace`; no cocycle basis is built.  The
    system may be the knot system of :func:`knot_rows` reduced onto a
    factor of its modulus, or a leaf's echelon rows with its longitude row
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
