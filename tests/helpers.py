"""Shared test utilities: the knot census, the letter-by-letter
presentation oracle, random generators, 2x2 matrices and the
adjoint action, the meridian representation over t in the basis
(v+, v0, v-) with its generator images and adjoints, the map of its
blocks into the package's basis (v+, t v0, v-) and into tau = t^2, the
step-by-step word and cocycle oracles, the word walks of the image and
of a longitude row, the relator system, the longitude row and the
relator check built from the words, the Q[t, t^-1] Alexander oracle,
the two Alexander routes walked over the presentation's words and
Hartley's formula, the dict oracle for
Laurent arithmetic, the Sturm chain over Q and the Sturm bisection
oracles of isolation and refinement, the trace check by refinement,
the decimal rounding by Fraction, the floating oracle, the gcd by
integer pseudo-remainders with the square-free part and the root bound
it gives, the Euclidean gcd over Q and Yun's
square-free split over it, the Fraction
oracle for Q[t]/(m) arithmetic (with the extended Euclidean algorithm
over Q), the power-by-power geometric sum, the fixed-space
elimination for H^0, the six-column relator block rows, the six-row
0-filled system, the reduced row echelon form with its kernel basis,
and the cocycle values, coboundaries and normal forms."""

import json
import os
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath as mp

from lodehn import cohomology
from lodehn.cohomology import (
    _LONGITUDE_OFF_IDENTITY,
    _exponent_range,
    _terms,
    word_value_blocks,
)
from lodehn.polynomials import (
    LaurentPoly,
    Poly,
    _cauchy_bound,
    _int_gcd,
    _int_multiple,
    refine_isolating_interval,
)
from lodehn.quotient import LaurentRing, MatrixOverField, QuotientRing, SplitRequired
from lodehn.reps import Mat3, MeridianRep, normalize_alexander, tau_terms
from lodehn.twobridge import KnotPresentation, build_presentation, riley_exponents
from lodehn.words import Word

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def load_fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return json.load(handle)


def census(p_max):
    """One fraction per knot with p <= p_max: the smallest q of its
    class under q ~ -q and q ~ q^-1 mod p."""
    out = []
    for p in range(3, p_max + 1, 2):
        seen = set()
        for q in range(1, p):
            if gcd(p, q) != 1 or q in seen:
                continue
            inv = pow(q, -1, p)
            orbit = {q, p - q, inv, p - inv}
            seen |= orbit
            out.append(f"{p}/{min(orbit)}")
    return out


def presentation_oracle(fraction):
    """``twobridge.build_presentation`` letter by letter: w from the
    validating word constructor, one letter per Riley exponent, the
    relator and the longitude as word products, and the correction
    from the exponent sums of w v counted per generator."""
    exps = riley_exponents(fraction)
    w = Word([("yx"[i % 2], e) for i, e in enumerate(exps)])
    v = w.spelled_backwards()
    x, y = Word.generator("x"), Word.generator("y")
    relator = x * w * y.inverse() * w.inverse()
    wv = w * v
    total = wv.exponent_sum("x") + wv.exponent_sum("y")
    longitude = Word.generator("x", -1 if total > 0 else 1) ** abs(total) * wv
    return KnotPresentation(fraction, w, v, relator, longitude, meridian=x)


def L(terms):
    return LaurentPoly.from_terms(terms)


def random_word(rng, length):
    letters = [
        (rng.choice(("x", "y")), rng.choice((1, -1))) for _ in range(length)
    ]
    return Word(letters)


class Mat2:
    """2x2 matrix with entries in any ring supporting + - * and int mixing."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def __matmul__(self, other):
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return (
            self.a == other.a and self.b == other.b
            and self.c == other.c and self.d == other.d
        )

    def is_identity(self):
        return self.a == 1 and self.b == 0 and self.c == 0 and self.d == 1

    def __repr__(self):
        return f"Mat2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def adjoint(m):
    """Conjugation action of a determinant-1 matrix on sl2 in the basis
    v+ = [[0,1],[0,0]], v0 = [[1,0],[0,-1]], v- = [[0,0],[1,0]]."""
    if m.det() != 1:
        raise ValueError("adjoint requires determinant 1")
    a, b, c, d = m.a, m.b, m.c, m.d
    return Mat3((
        (a * a, -2 * (a * b), -(b * b)),
        (-(a * c), a * d + b * c, b * d),
        (-(c * c), 2 * (c * d), d * d),
    ))


class TBasisRep:
    """The meridian representation x -> [[t,0],[0,1/t]],
    y -> [[t,1],[0,1/t]] over ``ring``, Q[t]/(m) or Q[t, t^-1], with the
    adjoints of the generator images in the basis (v+, v0, v-): the
    oracle that ``reps.MeridianRep``, the adjoint in the basis
    (v+, t v0, v-) over Q[tau], is checked against."""

    __slots__ = ("ring", "t", "t_inverse", "ad_x", "ad_y")

    def __init__(self, ring):
        self.ring = ring
        t, t_inverse, t2, t_2 = ring.evaluate([{1: 1}, {-1: 1}, {2: 1}, {-2: 1}])
        self.t, self.t_inverse = t, t_inverse
        zero, one = ring.zero, ring.one
        self.ad_x = Mat3(((t2, zero, zero), (zero, one, zero), (zero, zero, t_2)))
        self.ad_y = Mat3(((t2, -2 * t, -one), (zero, one, t_inverse), (zero, zero, t_2)))


def image_terms(word):
    """n and the upper-right entry b of the image [[t^n, b], [0, t^-n]]
    of ``word``.  A letter y^sign at prefix exponent sum m adds
    sign t^(2m+1) to u = t^n b, with m taken before the letter for
    sign +1 and after it for sign -1; at the end b = t^-n u."""
    n = 0
    u = {}
    for gen, sign in word.letters:
        if gen == "y":
            e = 2 * n + sign  # 2m + 1 for either sign
            u[e] = u.get(e, 0) + sign
        n += sign
    return n, {e - n: c for e, c in u.items() if c}


def row_terms(word):
    """n and u = t^n b of the image [[t^n, b], [0, t^-n]] of ``word``,
    and entry 12 of the x block and of the y block of ``word`` in the
    basis (v+, v0, v-), in t: the walk of ``cohomology._block_terms``
    without u^2, whose final n and u are those of the whole word.  The
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
    groups = {"x": {}, "y": {}}
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


def burde_de_rham_oracle(branch, relator):
    """The representation of ``reps.burde_de_rham_assignment`` on
    ``branch``, with the relator's identity checked on the word: its
    image [[t^n, b], [0, t^-n]] from :func:`image_terms` must have
    n = 0 and b/t = 0 mod F, else the same ValueError."""
    rep = MeridianRep(QuotientRing(branch))
    n, b = image_terms(relator)
    if n or rep.ring.evaluate([tau_terms(b, -1)])[0]:
        raise ValueError(
            "relator does not map to the identity on this branch: the "
            "modulus does not divide the Alexander polynomial"
        )
    return rep


def relator_system(relators, rep):
    """The knot system of ``cohomology.knot_rows`` from the words: the
    live columns (a1, a2, b2) of the stacked 3x6 blocks of
    ``cohomology.word_value_blocks``, one per relator (a single zero row
    when there are none); the nullity is dim H^1 of the presented
    group.  Every block row (a0, a1, a2 | b0, b1, b2) is checked first
    to kill every coboundary, a0 = b0 = 0 and b1 = (tau - 1)(a2 + b2),
    else the same AssertionError.  The blocks are looked up in
    ``cohomology`` at call time, where a test may patch them."""
    tau_minus_one = rep.tau - 1
    rows = []
    for relator in relators:
        mx, my = cohomology.word_value_blocks(relator, rep)
        for (a0, a1, a2), (b0, b1, b2) in zip(mx.rows, my.rows):
            if a0 or b0 or b1 != tau_minus_one * (a2 + b2):
                raise AssertionError("a coboundary escaped the cocycle space")
            rows.append((a1, a2, b2))
    return MatrixOverField(rows or [(rep.ring.zero,) * 3], rep.ring)


def longitude_row(longitude, rep):
    """The longitude row of ``cohomology.knot_rows`` from the word: the
    live columns (x11, x12, y12) of row 1 of the longitude's blocks,
    x11 and y11 its exponent sums and x12, y12 from :func:`row_terms`
    in the basis (v+, t v0, v-) and in tau.  Its image must have n = 0
    and b/t = 0 mod F (else the same ValueError), and its row must pass
    y11 = (tau - 1)(x12 + y12) (else the same AssertionError)."""
    n, u, x12, y12 = row_terms(longitude)
    if n:
        raise ValueError(_LONGITUDE_OFF_IDENTITY)
    b, x12, y12 = rep.ring.evaluate([tau_terms(terms, -1) for terms in (u, x12, y12)])
    if b:
        raise ValueError(_LONGITUDE_OFF_IDENTITY)
    if (rep.tau - 1) * (x12 + y12) != longitude.exponent_sum("y"):
        raise AssertionError("a coboundary escaped the cocycle space")
    return longitude.exponent_sum("x"), x12, y12


def meridian_walk(word, rep):
    """The image of ``word`` under the :class:`TBasisRep` ``rep``, from
    the integer walk ``image_terms`` and one evaluation at t per
    entry."""
    n, b = image_terms(word)
    ring = rep.ring
    t_n, b_value, t_minus_n = ring.evaluate([{n: 1}, b, {-n: 1}])
    return Mat2(t_n, b_value, ring.zero, t_minus_n)


def to_tau_basis(matrix, ring=None):
    """A Mat3 over Q[t, t^-1] or Q[t]/(F(t^2)), in the basis (v+, v0, v-),
    in the basis (v+, t v0, v-) and in tau = t^2: conjugated by
    diag(1, t, 1), so entry 01 is multiplied by t and entry 12 divided
    by t, and then every exponent halved; an odd exponent fails.
    LaurentPoly entries give LaurentPolys in tau, ring elements give
    elements of ``ring``, Q[tau]/(F)."""
    powers = (0, 1, 0)
    out = []
    for r, row in enumerate(matrix.rows):
        mapped = []
        for c, entry in enumerate(row):
            shift = powers[c] - powers[r]
            if isinstance(entry, int):  # entries the oracles never multiplied
                assert shift == 0 or entry == 0, f"odd exponent in {entry!r}"
                mapped.append(ring.coerce(entry) if ring is not None else L({0: entry}))
                continue
            if isinstance(entry, LaurentPoly):
                terms = {e + shift: v for e, v in entry.terms().items()}
                assert all(e % 2 == 0 for e in terms), f"odd exponent in {entry!r}"
                mapped.append(L({e // 2: v for e, v in terms.items()}))
                continue
            (t_shift,) = QuotientRing(entry.branch).evaluate([{shift: 1}])
            value = (entry * t_shift).value
            assert not any(value.coeffs[1::2]), f"odd exponent in {value!r}"
            mapped.append(ring.coerce(Poly(value.coeffs[0::2])))
        out.append(mapped)
    return Mat3(out)


def generator_images(rep):
    """The images of x^+-1 and y^+-1 under the meridian representation
    ``rep``, keyed by (generator, sign), built from ``rep.t`` and
    ``rep.t_inverse``."""
    t, t_inverse = rep.t, rep.t_inverse
    zero, one = rep.ring.zero, rep.ring.one
    return {
        ("x", 1): Mat2(t, zero, zero, t_inverse),
        ("x", -1): Mat2(t_inverse, zero, zero, t),
        ("y", 1): Mat2(t, one, zero, t_inverse),
        ("y", -1): Mat2(t_inverse, -one, zero, t),
    }


def generator_adjoints(rep):
    """The adjoints of the four images of :func:`generator_images`."""
    return {key: adjoint(m) for key, m in generator_images(rep).items()}


def eval_word_matrix(word, rep):
    """Product of generator images in word order; empty word gives the
    identity."""
    images = generator_images(rep)
    m = Mat2.identity()
    for gen, sign in word:
        m = m @ images[(gen, sign)]
    return m


@dataclass(frozen=True)
class CocycleValues:
    """Values on x and y, coordinates in the basis v+, v0, v-."""

    z_x: tuple
    z_y: tuple

    def value(self, gen):
        return self.z_x if gen == "x" else self.z_y


def coboundary_values(v, rep):
    """The coboundary of V: gamma -> (Ad gamma - 1) V on the generators."""
    dx = tuple(rep.ad_x.apply(v)[i] - v[i] for i in range(3))
    dy = tuple(rep.ad_y.apply(v)[i] - v[i] for i in range(3))
    return CocycleValues(dx, dy)


def normalized_representative(z, rep):
    """Correct z by a coboundary so that z(x) = (0, a, b) and
    z(y) = (0, d, 0), in the basis of ``rep``: a ``TBasisRep`` or a
    ``reps.MeridianRep`` over a quotient ring.

    Both bases make Ad(x) - 1 = diag(p - 1, 0, 1/p - 1) and
    Ad(y) - 1 = [[p - 1, k, -1], [0, 0, l], [0, 0, 1/p - 1]], with
    (p, k, l) = (t^2, -2t, 1/t) or (tau, -2 tau, 1/tau).  tau and tau - 1
    are units on every branch, which makes the three coboundary
    parameters solvable; the inverses come from ``QuotientOracle``.
    For a cocycle of a knot relator the corrected values satisfy d = a;
    callers verify that rather than assume it.
    """
    if not isinstance(rep.ring, QuotientRing):
        raise TypeError("normalization needs quotient-ring coefficients")
    ring = rep.ring

    def inverse(x):
        return ring.coerce(QuotientOracle(ring.branch, x.value).inverse().value)

    x_minus_1 = (rep.ad_x.rows[0][0] - 1, rep.ad_x.rows[2][2] - 1)
    k, l = rep.ad_y.rows[0][1], rep.ad_y.rows[1][2]
    a = z.z_x[0] * inverse(x_minus_1[0])
    c = z.z_y[2] * inverse(x_minus_1[1])
    b = (z.z_y[0] - x_minus_1[0] * a + c) * inverse(k)
    dx = (x_minus_1[0] * a, ring.zero, x_minus_1[1] * c)
    dy = (x_minus_1[0] * a + k * b - c, l * c, x_minus_1[1] * c)
    out = CocycleValues(
        tuple(ring.coerce(z.z_x[i]) - dx[i] for i in range(3)),
        tuple(ring.coerce(z.z_y[i]) - dy[i] for i in range(3)),
    )
    if not (out.z_x[0].is_zero and out.z_y[0].is_zero and out.z_y[2].is_zero):
        raise AssertionError("coboundary correction failed to normalize")
    return out


def eval_cocycle(word, z, rep):
    """Extend the generator values ``z`` (a ``CocycleValues``) along
    ``word`` by the cocycle law z(gh) = z(g) + g.z(h),
    z(g^-1) = -Ad(g^-1) z(g), letter by letter."""
    ads = generator_adjoints(rep)
    val = (rep.ring.zero,) * 3
    acc = Mat3.identity()
    for gen, sign in word:
        zg = z.value(gen)
        if sign > 0:
            step = acc.apply(zg)
            val = tuple(val[i] + step[i] for i in range(3))
            acc = acc @ ads[(gen, 1)]
        else:
            acc = acc @ ads[(gen, -1)]
            step = acc.apply(zg)
            val = tuple(val[i] - step[i] for i in range(3))
    return tuple(rep.ring.coerce(v) for v in val)


def alexander_via_rep_oracle(fraction):
    """``reps.alexander_via_rep`` over Q[t, t^-1]: the upper-right entry
    of x W - W y as a LaurentPoly, W the image of w, then t^2 -> t and
    the shift, denominators and sign of the canonical representative."""
    pres = build_presentation(fraction)
    rep = TBasisRep(LaurentRing())
    images = generator_images(rep)
    pw = meridian_walk(pres.w, rep)
    difference = (images[("x", 1)] @ pw).b - (pw @ images[("y", 1)]).b
    terms = difference.terms()
    assert terms and all(e % 2 == 0 for e in terms)
    deflated = LaurentPoly.from_terms({e // 2: c for e, c in terms.items()})
    return deflated.shift(-deflated.valuation).to_poly().primitive()


def alexander_via_rep_word(fraction):
    """``reps.alexander_via_rep`` on the word: the image of the
    presentation's ``w`` through ``image_terms``, then the
    upper-right entry (t - 1/t) b - t^n of x W - W y, halved exponents
    and the shared normalizer."""
    n, b = image_terms(build_presentation(fraction).w)
    difference = {n: -1}
    for k, c in b.items():
        difference[k + 1] = difference.get(k + 1, 0) + c
        difference[k - 1] = difference.get(k - 1, 0) - c
    difference = {e: c for e, c in difference.items() if c}
    assert difference and all(e % 2 == 0 for e in difference)
    return normalize_alexander({e // 2: c for e, c in difference.items()})


def alexander_via_fox_word(fraction):
    """``reps.alexander_via_fox`` on the word: the free derivative of
    the presentation's relator x w y^-1 w^-1 with respect to x,
    abelianized letter by letter (t^m for x at prefix exponent sum m,
    -t^(m-1) for x^-1)."""
    terms = {}
    total = 0
    for gen, sign in build_presentation(fraction).relator:
        if gen == "x":
            if sign > 0:
                terms[total] = terms.get(total, 0) + 1
            else:
                terms[total - 1] = terms.get(total - 1, 0) - 1
        total += sign
    return normalize_alexander(terms)


def alexander_hartley(fraction):
    """The Alexander polynomial by Hartley's formula for two-bridge
    knots (Hartley, "On two-bridged knot polynomials", J. Austral. Math.
    Soc. 1979): Delta(t) = sum over i = 0..p-1 of (-1)^i t^(s_i), up to
    a unit, with s_0 = 0 and s_i = e_1 + ... + e_i the partial sums of
    the Riley exponents."""
    terms = {0: 1}
    s = 0
    for i, e in enumerate(riley_exponents(fraction), 1):
        s += e
        terms[s] = terms.get(s, 0) + (-1) ** i
    return normalize_alexander(terms)


def laurent_dict_add(a, b):
    """Sum of two Laurent polynomials given as {exponent: Fraction}
    dicts with no zero values."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: Fraction(c) for e, c in out.items() if c}


def laurent_dict_mul(a, b):
    """Product of two Laurent polynomials given as {exponent: Fraction}
    dicts with no zero values, term by term."""
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: Fraction(c) for e, c in out.items() if c}


def laurent_dict_value(a, x):
    """Value at the rational ``x`` of a {exponent: Fraction} dict."""
    return sum((c * Fraction(x) ** e for e, c in a.items()), Fraction(0))


def word_value_blocks_oracle(word, rep):
    """The pair (Mx, My) of ``cohomology.word_value_blocks`` by the
    letter-by-letter product of 3x3 adjoint matrices over ``rep.ring``."""
    ads = generator_adjoints(rep)
    mx = Mat3.zero()
    my = Mat3.zero()
    acc = Mat3.identity()
    for gen, sign in word:
        if sign > 0:
            if gen == "x":
                mx = mx + acc
            else:
                my = my + acc
            acc = acc @ ads[(gen, 1)]
        else:
            acc = acc @ ads[(gen, -1)]
            if gen == "x":
                mx = mx - acc
            else:
                my = my - acc
    return mx, my


def h0_oracle(system_ring, rep):
    """H^0 by elimination: the common fixed space of ``rep.ad_x`` and
    ``rep.ad_y`` over ``system_ring``, one nullspace result per leaf
    (``dim`` is dim H^0 there)."""
    rows = [
        [ad.rows[i][j] - (1 if i == j else 0) for j in range(3)]
        for ad in (rep.ad_x, rep.ad_y)
        for i in range(3)
    ]
    return MatrixOverField(rows, system_ring).nullspace()


def relator_block_rows(relators, rep):
    """The full block rows (a0, a1, a2 | b0, b1, b2) of ``relators``,
    three per relator, from ``cohomology.word_value_blocks``: the rows
    that ``relator_system`` checks against the coboundaries before it
    keeps the columns (a1, a2, b2).  Their nullity is dim Z^1."""
    rows = []
    for relator in relators:
        mx, my = word_value_blocks(relator, rep)
        rows += [mx.rows[i] + my.rows[i] for i in range(3)]
    return rows


def six_row_filled_leaves(pres, rep):
    """(leaf modulus, split lineage, dim H^1) per leaf of the six-row
    0-filled system: on each leaf of the knot rows, the knot rows and
    all three longitude rows of ``relator_system``, eliminated from
    scratch.  Moduli and lineages are in tau, sorted by leaf modulus."""
    knot = relator_system([pres.relator], rep)
    longitude = relator_system([pres.longitude], rep)
    leaves = []
    for knot_leaf in knot.nullspace():
        filled = MatrixOverField(knot.entries + longitude.entries, knot_leaf.ring)
        leaves += filled.nullspace()
    leaves.sort(key=lambda leaf: leaf.branch.sort_key())
    return [(leaf.branch.modulus, leaf.branch.lineage, leaf.dim) for leaf in leaves]


def echelon_oracle(rows, cols):
    """Reduced row echelon form with deterministic pivoting: for every
    column take the first nonzero entry in row order, scale its row by
    the entry's ``inverse()`` and clear the column in every other row.
    Returns the pivot columns and a kernel basis, one vector per free
    column.  Runs over ``QuotientOracle`` entries, and raises
    :class:`SplitRequired` where an inverse does."""
    work = [list(row) for row in rows]
    pivots = []
    pr = 0
    for col in range(cols):
        sel = None
        for r in range(pr, len(work)):
            if not work[r][col].is_zero:
                sel = r
                break
        if sel is None:
            continue
        inv = work[sel][col].inverse()
        work[pr], work[sel] = work[sel], work[pr]
        work[pr] = [e * inv for e in work[pr]]
        for r in range(len(work)):
            if r != pr and not work[r][col].is_zero:
                f = work[r][col]
                work[r] = [work[r][k] - f * work[pr][k] for k in range(cols)]
        pivots.append(col)
        pr += 1
        if pr == len(work):
            break
    zero = rows[0][0] * 0
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [zero] * cols
        vec[fc] = zero + 1
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(tuple(vec))
    return pivots, basis


def oracle_rows(rows, branch):
    """``rows`` as ``QuotientOracle`` entries on ``branch``: kernel
    elements (of ``branch`` or of a branch whose modulus ``branch``'s
    divides), Polys or rationals."""
    out = []
    for row in rows:
        polys = [
            e if isinstance(e, Poly) else e.value if hasattr(e, "value") else Poly([e])
            for e in row
        ]
        out.append([QuotientOracle(branch, p) for p in polys])
    return out


OracleLeaf = namedtuple("OracleLeaf", "branch rank dim basis")


def nullspace_oracle(rows, branch):
    """The leaves of ``MatrixOverField(rows, QuotientRing(branch))
    .nullspace()`` by :func:`echelon_oracle` over the
    :func:`oracle_rows` of ``rows``: on a split each sub-branch starts
    again from ``rows``.  One ``OracleLeaf`` per leaf, sorted by leaf
    modulus, with the leaf's kernel basis."""
    cols = len(rows[0])
    try:
        pivots, basis = echelon_oracle(oracle_rows(rows, branch), cols)
    except SplitRequired as split:
        leaves = nullspace_oracle(rows, split.low) + nullspace_oracle(rows, split.high)
        return sorted(leaves, key=lambda leaf: leaf.branch.sort_key())
    return [OracleLeaf(branch, len(pivots), cols - len(pivots), basis)]


def leaf_records(results):
    """Modulus, lineage and rank of each leaf of a ``nullspace()`` or a
    ``nullspace_oracle`` result."""
    return [(r.branch.modulus, r.branch.lineage, r.rank) for r in results]


def matrix_times(rows, vector):
    """The product of the matrix ``rows`` with ``vector``."""
    return [sum((a * v for a, v in zip(row, vector)), 0) for row in rows]


def sturm_chain(p):
    """The Sturm chain of ``p`` by Euclid over Q in Fraction arithmetic:
    p, p', then the negated remainders down to the last nonzero one."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def sturm_variations_oracle(chain, x):
    """Sign variations of a Sturm chain of Polys at the rational x, each
    member evaluated once in Fraction arithmetic."""
    signs = [s for s in (((v > 0) - (v < 0)) for v in (q(x) for q in chain)) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count_oracle(p, lo, hi):
    """Distinct real roots of ``p`` in the open interval (lo, hi), both
    finite and non-roots, from the Sturm chain of its square-free part
    evaluated member by member in Fraction arithmetic."""
    chain = sturm_chain(squarefree_part(p))
    return sturm_variations_oracle(chain, lo) - sturm_variations_oracle(chain, hi)


def isolate_real_roots_oracle(p):
    """``polynomials.isolate_real_roots`` as bisection of the Cauchy
    interval (-B, B) with the Sturm chain of ``p`` itself, at full
    degree and in Fraction arithmetic, with the same choice of interior
    non-root."""
    chain = sturm_chain(p)
    if chain[-1].degree > 0:
        raise ValueError("input must be square-free")

    def variations(x):
        signs = [s for s in ((q(x) > 0) - (q(x) < 0) for q in chain) if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    bound = 1 + max(abs(c) for c in p.coeffs[:-1]) / abs(p.leading)
    found, stack = [], [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        count = variations(lo) - variations(hi)
        if count == 1:
            found.append((lo, hi))
        elif count > 1:
            mid, step = (lo + hi) / 2, (hi - lo) / 4
            while p(mid) == 0:
                mid += step
                step /= 2
            stack += [(mid, hi), (lo, mid)]
    return sorted(found)


def refine_isolating_interval_oracle(p, lo, hi, max_width):
    """``polynomials.refine_isolating_interval`` by bisection that
    recounts the roots of the left half at every step, from the Sturm
    chain over Q of p's square-free part, with the same choice of
    interior non-root."""
    chain = sturm_chain(squarefree_part(p))
    var_lo = sturm_variations_oracle(chain, lo)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        step = (hi - lo) / 4
        while p(mid) == 0:
            mid += step
            step /= 2
        var_mid = sturm_variations_oracle(chain, mid)
        if var_lo - var_mid == 1:
            hi = mid
        else:
            lo, var_lo = mid, var_mid
    return lo, hi


def meridian_trace_check_oracle(modulus, intervals):
    """``certify.meridian_trace_check`` by refinement: each isolating
    interval is refined by ``polynomials.refine_isolating_interval``,
    halving its width, until it avoids -1, 0 and 1, so the squared
    interval misses 1.  On a modulus with a root at a unit point the
    refinement never ends."""
    verdicts = []
    for lo, hi in intervals:
        while any(lo < point < hi for point in (-1, 0, 1)):
            lo, hi = refine_isolating_interval(modulus, lo, hi, (hi - lo) / 2)
        if hi <= 0:
            lo, hi = -hi, -lo
        xi_lo, xi_hi = lo * lo, hi * hi
        verdicts.append(xi_hi <= 1 or xi_lo >= 1)
    if not all(verdicts):
        raise AssertionError("trace certification failed on a refined interval")
    return tuple(verdicts)


def decimal_string_oracle(value, digits):
    """``cli.decimal_string`` by Fraction arithmetic: ``value`` times
    10^digits rounded half to even by ``round``."""
    scaled = round(value * 10**digits)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def random_laurent(rng, max_terms=2, span=2, coeff=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-coeff, coeff)
        if c:
            terms[rng.randint(-span, span)] = c
    return LaurentPoly.from_terms(terms)


def random_unimodular_laurent(rng, factors=3):
    """Random product of elementary matrices over Q[t, t^-1]; det = 1."""
    m = Mat2(1, 0, 0, 1)
    for _ in range(factors):
        p = random_laurent(rng)
        if rng.random() < 0.5:
            m = m @ Mat2(1, p, 0, 1)
        else:
            m = m @ Mat2(1, 0, p, 1)
        if rng.random() < 0.3:
            t = LaurentPoly.monomial(rng.choice((-1, 1)))
            m = m @ Mat2(t, 0, 0, t.reciprocal())
    return m


def numeric_roots(modulus, dps=60):
    """All complex roots of a Poly, at high precision."""
    mp.mp.dps = dps
    coeffs = [
        mp.mpf(c.numerator) / mp.mpf(c.denominator)
        for c in reversed(modulus.coeffs)
    ]
    return mp.polyroots(coeffs, maxsteps=500, extraprec=300)


def eval_poly_complex(poly, x):
    acc = mp.mpc(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + mp.mpf(c.numerator) / mp.mpf(c.denominator)
    return acc


def numeric_rank(rows, tol="1e-30"):
    """Rank by Gaussian elimination with partial pivoting on mpmath
    complex entries."""
    work = [list(row) for row in rows]
    if not work:
        return 0
    nrows, ncols = len(work), len(work[0])
    threshold = mp.mpf(tol)
    rank = 0
    for col in range(ncols):
        pivot, best = None, threshold
        for r in range(rank, nrows):
            if abs(work[r][col]) > best:
                pivot, best = r, abs(work[r][col])
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        work[rank] = [e / pv for e in work[rank]]
        for r in range(nrows):
            if r != rank and abs(work[r][col]) > 0:
                f = work[r][col]
                work[r] = [work[r][k] - f * work[rank][k] for k in range(ncols)]
        rank += 1
        if rank == nrows:
            break
    return rank


def system_numeric_rank_at(system, root):
    """Evaluate a quotient-ring matrix at a numeric root of its modulus
    and return the floating rank."""
    rows = [
        [eval_poly_complex(entry.value, root) for entry in row]
        for row in system.entries
    ]
    return numeric_rank(rows)


def poly_gcd(a, b):
    """Monic gcd, by the primitive pseudo-remainder sequence of
    ``polynomials._int_gcd``: both inputs are scaled to integer
    polynomials and every pseudo-remainder is divided by its content, so
    the whole sequence runs on integers and only the final monic
    division builds Fractions."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    return Poly(_int_gcd(_int_multiple(a), _int_multiple(b))).monic()


def squarefree_part(a):
    """Monic product of the distinct irreducible factors of ``a``."""
    if a.is_zero:
        raise ValueError("square-free part of the zero polynomial")
    a = a.monic()
    if a.degree == 0:
        return a
    return a // poly_gcd(a, a.derivative())


def root_bound(p):
    """A rational B with every real root strictly inside (-B, B): the
    Cauchy bound that ``isolate_real_roots`` reads off a root form."""
    if p.is_zero:
        raise ValueError("root bound of the zero polynomial")
    return _cauchy_bound(_int_multiple(p))


def poly_gcd_oracle(a, b):
    """``poly_gcd`` by the Euclidean algorithm over Q in Fraction
    arithmetic."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def squarefree_decomposition_oracle(a):
    """``polynomials.squarefree_decomposition``: Yun's algorithm with
    Fraction divisions and the Euclidean gcd over Q."""
    if a.is_zero:
        raise ValueError("square-free decomposition of the zero polynomial")
    a = a.monic()
    if a.degree == 0:
        return []
    d = a.derivative()
    g = poly_gcd_oracle(a, d)
    out = []
    b = a // g
    c = d // g
    z = c - b.derivative()
    i = 1
    while b.degree > 0:
        fi = poly_gcd_oracle(b, z) if not z.is_zero else b.monic()
        if fi.degree > 0:
            out.append((fi, i))
        b = b // fi
        c = z // fi
        z = c - b.derivative()
        i += 1
    return out


def poly_xgcd(a, b):
    """Return (g, s, u) with g = gcd(a, b) monic and s*a + u*b = g, by
    the extended Euclidean algorithm over Q."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    r0, r1 = a, b
    s0, s1 = Poly([1]), Poly()
    u0, u1 = Poly(), Poly([1])
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    lead = r0.leading
    return r0.monic(), s0 * (1 / lead), u0 * (1 / lead)


class QuotientOracle:
    """``quotient.AlgebraicElement`` in Fraction polynomial arithmetic:
    the reduced representative as a Poly, products reduced by
    ``Poly.divmod`` and inverses by the extended Euclidean algorithm
    over Q."""

    __slots__ = ("branch", "value")

    def __init__(self, branch, value):
        if value.degree >= branch.modulus.degree:
            value = value % branch.modulus
        self.branch = branch
        self.value = value

    @property
    def is_zero(self):
        return self.value.is_zero

    def _coerce(self, other):
        if isinstance(other, QuotientOracle):
            if other.branch != self.branch:
                raise ValueError("mixed moduli in quotient-ring arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return QuotientOracle(self.branch, Poly([other]))
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.value == Poly([other])
        if isinstance(other, QuotientOracle):
            return self.branch == other.branch and self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.branch, self.value))

    def __neg__(self):
        return QuotientOracle(self.branch, -self.value)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuotientOracle(self.branch, self.value + o.value)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuotientOracle(self.branch, self.value - o.value)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuotientOracle(
            self.branch, (self.value * o.value) % self.branch.modulus
        )

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverting zero in a quotient ring")
        g, s, _ = poly_xgcd(self.value, self.branch.modulus)
        if g.degree == 0:
            return QuotientOracle(self.branch, s % self.branch.modulus)
        low, high = self.branch.split(g)
        raise SplitRequired(low, high)


def quotient_evaluate_oracle(branch, polys):
    """``QuotientRing.evaluate`` by QuotientOracle arithmetic: each
    integer Laurent polynomial ``{exponent: coefficient}`` summed term by
    term, t^-1 from the oracle's inverse."""
    t = QuotientOracle(branch, Poly([0, 1]))
    t_inverse = t.inverse()
    out = []
    for poly in polys:
        acc = QuotientOracle(branch, Poly())
        for e, c in poly.items():
            power = QuotientOracle(branch, Poly([1]))
            for _ in range(abs(e)):
                power = power * (t if e > 0 else t_inverse)
            acc = acc + c * power
        out.append(acc)
    return out


def geometric_sum_oracle(m, count):
    """m^0 + m^1 + ... + m^(count-1) for a Mat3, power by power."""
    acc = Mat3.zero()
    power = Mat3.identity()
    for _ in range(count):
        acc = acc + power
        power = power @ m
    return acc
