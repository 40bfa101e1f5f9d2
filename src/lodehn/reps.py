"""SL2 matrices over exact rings, the adjoint action on sl2, the
meridian representation, and two independent Alexander polynomial
computations.

The adjoint is written in the sl2 basis

    v+ = [[0,1],[0,0]],   v0 = [[1,0],[0,-1]],   v- = [[0,0],[1,0]],

so conjugation by [[a,b],[c,d]] becomes the 3x3 matrix

    [ a^2   -2ab       -b^2 ]
    [ -ac   ad + bc     bd  ]
    [ -c^2   2cd        d^2 ].

The meridian representation x -> [[t,0],[0,1/t]], y -> [[t,1],[0,1/t]]
is the only representation here: a :class:`MeridianRep` is that
representation over Q[t]/(m) or Q[t, t^-1].  Both generator images are
upper triangular with monomial diagonals, so the image of a prefix is
[[t^n, b], [0, t^-n]] and its adjoint is

    [ t^2n   -2u   -t^-2n u^2 ]
    [ 0       1     t^-2n u   ]
    [ 0       0     t^-2n     ]      with u = t^n b.

A letter x^+-1 changes only n, and a letter y^+-1 adds the monomial
+-t^(2n+-1) to u, so a word's image comes from one integer walk over
Z[t, t^-1] with one dict update per y letter (:func:`_image_terms`).
No Fraction and no polynomial division is built.  :func:`meridian_walk`
maps each entry into the ring of the representation once, by
evaluation at t.  That map is a ring homomorphism (reduction mod m on
Q[t]/(m), the identity on Q[t, t^-1]), so the image is exactly the
letter-by-letter product over that ring.  The signed sums of prefix
adjoints come from a second walk, which packs u and u^2
(``cohomology.word_value_blocks``).  The representation route of the
Alexander polynomial reads n and b off the image walk and, like the
Fox route, stays in integer ``{exponent: coefficient}`` dicts up to
the shared normalizer.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from .polynomials import LaurentPoly, Poly
from .quotient import LaurentRing, ModulusBranch, QuotientRing
from .twobridge import TwoBridgeFraction, build_presentation
from .words import Word


class Mat2:
    """2x2 matrix with entries in any ring supporting + - * and int mixing."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return (
            self.a == other.a and self.b == other.b
            and self.c == other.c and self.d == other.d
        )

    def is_identity(self) -> bool:
        return self.a == 1 and self.b == 0 and self.c == 0 and self.d == 1

    def __repr__(self) -> str:
        return f"Mat2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


class Mat3:
    """3x3 matrix as a tuple of row tuples; zero entries may stay ints."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple([tuple(row) for row in rows])
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise ValueError("expected a 3x3 entry grid")

    @classmethod
    def identity(cls) -> "Mat3":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    @classmethod
    def zero(cls) -> "Mat3":
        return cls(((0, 0, 0), (0, 0, 0), (0, 0, 0)))

    def __matmul__(self, other: "Mat3") -> "Mat3":
        out = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = 0
                for k in range(3):
                    left, right = self.rows[i][k], other.rows[k][j]
                    if left == 0 or right == 0:
                        continue
                    term = left * right
                    acc = term if acc == 0 else acc + term
                row.append(acc)
            out.append(row)
        return Mat3(out)

    def __add__(self, other: "Mat3") -> "Mat3":
        return Mat3([
            [self.rows[i][j] + other.rows[i][j] for j in range(3)]
            for i in range(3)
        ])

    def __sub__(self, other: "Mat3") -> "Mat3":
        return Mat3([
            [self.rows[i][j] - other.rows[i][j] for j in range(3)]
            for i in range(3)
        ])

    def apply(self, vec) -> Tuple:
        out = []
        for i in range(3):
            acc = 0
            for k in range(3):
                left, right = self.rows[i][k], vec[k]
                if left == 0 or right == 0:
                    continue
                term = left * right
                acc = term if acc == 0 else acc + term
            out.append(acc)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat3):
            return NotImplemented
        return all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(3) for j in range(3)
        )

    def __repr__(self) -> str:
        return f"Mat3({self.rows!r})"


def adjoint(m: Mat2) -> Mat3:
    """Conjugation action of a determinant-1 matrix on sl2 in the basis
    v+, v0, v-."""
    if m.det() != 1:
        raise ValueError("adjoint requires determinant 1")
    a, b, c, d = m.a, m.b, m.c, m.d
    return Mat3((
        (a * a, -2 * (a * b), -(b * b)),
        (-(a * c), a * d + b * c, b * d),
        (-(c * c), 2 * (c * d), d * d),
    ))


class MeridianRep:
    """The meridian representation x -> [[t,0],[0,1/t]],
    y -> [[t,1],[0,1/t]] over ``ring``, Q[t]/(m) or Q[t, t^-1]: the
    elements t and 1/t of that ring and the adjoints of the two
    generator images, read off the adjoint formula of the module
    docstring with b = 0 and b = 1, so no ring product is taken."""

    __slots__ = ("ring", "t", "t_inverse", "ad_x", "ad_y")

    def __init__(self, ring: Union[QuotientRing, LaurentRing]):
        self.ring = ring
        t, t_inverse, t2, t_2 = ring.evaluate([{1: 1}, {-1: 1}, {2: 1}, {-2: 1}])
        self.t, self.t_inverse = t, t_inverse
        zero, one = ring.zero, ring.one
        self.ad_x = Mat3(((t2, zero, zero), (zero, one, zero), (zero, zero, t_2)))
        self.ad_y = Mat3(((t2, -2 * t, -one), (zero, one, t_inverse), (zero, zero, t_2)))


IntLaurent = Dict[int, int]  # {exponent: coefficient}


def _image_terms(word: Word) -> Tuple[int, IntLaurent]:
    """n and the upper-right entry b of the image [[t^n, b], [0, t^-n]]
    of ``word``.  A letter y^sign at prefix exponent sum m adds
    sign t^(2m+1) to u = t^n b, with m taken before the letter for
    sign +1 and after it for sign -1; at the end b = t^-n u."""
    n = 0
    u: IntLaurent = {}
    for gen, sign in word.letters:
        if gen == "y":
            e = 2 * n + sign  # 2m + 1 for either sign
            u[e] = u.get(e, 0) + sign
        n += sign
    return n, {e - n: c for e, c in u.items() if c}


def meridian_walk(word: Word, rep: MeridianRep) -> Mat2:
    """The image of ``word`` under the meridian representation ``rep``
    (the product of the generator images in word order): one walk over
    Z[t, t^-1], then one evaluation at t into ``rep.ring`` per entry
    (see the module docstring)."""
    n, b = _image_terms(word)
    ring = rep.ring
    t_n, b_value, t_minus_n = ring.evaluate([{n: 1}, b, {-n: 1}])
    return Mat2(t_n, b_value, ring.zero, t_minus_n)


def f_upper_entry(j: int) -> LaurentPoly:
    """Closed form of the upper-right entry of the family word image:
    -j t^3 + (5j+1) t - (5j+1) t^-1 + j t^-3."""
    if j < 1:
        raise ValueError(f"family index must be >= 1, got {j}")
    return LaurentPoly.from_terms({3: -j, 1: 5 * j + 1, -1: -(5 * j + 1), -3: j})


class AlexanderMismatch(RuntimeError):
    """The two independent Alexander computations disagree."""


def normalize_alexander(value: IntLaurent) -> Poly:
    """Canonical representative of a Laurent polynomial given as an
    ``{exponent: coefficient}`` dict: shift by a unit so the constant
    term is nonzero, clear denominators to coprime integer coefficients,
    and make the leading coefficient positive.  Idempotent."""
    terms = {e: c for e, c in value.items() if c}
    if not terms:
        raise ValueError("cannot normalize the zero polynomial")
    low = min(terms)
    return Poly([terms.get(e, 0) for e in range(low, max(terms) + 1)]).primitive()


def alexander_via_rep(fraction: TwoBridgeFraction) -> Poly:
    """Alexander polynomial from the meridian representation.  With the
    image [[t^n, b], [0, t^-n]] of w from the integer walk, the
    upper-right entry of x W - W y is (t - 1/t) b - t^n; the two sides
    of the defining relation agree exactly when t^2 is a root, so that
    difference is the polynomial evaluated at t^2, up to a unit."""
    pres = build_presentation(fraction)
    n, b = _image_terms(pres.w)
    difference: IntLaurent = {n: -1}
    for k, c in b.items():
        difference[k + 1] = difference.get(k + 1, 0) + c
        difference[k - 1] = difference.get(k - 1, 0) - c
    difference = {e: c for e, c in difference.items() if c}
    if not difference:
        raise AssertionError("degenerate relator difference")
    if any(e % 2 for e in difference):
        raise AssertionError(
            "odd exponents in the relator difference: presentation bug"
        )
    return normalize_alexander({e // 2: c for e, c in difference.items()})


def alexander_via_fox(fraction: TwoBridgeFraction) -> Poly:
    """Alexander polynomial by the classical free-derivative route,
    abelianizing the derivative of the relator with respect to x."""
    pres = build_presentation(fraction)
    terms: IntLaurent = {}
    total = 0
    for gen, sign in pres.relator:
        if gen == "x":
            if sign > 0:
                terms[total] = terms.get(total, 0) + 1
            else:
                terms[total - 1] = terms.get(total - 1, 0) - 1
        total += sign
    if not any(terms.values()):
        raise AssertionError("vanishing free derivative: presentation bug")
    return normalize_alexander(terms)


def alexander_polynomial(fraction: TwoBridgeFraction) -> Poly:
    """The Alexander polynomial of ``fraction`` by both routes, which
    must agree (else :class:`AlexanderMismatch`)."""
    delta = alexander_via_rep(fraction)
    delta_fox = alexander_via_fox(fraction)
    if delta != delta_fox:
        raise AlexanderMismatch(
            f"representation route {delta!r} disagrees with "
            f"free-derivative route {delta_fox!r}"
        )
    return delta


def burde_de_rham_assignment(
    branch: ModulusBranch, relator: Word
) -> MeridianRep:
    """The reducible non-abelian representation x -> [[t,0],[0,1/t]],
    y -> [[t,1],[0,1/t]] with t the residue class mod the branch.

    The defining relator must evaluate to the identity in the quotient
    ring; a failure means the modulus does not divide the Alexander
    polynomial evaluated at t^2 (or an upstream bug) and is a hard
    error.  t and t^2 - 1 are units on every branch, so the
    representation is defined and non-abelian (see
    :class:`ModulusBranch`).
    """
    rep = MeridianRep(QuotientRing(branch))
    if not meridian_walk(relator, rep).is_identity():
        raise ValueError(
            "relator does not map to the identity on this branch: the "
            "modulus is not a divisor of the Alexander polynomial at t^2"
        )
    return rep
