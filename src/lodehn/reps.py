"""The meridian representation, its adjoint on sl2 over Q[tau] with
tau = t^2, and two independent Alexander polynomial computations.

The meridian representation is x -> [[t,0],[0,1/t]],
y -> [[t,1],[0,1/t]].  Both generator images are upper triangular with
monomial diagonals, so the image of a prefix is [[t^n, b], [0, t^-n]].
A letter x^+-1 changes only n, and a letter y^+-1 adds the monomial
+-t^(2n+-1) to u = t^n b, so a word's image comes from one integer walk
over Z[t, t^-1] with one update per y letter.  No Fraction and no
polynomial division is built.

The adjoint acts on sl2 with the basis

    v+ = [[0,1],[0,0]],   t v0 = t [[1,0],[0,-1]],   v- = [[0,0],[1,0]],

which is the basis (v+, v0, v-) conjugated by diag(1, t, 1).  There the
adjoint of a prefix image is

    [ tau^n   -2 t u   -tau^-n u^2   ]
    [ 0        1        tau^-n u / t ]
    [ 0        0        tau^-n       ]      with u = t^n b,

and u has only odd powers of t, so every entry is a Laurent polynomial
in tau = t^2: Ad(x) = diag(tau, 1, 1/tau) and Ad(y) = [[tau, -2 tau, -1],
[0, 1, 1/tau], [0, 0, 1/tau]].  A :class:`MeridianRep` is that adjoint
over Q[tau]/(F), F a factor of the Alexander polynomial in tau, or over
Q[tau, tau^-1]; :func:`tau_terms` maps a Laurent polynomial in t into
tau.  The image itself needs t and has no place there: the identity
checks of the relator and the longitude read n and b off the one
integer walk of w (``cohomology.knot_walk``), whose relator residue
:func:`burde_de_rham_assignment` checks.

The two Alexander routes build no word.  Both read the Riley exponents
of w (``twobridge.riley_exponents``), whose even 0-based positions are
y letters and odd ones x letters: the representation route walks the y
exponents into the image of w, the Fox route the x exponents into
dw/dx.  Each stays in integer ``{exponent: coefficient}`` dicts up to
the shared normalizer, and ``alexander_polynomial`` checks Delta(1) as
the sum of the normalized integer coefficients.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple, Union

from .polynomials import LaurentPoly, Poly
from .quotient import AlgebraicElement, LaurentRing, ModulusBranch, QuotientRing
from .twobridge import TwoBridgeFraction, riley_exponents


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


class MeridianRep:
    """The adjoint of the meridian representation in the basis
    (v+, t v0, v-) over ``ring``, Q[tau]/(F) or Q[tau, tau^-1]: the
    elements tau and 1/tau of that ring and the adjoints
    Ad(x) = diag(tau, 1, 1/tau) and Ad(y) = [[tau, -2 tau, -1],
    [0, 1, 1/tau], [0, 0, 1/tau]] of the two generator images (see the
    module docstring); no ring product is taken."""

    __slots__ = ("ring", "tau", "tau_inverse", "ad_x", "ad_y")

    def __init__(self, ring: Union[QuotientRing, LaurentRing]):
        self.ring = ring
        tau, tau_inverse, minus_two_tau = ring.evaluate([{1: 1}, {-1: 1}, {1: -2}])
        self.tau, self.tau_inverse = tau, tau_inverse
        zero, one = ring.zero, ring.one
        self.ad_x = Mat3(((tau, zero, zero), (zero, one, zero), (zero, zero, tau_inverse)))
        self.ad_y = Mat3((
            (tau, minus_two_tau, -one),
            (zero, one, tau_inverse),
            (zero, zero, tau_inverse),
        ))


IntLaurent = Dict[int, int]  # {exponent: coefficient}


def tau_terms(terms: IntLaurent, shift: int) -> IntLaurent:
    """t^shift times the Laurent polynomial ``terms`` in t, as a Laurent
    polynomial in tau = t^2: every exponent halved.  An odd exponent
    means the product is not a polynomial in tau and raises
    AssertionError."""
    out = {}
    for e, c in terms.items():
        e += shift
        if e & 1:
            raise AssertionError(f"odd exponent t^{e}: not a Laurent polynomial in tau")
        out[e >> 1] = c
    return out


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
    coeffs = [terms.get(e, 0) for e in range(min(terms), max(terms) + 1)]
    den = lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return Poly([c // g for c in ints])


def alexander_via_rep(fraction: TwoBridgeFraction) -> Poly:
    """Alexander polynomial from the meridian representation.  With the
    image [[t^n, b], [0, t^-n]] of w, the upper-right entry of
    x W - W y is (t - 1/t) b - t^n; the two sides of the defining
    relation agree exactly when t^2 is a root, so that difference is the
    polynomial evaluated at t^2, up to a unit.

    The image of w is read off the Riley exponents with no word built:
    the y letters of w are its even 0-based positions, and a y exponent
    e at prefix exponent sum m adds e t^(2m+e) to u = t^n b."""
    exps = riley_exponents(fraction)
    m = 0
    u: IntLaurent = {}
    for ye, xe in zip(exps[0::2], exps[1::2]):
        e = 2 * m + ye
        u[e] = u.get(e, 0) + ye
        m += ye + xe
    # m is now n; b = t^-n u, and (t - 1/t) b = t^-n (t u - u / t).
    difference: IntLaurent = {m: -1}
    for e, c in u.items():
        if c:
            k = e - m
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
    """Alexander polynomial by the classical free-derivative route: the
    derivative of the relator x w y^-1 w^-1 with respect to x,
    abelianized, which is 1 + (t - 1) dw/dx.

    dw/dx is read off the Riley exponents with no word built: the x
    letters of w are its odd 0-based positions, and at prefix exponent
    sum m an x letter adds t^m, an x^-1 letter -t^(m-1)."""
    exps = riley_exponents(fraction)
    m = 0
    derivative: IntLaurent = {}
    for ye, xe in zip(exps[0::2], exps[1::2]):
        m += ye
        e = m if xe > 0 else m - 1
        derivative[e] = derivative.get(e, 0) + xe
        m += xe
    terms: IntLaurent = {0: 1}
    for e, c in derivative.items():
        terms[e + 1] = terms.get(e + 1, 0) + c
        terms[e] = terms.get(e, 0) - c
    if not any(terms.values()):
        raise AssertionError("vanishing free derivative: presentation bug")
    return normalize_alexander(terms)


def alexander_polynomial(fraction: TwoBridgeFraction) -> Poly:
    """The Alexander polynomial of ``fraction`` by both routes, which
    must agree (else :class:`AlexanderMismatch`).  A knot's has
    Delta(1) = +-1 (else AssertionError), so tau = 1 is never a root and
    no factor of it vanishes there."""
    delta = alexander_via_rep(fraction)
    delta_fox = alexander_via_fox(fraction)
    if delta != delta_fox:
        raise AlexanderMismatch(
            f"representation route {delta!r} disagrees with "
            f"free-derivative route {delta_fox!r}"
        )
    value = sum([c.numerator for c in delta.coeffs])  # integer coefficients
    if abs(value) != 1:
        raise AssertionError(
            f"Alexander polynomial {delta!r} has value {value} at 1, not +-1"
        )
    return delta


def burde_de_rham_assignment(
    branch: ModulusBranch, terms: Sequence[IntLaurent]
) -> Tuple[MeridianRep, List[AlgebraicElement]]:
    """The adjoint of the reducible non-abelian representation
    x -> [[t,0],[0,1/t]], y -> [[t,1],[0,1/t]] over Q[tau]/(F), F the
    branch modulus and tau = t^2, with the integer Laurent polynomials
    ``terms`` in tau mapped into that ring by one ``evaluate``; the
    residues of all but the first are returned with it.

    The first is the relator residue (tau - 1) u/t - tau^n of the image
    [[t^n, b], [0, t^-n]] of w, u = t^n b.  The relator x w y^-1 w^-1
    maps to [[1, t^(n+1) r], [0, 1]] with r = (t - 1/t) b - t^n, the
    obstruction that :func:`alexander_via_rep` normalizes, and t^n r is
    that residue.  It must vanish mod F, else ValueError: a failure
    means the modulus does not divide the Alexander polynomial (or an
    upstream bug) and is a hard error.  tau and tau - 1 are units on
    every branch, so the representation is defined and non-abelian (see
    :class:`ModulusBranch`).
    """
    rep = MeridianRep(QuotientRing(branch))
    residue, *values = rep.ring.evaluate(terms)
    if residue:
        raise ValueError(
            "relator does not map to the identity on this branch: the "
            "modulus does not divide the Alexander polynomial"
        )
    return rep, values
