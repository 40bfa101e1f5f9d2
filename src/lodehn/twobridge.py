"""Two-bridge fractions and Riley-style knot group presentations.

A two-bridge knot is classified by a fraction p/q with p odd,
0 < q < p and gcd(p, q) = 1.  Its group has the one-relator
presentation ``<x, y | x w = w y>`` where

    w = y^e1 x^e2 ... y^e(p-2) x^e(p-1),   e_i = (-1)^floor(i*q/p),

and the homological longitude is ``x^(-2e) w v`` with ``v`` equal to
``w`` spelled backwards and ``2e`` the total exponent sum of ``w v``.
Since e_i = e_(p-i), ``v`` is also ``w`` with x and y exchanged, so one
walk of ``w`` reads both (``cohomology.knot_walk``).
The knots with continued fraction [1, 1, 2, 2, 2j] have fraction
(24j+5)/(14j+3); for that family the meridian correction is empty and
``w`` has the closed form ``(y x^-1 y^-1 x) u^j`` for a fixed 24-letter
word ``u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence, Tuple

from .words import _LETTERS, Word


@dataclass(frozen=True)
class ContinuedFraction:
    """[a1, ..., an] meaning a1 + 1/(a2 + 1/(... + 1/an))."""

    terms: Tuple[int, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("continued fraction needs at least one term")
        if any(a == 0 for a in self.terms):
            raise ValueError("continued fraction terms must be nonzero")

    def value(self) -> Fraction:
        acc = Fraction(self.terms[-1])
        for a in reversed(self.terms[:-1]):
            if acc == 0:
                raise ValueError("continued fraction hits a zero denominator")
            acc = a + 1 / acc
        return acc


@dataclass(frozen=True)
class TwoBridgeFraction:
    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0 or self.p % 2 == 0:
            even = self.p % 2 == 0
            link = " (p even is a two-bridge link, not a knot)" if even else ""
            raise ValueError(f"p must be a positive odd integer, got {self.p}{link}")
        if not 0 < self.q < self.p:
            raise ValueError(f"q must satisfy 0 < q < p, got {self.p}/{self.q}")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got {self.p}, {self.q}")

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def cf_to_fraction(terms: Sequence[int]) -> TwoBridgeFraction:
    """Evaluate a continued fraction to its classifying knot fraction."""
    value = ContinuedFraction(tuple(terms)).value()
    p, q = value.numerator, value.denominator
    if p % 2 == 0:
        raise ValueError(f"{p}/{q} has even numerator: two-bridge link, not knot")
    return TwoBridgeFraction(p, q)


def riley_exponents(fraction: TwoBridgeFraction) -> Tuple[int, ...]:
    """Signs e_i = (-1)^floor(i*q/p) for i = 1..p-1, exact integers.

    The floor formula presents the knot group only for odd q; an even q
    is replaced by the odd representative q - p of the same knot, which
    flips the sign of every even-indexed exponent.  The symmetry
    e_i = e_{p-i} holds exactly because the effective q is odd.
    """
    p, q = fraction.p, fraction.q
    if q % 2 == 0:
        q -= p
    return tuple([-1 if ((i * q) // p) % 2 else 1 for i in range(1, p)])


@dataclass(frozen=True)
class KnotPresentation:
    fraction: TwoBridgeFraction
    w: Word
    v: Word
    relator: Word
    longitude: Word
    meridian: Word


# The letters g^e of each generator, indexed by the exponent e = +-1.
_X_LETTERS = {e: _LETTERS["x", e] for e in (1, -1)}
_Y_LETTERS = {e: _LETTERS["y", e] for e in (1, -1)}


def build_presentation(fraction: TwoBridgeFraction) -> KnotPresentation:
    """Assemble the Riley presentation and the homological longitude.

    ``w`` is spelled from the Riley exponents: the even positions are
    y letters and the odd ones x letters, so each half is read through
    a two-entry letter table.  ``v`` is ``w`` spelled backwards, so the
    total exponent sum of ``w v`` is twice that of ``w``, and the
    longitude correction ``x^(-2e)`` makes the longitude
    null-homologous (both generators map to the meridian class, so the
    total exponent sum vanishes).  For the [1,1,2,2,2j] family the
    exponent signs cancel and the correction is empty.

    The words are what the cohomology and the report read; the
    Alexander routes read the Riley exponents themselves, so
    ``certify`` builds one presentation and ``alexander`` none.
    """
    exps = riley_exponents(fraction)
    # Alternating generators never cancel, so w is spelled reduced, from
    # the shared letter tuples that word products compare by identity.
    letters = list(exps)
    letters[0::2] = map(_Y_LETTERS.__getitem__, exps[0::2])
    letters[1::2] = map(_X_LETTERS.__getitem__, exps[1::2])
    w = Word._of(tuple(letters))
    if len(w) != fraction.p - 1:
        raise AssertionError("alternating word unexpectedly reduced")
    v = w.spelled_backwards()
    x, y = Word.generator("x"), Word.generator("y")
    relator = x * w * y.inverse() * w.inverse()
    total = 2 * sum(exps)
    correction = Word.generator("x", -1 if total > 0 else 1) ** abs(total)
    longitude = correction * w * v
    if longitude.total_exponent_sum() != 0:
        raise AssertionError("longitude failed the null-homology check")
    return KnotPresentation(fraction, w, v, relator, longitude, meridian=x)


# Closed forms for the [1,1,2,2,2j] family.

FAMILY_PREFIX = Word.parse("yx^-1y^-1x")
FAMILY_SUFFIX = Word.parse("xy^-1x^-1y")
FAMILY_U = Word.parse(
    "yx^-1yx y^-1x^-1yx^-1 y^-1xyx^-1 y^-1xy^-1x^-1 yxy^-1x yx^-1y^-1x"
)
FAMILY_S = FAMILY_U.spelled_backwards()


def family_fraction(j: int) -> TwoBridgeFraction:
    _require_positive(j)
    return TwoBridgeFraction(24 * j + 5, 14 * j + 3)


def family_word(j: int) -> Word:
    """The closed-form w = (y x^-1 y^-1 x) u^j of the family."""
    _require_positive(j)
    return FAMILY_PREFIX * FAMILY_U**j


def family_v(j: int) -> Word:
    """The closed-form v = s^j (x y^-1 x^-1 y), s being u backwards."""
    _require_positive(j)
    return FAMILY_S**j * FAMILY_SUFFIX


def parity_period_holds(j: int) -> bool:
    """Check the period-24 parity congruence behind the closed word form.

    With k(i) = floor(i*(14j+3)/(24j+5)), verifies
    k(i) = k(i + 24n) (mod 2) for all 5 <= i <= 28 and
    5 <= i + 24n <= 24j + 4, by exhaustive integer loop.
    """
    _require_positive(j)
    p, q = 24 * j + 5, 14 * j + 3

    def k(i: int) -> int:
        return (i * q) // p

    for i in range(5, 29):
        base = k(i) % 2
        n = 1
        while i + 24 * n <= 24 * j + 4:
            if k(i + 24 * n) % 2 != base:
                return False
            n += 1
    return True


def _require_positive(j: int) -> None:
    if j < 1:
        raise ValueError(f"family index must be >= 1, got {j}")
